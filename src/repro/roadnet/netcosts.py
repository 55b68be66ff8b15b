"""Road-network cost models: NetERP, NetEDR, SURS (paper Appendix D).

All three are WED special cases (paper §5.3 / App. D), so they plug into
``cma("wed", …)`` and the full DP unchanged — only the cost arrays differ.
:data:`repro.search.api.DISTANCES` routes each name to its model here:

- **NetERP**: like ERP but with network shortest-path distances; deleting /
  inserting a point costs its network distance to a reference node.
- **NetEDR**: unit insert/delete/replace costs; replacement is free iff the
  two nodes coincide.
- **SURS**: trajectory points are *edges*; insert/delete costs the edge
  weight, replacing edge a with edge b costs w(a) + w(b) (0 if a == b).
"""
from __future__ import annotations

import numpy as np

from repro.core.costs import WedCosts
from repro.roadnet.graph import RoadNetwork


def _ids(ids, count: int, ndim: int = 1) -> np.ndarray:
    """``ids`` as ints, checked to be ``ndim``-D integers in ``[0, count)``:
    numpy would truncate 0.5 to id 0 and wrap -1 to the last id."""
    a = np.asarray(ids, dtype=float)
    i = a.astype(int)
    if a.ndim != ndim or not np.all((i == a) & (0 <= i) & (i < count)):
        raise ValueError(f"ids must be {ndim}-D integers in [0, {count})")
    return i


def neterp_costs(
    g: RoadNetwork, q_nodes: np.ndarray, d_nodes: np.ndarray, ref: int = 0
) -> WedCosts:
    q, d = _ids(q_nodes, g.n_nodes), _ids(d_nodes, g.n_nodes)
    ref_d = g.dijkstra(int(_ids(ref, g.n_nodes, ndim=0)))
    return WedCosts(g.dist_matrix(q, d), ref_d[q], ref_d[d])


def netedr_costs(g: RoadNetwork, q_nodes: np.ndarray, d_nodes: np.ndarray) -> WedCosts:
    q, d = _ids(q_nodes, g.n_nodes), _ids(d_nodes, g.n_nodes)
    sub = (q[:, None] != d[None, :]).astype(np.float64)
    return WedCosts(sub, np.ones(len(q)), np.ones(len(d)))


def surs_costs(g: RoadNetwork, q_edges: np.ndarray, d_edges: np.ndarray) -> WedCosts:
    w = g.edge_weights()
    q, d = _ids(q_edges, len(w)), _ids(d_edges, len(w))
    sub = w[q][:, None] + w[d][None, :]
    sub[q[:, None] == d[None, :]] = 0.0
    return WedCosts(sub, w[q], w[d])
