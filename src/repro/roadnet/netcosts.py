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


def neterp_costs(
    g: RoadNetwork, q_nodes: np.ndarray, d_nodes: np.ndarray, ref: int = 0
) -> WedCosts:
    sub = g.dist_matrix(q_nodes, d_nodes)
    ref_d = g.dijkstra(ref)
    return WedCosts(sub, ref_d[np.asarray(q_nodes, int)], ref_d[np.asarray(d_nodes, int)])


def netedr_costs(g: RoadNetwork, q_nodes: np.ndarray, d_nodes: np.ndarray) -> WedCosts:
    q = np.asarray(q_nodes, int)
    d = np.asarray(d_nodes, int)
    sub = (q[:, None] != d[None, :]).astype(np.float64)
    return WedCosts(sub, np.ones(len(q)), np.ones(len(d)))


def surs_costs(g: RoadNetwork, q_edges: np.ndarray, d_edges: np.ndarray) -> WedCosts:
    w = g.edge_weights()
    q = np.asarray(q_edges, int)
    d = np.asarray(d_edges, int)
    sub = w[q][:, None] + w[d][None, :]
    sub[q[:, None] == d[None, :]] = 0.0
    return WedCosts(sub, w[q], w[d])
