"""Pruning substrates: GBP and KPF (paper Appendix B).

GBP is one driver-side pandas join for both backends (:func:`_gbp`), over
point frames built from the trajectories or collected from Spark. KPF is
computed on the driver with numpy: per-pair lower bounds (Theorem B.1)
that price the key points with the search's own cost model
(``search.api.build_pair_costs``), applied by ``kpf_survivors``, a
two-phase form of the paper's sequential best-so-far loop that both
Table 3 backends share.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.search.api import build_pair_costs, check_finite, kernel_kind, search_pair
from repro.search.distributed import pairs_frame

# --------------------------------------------------------------------- GBP

_NEIGHBOURS = np.array([(ox, oy) for ox in (-1, 0, 1) for oy in (-1, 0, 1)])


def grid_cells(pts: np.ndarray, eps: float) -> np.ndarray:
    """Grid cell (cx, cy) of each point, side length ε (App. B)."""
    return np.floor(np.asarray(pts, dtype=np.float64) / eps).astype(np.int64)


def _gbp(
    query_points: pd.DataFrame, data_points: pd.DataFrame, eps: float, mu: float
) -> pd.DataFrame:
    """GBP's surviving ``(query_id, traj_id)`` pairs of the point frames
    ``(query_id, seq, x, y)`` and ``(traj_id, x, y)``: ``close ≥ μ·m``,
    where ``close`` counts the query points with a data point in their 3×3
    cell neighbourhood (Eq. 26–27). Each query point's nine cells are
    joined to the data's distinct (traj_id, cell) pairs."""
    for name, pts in (("τq", query_points), ("τd", data_points)):
        if len(pts):  # no rows: no trajectories, not an empty one
            check_finite(name, pts[["x", "y"]])
    cells = (grid_cells(query_points[["x", "y"]], eps)[:, None] + _NEIGHBOURS).reshape(-1, 2)
    rows = np.arange(len(query_points)).repeat(len(_NEIGHBOURS))
    near = query_points[["query_id", "seq"]].iloc[rows]
    near = near.assign(cx=cells[:, 0], cy=cells[:, 1])
    occupied = pd.DataFrame(grid_cells(data_points[["x", "y"]], eps), columns=["cx", "cy"])
    occupied["traj_id"] = data_points["traj_id"].to_numpy()
    hits = near.merge(occupied.drop_duplicates(), on=["cx", "cy"])
    m = query_points.groupby("query_id").size()
    # Every pair is scored, so a pair with no close point survives μ = 0.
    pairs = pd.MultiIndex.from_product(
        [m.index, occupied["traj_id"].unique()], names=["query_id", "traj_id"]
    )
    close = hits.groupby(["query_id", "traj_id"])["seq"].nunique()
    close = close.reindex(pairs, fill_value=0).reset_index()
    return close.loc[close["seq"] >= mu * close["query_id"].map(m), ["query_id", "traj_id"]]


def _points_frame(trajs: list[np.ndarray], id_col: str) -> pd.DataFrame:
    """``(id_col, seq, x, y)`` of every point, the rows ``explode_points`` gives."""
    xy = np.concatenate([np.empty((0, 2)), *trajs])
    ids = np.repeat(np.arange(len(trajs)), [len(t) for t in trajs])
    seq = np.arange(len(ids)) - np.searchsorted(ids, ids)
    return pd.DataFrame({id_col: ids, "seq": seq, "x": xy[:, 0], "y": xy[:, 1]})


def gbp_candidates_local(
    queries: list[np.ndarray], data: list[np.ndarray], eps: float, mu: float
) -> set[tuple[int, int]]:
    """Surviving (query_id, traj_id) pairs: ``close ≥ μ·m``. Rejects an
    empty or non-finite trajectory (``check_finite``): an empty one would
    get no rows in its point frame, and so drop out unscored."""
    for name, trajs in (("τq", queries), ("τd", data)):
        for t in trajs:
            check_finite(name, t)
    qpts, dpts = _points_frame(queries, "query_id"), _points_frame(data, "traj_id")
    return set(_gbp(qpts, dpts, eps, mu).itertuples(index=False, name=None))


def gbp_candidates_df(
    spark: SparkSession,
    query_points: DataFrame,
    data_points: DataFrame,
    eps: float,
    mu: float,
) -> DataFrame:
    """GBP of Spark point frames → a local ``(query_id long, traj_id long)``
    frame. ``query_points`` is (query_id, seq, x, y), ``data_points``
    (traj_id, seq, x, y); both are collected, and the driver runs the same
    :func:`_gbp` as :func:`gbp_candidates_local`."""
    kept = _gbp(
        query_points.select("query_id", "seq", "x", "y").toPandas(),
        data_points.select("traj_id", "x", "y").toPandas(),
        eps,
        mu,
    )
    return pairs_frame(spark, kept)


# --------------------------------------------------------------------- KPF


def key_point_indices(m: int, r: float) -> np.ndarray:
    """Uniformly sampled key-point indices at rate ``r`` (App. B): every
    ``round(1/r)``-th point, starting at the first."""
    stride = max(1, int(round(1.0 / r)))
    return np.arange(0, m, stride)


def kpf_bound(q: np.ndarray, d: np.ndarray, distance: str, *, r: float, **params) -> float:
    """Lower bound of ``min_j C_{m,j}`` (Theorem B.1) from the key points.

    Each key point is priced by the search's own cost model (``params`` as
    for ``build_pair_costs``): ``min(del, min_j sub)`` for the WED family,
    else ``min_j sub``. Every query point costs at least its price in any
    alignment, so the max (FD) or the sum (the other kinds) over any subset
    of points bounds the optimum: the bound holds at every rate ``r`` and is
    tightest at ``r = 1``.
    """
    kind = kernel_kind(distance)
    costs = build_pair_costs(distance, q[key_point_indices(len(q), r)], d, **params)
    if kind == "wed":
        per_point = np.minimum(costs.delete, costs.sub.min(axis=1))
    else:
        per_point = costs.min(axis=1)
    return float(per_point.max() if kind == "fd" else per_point.sum())


def kpf_survivors(
    queries: list[np.ndarray],
    data: list[np.ndarray],
    pairs: set[tuple[int, int]],
    distance: str,
    params: dict,
    r: float,
) -> set[tuple[int, int]]:
    """The (query_id, traj_id) pairs KPF keeps for the search.

    A two-phase form of the paper's Algorithm 3 loop: bound every pair,
    seed each query's best-so-far with a CMA probe of its minimum-bound
    pair, and keep the pairs whose bound does not exceed it. ``params``
    are the distance parameters (``eps``, ``ref``, ``graph``) the search
    uses; the bounds and the probes both receive them.
    """
    bounds = {
        (qid, tid): kpf_bound(queries[qid], data[tid], distance, r=r, **params)
        for qid, tid in pairs
    }
    best: dict[int, float] = {}
    for qid in {q for q, _ in pairs}:
        _, probe_tid = min((b, t) for (q, t), b in bounds.items() if q == qid)
        best[qid] = search_pair("CMA", distance, queries[qid], data[probe_tid], **params)[0]
    return {(qid, tid) for (qid, tid), b in bounds.items() if b <= best[qid] + 1e-12}
