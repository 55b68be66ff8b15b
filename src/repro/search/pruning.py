"""Pruning substrates: GBP and KPF (paper Appendix B).

GBP is one numpy kernel for both backends: :func:`gbp_index` indexes the
query points' grid cells and :func:`gbp_hits` looks data points up in it,
over all data on the driver or per Arrow batch in Spark tasks. KPF is
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

from repro.search.api import build_pair_costs, kernel_kind, search_pair
from repro.search.distributed import map_in_pandas, pairs_frame

# --------------------------------------------------------------------- GBP

_NEIGHBOURS = np.array([(ox, oy) for ox in (-1, 0, 1) for oy in (-1, 0, 1)])


def grid_cells(pts: np.ndarray, eps: float) -> np.ndarray:
    """Grid cell (cx, cy) of each point, side length ε (App. B)."""
    return np.floor(np.asarray(pts, dtype=np.float64) / eps).astype(np.int64)


def _cell_keys(cells: np.ndarray) -> np.ndarray:
    """Each (cx, cy) row as one int64-pair key, ordered field by field."""
    return np.ascontiguousarray(cells, dtype=np.int64).view("i8,i8")[:, 0]


def gbp_index(query_points: pd.DataFrame, eps: float) -> tuple[np.ndarray, ...]:
    """Grid inverted index of ``query_points`` (query_id, seq, x, y) at cell
    side ε (App. B): the sorted keys of each point's 3×3 neighbour cells,
    and per key the point's query_id and seq."""
    cells = grid_cells(query_points[["x", "y"]], eps)[:, None] + _NEIGHBOURS
    keys = _cell_keys(cells.reshape(-1, 2))
    order = np.argsort(keys)
    point = order // len(_NEIGHBOURS)
    return keys[order], *(query_points[c].to_numpy()[point] for c in ("query_id", "seq"))


def gbp_hits(index: tuple[np.ndarray, ...], traj_ids, points, eps: float) -> pd.DataFrame:
    """Distinct ``(query_id, traj_id, seq)`` hits: point ``seq`` of query
    ``query_id`` has a point of ``traj_id`` in its 3×3 cell neighbourhood
    (Eq. 26). Each distinct (traj_id, cell) pair is looked up once."""
    keys, qid, seq = index
    tc = np.unique(np.column_stack([traj_ids, grid_cells(points, eps)]), axis=0)
    first = np.searchsorted(keys, _cell_keys(tc[:, 1:]), "left")
    n = np.searchsorted(keys, _cell_keys(tc[:, 1:]), "right") - first
    # The n[i] index entries of key i are first[i], first[i] + 1, …
    rows = np.repeat(first - np.cumsum(n) + n, n) + np.arange(n.sum())
    hits = {"query_id": qid[rows], "traj_id": np.repeat(tc[:, 0], n), "seq": seq[rows]}
    return pd.DataFrame(hits).drop_duplicates(ignore_index=True)


def _gbp_survivors(hits: pd.DataFrame, query_points: pd.DataFrame, mu: float) -> pd.DataFrame:
    """Pairs whose ``close``, their number of distinct hits, is ≥ μ·m (Eq. 27)."""
    close = hits.drop_duplicates().groupby(["query_id", "traj_id"]).size().reset_index()
    m = close["query_id"].map(query_points.groupby("query_id").size())
    return close.loc[close[0] >= mu * m, ["query_id", "traj_id"]]


def _points_frame(trajs: list[np.ndarray], id_col: str) -> pd.DataFrame:
    """``(id_col, seq, x, y)`` of every point, the rows ``explode_points`` gives."""
    xy = np.concatenate([np.empty((0, 2)), *trajs])
    ids = np.repeat(np.arange(len(trajs)), [len(t) for t in trajs])
    seq = np.arange(len(ids)) - np.searchsorted(ids, ids)
    return pd.DataFrame({id_col: ids, "seq": seq, "x": xy[:, 0], "y": xy[:, 1]})


def gbp_candidates_local(
    queries: list[np.ndarray], data: list[np.ndarray], eps: float, mu: float
) -> set[tuple[int, int]]:
    """Surviving (query_id, traj_id) pairs: ``close ≥ μ·m``."""
    qpts, dpts = _points_frame(queries, "query_id"), _points_frame(data, "traj_id")
    hits = gbp_hits(gbp_index(qpts, eps), dpts["traj_id"], dpts[["x", "y"]], eps)
    return set(_gbp_survivors(hits, qpts, mu).itertuples(index=False, name=None))


def gbp_candidates_df(
    spark: SparkSession,
    query_points: DataFrame,
    data_points: DataFrame,
    eps: float,
    mu: float,
) -> DataFrame:
    """GBP on Spark → a local ``(query_id long, traj_id long)`` frame.

    ``query_points`` is (query_id, seq, x, y), ``data_points`` (traj_id, seq,
    x, y). One trajectory may span Arrow batches, so the driver drops
    duplicate hits from the tasks before it applies ``close ≥ μ·m``.
    """
    qpts = query_points.select("query_id", "seq", "x", "y").toPandas()
    hits = map_in_pandas(
        data_points.select("traj_id", "x", "y"),
        lambda pdf, index: gbp_hits(index, pdf["traj_id"], pdf[["x", "y"]], eps),
        "query_id long, traj_id long, seq long",
        gbp_index(qpts, eps),
    )
    kept = _gbp_survivors(hits.toPandas(), qpts, mu)
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
