"""Pruning substrates: GBP and KPF (paper Appendix B).

GBP is a pure Catalyst dataflow with a numpy twin used by the sequential
pipeline and the DuckDB oracle tests: the small query-cell table is
broadcast as the grid inverted index, so the data points are joined to it
where they lie and only the per-pair ``close`` counts are shuffled. KPF is
computed on the driver with numpy: per-pair lower bounds (Theorem B.1)
that price the key points with the search's own cost model
(``search.api.build_pair_costs``), applied by ``kpf_survivors``, a
two-phase form of the paper's sequential best-so-far loop that both
Table 3 backends share.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.search.api import build_pair_costs, kernel_kind, search_pair

# --------------------------------------------------------------------- GBP


def grid_cells(pts: np.ndarray, eps: float) -> np.ndarray:
    """Grid cell (cx, cy) of each point, side length ε (App. B)."""
    return np.floor(np.asarray(pts, dtype=np.float64) / eps).astype(np.int64)


def gbp_close_count(q: np.ndarray, d: np.ndarray, eps: float) -> int:
    """``close(τq, τd)``: #query points lying in the 3×3 neighbourhood of
    some data-point cell (Eq. 26–27), numpy twin of the Spark dataflow."""
    dcells = {tuple(c) for c in grid_cells(d, eps)}
    qcells = grid_cells(q, eps)
    count = 0
    for cx, cy in qcells:
        if any((cx + ox, cy + oy) in dcells for ox in (-1, 0, 1) for oy in (-1, 0, 1)):
            count += 1
    return count


def gbp_candidates_local(
    queries: list[np.ndarray], data: list[np.ndarray], eps: float, mu: float
) -> set[tuple[int, int]]:
    """Surviving (query_id, traj_id) pairs: ``close ≥ μ·m``."""
    out = set()
    for qid, q in enumerate(queries):
        for tid, d in enumerate(data):
            if gbp_close_count(q, d, eps) >= mu * len(q):
                out.add((qid, tid))
    return out


def gbp_candidates_df(
    spark: SparkSession,
    query_points: DataFrame,
    data_points: DataFrame,
    eps: float,
    mu: float,
) -> DataFrame:
    """GBP as a Catalyst dataflow → ``(query_id, traj_id)`` survivors.

    ``query_points``: (query_id, seq, x, y); ``data_points``:
    (traj_id, seq, x, y). Query cells are expanded to their 3×3
    neighbourhood (explode of the offset array) — already distinct, as each
    (query, seq) has one cell — and broadcast as the inverted grid index
    that every data point's cell equality-joins in place, with no shuffle;
    ``close`` is ``count(distinct query seq)`` per pair, filtered at
    ``μ·m`` against the broadcast query lengths.
    """
    offs = F.array(
        *[
            F.struct(F.lit(ox).alias("ox"), F.lit(oy).alias("oy"))
            for ox in (-1, 0, 1)
            for oy in (-1, 0, 1)
        ]
    )
    qcells = (
        query_points.select(
            "query_id",
            "seq",
            F.floor(F.col("x") / eps).alias("cx"),
            F.floor(F.col("y") / eps).alias("cy"),
        )
        .withColumn("off", F.explode(offs))
        .select(
            "query_id",
            "seq",
            (F.col("cx") + F.col("off.ox")).alias("cx"),
            (F.col("cy") + F.col("off.oy")).alias("cy"),
        )
    )
    dcells = data_points.select(
        "traj_id",
        F.floor(F.col("x") / eps).alias("cx"),
        F.floor(F.col("y") / eps).alias("cy"),
    )
    close = (
        dcells.join(F.broadcast(qcells), ["cx", "cy"])
        .groupBy("query_id", "traj_id")
        .agg(F.countDistinct("seq").alias("close"))
    )
    qlen = query_points.groupBy("query_id").agg(F.count("*").alias("m"))
    return (
        close.join(F.broadcast(qlen), "query_id")
        .filter(F.col("close") >= mu * F.col("m"))
        .select("query_id", "traj_id")
    )


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
