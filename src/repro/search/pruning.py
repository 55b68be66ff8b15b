"""Pruning substrates: GBP, KPF (paper Appendix B) and an OSF-like
comparison pruner (Appendix C; see DESIGN.md §4 for the substitution).

GBP is a pure Catalyst dataflow with a numpy twin used by the sequential
pipeline and the DuckDB oracle tests: the small query-cell table is
broadcast as the grid inverted index, so the data points are joined to it
where they lie and only the per-pair ``close`` counts are shuffled. KPF is
computed on the driver with numpy: per-pair lower-bound estimates
(Theorem B.1) applied in the paper's sequential best-so-far loop.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.costs import euclid_matrix

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
    """Uniformly sampled key-point indices at rate ``r`` (App. B).

    Stride-based (every ``round(1/r)``-th point) so the numpy path and the
    Spark dataflow (``seq % stride == 0``) select identical key points.
    """
    stride = max(1, int(round(1.0 / r)))
    return np.arange(0, m, stride)


def kpf_bound(
    q: np.ndarray,
    d: np.ndarray,
    distance: str,
    *,
    r: float = 0.5,
    eps: float = 0.005,
    ref: np.ndarray | None = None,
) -> float:
    """Estimated lower bound of ``min_j C_{m,j}`` (Theorem B.1 + Eq. 28).

    Sum-type distances (WED family, DTW) scale the sampled sum by 1/r;
    FD is a max-type distance, so the bound is the max over key points
    (still a valid lower bound, no scaling).
    """
    idx = key_point_indices(len(q), r)
    sub = euclid_matrix(q[idx], d)
    if distance == "EDR":
        per_point = (sub >= eps).all(axis=1).astype(np.float64)  # min(1, min sub)
    elif distance == "ERP":
        ref = np.zeros(q.shape[1]) if ref is None else np.asarray(ref)
        del_cost = np.linalg.norm(q[idx] - ref, axis=1)
        per_point = np.minimum(del_cost, sub.min(axis=1))
    else:  # DTW / FD / generic: every query point pays at least min_j sub
        per_point = sub.min(axis=1)
    if distance == "FD":
        return float(per_point.max())
    return float(per_point.sum() * len(q) / len(idx))


def kpf_sequential_filter(
    bounded_pairs: list[tuple[float, int, int]],
    search_fn,
) -> tuple[dict[int, tuple[float, int, int, int]], int]:
    """The paper's Algorithm 3 inner loop, per query.

    ``bounded_pairs``: (bound, query_id, traj_id) — processed in ascending
    bound order; a pair is searched only if its bound beats the query's
    current best. Returns (best per query, #searches actually run).
    """
    best: dict[int, tuple[float, int, int, int]] = {}
    searched = 0
    for bound, qid, tid in sorted(bounded_pairs):
        cur = best.get(qid)
        if cur is not None and bound >= cur[0]:
            continue
        searched += 1
        dist, s, e = search_fn(qid, tid)
        if cur is None or dist < cur[0]:
            best[qid] = (dist, tid, s, e)
    return best, searched


# --------------------------------------------------------------- OSF-like


def osf_bound(
    q: np.ndarray,
    d: np.ndarray,
    distance: str,
    *,
    eps: float = 0.005,
    ref: np.ndarray | None = None,
) -> float:
    """Bounding-envelope lower bound standing in for OSF (DESIGN.md §4):
    each query point pays at least its distance to τd's bounding box
    (capped by the deletion cost where the distance function has one)."""
    lo, hi = d.min(axis=0), d.max(axis=0)
    gap = np.maximum(np.maximum(lo - q, q - hi), 0.0)
    per_point = np.linalg.norm(gap, axis=1)
    if distance == "EDR":
        # sub ∈ {0,1}: only points provably farther than ε from every data
        # point (bbox gap ≥ ε) must pay; del would also cost 1.
        per_point = (per_point >= eps).astype(np.float64)
    elif distance == "ERP":
        ref = np.zeros(q.shape[1]) if ref is None else np.asarray(ref)
        per_point = np.minimum(per_point, np.linalg.norm(q - ref, axis=1))
    if distance == "FD":
        return float(per_point.max())
    return float(per_point.sum())
