"""Table 3 harness — efficiency (wall-clock) of the full search pipeline.

Pipeline per (dataset, distance), mirroring the paper's Algorithm 3:

1. **GBP** (shared, Catalyst dataflow): grid inverted index → surviving
   (query, trajectory) pairs.
2. **KPF** (shared): lower-bound estimates for the survivors; a quick CMA
   probe of each query's minimum-bound trajectory seeds the best-so-far,
   and pairs whose bound exceeds it are dropped (two-phase adaptation of
   the paper's sequential loop — see DESIGN.md §5).
3. **Search** (timed per algorithm): the per-pair kernel over surviving
   pairs via ``mapInPandas``, then the top-1-per-query window query.

ExactS cells whose *projected* cost (sampled per-pair time × pairs ÷
parallelism) exceeds ``overtime_s`` are reported as ``overtime`` — the
paper reports exactly that for ExactS on Beijing.
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.baselines.rls import RLSPolicy
from repro.eval.datasets import dataset_label, load_profile
from repro.eval.table2 import city_params, train_policies
from repro.search.api import search_pair, supports
from repro.search.distributed import pairwise_search_df, topk_df
from repro.search.local import pairwise_results, topk
from repro.search.pruning import (
    gbp_candidates_df,
    gbp_candidates_local,
    kpf_bound,
)
from repro.synth_data import explode_points, trajectories_df

DEFAULT_DISTANCES = ("DTW", "EDR", "ERP", "FD")
DEFAULT_ALGORITHMS = ("POS", "PSS", "RLS", "RLS-Skip", "CMA", "ExactS", "Spring", "GB")


def _kpf_survivors(
    queries, data, pairs: set[tuple[int, int]], distance: str, params, r: float
) -> set[tuple[int, int]]:
    """Two-phase KPF: probe each query's min-bound pair with CMA to seed the
    best-so-far, keep pairs whose bound does not exceed it."""
    bounds = {
        (qid, tid): kpf_bound(
            queries[qid], data[tid], distance, r=r, eps=params.get("eps", 0.25),
            ref=params.get("ref"),
        )
        for qid, tid in pairs
    }
    best: dict[int, float] = {}
    for qid in {q for q, _ in pairs}:
        cands = [(b, t) for (q, t), b in bounds.items() if q == qid]
        if not cands:
            continue
        _, probe_tid = min(cands)
        best[qid] = search_pair("CMA", distance, queries[qid], data[probe_tid], **params)[0]
    return {
        (qid, tid)
        for (qid, tid), b in bounds.items()
        if b <= best.get(qid, np.inf) + 1e-12
    }


def _estimate_cell_seconds(
    algorithm, distance, queries, data, pairs, params, policy, parallelism
) -> float:
    """Projected wall-clock from the single largest surviving pair.

    Work is extrapolated in the algorithm's own complexity measure —
    m·n² for ExactS, m·n otherwise — so a long-trajectory tail cannot
    slip past the budget (Beijing's ExactS cells are exactly that case).
    """
    if not pairs:
        return 0.0

    def work(qid: int, tid: int) -> float:
        n = len(data[tid])
        return len(queries[qid]) * (n * n if algorithm == "ExactS" else n)

    # Probe the *smallest* pair (cheap even when the cell is hopeless) and
    # scale by the complexity model. Wall-clock is lower-bounded by the
    # longest single task — parallelism cannot hide a straggler pair.
    qid, tid = min(pairs, key=lambda p: work(*p))
    t0 = time.perf_counter()
    search_pair(algorithm, distance, queries[qid], data[tid], policy=policy, **params)
    per_unit = (time.perf_counter() - t0) / work(qid, tid)
    cell = sum(work(q, t) for q, t in pairs)
    largest = max(work(q, t) for q, t in pairs)
    return max(per_unit * largest, per_unit * cell / max(parallelism, 1))


def run_table3(
    spark: SparkSession | None,
    profile_names: tuple[str, ...] = ("porto", "xian", "beijing"),
    distances: tuple[str, ...] = DEFAULT_DISTANCES,
    algorithms: tuple[str, ...] = DEFAULT_ALGORITHMS,
    *,
    overtime_s: float = 60.0,
) -> pd.DataFrame:
    """Rows: (dataset, algorithm, distance, seconds, pruned_pairs, searched_pairs).

    ``seconds`` is a float, or ``inf`` for an over-budget cell (rendered as
    ``overtime``). ``spark=None`` runs the all-driver variant of the same
    pipeline (used by tests).
    """
    rows = []
    for pname in profile_names:
        profile, queries, data = load_profile(pname)
        n_pairs_total = len(queries) * len(data)
        policies = train_policies(
            queries, data, distances,
            lambda d: city_params(profile.city, d, bbox_scale=profile.bbox_scale),
            seed=profile.seed,
        )
        if spark is not None:
            data_df = trajectories_df(spark, data).cache()
            data_df.count()
            qpts = explode_points(trajectories_df(spark, queries)).withColumnRenamed(
                "traj_id", "query_id"
            )
            dpts = explode_points(data_df)
            parallelism = spark.sparkContext.defaultParallelism
        else:
            parallelism = 1
        for distance in distances:
            params = city_params(
                profile.city, distance, bbox_scale=profile.bbox_scale
            )
            # --- shared pruning phase (GBP → KPF) ---
            if spark is not None:
                got = gbp_candidates_df(
                    spark, qpts, dpts, profile.gbp_eps, profile.gbp_mu
                ).collect()
                gbp_pairs = {(int(r.query_id), int(r.traj_id)) for r in got}
            else:
                gbp_pairs = gbp_candidates_local(
                    queries, data, profile.gbp_eps, profile.gbp_mu
                )
            survivors = _kpf_survivors(
                queries, data, gbp_pairs, distance, params, profile.kpf_r
            )
            if spark is not None:
                pairs_df = spark.createDataFrame(
                    sorted(survivors), "query_id long, traj_id long"
                )
            # --- timed search phase, per algorithm ---
            for algorithm in algorithms:
                if not supports(algorithm, distance):
                    continue
                policy = (
                    policies[(distance, algorithm == "RLS-Skip")]
                    if algorithm in ("RLS", "RLS-Skip")
                    else None
                )
                projected = _estimate_cell_seconds(
                    algorithm, distance, queries, data, survivors, params,
                    policy, parallelism,
                )
                if projected > overtime_s:
                    secs = float("inf")
                else:
                    t0 = time.perf_counter()
                    if spark is not None:
                        pair_df = pairwise_search_df(
                            spark, queries, data_df, algorithm, distance,
                            pairs_df=pairs_df, policy=policy, **params,
                        )
                        topk_df(pair_df, 1).collect()
                    else:
                        res = pairwise_results(
                            algorithm, distance, queries, data,
                            pairs=survivors, policy=policy, **params,
                        )
                        topk(res, 1)
                    secs = time.perf_counter() - t0
                rows.append(
                    dict(
                        dataset=dataset_label(pname),
                        algorithm=algorithm,
                        distance=distance,
                        seconds=secs,
                        pruned_pairs=n_pairs_total - len(survivors),
                        searched_pairs=len(survivors),
                    )
                )
        if spark is not None:
            data_df.unpersist()
    return pd.DataFrame(rows)


def format_table3(df: pd.DataFrame) -> str:
    """Paper-shaped pivot: dataset × algorithm rows, distance columns."""
    show = df.copy()
    show["time"] = show["seconds"].map(
        lambda s: "overtime" if np.isinf(s) else f"{s:.2f}"
    )
    piv = show.pivot(index=["dataset", "algorithm"], columns="distance", values="time")
    return piv.to_string()
