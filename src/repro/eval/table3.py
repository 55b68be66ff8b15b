"""Table 3 harness — efficiency (wall-clock) of the full search pipeline.

Pipeline per (dataset, distance), mirroring the paper's Algorithm 3:

1. **GBP** (shared, once per profile — it does not depend on the distance):
   grid inverted index → surviving (query, trajectory) pairs.
2. **KPF** (shared): ``kpf_survivors`` drops the pairs whose lower bound
   exceeds a CMA-probed best-so-far (see DESIGN.md §5).
3. **Search** (timed per algorithm): the per-pair kernel over the surviving
   pairs, then the top-1 per query.

The backend is picked once per profile: with a SparkSession GBP is a
Catalyst dataflow and the search runs in ``mapInPandas``; without one their
driver twins run. ExactS cells whose *projected* cost (sampled per-pair
time × pairs ÷ parallelism) exceeds ``overtime_s`` are reported as
``overtime`` — the paper reports exactly that for ExactS on Beijing.
"""
from __future__ import annotations

import time
from collections.abc import Callable
from typing import NamedTuple

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.eval.datasets import dataset_label, load_profile
from repro.eval.table2 import (
    DEFAULT_ALGORITHMS,
    DEFAULT_DISTANCES,
    city_params,
    train_policies,
)
from repro.search.api import search_pair, supports
from repro.search.distributed import pairwise_search_df, topk_df
from repro.search.local import pairwise_results, topk
from repro.search.pruning import gbp_candidates_df, gbp_candidates_local, kpf_survivors
from repro.synth_data import explode_points, trajectories_df


class _Backend(NamedTuple):
    gbp: Callable  # (eps, mu) → surviving (query_id, traj_id) pairs
    prepare: Callable  # pairs → top1's input, built outside the timed region
    top1: Callable  # (algorithm, distance, prepared, **params) → top-1 per query
    parallelism: int
    close: Callable


def _backend(spark: SparkSession | None, queries, data) -> _Backend:
    """Spark dataflows when ``spark`` is given, else their driver twins."""
    if spark is None:
        return _Backend(
            gbp=lambda eps, mu: gbp_candidates_local(queries, data, eps, mu),
            prepare=lambda pairs: pairs,
            top1=lambda alg, dist, pairs, **kw: topk(
                pairwise_results(alg, dist, queries, data, pairs=pairs, **kw), 1
            ),
            parallelism=1,
            close=lambda: None,
        )
    data_df = trajectories_df(spark, data).cache()
    data_df.count()
    qpts = explode_points(trajectories_df(spark, queries)).withColumnRenamed(
        "traj_id", "query_id"
    )
    dpts = explode_points(data_df)

    def gbp(eps: float, mu: float) -> set[tuple[int, int]]:
        got = gbp_candidates_df(spark, qpts, dpts, eps, mu).collect()
        return {(int(r.query_id), int(r.traj_id)) for r in got}

    return _Backend(
        gbp=gbp,
        prepare=lambda pairs: spark.createDataFrame(
            sorted(pairs), "query_id long, traj_id long"
        ),
        top1=lambda alg, dist, pairs, **kw: topk_df(
            pairwise_search_df(spark, queries, data_df, alg, dist, pairs_df=pairs, **kw), 1
        ).collect(),
        parallelism=spark.sparkContext.defaultParallelism,
        close=data_df.unpersist,
    )


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
    ``overtime``). ``spark=None`` runs the same pipeline on the driver alone:
    the sequential column of ``jobs/table3.py``.
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
        backend = _backend(spark, queries, data)
        try:
            # --- shared pruning phase: GBP once per profile, KPF per distance ---
            gbp = backend.gbp(profile.gbp_eps, profile.gbp_mu)
            for distance in distances:
                params = city_params(
                    profile.city, distance, bbox_scale=profile.bbox_scale
                )
                survivors = kpf_survivors(
                    queries, data, gbp, distance, params, profile.kpf_r
                )
                prepared = backend.prepare(survivors)
                # --- timed search phase, per algorithm ---
                for algorithm in algorithms:
                    if not supports(algorithm, distance):
                        continue
                    policy = policies.get((distance, algorithm))
                    projected = _estimate_cell_seconds(
                        algorithm, distance, queries, data, survivors, params,
                        policy, backend.parallelism,
                    )
                    if projected > overtime_s:
                        secs = float("inf")
                    else:
                        t0 = time.perf_counter()
                        backend.top1(algorithm, distance, prepared, policy=policy, **params)
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
        finally:
            backend.close()
    return pd.DataFrame(rows)


def format_table3(df: pd.DataFrame) -> str:
    """Paper-shaped pivot: dataset × algorithm rows, distance columns."""
    show = df.copy()
    show["time"] = show["seconds"].map(
        lambda s: "overtime" if np.isinf(s) else f"{s:.2f}"
    )
    piv = show.pivot(index=["dataset", "algorithm"], columns="distance", values="time")
    return piv.to_string()
