"""Table 3 harness — efficiency (wall-clock) of the full search pipeline.

Pipeline per (dataset, distance), mirroring the paper's Algorithm 3:

1. **GBP** (shared, once per profile — it does not depend on the distance):
   ``gbp_candidates_local`` on the driver's lists → surviving (query, trajectory) pairs.
2. **KPF** (shared): ``kpf_survivors`` drops the pairs whose lower bound
   exceeds a CMA-probed best-so-far (see DESIGN.md §5).
3. **Search** (timed per algorithm): the kernel over the surviving pairs,
   one trajectory against all of its surviving queries at a time, then the
   top-1 per query. An untimed search that stops before its first
   trajectory runs first, so on Spark the first timed cell does not pay
   for starting the Python workers.

The backend is picked once per profile and only runs the search: with a
SparkSession in ``mapInPandas`` tasks, with the survivors broadcast beside
the queries, else on the driver; both apply the survivor rule in
``search_rows``.
Each cell's search gets a wall-clock deadline ``overtime_s`` away and starts
no trajectory after it; a cell whose deadline has passed when its
search returns is reported as ``overtime``, as the paper reports ExactS on
Beijing. Nothing is cancelled, so the next cell starts on a warm session.
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
from repro.search.api import supports
from repro.search.distributed import pairs_frame, pairwise_search_df, topk_df
from repro.search.local import pairwise_results, topk
from repro.search.pruning import gbp_candidates_local, kpf_survivors
from repro.synth_data import trajectories_df


class _Backend(NamedTuple):
    prepare: Callable  # pairs → top1's input (Spark: Arrow-built, no Python RDD), untimed
    top1: Callable  # (algorithm, distance, prepared, **params) → top-1 per query
    close: Callable


def _backend(spark: SparkSession | None, queries, data) -> _Backend:
    """Spark jobs when ``spark`` is given, else the driver pipeline."""
    if spark is None:
        return _Backend(
            prepare=lambda pairs: pairs,
            top1=lambda alg, dist, pairs, **kw: topk(
                pairwise_results(alg, dist, queries, data, pairs=pairs, **kw), 1
            ),
            close=lambda: None,
        )
    data_df = trajectories_df(spark, data).cache()
    data_df.count()
    return _Backend(
        prepare=lambda pairs: pairs_frame(
            spark, pd.DataFrame(sorted(pairs), columns=["query_id", "traj_id"], dtype="int64")
        ),
        top1=lambda alg, dist, pairs, **kw: topk_df(
            pairwise_search_df(spark, queries, data_df, alg, dist, pairs_df=pairs, **kw), 1
        ).collect(),
        close=data_df.unpersist,
    )


def run_table3(
    spark: SparkSession | None,
    profile_names: tuple[str, ...] = ("porto", "xian", "beijing"),
    distances: tuple[str, ...] = DEFAULT_DISTANCES,
    algorithms: tuple[str, ...] = DEFAULT_ALGORITHMS,
    *,
    overtime_s: float = 60.0,
) -> pd.DataFrame:
    """Rows: (dataset, algorithm, distance, seconds, pruned_pairs, searched_pairs).

    ``seconds`` is a float, or ``inf`` (rendered as ``overtime``) for a cell
    whose search had not returned ``overtime_s`` after it started.
    ``spark=None`` runs the same pipeline on the driver alone: the
    sequential column of ``jobs/table3.py``.
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
            gbp = gbp_candidates_local(queries, data, profile.gbp_eps, profile.gbp_mu)
            for distance in distances:
                params = city_params(
                    profile.city, distance, bbox_scale=profile.bbox_scale
                )
                survivors = kpf_survivors(
                    queries, data, gbp, distance, params, profile.kpf_r
                )
                prepared = backend.prepare(survivors)
                # Untimed warm-up over the cells' own plan (DESIGN.md §5).
                backend.top1("CMA", distance, prepared, deadline=0)
                # --- timed search phase, per algorithm ---
                for algorithm in algorithms:
                    if not supports(algorithm, distance):
                        continue
                    policy = policies.get((distance, algorithm))
                    deadline = time.time() + overtime_s
                    t0 = time.perf_counter()
                    backend.top1(
                        algorithm, distance, prepared,
                        policy=policy, deadline=deadline, **params,
                    )
                    secs = time.perf_counter() - t0
                    if time.time() > deadline:
                        secs = float("inf")
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
