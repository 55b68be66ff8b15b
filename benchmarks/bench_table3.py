"""Benchmark for Table 3 (efficiency pipeline).

Times the stages of the Table 3 pipeline on bench-scale data: GBP on
Spark point frames (collected, then pruned on the driver), the KPF bound
computation, and the distributed
mapInPandas search per algorithm (CMA vs ExactS is the paper's headline
ratio), unpruned and over the GBP → KPF survivors. The full table is
produced by ``jobs/table3.py``; paper vs measured numbers live in
EXPERIMENTS.md.
"""
from __future__ import annotations

import pandas as pd
import pytest

from repro.eval.datasets import load_profile
from repro.eval.table2 import city_params
from repro.search.distributed import pairs_frame, pairwise_search_df, topk_df
from repro.search.pruning import gbp_candidates_df, kpf_bound, kpf_survivors
from repro.synth_data import explode_points, trajectories_df


@pytest.fixture(scope="module")
def porto(spark):
    profile, queries, data = load_profile("porto")
    data_df = trajectories_df(spark, data).cache()
    data_df.count()
    qpts = explode_points(trajectories_df(spark, queries)).withColumnRenamed(
        "traj_id", "query_id"
    )
    dpts = explode_points(data_df).cache()
    dpts.count()
    yield profile, queries, data, data_df, qpts, dpts
    data_df.unpersist()
    dpts.unpersist()


def test_bench_gbp_dataflow(benchmark, spark, porto):
    """``gbp_candidates_df``: two Arrow collects of the point frames, the
    driver's grid join and the survivors' local relation."""
    profile, _, _, _, qpts, dpts = porto
    out = benchmark.pedantic(
        lambda: gbp_candidates_df(
            spark, qpts, dpts, profile.gbp_eps, profile.gbp_mu
        ).count(),
        rounds=3,
        iterations=1,
    )
    assert out > 0


def test_bench_kpf_bounds(benchmark, porto):
    profile, queries, data, *_ = porto
    params = city_params(profile.city, "DTW", bbox_scale=profile.bbox_scale)

    def run():
        return [
            kpf_bound(q, d, "DTW", r=profile.kpf_r, eps=params["eps"])
            for q in queries
            for d in data[:40]
        ]

    bounds = benchmark.pedantic(run, rounds=3, iterations=1)
    assert all(b >= 0 for b in bounds)


@pytest.mark.parametrize("algorithm", ["CMA", "ExactS", "POS"])
def test_bench_distributed_search(benchmark, spark, porto, algorithm):
    """The timed stage of a Table 3 cell (DTW, Porto scale, 40 trajs)."""
    profile, queries, data, data_df, *_ = porto
    params = city_params(profile.city, "DTW", bbox_scale=profile.bbox_scale)
    subset = data_df.filter("traj_id < 40").cache()
    subset.count()

    def run():
        pair_df = pairwise_search_df(
            spark, queries, subset, algorithm, "DTW", **params
        )
        return topk_df(pair_df, 1).collect()

    # One warmup round first: Arrow/executor spin-up would otherwise be
    # charged entirely to whichever algorithm happens to run first.
    rows = benchmark.pedantic(run, rounds=2, iterations=1, warmup_rounds=1)
    assert len(rows) == len(queries)
    subset.unpersist()


def test_bench_distributed_search_survivors(benchmark, spark, porto):
    """The timed stage of a Porto CMA-DTW cell: the GBP → KPF survivors,
    built as ``run_table3`` builds them (an Arrow-built ``pairs_frame``, no
    Python RDD), collected by the search and broadcast with the queries."""
    profile, queries, data, data_df, qpts, dpts = porto
    params = city_params(profile.city, "DTW", bbox_scale=profile.bbox_scale)
    got = gbp_candidates_df(
        spark, qpts, dpts, profile.gbp_eps, profile.gbp_mu
    ).collect()
    gbp = {(int(r.query_id), int(r.traj_id)) for r in got}
    survivors = kpf_survivors(queries, data, gbp, "DTW", params, profile.kpf_r)
    pairs_df = pairs_frame(
        spark, pd.DataFrame(sorted(survivors), columns=["query_id", "traj_id"], dtype="int64")
    )

    def run():
        pair_df = pairwise_search_df(
            spark, queries, data_df, "CMA", "DTW", pairs_df=pairs_df, **params
        )
        return topk_df(pair_df, 1).collect()

    rows = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    assert len(rows) == len({q for q, _ in survivors})
