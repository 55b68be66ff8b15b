"""Table harnesses at test scale: structure, exactness rows, orderings."""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pandas as pd
import pytest

from repro.eval.datasets import PROFILES, load_profile
from repro.eval.table2 import city_params, format_table2, run_table2
from repro.eval import table3
from repro.eval.table3 import format_table3, run_table3
from repro.eval.table4 import format_table4, run_table4
from repro.search.local import pairwise_results, topk
from repro.search.pruning import gbp_candidates_local, kpf_survivors


@pytest.fixture(scope="module")
def t2() -> pd.DataFrame:
    return run_table2(
        profile_names=("porto-test", "xian-test"),
        distances=("DTW", "ERP", "EDR", "FD"),
    )


def test_table2_shape_and_coverage(t2):
    assert set(t2.columns) == {"dataset", "algorithm", "distance", "AR", "MR", "RR"}
    assert set(t2.dataset) == {"Porto", "Xi'an"}
    assert set(t2.distance) == {"DTW", "ERP", "EDR", "FD"}
    # Spring only under DTW, GB only under FD (NaN elsewhere — paper dashes).
    spring = t2[t2.algorithm == "Spring"]
    assert spring[spring.distance != "DTW"]["AR"].isna().all()
    assert spring[spring.distance == "DTW"]["AR"].notna().all()
    gb = t2[t2.algorithm == "GB"]
    assert gb[gb.distance != "FD"]["AR"].isna().all()


def test_table2_exact_algorithms_are_perfect(t2):
    """The paper's headline: CMA/ExactS/Spring/GB rows are all 1 / 1 / 0%."""
    ex = t2[t2.algorithm.isin(["CMA", "ExactS", "Spring", "GB"])].dropna()
    assert np.allclose(ex["AR"], 1.0)
    assert np.allclose(ex["MR"], 1.0)
    assert np.allclose(ex["RR"], 0.0)


def test_table2_approximate_algorithms_at_least_one(t2):
    approx = t2[t2.algorithm.isin(["POS", "PSS", "RLS", "RLS-Skip"])].dropna()
    assert (approx["AR"] >= 1.0 - 1e-9).all()
    assert (approx["MR"] >= 1.0).all()
    assert (approx["RR"] >= 0.0).all()


def test_table2_format_renders(t2):
    txt = format_table2(t2)
    assert "Porto" in txt and "CMA" in txt and "AR" in txt


def test_table3_local_pipeline_structure():
    df = run_table3(
        None,
        profile_names=("porto-test",),
        distances=("DTW", "FD"),
        algorithms=("CMA", "ExactS", "POS", "Spring", "GB"),
        overtime_s=30.0,
    )
    assert set(df.columns) >= {"dataset", "algorithm", "distance", "seconds"}
    # Spring appears only under DTW; GB only under FD.
    assert set(df[df.algorithm == "Spring"].distance) == {"DTW"}
    assert set(df[df.algorithm == "GB"].distance) == {"FD"}
    # Every porto-test cell ends inside its budget: none is ``inf``.
    assert np.isfinite(df["seconds"]).all() and (df["seconds"] >= 0).all()
    txt = format_table3(df)
    assert "CMA" in txt


@pytest.mark.parametrize("backend", ["driver", "spark"])
def test_table3_overtime_marker(request, backend):
    """A budget that has run out before the search starts makes every cell
    ``overtime``. Nothing is cancelled, so on Spark the next cell on the same
    session runs at once and gets a finite time."""
    spark = request.getfixturevalue("spark") if backend == "spark" else None
    kw = dict(profile_names=("porto-test",), distances=("DTW",))
    df = run_table3(spark, algorithms=("ExactS", "CMA"), overtime_s=0.0, **kw)
    assert len(df) == 2 and np.isinf(df["seconds"]).all()
    assert "overtime" in format_table3(df)
    if spark is not None:
        after = run_table3(spark, algorithms=("CMA",), overtime_s=60.0, **kw)
        assert np.isfinite(after["seconds"]).all()


def test_table3_spark_matches_driver_funnel(spark):
    """Both backends prune and search the same pairs in every cell."""
    kw = dict(
        profile_names=("porto-test",),
        distances=("DTW", "EDR", "ERP", "FD"),
        algorithms=("CMA", "Spring", "GB"),
    )
    cols = ["dataset", "algorithm", "distance", "pruned_pairs", "searched_pairs"]
    spark_rows = run_table3(spark, **kw)[cols]
    driver_rows = run_table3(None, **kw)[cols]
    assert len(spark_rows) == 6
    pd.testing.assert_frame_equal(spark_rows, driver_rows)


@pytest.mark.parametrize("backend", ["driver", "spark"])
def test_table3_runs_gbp_once_per_profile(request, monkeypatch, backend):
    """GBP does not depend on the distance, so each profile runs it once,
    on the driver's lists whichever backend searches."""
    spark = request.getfixturevalue("spark") if backend == "spark" else None
    calls = []
    gbp = table3.gbp_candidates_local

    def counted(*args):
        calls.append(args)
        return gbp(*args)

    monkeypatch.setattr(table3, "gbp_candidates_local", counted)
    df = run_table3(spark, ("porto-test",), ("DTW", "EDR"), ("CMA",))
    assert len(calls) == 1
    assert df.pruned_pairs.tolist() == [21, 21]
    assert df.searched_pairs.tolist() == [3, 3]


@pytest.mark.parametrize("pairs", [set(), {(1, 7), (0, 3)}], ids=["empty", "two"])
def test_table3_spark_survivor_frame(spark, pairs):
    """The survivors reach the timed search as a frame built from Arrow, a
    local relation scanned in the JVM with no Python RDD behind it, empty or
    not; an empty survivor set gives an empty frame with the same schema,
    and the search over it answers nothing."""
    profile, queries, data = load_profile("porto-test")
    backend = table3._backend(spark, queries, data)
    try:
        prepared = backend.prepare(pairs)
        assert prepared.schema.simpleString() == "struct<query_id:bigint,traj_id:bigint>"
        assert [tuple(r) for r in prepared.collect()] == sorted(pairs)
        plan = prepared._jdf.queryExecution().executedPlan().toString()
        assert "LocalTableScan" in plan
        assert "ExistingRDD" not in plan
        params = city_params(profile.city, "DTW", bbox_scale=profile.bbox_scale)
        top = backend.top1("CMA", "DTW", prepared, **params)
        assert sorted((r["query_id"], r["traj_id"]) for r in top) == sorted(pairs)
    finally:
        backend.close()


def _pruned_top1_misses(spark, monkeypatch, profile_name, seeds) -> list:
    """(seed, distance, query_id) cases where Table 3's pipeline (GBP → KPF
    → search → top-1, on the backend ``spark`` picks) misses the unpruned
    top-1 distance; each seed regenerates the profile's data and queries."""
    misses = []
    for seed in seeds:
        monkeypatch.setitem(
            PROFILES, profile_name, replace(PROFILES[profile_name], seed=seed)
        )
        profile, queries, data = load_profile(profile_name)
        backend = table3._backend(spark, queries, data)
        try:
            gbp = gbp_candidates_local(queries, data, profile.gbp_eps, profile.gbp_mu)
            for distance in ("DTW", "EDR", "ERP", "FD"):
                params = city_params(profile.city, distance, bbox_scale=profile.bbox_scale)
                kept = kpf_survivors(queries, data, gbp, distance, params, profile.kpf_r)
                got = backend.top1("CMA", distance, backend.prepare(kept), **params)
                got = {r["query_id"]: r["dist"] for r in got}
                for r in topk(pairwise_results("CMA", distance, queries, data, **params), 1):
                    if not np.isclose(got.get(r["query_id"], np.inf), r["dist"], rtol=1e-9):
                        misses.append((seed, distance, r["query_id"]))
        finally:
            backend.close()
    return misses


@pytest.mark.parametrize("profile_name", ["porto-test", "xian-test"])
def test_pruned_top1_is_exact_on_driver(monkeypatch, profile_name):
    """KPF is a true lower bound (Theorem B.1), so pruning never drops a
    query's optimum: the pruned top-1 equals the unpruned one at every seed."""
    assert _pruned_top1_misses(None, monkeypatch, profile_name, range(40)) == []


def test_pruned_top1_is_exact_on_spark(spark, monkeypatch):
    """The Spark pipeline at porto-test's own seed, where an m/|K|-scaled
    KPF pruned the optimum."""
    assert _pruned_top1_misses(spark, monkeypatch, "porto-test", (1,)) == []


def test_table4_static_summary():
    df = run_table4()
    assert len(df) == 8
    cma_row = df[df.Algorithms.str.startswith("CMA")].iloc[0]
    assert cma_row["DTW"] == "O(mn)" and cma_row["LCSS"] == "-"
    exacts_row = df[df.Algorithms.str.startswith("ExactS")].iloc[0]
    assert exacts_row["LCSS"] == "O(mn^2)"
    spring_row = df[df.Algorithms.str.startswith("Spring")].iloc[0]
    assert spring_row["DTW"] == "O(mn)" and spring_row["ERP"] == "-"
    assert "Accuracy" in format_table4(df)
