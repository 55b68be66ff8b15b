"""Table harnesses at test scale: structure, exactness rows, orderings."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro.eval.table2 import format_table2, run_table2
from repro.eval import table3
from repro.eval.table3 import format_table3, run_table3
from repro.eval.table4 import format_table4, run_table4


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
    assert (df["seconds"] >= 0).all()
    txt = format_table3(df)
    assert "CMA" in txt


def test_table3_overtime_marker():
    df = run_table3(
        None,
        profile_names=("porto-test",),
        distances=("DTW",),
        algorithms=("ExactS",),
        overtime_s=0.0,  # force the projection over budget
    )
    assert np.isinf(df["seconds"]).all()
    assert "overtime" in format_table3(df)


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


def test_table3_runs_gbp_once_per_profile(monkeypatch):
    """GBP does not depend on the distance, so each profile runs it once."""
    calls = []
    gbp = table3.gbp_candidates_local

    def counted(*args):
        calls.append(args)
        return gbp(*args)

    monkeypatch.setattr(table3, "gbp_candidates_local", counted)
    df = run_table3(None, ("porto-test",), ("DTW", "EDR"), ("CMA",))
    assert len(calls) == 1
    assert df.pruned_pairs.tolist() == [21, 21]
    assert df.searched_pairs.tolist() == [3, 3]


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
