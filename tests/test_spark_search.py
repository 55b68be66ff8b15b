"""Distributed search: Spark path ≡ driver path; relational steps (top-K,
exploded points) oracle-checked against DuckDB SQL; plan shapes (trajectory
frames are local relations, no shuffle below the search UDF); the search
workers' lazy zip-import invalidation."""
from __future__ import annotations

import os
import subprocess
import sys
import textwrap
import zipimport
from pathlib import Path

import numpy as np
import pandas as pd
import pytest

import repro
from repro.eval.table2 import DEFAULT_ALGORITHMS, DEFAULT_DISTANCES, train_policies
from repro.search.api import supports
from repro.search.distributed import pairwise_search_df, topk_df
from repro.search.local import pairwise_results, topk
from repro.synth_data import explode_points, make_queries, taxi_trajectories, trajectories_df
from tests.oracle import assert_equivalent


@pytest.fixture(scope="module")
def tiny():
    data = taxi_trajectories("porto", 10, seed=21, len_scale=0.5)
    # Edge inputs: a one-point trajectory, one shorter than every query
    # (queries have 6–10 points), and one whose points each repeat.
    data += [data[0][:1], data[1][:3], np.repeat(data[2][:4], 3, axis=0)]
    queries = make_queries("porto", 3, len_range=(6, 10), seed=22)
    return queries, data


@pytest.fixture(scope="module")
def tiny_df(spark, tiny):
    _, data = tiny
    return trajectories_df(spark, data)


@pytest.fixture(scope="module")
def policies(tiny):
    """Trained RLS / RLS-Skip policies, keyed (distance, algorithm)."""
    queries, data = tiny
    return train_policies(queries, data, DEFAULT_DISTANCES, lambda distance: {})


@pytest.mark.parametrize("algorithm,distance", [
    (alg, dist) for alg in DEFAULT_ALGORITHMS for dist in DEFAULT_DISTANCES if supports(alg, dist)
])
def test_distributed_equals_local(spark, tiny, tiny_df, policies, algorithm, distance):
    queries, data = tiny
    policy = policies.get((distance, algorithm))
    got = (
        pairwise_search_df(spark, queries, tiny_df, algorithm, distance, policy=policy)
        .toPandas()
        .sort_values(["query_id", "traj_id"])
        .reset_index(drop=True)
    )
    ref = pd.DataFrame(pairwise_results(algorithm, distance, queries, data, policy=policy))
    ref = ref.sort_values(["query_id", "traj_id"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got.astype({"start": "int64", "end": "int64"}), ref, check_dtype=False
    )


def test_topk_window_query_matches_duckdb_oracle(spark, tiny, tiny_df):
    queries, _ = tiny
    pair_df = pairwise_search_df(spark, queries, tiny_df, "CMA", "DTW").cache()
    got = topk_df(pair_df, k=2).select("query_id", "traj_id", "dist")
    assert_equivalent(
        got,
        """
        SELECT query_id, traj_id, dist FROM (
          SELECT query_id, traj_id, dist,
                 row_number() OVER (PARTITION BY query_id
                                    ORDER BY dist ASC, traj_id ASC) AS rn
          FROM pairs
        ) WHERE rn <= 2
        """,
        pairs=pair_df,
    )
    pair_df.unpersist()


def test_topk_local_matches_spark(spark, tiny, tiny_df):
    queries, data = tiny
    pair_df = pairwise_search_df(spark, queries, tiny_df, "CMA", "ERP")
    got = (
        topk_df(pair_df, k=1)
        .toPandas()
        .sort_values("query_id")
        .reset_index(drop=True)
    )
    ref = pd.DataFrame(topk(pairwise_results("CMA", "ERP", queries, data), k=1))
    pd.testing.assert_frame_equal(
        got[["query_id", "traj_id", "dist"]],
        ref[["query_id", "traj_id", "dist"]],
        check_dtype=False,
    )


def test_topk_local_matches_spark_row_for_row_under_edr_ties(spark, tiny, tiny_df):
    """EDR's integer distances tie: some query's 2nd and 3rd best are equal,
    so the (dist, traj_id) tie-break picks which trajectories make its top 2."""
    queries, data = tiny
    rows = pairwise_results("CMA", "EDR", queries, data)
    ranks = [sorted(r["dist"] for r in rows if r["query_id"] == qid) for qid in range(3)]
    assert any(second == third for _, second, third, *_ in ranks)
    got = (
        topk_df(pairwise_search_df(spark, queries, tiny_df, "CMA", "EDR"), k=2)
        .toPandas()
        .sort_values(["query_id", "dist", "traj_id"])
        .reset_index(drop=True)
    )
    ref = pd.DataFrame(topk(rows, k=2))
    pd.testing.assert_frame_equal(
        got.astype({"start": "int64", "end": "int64"}), ref, check_dtype=False
    )


def test_restricted_pairs_df_limits_search(spark, tiny, tiny_df):
    queries, data = tiny
    keep = [(0, 1), (0, 3), (2, 5)]
    pairs_df = spark.createDataFrame(keep, "query_id long, traj_id long")
    got = (
        pairwise_search_df(
            spark, queries, tiny_df, "CMA", "DTW", pairs_df=pairs_df
        )
        .toPandas()
        .sort_values(["query_id", "traj_id"])
    )
    assert sorted(zip(got.query_id, got.traj_id)) == sorted(keep)
    ref = pd.DataFrame(
        pairwise_results("CMA", "DTW", queries, data, pairs=set(keep))
    ).sort_values(["query_id", "traj_id"])
    assert np.allclose(got["dist"].to_numpy(), ref["dist"].to_numpy())


def _plan(df) -> str:
    return df._jdf.queryExecution().executedPlan().toString()


def test_trajectories_df_is_a_local_relation(spark, tiny):
    """Arrow-built: scanned in the JVM, no Python RDD behind it."""
    plan = _plan(trajectories_df(spark, tiny[1]))
    assert "LocalTableScan" in plan
    assert "ExistingRDD" not in plan


def test_trajectories_df_round_trips_bit_for_bit(spark, tiny):
    _, data = tiny
    trajs = [*data, np.array([[0.1, -2.5e-300]]), np.array([[np.pi, 1 / 3]] * 2)]
    rows = trajectories_df(spark, trajs).collect()
    assert [r.traj_id for r in rows] == list(range(len(trajs)))
    for r in rows:
        got = np.array(r.pts, dtype=np.float64)
        assert got.shape == trajs[r.traj_id].shape
        assert got.tobytes() == trajs[r.traj_id].tobytes()


@pytest.mark.parametrize("pruned", [True, False])
def test_pair_search_plan_has_no_shuffle(spark, tiny, tiny_df, pruned):
    """Below the UDF: the survivors' broadcast (pruned) or nothing
    (unpruned explode) — no exchange of the trajectory rows."""
    queries, _ = tiny
    pairs_df = (
        spark.createDataFrame([(0, 1), (2, 5)], "query_id long, traj_id long")
        if pruned
        else None
    )
    plan = _plan(
        pairwise_search_df(spark, queries, tiny_df, "CMA", "DTW", pairs_df=pairs_df)
    )
    assert "MapInPandas" in plan
    assert plan.count("Exchange") == plan.count("BroadcastExchange") == int(pruned)


def test_empty_pairs_df_gives_empty_results(spark, tiny, tiny_df):
    queries, _ = tiny
    pairs_df = spark.createDataFrame([], "query_id long, traj_id long")
    pair_df = pairwise_search_df(
        spark, queries, tiny_df, "CMA", "DTW", pairs_df=pairs_df
    )
    assert pair_df.collect() == []
    assert topk_df(pair_df, 1).collect() == []


def test_explode_points_matches_duckdb(spark, tiny_df):
    exploded = explode_points(tiny_df)
    # Row-count and coordinate aggregates per trajectory vs DuckDB over the
    # same collected points (the array column itself is not orderable).
    got = exploded.groupBy("traj_id").count().withColumnRenamed("count", "n")
    pdf = exploded.toPandas()
    assert_equivalent(
        got,
        "SELECT traj_id, count(*) AS n FROM pts GROUP BY traj_id",
        pts=pdf,
    )
    assert (pdf.groupby("traj_id")["seq"].min() == 0).all()


def _run_isolated(script: str, tmp_path: Path) -> None:
    """Run ``script`` in a fresh interpreter, so this process's import state
    is untouched; it gets a scratch zip path as ``sys.argv[1]``."""
    src = str(Path(repro.__file__).parents[1])
    subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script), str(tmp_path / "mods.zip")],
        check=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
    )


def test_lazy_zip_imports_defers_and_refreshes_the_directory(tmp_path):
    """After the hook, ``invalidate_caches`` reads no archive, and the next
    access re-reads it: a module added to the archive imports, and an
    already-imported module's loader serves its rewritten source."""
    _run_isolated("""
        import importlib, sys, zipfile, zipimport

        def write(files):
            with zipfile.ZipFile(sys.argv[1], "w") as z:
                for name, text in files.items():
                    z.writestr(name, text)

        write({"a.py": "X = 1\\n"})
        sys.path.insert(0, sys.argv[1])
        import a
        from repro.search.distributed import _lazy_zip_imports
        _lazy_zip_imports()
        _lazy_zip_imports()
        assert sys.path_hooks.count(type(a.__loader__)) == 1
        assert a.__loader__ is sys.path_importer_cache[sys.argv[1]]

        reads, read = [], zipimport._read_directory
        zipimport._read_directory = lambda path: reads.append(path) or read(path)
        importlib.invalidate_caches()
        assert reads == [], reads

        write({"a.py": "X = 2  # rewritten\\n", "b.py": "Y = 3\\n"})
        importlib.invalidate_caches()
        import b
        assert b.Y == 3
        assert a.__loader__.get_source("a") == "X = 2  # rewritten\\n"
        assert reads == [sys.argv[1]], reads
    """, tmp_path)


def test_lazy_zip_imports_is_a_noop_where_zipimporter_is_lazy(tmp_path):
    _run_isolated("""
        import importlib.util, sys, zipfile, zipimport

        zipfile.ZipFile(sys.argv[1], "w").close()
        sys.path.insert(0, sys.argv[1])
        importlib.util.find_spec("absent")
        zipimport.zipimporter._get_files = lambda self: {}
        hooks, finders = list(sys.path_hooks), dict(sys.path_importer_cache)
        from repro.search.distributed import _lazy_zip_imports
        _lazy_zip_imports()
        assert sys.path_hooks == hooks
        assert type(sys.path_importer_cache[sys.argv[1]]) is zipimport.zipimporter
        assert all(sys.path_importer_cache[p] is f for p, f in finders.items())
    """, tmp_path)


def test_search_leaves_the_calling_process_import_hooks_alone(spark, tiny, tiny_df):
    """The hook is installed by the search UDF, in Spark's Python workers."""
    queries, _ = tiny
    hooks = list(sys.path_hooks)
    assert pairwise_search_df(spark, queries, tiny_df, "CMA", "DTW").count() > 0
    assert sys.path_hooks == hooks and zipimport.zipimporter in hooks
