"""Distributed search: Spark path ≡ driver path; the driver-merged top-K and
the exploded points oracle-checked against DuckDB SQL; plan shapes and job
counts (trajectory frames and top-K answers are local relations, no join
and no exchange anywhere in the search, one job with or without survivors);
lazy zip-import invalidation in Spark's Python workers and its start-up
hook."""
from __future__ import annotations

import os
import subprocess
import sys
import textwrap
import time
import uuid
import zipfile
import zipimport
from pathlib import Path

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from pyspark.sql.types import StructType

import repro
from repro.eval.table2 import DEFAULT_ALGORITHMS, DEFAULT_DISTANCES, train_policies
from repro.search.api import supports
from repro.search.distributed import pairs_frame, pairwise_search_df, topk_df
from repro.search.local import PAIR_SCHEMA, pairwise_results, topk
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
    """The driver merge returns what DuckDB's window query returns."""
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
    so the (dist, traj_id) tie-break picks which trajectories make its top k."""
    queries, data = tiny
    rows = pairwise_results("CMA", "EDR", queries, data)
    ranks = [sorted(r["dist"] for r in rows if r["query_id"] == qid) for qid in range(3)]
    assert any(second == third for _, second, third, *_ in ranks)
    pair_df = pairwise_search_df(spark, queries, tiny_df, "CMA", "EDR").cache()
    for k in (1, 2, 3):
        got = (
            topk_df(pair_df, k=k)
            .toPandas()
            .sort_values(["query_id", "dist", "traj_id"])
            .reset_index(drop=True)
        )
        ref = pd.DataFrame(topk(rows, k=k))
        pd.testing.assert_frame_equal(
            got.astype({"start": "int64", "end": "int64"}), ref, check_dtype=False
        )
    pair_df.unpersist()


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


def test_duplicated_survivor_pair_gives_one_row_on_both_backends(spark, tiny, tiny_df):
    """A survivor pair listed twice is searched once: both backends give
    the same rows, one per distinct pair."""
    queries, data = tiny
    keep = [(0, 1), (0, 1), (1, 3)]
    pairs_df = spark.createDataFrame(keep, "query_id long, traj_id long")
    got = pairwise_search_df(spark, queries, tiny_df, "CMA", "DTW", pairs_df=pairs_df)
    got = sorted(tuple(r) for r in got.collect())
    ref = [tuple(r.values()) for r in pairwise_results("CMA", "DTW", queries, data, pairs=keep)]
    assert got == sorted(ref)
    assert [(q, t) for q, t, *_ in got] == [(0, 1), (1, 3)]


@pytest.mark.parametrize("algorithm", ["CMA", "POS"])
def test_survivor_groups_straddle_arrow_batches(spark, tiny, tiny_df, algorithm):
    """With two trajectory rows per Arrow batch, a task's trajectories,
    among them some that keep every query, are split over several batches,
    and each batch looks up its trajectories' survivors in the broadcast
    map: every pair still gets the driver's row, bit for bit."""
    queries, data = tiny
    keep = {(q, t) for q in range(len(queries)) for t in range(len(data)) if (q + t) % 4}
    assert {t for _, t in keep if all((q, t) in keep for q in range(len(queries)))}
    pairs_df = pairs_frame(
        spark, pd.DataFrame(sorted(keep), columns=["query_id", "traj_id"], dtype="int64")
    )
    key = "spark.sql.execution.arrow.maxRecordsPerBatch"
    before = spark.conf.get(key)
    spark.conf.set(key, "2")
    try:
        got = pairwise_search_df(
            spark, queries, tiny_df, algorithm, "DTW", pairs_df=pairs_df
        ).toPandas()
    finally:
        spark.conf.set(key, before)
    got = got.sort_values(["query_id", "traj_id"]).reset_index(drop=True)
    ref = pd.DataFrame(pairwise_results(algorithm, "DTW", queries, data, pairs=keep))
    ref = ref.sort_values(["query_id", "traj_id"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got.astype({"start": "int64", "end": "int64"}), ref, check_dtype=False, check_exact=True
    )


def test_past_deadline_searches_no_pair(spark, tiny, tiny_df):
    """A deadline already past gives no rows on either backend; the default
    deadline gives one row per pair."""
    queries, data = tiny
    past = time.time() - 1.0
    assert pairwise_results("CMA", "DTW", queries, data, deadline=past) == []
    assert pairwise_search_df(
        spark, queries, tiny_df, "CMA", "DTW", deadline=past
    ).collect() == []
    n_pairs = len(queries) * len(data)
    assert len(pairwise_results("CMA", "DTW", queries, data)) == n_pairs
    assert pairwise_search_df(spark, queries, tiny_df, "CMA", "DTW").count() == n_pairs


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
        got = np.column_stack((r.xs, r.ys))
        assert got.shape == trajs[r.traj_id].shape
        assert got.tobytes() == trajs[r.traj_id].tobytes()


@pytest.mark.parametrize("bad, message", [
    *[(np.array([[0.5, 0.5], [x, 0.5]]), "must be non-empty and finite")
      for x in (np.nan, np.inf, -np.inf)],
    (np.empty((0, 2)), "must be non-empty and finite"),
    (np.ones((3, 3)), r"must be an \(n, 2\) array"),
], ids=["nan", "inf", "-inf", "empty", "n-by-3"])
def test_trajectories_df_rejects_non_finite_points(spark, tiny, bad, message):
    """A NaN would reach Arrow as a null and fall back to a Python RDD, ±inf
    would reach the search, and an empty trajectory would fail inside a
    search task: all raise before Arrow, with the message of
    ``build_pair_costs`` and GBP. A 3-D trajectory would be searched in 3-D
    but GBP-pruned in 2-D, so it is rejected too."""
    _, data = tiny
    with pytest.raises(ValueError, match=f"trajectory 2 {message}"):
        trajectories_df(spark, [*data[:2], bad])


@pytest.mark.parametrize("pruned", [True, False])
def test_pair_search_plan_has_no_shuffle(spark, tiny, tiny_df, pruned):
    """Below the UDF, pruned or not: the trajectory scan alone — no join
    and no exchange of any kind (the survivors ride in the UDF's
    broadcast)."""
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
    assert "Exchange" not in plan and "Join" not in plan


def _fields(df) -> list:
    return [(f.name, f.dataType) for f in df.schema]


def test_empty_pairs_df_gives_empty_results(spark, tiny, tiny_df):
    """An empty top-K keeps ``PAIR_SCHEMA`` and is scanned in the JVM."""
    queries, _ = tiny
    pairs_df = spark.createDataFrame([], "query_id long, traj_id long")
    pair_df = pairwise_search_df(
        spark, queries, tiny_df, "CMA", "DTW", pairs_df=pairs_df
    )
    assert pair_df.collect() == []
    top = topk_df(pair_df, 1)
    assert top.collect() == []
    assert _fields(top) == _fields(pair_df) == [
        (f.name, f.dataType) for f in StructType.fromDDL(PAIR_SCHEMA)
    ]
    assert "ExistingRDD" not in _plan(top)


def _jobs(spark, action) -> tuple:
    """``action()``'s result, and the number of Spark jobs it ran."""
    sc, group = spark.sparkContext, f"job-count-{uuid.uuid4().hex}"
    sc.setJobGroup(group, "job count")
    try:
        result = action()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    return result, len(sc.statusTracker().getJobIdsForGroup(group))


@pytest.mark.parametrize("pruned", [False, True])
def test_search_and_topk_run_one_job_with_no_shuffle(spark, tiny, tiny_df, pruned):
    """The top-K is merged on the driver: search plus top-K is the search's
    one job, also when a ``pairs_frame`` restricts it (collecting its local
    relation runs no job); the answer's plan has no window and no hash
    exchange, and collecting it runs no job."""
    queries, data = tiny
    pairs = {(0, 1), (2, 5)} if pruned else None
    pairs_df = (
        pairs_frame(spark, pd.DataFrame(sorted(pairs), columns=["query_id", "traj_id"]))
        if pruned
        else None
    )
    top, jobs = _jobs(spark, lambda: topk_df(pairwise_search_df(
        spark, queries, tiny_df, "CMA", "DTW", pairs_df=pairs_df
    ), 1))
    rows, more_jobs = _jobs(spark, top.collect)
    assert (jobs, more_jobs) == (1, 0)
    plan = _plan(top)
    assert "Window" not in plan and "Exchange hashpartitioning" not in plan
    ref = topk(pairwise_results("CMA", "DTW", queries, data, pairs=pairs), 1)
    assert [r.asDict() for r in rows] == ref


def test_explode_points_matches_duckdb(spark, tiny, tiny_df):
    """Row ``(traj_id, seq, x, y)`` is point ``data[traj_id][seq]``, bit for
    bit, and each trajectory has one row per point: DuckDB unnests the
    input points, and the exploded frame equals its rows."""
    _, data = tiny
    nested = pa.table({
        "traj_id": pa.array(range(len(data)), pa.int64()),
        "pts": pa.array([t.tolist() for t in data], pa.list_(pa.list_(pa.float64()))),
    })
    want = duckdb.sql("""
        SELECT traj_id, seq, pt[1] AS x, pt[2] AS y FROM (
          SELECT traj_id, generate_subscripts(pts, 1) - 1 AS seq, unnest(pts) AS pt
          FROM nested)
        ORDER BY traj_id, seq
    """).df()
    got = explode_points(tiny_df).toPandas().sort_values(["traj_id", "seq"])
    assert got["traj_id"].value_counts().sort_index().tolist() == [len(t) for t in data]
    for col in ("traj_id", "seq"):
        assert got[col].tolist() == want[col].tolist()
    xy = got[["x", "y"]].to_numpy(np.float64)
    assert xy.tobytes() == want[["x", "y"]].to_numpy(np.float64).tobytes()
    assert xy.tobytes() == np.concatenate(data).tobytes()


SRC = str(Path(repro.__file__).parents[1])
SPARK_WORKER_VAR = "PYTHON_WORKER_FACTORY_SECRET"


def _run_isolated(script: str, tmp_path: Path, *path: str, **env: str) -> None:
    """Run ``script`` in a fresh interpreter, so this process's import state
    is untouched; it gets a scratch zip path as ``sys.argv[1]``. Its
    ``PYTHONPATH`` is ``path`` (default: ``src/``), and ``env`` adds to the
    environment, which never has Spark's worker variable otherwise."""
    base = {k: v for k, v in os.environ.items() if k != SPARK_WORKER_VAR}
    subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script), str(tmp_path / "mods.zip")],
        check=True, timeout=120,
        env={**base, "PYTHONPATH": os.pathsep.join(path or (SRC,)), **env},
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
        from repro.lazy_zip import install
        install()
        install()
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
        from repro.lazy_zip import install
        install()
        assert sys.path_hooks == hooks
        assert type(sys.path_importer_cache[sys.argv[1]]) is zipimport.zipimporter
        assert all(sys.path_importer_cache[p] is f for p, f in finders.items())
    """, tmp_path)


def _zip_on_path(tmp_path: Path) -> str:
    """An empty archive, to put before ``src/`` on a fresh interpreter's
    path: importing ``sitecustomize`` then caches a zip finder for it."""
    archive = tmp_path / "mods.zip"
    zipfile.ZipFile(archive, "w").close()
    return str(archive)


def test_sitecustomize_leaves_a_process_without_spark_alone(tmp_path):
    """Without Spark's worker variable (the driver, any other process) the
    start-up hook installs nothing and imports nothing of ``repro``."""
    _run_isolated(f"""
        import sys, zipimport
        import sitecustomize
        assert sitecustomize.__file__ == {os.path.join(SRC, "sitecustomize.py")!r}
        assert zipimport.zipimporter in sys.path_hooks
        assert type(sys.path_importer_cache[sys.argv[1]]) is zipimport.zipimporter
        assert [m for m in sys.modules if m.split(".")[0] == "repro"] == []
    """, tmp_path, _zip_on_path(tmp_path), SRC)


def test_sitecustomize_installs_the_lazy_importer_in_spark_processes(tmp_path):
    """With the variable set (Spark's Python daemon and workers) the hook
    installs the importer before any task, re-classing the finder cached
    while ``site`` looked for ``sitecustomize``, and imports only the
    stdlib-only installer: the daemon forks every worker."""
    _run_isolated("""
        import sys, zipimport
        from repro.lazy_zip import _LazyZipImporter
        assert _LazyZipImporter in sys.path_hooks
        assert zipimport.zipimporter not in sys.path_hooks
        assert type(sys.path_importer_cache[sys.argv[1]]) is _LazyZipImporter
        heavy = {"numpy", "pandas", "pyarrow", "pyspark", "py4j"} & set(sys.modules)
        assert heavy == set(), heavy
    """, tmp_path, _zip_on_path(tmp_path), SRC, **{SPARK_WORKER_VAR: "x"})


def test_sitecustomize_runs_the_one_it_shadows(tmp_path):
    """A ``sitecustomize`` later on the path (a distribution's own) still
    runs, also behind a second copy of the hook (a parent checkout's ``src/``
    before this one): each copy searches only the entries after its own."""
    later, copy = tmp_path / "later", tmp_path / "copy"
    later.mkdir()
    copy.mkdir()
    (later / "sitecustomize.py").write_text("import sys\nsys.shadowed_hook_ran = __file__\n")
    (copy / "sitecustomize.py").write_text(Path(SRC, "sitecustomize.py").read_text())
    for path in ((SRC, str(later)), (str(copy), SRC, str(later))):
        for env in ({}, {SPARK_WORKER_VAR: "x"}):
            _run_isolated(f"""
                import sys
                assert sys.shadowed_hook_ran == {str(later / "sitecustomize.py")!r}
            """, tmp_path, *path, **env)


def test_spark_python_workers_start_with_lazy_zip_imports(spark):
    """Spark's Python daemon installs the importer at start-up, so a plain
    RDD task, which never enters ``map_in_pandas``, holds no eager zip
    finder."""

    def probe(_):
        import sys
        import zipimport

        cache = sys.path_importer_cache.items()
        return [p for p, f in cache if type(f) is zipimport.zipimporter]

    n = spark.sparkContext.defaultParallelism
    got = spark.sparkContext.parallelize(range(n), n).map(probe).collect()
    assert got == [[]] * n


def test_search_leaves_the_calling_process_import_hooks_alone(spark, tiny, tiny_df):
    """The hook is installed in Spark's Python daemon and workers, never in
    the driver that runs the search."""
    queries, _ = tiny
    hooks = list(sys.path_hooks)
    assert pairwise_search_df(spark, queries, tiny_df, "CMA", "DTW").count() > 0
    assert sys.path_hooks == hooks and zipimport.zipimporter in hooks
