"""Pruning substrates: GBP (Spark ≡ driver ≡ brute force ≡ DuckDB SQL), KPF bounds
(Theorem B.1: never above the true optimum, at any key-point rate), the KPF
survivor filter, and KPF against the OSF-like envelope bound (App. C)."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core import costs as C
from repro.core.cma import cma
from repro.eval.datasets import PROFILES
from repro.eval.table2 import city_params
from repro.roadnet.graph import RoadNetwork
from repro.search.api import build_pair_costs, kernel_kind
from repro.search.local import pairwise_results, topk
from repro.search.pruning import (
    gbp_candidates_df,
    gbp_candidates_local,
    grid_cells,
    key_point_indices,
    kpf_bound,
    kpf_survivors,
)
from repro.synth_data import explode_points, make_queries, taxi_trajectories, trajectories_df
from tests.helpers import gbp_close_count, osf_bound, random_walk, walk_edges
from tests.oracle import assert_equivalent

EPS = 0.8
NET = RoadNetwork(8, 8, seed=7)


@pytest.fixture(scope="module")
def sets():
    data = taxi_trajectories("porto", 8, seed=31, len_scale=0.5)
    queries = make_queries("porto", 3, len_range=(6, 10), seed=32)
    return queries, data


# --------------------------------------------------------------------- GBP


def test_grid_cells_basic():
    cells = grid_cells(np.array([[0.0, 0.0], [0.79, 0.81], [-0.1, 2.5]]), EPS)
    assert cells.tolist() == [[0, 0], [0, 1], [-1, 3]]


def test_gbp_close_count_manual():
    q = np.array([[0.5, 0.5], [10.0, 10.0]])
    d = np.array([[1.0, 1.0]])
    # q[0] is in a neighbouring cell of d[0]; q[1] is far away.
    assert gbp_close_count(q, d, EPS) == 1


def _point_frames(spark, queries, data):
    qpts = explode_points(trajectories_df(spark, queries)).withColumnRenamed(
        "traj_id", "query_id"
    )
    return qpts, explode_points(trajectories_df(spark, data))


@pytest.mark.parametrize("mu", [0.2, 0.5, 0.9])
def test_gbp_spark_equals_local(spark, sets, mu):
    queries, data = sets
    got = gbp_candidates_df(spark, *_point_frames(spark, queries, data), EPS, mu).toPandas()
    got_set = set(zip(got.query_id, got.traj_id))
    assert got_set == gbp_candidates_local(queries, data, EPS, mu)


def test_gbp_spark_matches_duckdb_oracle(spark, sets):
    """The grid-index kernel on Spark vs the same query in DuckDB SQL."""
    queries, data = sets
    qpts, dpts = _point_frames(spark, queries, data)
    got = gbp_candidates_df(spark, qpts, dpts, EPS, mu := 0.4)
    assert_equivalent(
        got,
        f"""
        WITH qc AS (SELECT query_id, seq,
                           CAST(floor(x/{EPS}) AS BIGINT) cx,
                           CAST(floor(y/{EPS}) AS BIGINT) cy FROM qpts),
             dc AS (SELECT DISTINCT traj_id,
                           CAST(floor(x/{EPS}) AS BIGINT) cx,
                           CAST(floor(y/{EPS}) AS BIGINT) cy FROM dpts),
             close AS (
               SELECT qc.query_id, dc.traj_id, count(DISTINCT qc.seq) AS close
               FROM qc JOIN dc
                 ON abs(qc.cx - dc.cx) <= 1 AND abs(qc.cy - dc.cy) <= 1
               GROUP BY qc.query_id, dc.traj_id),
             qlen AS (SELECT query_id, count(*) AS m FROM qpts GROUP BY query_id)
        SELECT close.query_id, close.traj_id
        FROM close JOIN qlen ON close.query_id = qlen.query_id
        WHERE close.close >= {mu} * qlen.m
        """,
        qpts=qpts,
        dpts=dpts,
    )


def _brute_force_gbp(queries, data, eps, mu) -> set[tuple[int, int]]:
    return {
        (qid, tid)
        for qid, q in enumerate(queries)
        for tid, d in enumerate(data)
        if gbp_close_count(q, d, eps) >= mu * len(q)
    }


def test_gbp_spark_exact_when_trajectories_span_batches(spark, sets):
    """Each trajectory's points are spread over partitions and cut into
    tiny Arrow batches; the collected frame must still give the brute-force
    survivors, whatever order its rows arrive in."""
    queries, data = sets
    qpts, dpts = _point_frames(spark, queries, data)
    dpts = dpts.repartition(3, "seq")
    parts = dpts.withColumn("part", F.spark_partition_id()).groupBy("traj_id")
    assert parts.agg(F.countDistinct("part").alias("n")).agg(F.min("n")).first()[0] > 1
    key = "spark.sql.execution.arrow.maxRecordsPerBatch"
    old = spark.conf.get(key)
    spark.conf.set(key, "5")
    try:
        for mu in (0.2, 0.5, 0.9):
            got = gbp_candidates_df(spark, qpts, dpts, EPS, mu).collect()
            assert {tuple(r) for r in got} == _brute_force_gbp(queries, data, EPS, mu)
    finally:
        spark.conf.set(key, old)


#: One-point trajectories around cells a careless key packing would merge:
#: (1, 0) with (0, 2³²) for ``(cx << 32) + cy`` and with (0, 1000) for
#: ``1000·cx + cy``, plus negative cells on both sides of 0.
CELL_QUERIES = [
    np.array([[1.5, 0.5]]),
    np.array([[-0.5, -0.5]]),
    np.array([[-3.5, 2.0**32 + 0.5]]),
]
CELL_DATA = [
    np.array([[0.5, 2.0**32 + 0.5]]),
    np.array([[0.5, 1000.5]]),
    np.array([[-1.5, -1.5]]),
    np.array([[-2.5, 2.0**32 - 0.5]]),
    np.array([[2.5, -0.5]]),
    np.array([[-5.5, -3.5]]),
]


def test_gbp_cell_keys_neither_collide_nor_break_on_negative_cells(spark):
    expected = _brute_force_gbp(CELL_QUERIES, CELL_DATA, 1.0, 1.0)
    assert expected == {(0, 4), (1, 2), (2, 3)}
    assert gbp_candidates_local(CELL_QUERIES, CELL_DATA, 1.0, 1.0) == expected
    got = gbp_candidates_df(spark, *_point_frames(spark, CELL_QUERIES, CELL_DATA), 1.0, 1.0)
    assert {tuple(r) for r in got.collect()} == expected


@pytest.mark.parametrize("case", ["no_close_point", "no_data"])
def test_gbp_empty_result_keeps_its_schema(spark, sets, case):
    queries, data = sets
    data = [d + 1e3 for d in data] if case == "no_close_point" else []
    assert gbp_candidates_local(queries, data, EPS, 0.2) == set()
    got = gbp_candidates_df(spark, *_point_frames(spark, queries, data), EPS, 0.2)
    assert got.schema.simpleString() == "struct<query_id:bigint,traj_id:bigint>"
    assert "ExistingRDD" not in got._jdf.queryExecution().executedPlan().toString()
    assert got.collect() == []


def _seeded_profile(name: str, seed: int):
    """``load_profile(name)`` with its input seed replaced, as perfbench's
    ``--seed`` draws it."""
    p = PROFILES[name]
    data = taxi_trajectories(
        p.city, p.n_traj, seed=seed, len_scale=p.len_scale, bbox_scale=p.bbox_scale
    )
    queries = make_queries(
        p.city, p.n_queries, len_range=p.query_len, seed=seed + 1000, data=data,
        bbox_scale=p.bbox_scale, noise_km=p.query_noise_km,
    )
    return p, queries, data


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", sorted(PROFILES))
def test_gbp_matches_brute_force_on_every_profile(name, seed):
    p, queries, data = _seeded_profile(name, seed)
    for mu in (0.0, p.gbp_mu, 1.0):
        got = gbp_candidates_local(queries, data, p.gbp_eps, mu)
        assert got == _brute_force_gbp(queries, data, p.gbp_eps, mu), mu


def test_gbp_counts_each_repeated_query_point():
    """Repeated points are distinct query points (``seq``) but one data cell."""
    q = np.array([[0.5, 0.5]] * 3 + [[10.5, 10.5]])
    d = np.array([[0.6, 0.6], [0.6, 0.6], [1.2, 0.4]])
    assert gbp_close_count(q, d, 1.0) == 3
    for mu in (0.0, 0.75, 0.8, 1.0):
        assert gbp_candidates_local([q], [d, d[::-1]], 1.0, mu) == _brute_force_gbp(
            [q], [d, d[::-1]], 1.0, mu
        )
    assert gbp_candidates_local([q], [d], 1.0, 0.75) == {(0, 0)}
    assert gbp_candidates_local([q], [d], 1.0, 0.8) == set()


@pytest.mark.parametrize(
    "q, d",
    [
        ([[np.nan, 0.5]], [[np.inf, 0.5]]),
        ([[0.5, 0.5], [np.inf, 0.5]], [[0.5, 0.5]]),
        ([[0.5, 0.5]], [[0.5, 0.5], [-np.inf, 0.5]]),
        ([[0.5, 0.5]], [[np.nan, 0.5]]),
    ],
    ids=["nan-vs-inf", "inf-query", "-inf-data", "nan-data"],
)
def test_gbp_rejects_non_finite_points(spark, q, d):
    """NaN and ±inf all fall in one grid cell (−2⁶³ after the int64 cast),
    so a NaN query survived against an inf trajectory; both entry points
    reject them instead (on Spark, ``trajectories_df`` already does)."""
    queries, data = [np.array(q)], [np.array(d)]
    with pytest.raises(ValueError, match="must be non-empty and finite"):
        gbp_candidates_local(queries, data, 1.0, 0.3)
    with pytest.raises(ValueError, match="must be non-empty and finite"):
        gbp_candidates_df(spark, *_point_frames(spark, queries, data), 1.0, 0.3)


@pytest.mark.parametrize("where", ["data", "queries"])
def test_gbp_rejects_an_empty_trajectory(where):
    """An empty trajectory has no rows in GBP's point frame; unchecked, it
    dropped out of the result instead of being rejected (at μ = 0 every
    other pair survives)."""
    q, d, empty = np.array([[0.5, 0.5]]), np.array([[0.6, 0.4]]), np.empty((0, 2))
    queries, data = ([q], [empty, d]) if where == "data" else ([q, empty], [d])
    with pytest.raises(ValueError, match="must be non-empty and finite"):
        gbp_candidates_local(queries, data, 1.0, 0.0)


def test_gbp_keeps_planted_match():
    """A trajectory containing the query verbatim always survives GBP."""
    rng = np.random.default_rng(0)
    q = np.cumsum(rng.normal(0, 0.2, (10, 2)), axis=0) + 5
    d = np.vstack([rng.uniform(0, 10, (5, 2)), q, rng.uniform(0, 10, (5, 2))])
    assert gbp_close_count(q, d, EPS) == len(q)
    assert (0, 0) in gbp_candidates_local([q], [d], EPS, mu=0.9)


# --------------------------------------------------------------------- KPF


def test_key_point_indices_sampling():
    assert key_point_indices(10, 0.3).tolist() == [0, 3, 6, 9]
    assert key_point_indices(1, 0.05).tolist() == [0]
    assert len(key_point_indices(100, 0.05)) == 5
    assert key_point_indices(6, 0.5).tolist() == [0, 2, 4]


ALL_DISTANCES = ["DTW", "ERP", "EDR", "FD", "WED", "NetERP", "NetEDR", "SURS"]


def _kpf_bound_and_optimum(distance: str, seed: int, r: float) -> tuple[float, float]:
    rng = np.random.default_rng(seed)
    if distance in ("NetERP", "NetEDR", "SURS"):
        q, d = random_walk(NET, 6, rng), random_walk(NET, 15, rng)
        if distance == "SURS":
            q, d = walk_edges(NET, q), walk_edges(NET, d)
        params = {"graph": NET}
    else:
        q = np.cumsum(rng.normal(0, 0.5, (6, 2)), axis=0)
        d = np.cumsum(rng.normal(0, 0.5, (15, 2)), axis=0)
        params = {"eps": 0.5}
    bound = kpf_bound(q, d, distance, r=r, **params)
    opt = cma(kernel_kind(distance), build_pair_costs(distance, q, d, **params))[0]
    return bound, opt


@pytest.mark.parametrize("distance", ALL_DISTANCES)
@pytest.mark.parametrize("seed", range(8))
def test_kpf_bound_below_true_optimum_at_full_rate(distance, seed):
    """Theorem B.1: at r = 1 the bound is a true lower bound of min_j C_{m,j},
    for every distance function, when it prices points as the search does;
    it sums or maxes non-negative costs, so it is never negative."""
    bound, opt = _kpf_bound_and_optimum(distance, seed, r=1.0)
    assert 0 <= bound <= opt + 1e-9


@pytest.mark.parametrize("r", [0.05, 0.2, 0.5])
@pytest.mark.parametrize("distance", ALL_DISTANCES)
def test_kpf_bound_below_true_optimum_below_full_rate(distance, r):
    """Key points are a subset of the query, so their unscaled sum (or max)
    stays a lower bound at every rate; an m/|K| extrapolation would not."""
    for seed in range(8):
        bound, opt = _kpf_bound_and_optimum(distance, seed, r=r)
        assert bound <= opt + 1e-9, (seed, bound, opt)


def _walk_sets(distance: str, seed: int) -> tuple[list, list]:
    """3 query and 12 data node walks on ``NET``, as edge walks for SURS."""
    rng = np.random.default_rng(seed)
    walks = [random_walk(NET, n, rng) for n in [6] * 3 + [15] * 12]
    if distance == "SURS":
        walks = [walk_edges(NET, w) for w in walks]
    return walks[:3], walks[3:]


@pytest.mark.parametrize("distance", ["DTW", "ERP", "EDR", "FD", "NetERP", "NetEDR", "SURS"])
def test_kpf_survivors_keep_optimum_at_full_rate(sets, distance):
    """At r = 1 every bound is a true lower bound (Theorem B.1), so each
    query's pruned top-1 is its unpruned top-1. The network distances run on
    node walks, so the graph cost models are checked through the pipeline."""
    if distance in ("NetERP", "NetEDR", "SURS"):
        cases = [(*_walk_sets(distance, seed), {"graph": NET}) for seed in range(5)]
    else:
        cases = [(*sets, city_params("porto", distance))]
    n_pairs = n_kept = 0
    for queries, data, params in cases:
        pairs = {(qid, tid) for qid in range(len(queries)) for tid in range(len(data))}
        kept = kpf_survivors(queries, data, pairs, distance, params, r=1.0)
        pruned = pairwise_results("CMA", distance, queries, data, pairs=kept, **params)
        unpruned = pairwise_results("CMA", distance, queries, data, **params)
        assert topk(pruned, 1) == topk(unpruned, 1)
        n_pairs, n_kept = n_pairs + len(pairs), n_kept + len(kept)
    if distance != "EDR":  # its bound keeps every pair of ``sets``
        assert n_kept < n_pairs


@pytest.mark.parametrize("distance", ["DTW", "ERP", "EDR", "FD"])
def test_empty_survivor_set_on_driver_path(sets, distance):
    """When GBP keeps no pair, KPF, the search and the top-K each pass the
    empty set through instead of failing on it."""
    queries, data = sets
    params = city_params("porto", distance)
    assert kpf_survivors(queries, data, set(), distance, params, r=0.5) == set()
    assert pairwise_results("CMA", distance, queries, data, pairs=set(), **params) == []
    assert topk([], 1) == []


# --------------------------------------------------------------- OSF-like


@pytest.mark.parametrize("distance", ["DTW", "ERP", "EDR", "FD"])
@pytest.mark.parametrize("seed", range(6))
def test_osf_bound_is_lower_bound(distance, seed):
    rng = np.random.default_rng(seed + 100)
    q = np.cumsum(rng.normal(0, 0.5, (5, 2)), axis=0) + 3
    d = np.cumsum(rng.normal(0, 0.5, (12, 2)), axis=0)
    bound = osf_bound(q, d, distance)
    opt = cma(kernel_kind(distance), build_pair_costs(distance, q, d, eps=0.5))[0]
    assert bound <= opt + 1e-9


def test_osf_weaker_than_kpf():
    """The comparison pruner is (weakly) looser than KPF at full rate —
    the property App. C's experiments rely on."""
    rng = np.random.default_rng(1)
    weaker = 0
    for _ in range(20):
        q = np.cumsum(rng.normal(0, 0.5, (6, 2)), axis=0) + rng.uniform(-5, 5, 2)
        d = np.cumsum(rng.normal(0, 0.5, (15, 2)), axis=0)
        if osf_bound(q, d, "DTW") <= kpf_bound(q, d, "DTW", r=1.0) + 1e-9:
            weaker += 1
    assert weaker >= 18
