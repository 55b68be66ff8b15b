"""Pruning substrates: GBP (Spark ≡ numpy ≡ DuckDB SQL), KPF bounds
(Theorem B.1: never above the true optimum), the KPF survivor filter, and
KPF against the OSF-like envelope bound (App. C)."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro.core import costs as C
from repro.core.cma import cma
from repro.eval.table2 import city_params
from repro.roadnet.graph import RoadNetwork
from repro.search.api import build_pair_costs, kernel_kind, search_pair
from repro.search.local import pairwise_results, topk
from repro.search.pruning import (
    gbp_candidates_df,
    gbp_candidates_local,
    gbp_close_count,
    grid_cells,
    key_point_indices,
    kpf_bound,
    kpf_survivors,
)
from repro.synth_data import explode_points, make_queries, taxi_trajectories, trajectories_df
from tests.helpers import osf_bound, random_walk, walk_edges
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


@pytest.mark.parametrize("mu", [0.2, 0.5, 0.9])
def test_gbp_spark_equals_local(spark, sets, mu):
    queries, data = sets
    qpts = explode_points(trajectories_df(spark, queries)).withColumnRenamed(
        "traj_id", "query_id"
    )
    dpts = explode_points(trajectories_df(spark, data))
    got = gbp_candidates_df(spark, qpts, dpts, EPS, mu).toPandas()
    got_set = set(zip(got.query_id, got.traj_id))
    assert got_set == gbp_candidates_local(queries, data, EPS, mu)


def test_gbp_spark_matches_duckdb_oracle(spark, sets):
    """The inverted-grid-index dataflow vs the same query in DuckDB SQL."""
    queries, data = sets
    qpts = explode_points(trajectories_df(spark, queries)).withColumnRenamed(
        "traj_id", "query_id"
    )
    dpts = explode_points(trajectories_df(spark, data))
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


@pytest.mark.parametrize(
    "distance", ["DTW", "ERP", "EDR", "FD", "WED", "NetERP", "NetEDR", "SURS"]
)
@pytest.mark.parametrize("seed", range(8))
def test_kpf_bound_below_true_optimum_at_full_rate(distance, seed):
    """Theorem B.1: at r = 1 the bound is a true lower bound of min_j C_{m,j},
    for every distance function, when it prices points as the search does."""
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
    bound = kpf_bound(q, d, distance, r=1.0, **params)
    opt = cma(kernel_kind(distance), build_pair_costs(distance, q, d, **params))[0]
    assert bound <= opt + 1e-9


@pytest.mark.parametrize("distance", ["DTW", "ERP", "EDR", "FD"])
def test_kpf_survivors_keep_optimum_at_full_rate(sets, distance):
    """At r = 1 every bound is a true lower bound (Theorem B.1), so each
    query's optimal trajectory survives the filter."""
    queries, data = sets
    params = city_params("porto", distance)
    pairs = {(qid, tid) for qid in range(len(queries)) for tid in range(len(data))}
    kept = kpf_survivors(queries, data, pairs, distance, params, r=1.0)
    for qid, q in enumerate(queries):
        dists = [search_pair("CMA", distance, q, d, **params)[0] for d in data]
        assert (qid, int(np.argmin(dists))) in kept
    if distance == "DTW":
        assert len(kept) < len(pairs)


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
