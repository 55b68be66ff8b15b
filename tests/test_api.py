"""Unified search API: dispatch, applicability matrix, local search + top-K."""
from __future__ import annotations

import numpy as np
import pytest

from repro.core.costs import WedCosts
from repro.eval.table2 import DEFAULT_ALGORITHMS
from repro.roadnet.graph import RoadNetwork
from repro.search.api import (
    DISTANCES,
    EXACT_ALGORITHMS,
    build_pair_costs,
    kernel_kind,
    search_pair,
    supports,
)
from repro.search.local import pairwise_results, topk
from repro.search.pruning import kpf_bound
from tests.helpers import random_traj, random_walk, walk_edges


def test_kernel_kind_mapping():
    for dist in ("WED", "EDR", "ERP", "NetERP", "NetEDR", "SURS"):
        assert kernel_kind(dist) == "wed"
    assert kernel_kind("DTW") == "dtw"
    assert kernel_kind("FD") == "fd"
    with pytest.raises(ValueError):
        kernel_kind("LCSS")


def test_distance_table_kind_matches_cost_type():
    """Each distance's kernel kind and cost model agree: the WED family
    builds ``WedCosts``, DTW and FD a bare SUB matrix."""
    assert set(DISTANCES) == {
        "DTW", "FD", "WED", "EDR", "ERP", "NetERP", "NetEDR", "SURS"
    }
    g = RoadNetwork(5, 5)
    rng = np.random.default_rng(5)
    walk = random_walk(g, 6, rng)
    for distance in DISTANCES:
        if distance == "SURS":
            q, d = walk_edges(g, walk[:3]), walk_edges(g, walk)
        elif distance.startswith("Net"):
            q, d = walk[:3], walk
        else:
            q, d = random_traj(rng, 3), random_traj(rng, 6)
        costs = build_pair_costs(distance, q, d, graph=g, eps=0.5)
        kind = kernel_kind(distance)
        if kind == "wed":
            assert isinstance(costs, WedCosts), distance
        else:
            assert kind in ("dtw", "fd") and type(costs) is np.ndarray, distance
        assert costs.shape == (len(q), len(d))


def _invalid_pair(case):
    rng = np.random.default_rng(11)
    q, d = random_traj(rng, 4), random_traj(rng, 7)
    if case == "nan":
        d[1, 0] = np.nan
    elif case == "inf":
        d[1, 1] = np.inf
    elif case == "-inf-query":
        q[2, 0] = -np.inf
    elif case == "empty-query":
        q = q[:0]
    elif case == "empty-data":
        d = d[:0]
    return q, d


@pytest.mark.parametrize("distance", ["DTW", "EDR", "ERP", "FD"])
@pytest.mark.parametrize(
    "case", ["nan", "inf", "-inf-query", "empty-query", "empty-data"]
)
def test_invalid_trajectories_rejected(distance, case):
    """Empty or non-finite trajectories are rejected where every search and
    KPF bound builds its costs, not answered with NaN or a wrong window."""
    q, d = _invalid_pair(case)
    with pytest.raises(ValueError, match="must be non-empty and finite"):
        search_pair("CMA", distance, q, d, eps=0.5)
    with pytest.raises(ValueError, match="must be non-empty and finite"):
        kpf_bound(q, d, distance, r=1.0, eps=0.5)


def test_supports_matches_paper_table4():
    assert supports("Spring", "DTW") and not supports("Spring", "ERP")
    assert supports("GB", "FD") and not supports("GB", "DTW")
    for alg in ("CMA", "ExactS", "POS", "PSS", "RLS", "RLS-Skip"):
        for dist in ("DTW", "EDR", "ERP", "FD"):
            assert supports(alg, dist)


def test_search_pair_rejects_unsupported_combo():
    rng = np.random.default_rng(0)
    q, d = random_traj(rng, 3), random_traj(rng, 5)
    with pytest.raises(ValueError):
        search_pair("Spring", "ERP", q, d)
    with pytest.raises(ValueError):
        search_pair("NoSuchAlg", "DTW", q, d)
    with pytest.raises(ValueError, match="unknown algorithm"):
        supports("NoSuchAlg", "DTW")


@pytest.mark.parametrize("distance", ["DTW", "ERP", "EDR", "FD"])
def test_all_exact_algorithms_agree(distance):
    rng = np.random.default_rng(7)
    q, d = random_traj(rng, 6), random_traj(rng, 14)
    results = {
        alg: search_pair(alg, distance, q, d, eps=0.5)[0]
        for alg in EXACT_ALGORITHMS
        if supports(alg, distance)
    }
    vals = list(results.values())
    assert all(v == pytest.approx(vals[0]) for v in vals), results


def test_build_pair_costs_net_requires_graph():
    g = RoadNetwork(5, 5)
    rng = np.random.default_rng(1)
    qn = random_walk(g, 3, rng)
    dn = random_walk(g, 6, rng)
    costs = build_pair_costs("NetERP", qn, dn, graph=g)
    assert costs.sub.shape == (3, 6)
    with pytest.raises(KeyError):
        build_pair_costs("NetERP", qn, dn)  # no graph supplied


def test_search_pair_net_distance_end_to_end():
    g = RoadNetwork(6, 6, seed=3)
    rng = np.random.default_rng(2)
    dw = random_walk(g, 15, rng)
    qw = dw[4:9]
    dist, s, e = search_pair("CMA", "NetEDR", qw, dw, graph=g)
    assert dist == pytest.approx(0.0)


def test_pairwise_results_and_topk():
    rng = np.random.default_rng(3)
    queries = [random_traj(rng, 4) for _ in range(2)]
    data = [random_traj(rng, 8) for _ in range(5)]
    rows = pairwise_results("CMA", "DTW", queries, data)
    assert len(rows) == 10
    best = topk(rows, k=2)
    assert len(best) == 4
    for qid in (0, 1):
        mine = [r for r in best if r["query_id"] == qid]
        all_q = sorted(r["dist"] for r in rows if r["query_id"] == qid)
        assert [r["dist"] for r in mine] == all_q[:2]


def test_pairwise_results_respects_pairs_filter():
    rng = np.random.default_rng(4)
    queries = [random_traj(rng, 4)]
    data = [random_traj(rng, 8) for _ in range(4)]
    rows = pairwise_results("CMA", "DTW", queries, data, pairs={(0, 1), (0, 3)})
    assert sorted((r["query_id"], r["traj_id"]) for r in rows) == [(0, 1), (0, 3)]


@pytest.mark.parametrize("distance", ["DTW", "EDR", "ERP", "FD"])
def test_pairwise_results_groups_give_each_pair_its_own_answer(distance):
    """The driver searches each trajectory against all of its surviving
    queries at once; each row still equals that pair's ``search_pair``,
    bit for bit, for groups of every size (none, one, several)."""
    rng = np.random.default_rng(5)
    queries = [random_traj(rng, m) for m in (4, 1, 6, 4)]
    data = [random_traj(rng, n) for n in (8, 3, 1, 9, 5)]
    groups = {0: [0], 1: [], 2: [0, 1, 2, 3], 3: [1, 3], 4: [3, 0, 2]}
    pairs = {(q, t) for t, qids in groups.items() for q in qids}
    rows = pairwise_results("CMA", distance, queries, data, pairs=pairs, eps=1.0)
    assert sorted((r["query_id"], r["traj_id"]) for r in rows) == sorted(pairs)
    for r in rows:
        want = search_pair("CMA", distance, queries[r["query_id"]], data[r["traj_id"]], eps=1.0)
        assert (r["dist"], r["start"], r["end"]) == want


def test_algorithm_registry_complete():
    assert set(EXACT_ALGORITHMS) <= set(DEFAULT_ALGORITHMS)
    assert set(DEFAULT_ALGORITHMS) == {
        "CMA", "ExactS", "Spring", "GB", "POS", "PSS", "RLS", "RLS-Skip"
    }
