"""CMA exactness: kernels vs O(mn³) brute force, plus result validity, and
query stacks vs one pair at a time.

These are the load-bearing tests of the reproduction — they certify the
paper's central claim (CMA is *exact* in O(mn)) on randomized instances for
every distance family.
"""
from __future__ import annotations

import numpy as np
import pytest

from repro.core import costs as C
from repro.core.cma import cma, stack
from repro.roadnet.graph import RoadNetwork
from repro.search.api import search_pair, search_queries
from tests.helpers import (
    EDGE_SHAPES,
    brute_force_best,
    full_distance,
    random_pair,
    random_symbol_traj,
    random_traj,
    random_walk,
    symbols,
    walk_edges,
)


def _pair(case, offset=0, kind="spatial"):
    return random_pair(case, offset, max_m=9, max_n=14, kind=kind)


def _assert_cma_exact(kind, costs):
    got, s, e = cma(kind, costs)
    ref, *_ = brute_force_best(kind, costs)
    assert got == pytest.approx(ref), f"CMA {kind} cost mismatch"
    # Theorem 4.1: the returned window's own full-DP distance equals the cost
    # (no redundant prefix/suffix is ever profitable).
    n = (costs.sub if hasattr(costs, "sub") else np.asarray(costs)).shape[1]
    assert 0 <= s <= e < n
    assert full_distance(kind, costs[:, s : e + 1]) == pytest.approx(got)


@pytest.mark.parametrize("case", [*range(30), *EDGE_SHAPES])
def test_cma_wed_unit_exact(case):
    q, d = _pair(case, kind="symbol")
    _assert_cma_exact("wed", C.wed_unit_costs(q, d))


@pytest.mark.parametrize("case", [*range(30), *EDGE_SHAPES])
def test_cma_erp_exact(case):
    q, d = _pair(case, 1000)
    _assert_cma_exact("wed", C.erp_costs(q, d))
    # A reference point inside the data, as the pipeline's city centre is,
    # makes deleting a query point cheaper than substituting it at times.
    _assert_cma_exact("wed", C.erp_costs(q, d, ref=d.mean(axis=0)))


@pytest.mark.parametrize("case", [*range(20), *EDGE_SHAPES])
def test_cma_edr_exact(case):
    q, d = _pair(case, 2000)
    _assert_cma_exact("wed", C.edr_costs(q, d, eps=1.0))


@pytest.mark.parametrize("case", [*range(30), *EDGE_SHAPES])
def test_cma_dtw_exact(case):
    # Symbol points make many DP cells tie, so the window start must follow
    # the up / left / diagonal choice exactly.
    for kind in ("spatial", "symbol"):
        q, d = _pair(case, 3000, kind=kind)
        _assert_cma_exact("dtw", C.euclid_matrix(q, d))


@pytest.mark.parametrize("case", [*range(30), *EDGE_SHAPES])
def test_cma_fd_exact(case):
    for kind in ("spatial", "symbol"):  # symbol: ties, as for DTW
        q, d = _pair(case, 4000, kind=kind)
        _assert_cma_exact("fd", C.euclid_matrix(q, d))


@pytest.mark.parametrize(
    "kind,builder",
    [("wed", C.wed_unit_costs), ("dtw", C.euclid_matrix), ("fd", C.euclid_matrix)],
)
def test_embedded_query_found_exactly(kind, builder):
    """Plant τq verbatim inside τd: the optimum is that window at cost 0."""
    rng = np.random.default_rng(99)
    q = random_traj(rng, 6)
    d = np.vstack([random_traj(rng, 5) + 50, q, random_traj(rng, 4) - 50])
    cost, s, e = cma(kind, builder(q, d))
    assert cost == pytest.approx(0.0)
    assert (s, e) == (5, 10)


def test_cma_wed_single_point_query():
    """m = 1: best subtrajectory is the single closest data point."""
    q = symbols("c")
    d = symbols("abcda")
    cost, s, e = cma("wed", C.wed_unit_costs(q, d))
    assert cost == 0.0 and s == e == 2


def test_cma_wed_single_point_data():
    """n = 1: everything must convert into τd[1]."""
    q = symbols("ab")
    d = symbols("a")
    cost, s, e = cma("wed", C.wed_unit_costs(q, d))
    # sub(a,a)=0 then delete b → total 1
    assert cost == pytest.approx(1.0) and (s, e) == (0, 0)


def test_cma_dispatch_rejects_unknown_kind():
    with pytest.raises(ValueError):
        cma("lcss", np.ones((2, 2)))


@pytest.mark.parametrize("seed", range(10))
def test_cma_is_never_worse_than_full_distance(seed):
    """The best subtrajectory is at least as close as the whole τd."""
    q, d = _pair(seed + 5000)
    for kind, costs in [
        ("wed", C.erp_costs(q, d)),
        ("dtw", C.euclid_matrix(q, d)),
        ("fd", C.euclid_matrix(q, d)),
    ]:
        assert cma(kind, costs)[0] <= full_distance(kind, costs) + 1e-9


# ------------------------------------------------------------ query stacks
#
# A query stack runs the rows of several queries against one data
# trajectory at once (``cma_stack``). It must give each query the bits of
# its own pair: the brute-force tests above are the oracle for ``cma``, and
# the tests below compare the stack with it, (dist, start, end) by ``==``.

NET = RoadNetwork(8, 8, seed=7)

#: (distance, trajectory kind): symbol points make DP cells tie, and "ref"
#: is ERP with a reference point inside the data.
STACK_CASES = [
    ("DTW", "spatial"), ("DTW", "symbol"), ("FD", "spatial"), ("FD", "symbol"),
    ("WED", "symbol"), ("EDR", "spatial"), ("ERP", "spatial"), ("ERP", "ref"),
]


def _assert_stack_matches_pairs(distance, qs, d, **params):
    got = search_queries("CMA", distance, qs, d, **params)
    assert got == [search_pair("CMA", distance, q, d, **params) for q in qs]


def _stack_params(kind, d):
    return {"eps": 1.0, "ref": d.mean(axis=0) if kind == "ref" else None}


@pytest.mark.parametrize("case", range(12))
@pytest.mark.parametrize("distance,kind", STACK_CASES)
def test_stacked_cma_equals_one_pair_cma(distance, kind, case):
    """Stacks of 2–5 queries of 1–8 points, always one of a single point,
    in random order, against data of 1–13 points."""
    rng = np.random.default_rng(6000 + case)
    make = random_symbol_traj if kind == "symbol" else random_traj
    lengths = [1, *rng.integers(1, 9, size=int(rng.integers(1, 5)))]
    qs = [make(rng, int(m)) for m in rng.permutation(lengths)]
    d = make(rng, int(rng.integers(1, 14)))
    _assert_stack_matches_pairs(distance, qs, d, **_stack_params(kind, d))


@pytest.mark.parametrize("shape", EDGE_SHAPES)
@pytest.mark.parametrize("distance,kind", STACK_CASES)
def test_stacked_cma_on_edge_shapes(distance, kind, shape):
    """Queries of m, 1, m + 2 and m points against data of n points: m = 1,
    n = 1 and n < m, with two queries of one length."""
    m, n = shape
    rng = np.random.default_rng(6500)
    make = random_symbol_traj if kind == "symbol" else random_traj
    qs = [make(rng, k) for k in (m, 1, m + 2, m)]
    d = make(rng, n)
    _assert_stack_matches_pairs(distance, qs, d, **_stack_params(kind, d))


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("distance", ["NetERP", "NetEDR", "SURS"])
def test_stacked_cma_on_network_walks(distance, seed):
    """Node walks (edge walks for SURS) on a road network."""
    rng = np.random.default_rng(7000 + seed)
    qs = [random_walk(NET, k, rng) for k in (2, 7, 4, 7, 3)]
    d = random_walk(NET, int(rng.integers(2, 16)), rng)
    if distance == "SURS":
        qs, d = [walk_edges(NET, q) for q in qs], walk_edges(NET, d)
    _assert_stack_matches_pairs(distance, qs, d, graph=NET)


def test_stack_layout():
    """Longest query first, ties in input order; each level lists the i-th
    point of the queries still running, as offsets into the concatenation
    (queries start at 0, 2, 5 and 6)."""
    points, widths, order = stack([2, 3, 1, 3])
    assert order.tolist() == [1, 3, 0, 2]
    assert widths == [4, 3, 2]
    assert points.tolist() == [2, 6, 0, 5, 3, 7, 1, 4, 8]


def test_stacked_search_rejects_an_empty_query():
    """The concatenated points would hide an empty query."""
    rng = np.random.default_rng(0)
    q, d = random_traj(rng, 4), random_traj(rng, 6)
    with pytest.raises(ValueError, match="must be non-empty and finite"):
        search_queries("CMA", "DTW", [q, np.empty((0, 2))], d)
    assert search_queries("CMA", "DTW", [], d) == []
