"""CMA exactness: kernels vs O(mn³) brute force, plus result validity.

These are the load-bearing tests of the reproduction — they certify the
paper's central claim (CMA is *exact* in O(mn)) on randomized instances for
every distance family.
"""
from __future__ import annotations

import numpy as np
import pytest

from repro.core import costs as C
from repro.core.cma import cma
from tests.helpers import (
    EDGE_SHAPES,
    brute_force_best,
    full_distance,
    random_pair,
    random_traj,
    symbols,
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
