"""Hypothesis property tests: CMA exactness and kernel invariants under
adversarial inputs (degenerate, duplicated, collinear trajectories)."""
from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import costs as C
from repro.core.cma import cma
from tests.helpers import brute_force_best, full_distance

_coord = st.floats(-5, 5, allow_nan=False, allow_infinity=False, width=32)


def _traj(min_len=1, max_len=8):
    return st.lists(
        st.tuples(_coord, _coord), min_size=min_len, max_size=max_len
    ).map(lambda pts: np.asarray(pts, dtype=np.float64))


@settings(max_examples=60, deadline=None)
@given(q=_traj(), d=_traj(min_len=1, max_len=10))
def test_cma_dtw_exact_property(q, d):
    costs = C.euclid_matrix(q, d)
    assert np.isclose(cma("dtw", costs)[0], brute_force_best("dtw", costs)[0])


@settings(max_examples=60, deadline=None)
@given(q=_traj(), d=_traj(min_len=1, max_len=10))
def test_cma_erp_exact_property(q, d):
    costs = C.erp_costs(q, d)
    assert np.isclose(cma("wed", costs)[0], brute_force_best("wed", costs)[0])


@settings(max_examples=60, deadline=None)
@given(q=_traj(), d=_traj(min_len=1, max_len=10))
def test_cma_fd_exact_property(q, d):
    costs = C.euclid_matrix(q, d)
    assert np.isclose(cma("fd", costs)[0], brute_force_best("fd", costs)[0])


@settings(max_examples=40, deadline=None)
@given(q=_traj(), d=_traj(min_len=1, max_len=10), eps=st.floats(0.01, 3.0))
def test_cma_edr_exact_property(q, d, eps):
    costs = C.edr_costs(q, d, eps=eps)
    assert np.isclose(cma("wed", costs)[0], brute_force_best("wed", costs)[0])


@settings(max_examples=40, deadline=None)
@given(q=_traj(), d=_traj(min_len=1, max_len=10))
def test_reported_window_achieves_reported_cost(q, d):
    for kind, costs in [
        ("wed", C.erp_costs(q, d)),
        ("dtw", C.euclid_matrix(q, d)),
        ("fd", C.euclid_matrix(q, d)),
    ]:
        dist, s, e = cma(kind, costs)
        assert 0 <= s <= e < len(d)
        assert np.isclose(full_distance(kind, costs[:, s : e + 1]), dist)


@settings(max_examples=30, deadline=None)
@given(d=_traj(min_len=2, max_len=10))
def test_query_equal_to_window_gives_zero(d):
    q = d[: max(1, len(d) // 2)]
    for kind, costs in [
        ("wed", C.erp_costs(q, d)),
        ("dtw", C.euclid_matrix(q, d)),
        ("fd", C.euclid_matrix(q, d)),
    ]:
        assert cma(kind, costs)[0] <= 1e-9
