"""Full-trajectory DP distances: recursion-reference checks + paper examples."""
from __future__ import annotations

import numpy as np
import pytest

from repro.core import costs as C
from tests.helpers import (
    full_distance,
    random_symbol_traj,
    random_traj,
    recursive_distance,
    symbols,
)


@pytest.mark.parametrize("seed", range(15))
def test_wed_matches_recursion(seed):
    rng = np.random.default_rng(seed)
    q = random_symbol_traj(rng, int(rng.integers(1, 9)))
    d = random_symbol_traj(rng, int(rng.integers(1, 11)))
    costs = C.wed_unit_costs(q, d)
    assert full_distance("wed", costs) == pytest.approx(recursive_distance("wed", costs))


@pytest.mark.parametrize("seed", range(15))
def test_erp_matches_recursion(seed):
    rng = np.random.default_rng(seed + 50)
    q = random_traj(rng, int(rng.integers(1, 9)))
    d = random_traj(rng, int(rng.integers(1, 11)))
    costs = C.erp_costs(q, d)
    assert full_distance("wed", costs) == pytest.approx(recursive_distance("wed", costs))


@pytest.mark.parametrize("seed", range(15))
def test_dtw_matches_recursion(seed):
    rng = np.random.default_rng(seed + 100)
    q = random_traj(rng, int(rng.integers(1, 9)))
    d = random_traj(rng, int(rng.integers(1, 11)))
    SUB = C.euclid_matrix(q, d)
    assert full_distance("dtw", SUB) == pytest.approx(recursive_distance("dtw", SUB))


@pytest.mark.parametrize("seed", range(15))
def test_fd_matches_recursion(seed):
    rng = np.random.default_rng(seed + 150)
    q = random_traj(rng, int(rng.integers(1, 9)))
    d = random_traj(rng, int(rng.integers(1, 11)))
    SUB = C.euclid_matrix(q, d)
    assert full_distance("fd", SUB) == pytest.approx(recursive_distance("fd", SUB))


def test_wed_unmatched_boundary():
    """When substituting costs more than deleting plus inserting, the best
    alignment matches nothing: Θ = Σ del + Σ ins (Eq. 2's boundaries)."""
    costs = C.WedCosts(np.full((3, 4), 10.0), np.ones(3), np.ones(4))
    assert full_distance("wed", costs) == recursive_distance("wed", costs) == 7.0


def test_wed_unit_costs_equal_levenshtein():
    """Unit-cost WED (Example 1 setting) is exactly Levenshtein distance."""
    assert full_distance("wed", C.wed_unit_costs(symbols("kitten"), symbols("sitting"))) == 3.0
    assert full_distance("wed", C.wed_unit_costs(symbols("abc"), symbols("abc"))) == 0.0
    assert full_distance("wed", C.wed_unit_costs(symbols("abc"), symbols("z"))) == 3.0


def test_example1_structure_one_del_one_ins_two_sub():
    """A pair built with Example 1's edit structure (1 del + 1 ins + 2 sub)
    has unit-cost WED 4 — same accounting as the paper's Figure 4(a)."""
    q = symbols("bbcdxfgwj")  # q[2] extra, x / w substituted
    d = symbols("bcedyfghj")  # d[3]=e inserted, y / h substituted
    assert full_distance("wed", C.wed_unit_costs(q, d)) == pytest.approx(4.0)


def test_example2_dtw_multi_matching_is_cheaper_than_wed():
    """Example 2's point: DTW's multi-point matching can beat WED's
    one-to-one conversion on repeated points (0/1 point costs)."""
    q = symbols("aabbc")
    d = symbols("abc")
    sub = (q[:, 0][:, None] != d[:, 0][None, :]).astype(float)
    assert full_distance("dtw", sub) == pytest.approx(0.0)  # a,a→a; b,b→b; c→c
    assert full_distance("wed", C.wed_unit_costs(q, d)) == pytest.approx(2.0)  # 2 deletions


def test_dtw_known_zero_on_resampled():
    q = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    d = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    assert full_distance("dtw", C.euclid_matrix(q, d)) == pytest.approx(0.0)


def test_fd_known_value():
    q = np.array([[0.0, 0.0], [3.0, 0.0]])
    d = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
    assert full_distance("fd", C.euclid_matrix(q, d)) == pytest.approx(1.0)


def test_full_distance_dispatch_and_errors():
    rng = np.random.default_rng(0)
    q, d = random_traj(rng, 4), random_traj(rng, 5)
    assert full_distance("dtw", C.euclid_matrix(q, d)) >= 0
    assert full_distance("fd", C.euclid_matrix(q, d)) >= 0
    assert full_distance("wed", C.erp_costs(q, d)) >= 0
    with pytest.raises(ValueError):
        full_distance("lcss", C.euclid_matrix(q, d))


@pytest.mark.parametrize("seed", range(8))
def test_wed_triangle_and_identity(seed):
    """WED(τ, τ) = 0 under unit costs; distances are non-negative."""
    rng = np.random.default_rng(seed + 300)
    t = random_symbol_traj(rng, int(rng.integers(2, 10)))
    assert full_distance("wed", C.wed_unit_costs(t, t)) == pytest.approx(0.0)
    u = random_symbol_traj(rng, int(rng.integers(2, 10)))
    assert full_distance("wed", C.wed_unit_costs(t, u)) >= 0
