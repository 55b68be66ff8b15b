"""AR / MR / RR metric definitions (paper §6.1)."""
from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.exacts import subtraj_distance_matrix
from repro.core import costs as C
from repro.core.cma import cma
from repro.eval import metrics
from tests.helpers import random_traj


def test_ar_basics():
    assert metrics.approximation_ratio(2.0, 1.0) == pytest.approx(2.0)
    assert metrics.approximation_ratio(1.0, 1.0) == pytest.approx(1.0)
    assert metrics.approximation_ratio(0.0, 0.0) == pytest.approx(1.0)  # EDR ties


def test_mr_rr_against_matrix():
    D = np.array([[1.0, 3.0], [np.inf, 2.0]])
    assert metrics.mean_rank(1.0, D) == 1
    assert metrics.mean_rank(2.5, D) == 3
    assert metrics.relative_rank(1.0, D) == 0.0
    assert metrics.relative_rank(2.5, D) == pytest.approx(2 / 3 * 100)


def test_effectiveness_of_exact_algorithm_is_perfect():
    rng = np.random.default_rng(0)
    q, d = random_traj(rng, 5), random_traj(rng, 12)
    costs = C.euclid_matrix(q, d)
    D = subtraj_distance_matrix("dtw", costs)
    found = cma("dtw", costs)[0]
    eff = metrics.effectiveness(found, D)
    assert eff["AR"] == pytest.approx(1.0)
    assert eff["MR"] == 1
    assert eff["RR"] == 0.0


def test_effectiveness_of_suboptimal_answer_ranks_worse():
    rng = np.random.default_rng(1)
    q, d = random_traj(rng, 4), random_traj(rng, 10)
    costs = C.euclid_matrix(q, d)
    D = subtraj_distance_matrix("dtw", costs)
    finite = np.sort(D[np.isfinite(D)])
    found = float(finite[len(finite) // 2])  # median subtrajectory
    eff = metrics.effectiveness(found, D)
    assert eff["AR"] > 1.0
    assert eff["MR"] > 1
    assert 0.0 < eff["RR"] < 100.0
