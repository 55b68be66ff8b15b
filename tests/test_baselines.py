"""Baseline algorithms: exact ones must equal CMA; approximate ones must be
valid (in-range windows, AR ≥ 1) and show the paper's quality ordering."""
from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.exacts import exacts, subtraj_distance_matrix
from repro.baselines.gb import gb_fd
from repro.baselines.pos_pss import pos, pss, segment_distances, suffix_distances
from repro.baselines.rls import RLSPolicy
from repro.baselines.spring import spring_dtw
from repro.core import costs as C
from repro.core.cma import cma
from tests.helpers import EDGE_SHAPES, full_distance, random_pair, random_traj


def _pair(case, offset=0, max_m=9, max_n=16):
    return random_pair(case, offset, max_m=max_m, max_n=max_n, min_n=2)


def _costs(kind, q, d, ref=None):
    """ERP for the WED family (reference point ``ref``), else DTW / FD."""
    if kind == "wed":
        return C.erp_costs(q, d, ref)
    return C.euclid_matrix(q, d)


def _refs(kind, d):
    """The ERP reference points to try: the origin, and a point inside the
    data as the pipeline's city centre is. DTW / FD have none."""
    return [None, d.mean(axis=0)] if kind == "wed" else [None]


_WED_BUILDERS = [
    lambda q, d: C.wed_unit_costs(q, d),
    lambda q, d: C.erp_costs(q, d),
    lambda q, d: C.edr_costs(q, d, eps=1.0),
]


# ---------------------------------------------------------------- ExactS ---
def _assert_exacts_optimal(kind, costs):
    """ExactS finds CMA's optimum, in a window that scores it."""
    dist, s, e = exacts(kind, costs)
    assert dist == pytest.approx(cma(kind, costs)[0])
    assert full_distance(kind, costs[:, s : e + 1]) == pytest.approx(dist)


@pytest.mark.parametrize("case", [*range(12), *EDGE_SHAPES])
@pytest.mark.parametrize("builder", range(3))
def test_exacts_equals_cma_wed_family(case, builder):
    q, d = _pair(case * 7 if isinstance(case, int) else case, builder)
    _assert_exacts_optimal("wed", _WED_BUILDERS[builder](q, d))


@pytest.mark.parametrize("case", [*range(12), *EDGE_SHAPES])
@pytest.mark.parametrize("kind", ["dtw", "fd"], ids=["dtw-dtw_costs", "fd-fd_costs"])
def test_exacts_equals_cma_sub_only(case, kind):
    q, d = _pair(case, 400)
    _assert_exacts_optimal(kind, C.euclid_matrix(q, d))


@pytest.mark.parametrize("seed", range(8))
def test_subtraj_matrix_consistent_with_full_dp(seed):
    q, d = _pair(seed + 500, max_m=6, max_n=9)
    costs = C.erp_costs(q, d)
    D = subtraj_distance_matrix("wed", costs)
    n = len(d)
    for s in range(n):
        for e in range(s, n):
            assert D[s, e] == pytest.approx(
                full_distance("wed", costs[:, s : e + 1])
            )
    assert np.all(np.isinf(D[np.tril_indices(n, -1)]))


# ---------------------------------------------------------------- Spring ---
@pytest.mark.parametrize("case", [*range(15), *EDGE_SHAPES])
def test_spring_equals_cma_dtw(case):
    q, d = _pair(case, 600)
    SUB = C.euclid_matrix(q, d)
    best, s, e, _ = spring_dtw(SUB)
    assert best == pytest.approx(cma("dtw", SUB)[0])
    # The found window must itself achieve the optimum.
    assert full_distance("dtw", SUB[:, s : e + 1]) == pytest.approx(best)


def _assert_valid_reports(SUB, reports, epsilon):
    """Reports are under ε, pairwise disjoint, and each states the cost of a
    real alignment of its window (at least the window's DTW)."""
    assert all(dist <= epsilon for dist, _, _ in reports)
    spans = sorted((s, e) for _, s, e in reports)
    assert all(prev_e < s for (_, prev_e), (s, _) in zip(spans, spans[1:]))
    for dist, s, e in reports:
        assert full_distance("dtw", SUB[:, s : e + 1]) <= dist + 1e-9


@pytest.mark.parametrize("seed", range(10))
def test_spring_on_tie_heavy_symbol_pairs(seed):
    """Symbol trajectories make many zero-cost cells, hence many equal-cost
    paths and starts: the optimum, its window and the ε-reports still hold."""
    q, d = random_pair(seed, 650, max_m=6, max_n=15, kind="symbol")
    SUB = C.euclid_matrix(q, d)
    best, s, e, reports = spring_dtw(SUB, epsilon=1.0)
    assert best == pytest.approx(cma("dtw", SUB)[0])
    assert full_distance("dtw", SUB[:, s : e + 1]) == pytest.approx(best)
    assert reports or best > 1.0
    _assert_valid_reports(SUB, reports, 1.0)


def test_spring_reports_pending_match_before_the_current_one():
    """SPRING's Fig. 4 order: a column first reports the pending match once
    no live cell can improve it, and only then considers its own match. A
    one-point query has a match under ε = 1.5 at each of the first two
    points; both are reported."""
    SUB = np.array([[0.85, 1.04, 9.0]])
    assert spring_dtw(SUB, epsilon=1.5)[3] == [(0.85, 0, 0), (1.04, 1, 1)]


def test_spring_threshold_reports_disjoint_matches():
    """With a finite ε, SPRING emits disjoint subsequences all under ε."""
    rng = np.random.default_rng(3)
    q = random_traj(rng, 4)
    d = np.vstack([q, random_traj(rng, 6) + 30, q, random_traj(rng, 3) + 60])
    SUB = C.euclid_matrix(q, d)
    _, _, _, reports = spring_dtw(SUB, epsilon=0.5)
    assert len(reports) >= 2
    _assert_valid_reports(SUB, reports, 0.5)


# -------------------------------------------------------------------- GB ---
@pytest.mark.parametrize("seed", range(15))
def test_gb_equals_cma_fd(seed):
    q, d = _pair(seed + 700)
    SUB = C.euclid_matrix(q, d)
    g_best, g_s, g_e = gb_fd(SUB)
    assert g_best == pytest.approx(cma("fd", SUB)[0])
    assert full_distance("fd", SUB[:, g_s : g_e + 1]) == pytest.approx(g_best)


# ----------------------------------------------------- segment_distances ---
@pytest.mark.parametrize("kind", ["wed", "dtw", "fd"])
@pytest.mark.parametrize("case", [*range(6), *EDGE_SHAPES])
def test_incremental_dp_matches_full_dp(kind, case):
    q, d = _pair(case, 800, max_m=7, max_n=12)
    n = len(d)
    for ref_point in _refs(kind, d):
        costs = _costs(kind, q, d, ref_point)
        for s in range(n):
            got = list(segment_distances(kind, costs, s))
            assert len(got) == n - s
            for t, dist in enumerate(got, start=s):
                ref = full_distance(kind, costs[:, s : t + 1])
                assert dist == pytest.approx(ref), (kind, s, t)


def test_incremental_dp_prices_unmatched_segments():
    """Substitution dearer than delete + insert: nothing matches, so every
    segment costs Σ del + Σ ins."""
    costs = C.WedCosts(np.full((3, 5), 10.0), np.ones(3), np.ones(5))
    assert list(segment_distances("wed", costs, 0)) == [4.0, 5.0, 6.0, 7.0, 8.0]


@pytest.mark.parametrize("kind", ["wed", "dtw", "fd"])
@pytest.mark.parametrize("seed", range(6))
def test_best_window_in_suffix_signal(kind, seed):
    """The best window inside each suffix τd[t:] is CMA over the suffix's
    cost slice (a strided view): bw[0] is the global optimum, bw is
    non-increasing in t, and each bw[t] is the best full-DP distance of a
    window inside the suffix, found where CMA says."""
    q, d = _pair(seed + 950, max_m=6, max_n=10)
    costs = _costs(kind, q, d)
    n = len(d)
    found = [cma(kind, costs[:, t:]) for t in range(n)]
    bw = np.array([f[0] for f in found])
    assert bw[0] == pytest.approx(cma(kind, costs)[0])
    assert np.all(np.diff(bw) >= -1e-12)
    for t, (dist, s, e) in enumerate(found):
        vals = [
            full_distance(kind, costs[:, a : b + 1])
            for a in range(t, n)
            for b in range(a, n)
        ]
        assert dist == pytest.approx(min(vals))
        assert full_distance(kind, costs[:, t + s : t + e + 1]) == pytest.approx(dist)


@pytest.mark.parametrize("kind", ["wed", "dtw", "fd"])
@pytest.mark.parametrize("case", [*range(6), *EDGE_SHAPES])
def test_suffix_distances_match_full_dp(kind, case):
    q, d = _pair(case, 900, max_m=7, max_n=12)
    n = len(d)
    for ref_point in _refs(kind, d):
        costs = _costs(kind, q, d, ref_point)
        sd = suffix_distances(kind, costs)
        for t in range(n):
            assert sd[t] == pytest.approx(
                full_distance(kind, costs[:, t:])
            ), t


# --------------------------------------------------------------- POS/PSS ---
@pytest.mark.parametrize("alg", [pos, pss])
@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("kind", ["wed", "dtw", "fd"])
def test_approx_algorithms_valid_and_never_better_than_optimal(alg, seed, kind):
    q, d = _pair(seed + 1100)
    costs = _costs(kind, q, d)
    dist, s, e = alg(kind, costs)
    n = len(d)
    assert 0 <= s <= e < n
    # The reported distance is the true distance of the reported window …
    assert full_distance(kind, costs[:, s : e + 1]) == pytest.approx(dist)
    # … and an approximation can never beat the exact optimum.
    assert dist >= cma(kind, costs)[0] - 1e-9


def test_pss_quality_dominates_pos_on_aggregate():
    """Paper §6.1: 'the result quality of PSS is better than that of POS'.

    Checked in aggregate over random instances (per-instance it may tie)."""
    rng = np.random.default_rng(42)
    pos_total, pss_total = 0.0, 0.0
    for _ in range(40):
        q = random_traj(rng, 6)
        d = np.vstack(
            [random_traj(rng, 5) + rng.normal(0, 5, 2), q + rng.normal(0, 0.3, q.shape), random_traj(rng, 5)]
        )
        costs = C.euclid_matrix(q, d)
        pos_total += pos("dtw", costs)[0]
        pss_total += pss("dtw", costs)[0]
    assert pss_total <= pos_total + 1e-9


# ------------------------------------------------------------------- RLS ---
@pytest.mark.parametrize("skip", [False, True])
def test_rls_policy_trains_and_returns_valid_windows(skip):
    rng = np.random.default_rng(11)
    episodes = []
    for _ in range(6):
        q = random_traj(rng, 5)
        d = np.vstack([random_traj(rng, 4) + 20, q + rng.normal(0, 0.2, q.shape)])
        episodes.append(("dtw", C.euclid_matrix(q, d)))
    policy = RLSPolicy(skip=skip, seed=0).train(episodes)
    q, d = _pair(77)
    costs = C.euclid_matrix(q, d)
    dist, s, e = policy.search("dtw", costs)
    assert 0 <= s <= e < len(d)
    assert dist >= cma("dtw", costs)[0] - 1e-9
    assert full_distance("dtw", costs[:, s : e + 1]) == pytest.approx(dist)


def test_rls_search_is_deterministic_after_training():
    rng = np.random.default_rng(5)
    q, d = random_traj(rng, 5), random_traj(rng, 20)
    costs = C.euclid_matrix(q, d)
    p = RLSPolicy(seed=1).train([("dtw", costs)])
    assert p.search("dtw", costs) == p.search("dtw", costs)
