"""ExactS baseline (paper Algorithm 1, from Wang et al. [26]) — exact O(mn²).

For every start position ``s`` it runs the full distance DP of τq against
``τd[s:]`` (:func:`repro.core.full_dp.full_lastrow`), reading off
``Θ(τq, τd[s:e])`` for every end ``e ≥ s`` from the last DP row. The
resulting ``(start, end) → distance`` matrix is both ExactS's search space,
whose argmin is the answer, and what the paper's MR / RR effectiveness
metrics are defined over.
"""
from __future__ import annotations

import numpy as np

from repro.core.costs import WedCosts
from repro.core.full_dp import full_lastrow


def subtraj_distance_matrix(kind: str, costs: WedCosts | np.ndarray) -> np.ndarray:
    """Dense ``D[s, e] = Θ(τq, τd[s:e])`` (0-indexed, inclusive); inf for e < s."""
    n = costs.shape[1]
    D = np.full((n, n), np.inf)
    for s in range(n):
        D[s, s:] = full_lastrow(kind, costs[:, s:])
    return D


def exacts(kind: str, costs: WedCosts | np.ndarray) -> tuple[float, int, int]:
    """Best subtrajectory (Algorithm 1): the first (start, end) at the
    minimum of :func:`subtraj_distance_matrix`."""
    D = subtraj_distance_matrix(kind, costs)
    s, e = np.unravel_index(np.argmin(D), D.shape)
    return float(D[s, e]), int(s), int(e)
