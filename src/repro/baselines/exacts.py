"""ExactS baseline (paper Algorithm 1, from Wang et al. [26]) — exact O(mn²).

For every start position ``s`` it runs the full distance DP of τq against
``τd[s:]`` (:func:`repro.core.full_dp.full_lastrow`), reading
off ``Θ(τq, τd[s:e])`` for every end ``e ≥ s`` from the last DP row. Besides
the O(mn²) baseline itself, the resulting ``(start, end) → distance`` matrix
is what the paper's MR / RR effectiveness metrics are defined over.
"""
from __future__ import annotations

import numpy as np

from repro.core.costs import WedCosts
from repro.core.full_dp import full_lastrow, slice_costs


def subtraj_distance_matrix(kind: str, costs: WedCosts | np.ndarray) -> np.ndarray:
    """Dense ``D[s, e] = Θ(τq, τd[s:e])`` (0-indexed, inclusive); inf for e < s."""
    n = (costs.sub if isinstance(costs, WedCosts) else np.asarray(costs)).shape[1]
    D = np.full((n, n), np.inf)
    for s in range(n):
        D[s, s:] = full_lastrow(kind, slice_costs(costs, s, n))
    return D


def exacts(kind: str, costs: WedCosts | np.ndarray) -> tuple[float, int, int]:
    """Best subtrajectory by exhaustive per-start DP (Algorithm 1)."""
    n = (costs.sub if isinstance(costs, WedCosts) else np.asarray(costs)).shape[1]
    best, bs, be = np.inf, 0, 0
    for s in range(n):
        row = full_lastrow(kind, slice_costs(costs, s, n))
        e = int(np.argmin(row))
        if row[e] < best:
            best, bs, be = float(row[e]), s, s + e
    return best, bs, be
