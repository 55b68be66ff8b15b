"""Conversion-Matching Algorithm (CMA) — paper §4–5, exact O(mn) kernels.

Each kernel returns ``(cost, start, end)`` where ``τd[start:end]``
(0-indexed, inclusive) is an optimal subtrajectory and ``cost`` equals
``min_{i≤j} Θ(τq, τd[i:j])`` (Eq. 6: ``min_j C_{m,j}``).

CMA is the classical distance DP with a *free-start* boundary, searched for
its best end. The row recurrences are not written here: each family's row
step lives in :mod:`repro.core.kernels`, shared with the full-distance DP
(:mod:`repro.core.full_dp`) and the incremental DP of POS/PSS/RLS. CMA
differs from them only in its boundary — the first row is the plain
substitution row ``SUB[0]`` (the window may open at any data point), and
for the WED family a fresh start costs nothing extra — and in carrying
window starts along the rows. Tests check exactness against brute force
and agreement with ExactS.
"""
from __future__ import annotations

import numpy as np

from repro.core.costs import WedCosts
from repro.core.kernels import prefix_sums, sub_rows, wed_rows

Result = tuple[float, int, int]


def cma(distance_kind: str, costs: WedCosts | np.ndarray) -> Result:
    """CMA for kernel kind ``'wed'`` (Eq. 7), ``'dtw'`` (Eq. 8) or ``'fd'``
    (Eq. 9): exact, O(mn)."""
    if distance_kind == "wed":
        starts = np.arange(costs.sub.shape[1])
        rows = wed_rows(costs, prefix_sums(costs.insert), 0.0, starts)
    elif distance_kind in ("dtw", "fd"):
        SUB = np.asarray(costs)
        rows = sub_rows(distance_kind, SUB, SUB[0], np.arange(SUB.shape[1]))
    else:
        raise ValueError(f"unknown kernel kind {distance_kind!r}")
    for C, S in rows:
        pass
    j = int(np.argmin(C))
    return float(C[j]), int(S[j]), j
