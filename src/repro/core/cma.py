"""Conversion-Matching Algorithm (CMA) — paper §4–5, exact O(mn) kernels.

Each kernel returns ``(cost, start, end)`` where ``τd[start:end]``
(0-indexed, inclusive) is an optimal subtrajectory and ``cost`` equals
``min_{i≤j} Θ(τq, τd[i:j])`` (Eq. 6: ``min_j C_{m,j}``).

CMA is the classical distance DP with a *free-start* boundary, searched for
its best end: the rows of :func:`repro.core.kernels.rows` with
``anchored=False``, which the full-distance DP (:mod:`repro.core.full_dp`)
runs with ``anchored=True``. CMA alone carries window starts along the rows,
and reads the answer off the last row's argmin. Tests check exactness
against brute force and agreement with ExactS.
"""
from __future__ import annotations

import numpy as np

from repro.core.costs import WedCosts
from repro.core.kernels import rows

Result = tuple[float, int, int]


def cma(distance_kind: str, costs: WedCosts | np.ndarray) -> Result:
    """CMA for kernel kind ``'wed'`` (Eq. 7), ``'dtw'`` (Eq. 8) or ``'fd'``
    (Eq. 9): exact, O(mn)."""
    for C, S in rows(distance_kind, costs, anchored=False, starts=np.arange(costs.shape[1])):
        pass
    j = int(np.argmin(C))
    return float(C[j]), int(S[j]), j
