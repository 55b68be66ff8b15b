"""Conversion-Matching Algorithm (CMA) — paper §4–5, exact O(mn) kernels.

Each kernel returns ``(cost, start, end)`` where ``τd[start:end]``
(0-indexed, inclusive) is an optimal subtrajectory and ``cost`` equals
``min_{i≤j} Θ(τq, τd[i:j])`` (Eq. 6: ``min_j C_{m,j}``).

CMA is the classical distance DP with a *free-start* boundary, searched for
its best end. The row recurrences are not written here: every family's row
step lives in :mod:`repro.core.kernels` and is shared with the classical
full-distance DP (:mod:`repro.core.full_dp`) and the POS/PSS incremental
DP. Those callers differ from CMA only in the boundary row — CMA's first
row is the plain substitution row ``SUB[0]`` (the window may open at any
data point), and for the WED family a fresh start costs nothing extra —
and CMA is the only caller that carries window starts along the rows.
Tests check exactness against brute force and agreement with ExactS.
"""
from __future__ import annotations

import numpy as np

from repro.core.costs import WedCosts
from repro.core.kernels import prefix_sums, sub_rows, wed_rows

Result = tuple[float, int, int]


def cma_row(kind: str, costs: WedCosts | np.ndarray, starts=None):
    """Final CMA row ``(C[m, ·], starts)``: the best cost of a window ending
    at each j and, when ``starts`` gives the first row's starts, its start.

    Exposed because the row itself is useful — e.g. PSS derives its
    best-window-in-suffix signal from the reversed pair's final row.
    """
    if kind == "wed":
        rows = wed_rows(costs, prefix_sums(costs.insert), 0.0, starts)
    elif kind in ("dtw", "fd"):
        SUB = np.asarray(costs)
        rows = sub_rows(kind, SUB, SUB[0], starts)
    else:
        raise ValueError(f"unknown kernel kind {kind!r}")
    for row in rows:
        pass
    return row


def cma(distance_kind: str, costs: WedCosts | np.ndarray) -> Result:
    """Dispatch on kernel kind: ``'wed'`` | ``'dtw'`` | ``'fd'``."""
    n = (costs.sub if isinstance(costs, WedCosts) else np.asarray(costs)).shape[1]
    C, S = cma_row(distance_kind, costs, np.arange(n))
    j = int(np.argmin(C))
    return float(C[j]), int(S[j]), j


def cma_wed(costs: WedCosts) -> Result:
    """CMA for the WED family (Eq. 7 / Definition 7), exact, O(mn)."""
    return cma("wed", costs)


def cma_dtw(SUB: np.ndarray) -> Result:
    """CMA for DTW (Eq. 8), exact, O(mn)."""
    return cma("dtw", SUB)


def cma_fd(SUB: np.ndarray) -> Result:
    """CMA for discrete Fréchet distance (Eq. 9), exact, O(mn); the
    (max, min) rows are a scalar loop — same asymptotics, larger constant."""
    return cma("fd", SUB)
