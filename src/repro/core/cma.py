"""Conversion-Matching Algorithm (CMA) — paper §4–5, exact O(mn) kernels.

Each kernel returns ``(cost, start, end)`` where ``τd[start:end]``
(0-indexed, inclusive) is an optimal subtrajectory and ``cost`` equals
``min_{i≤j} Θ(τq, τd[i:j])`` (Eq. 6: ``min_j C_{m,j}``).

CMA is the classical distance DP with a *free-start* boundary, searched for
its best end: the rows of :func:`repro.core.kernels.rows` with
``anchored=False``, which the full-distance DP (:mod:`repro.core.full_dp`)
runs with ``anchored=True``. CMA alone carries window starts along the rows,
and reads each query's answer off the argmin of its own last row.

:func:`cma_stack` answers several queries against one data trajectory in
one pass over the rows (a query stack, :func:`stack`); :func:`cma` is a
stack of one. Every cell of a stack row is computed as it is for its query
alone, so both give the same bits. Tests check exactness against brute
force and agreement with ExactS.
"""
from __future__ import annotations

import numpy as np

from repro.core.costs import WedCosts
from repro.core.kernels import rows

Result = tuple[float, int, int]


def stack(lengths: list[int]) -> tuple[np.ndarray, list[int], np.ndarray]:
    """The query stack of queries of ``lengths`` (each ≥ 1):
    ``(points, widths, order)``.

    ``order`` lists the queries longest first (ties keep their order), the
    stack order; ``widths[i]`` counts those longer than i. ``points``
    indexes the queries' concatenated points, level by level: the i-th
    point of each of the first ``widths[i]`` queries of ``order``, the
    cost-row layout of :func:`repro.core.kernels.rows`.
    """
    lengths = np.asarray(lengths)
    order = np.argsort(-lengths, kind="stable")
    firsts = (np.cumsum(lengths) - lengths)[order]
    level = np.arange(lengths[order[0]])[:, None]
    live = level < lengths[order]  # (levels, queries): each row a prefix
    return (firsts + level)[live], live.sum(axis=1).tolist(), order


def cma_stack(distance_kind: str, costs: WedCosts | np.ndarray, widths: list[int]) -> list[Result]:
    """CMA for each query of a stack (:func:`stack`), in stack order:
    ``costs`` pairs the stack's points, level by level, with one data
    trajectory. A stack of one is :func:`cma`, whose rows have no stack
    axis: at these row lengths numpy spends ~20 % more per call on a
    ``(1, n)`` row than on an ``(n,)`` one."""
    if widths[0] == 1:
        return [cma(distance_kind, costs)]
    found: list[Result] = [None] * widths[0]
    n = costs.shape[1]
    starts = np.tile(np.arange(n), (widths[0], 1))
    levels = rows(distance_kind, costs, anchored=False, starts=starts, widths=widths)
    for (C, S), live in zip(levels, [*widths[1:], 0]):
        for k in range(live, len(C)):  # the queries whose last row this is
            j = int(np.argmin(C[k]))
            found[k] = float(C[k, j]), int(S[k, j]), j
    return found


def cma(distance_kind: str, costs: WedCosts | np.ndarray) -> Result:
    """CMA for kernel kind ``'wed'`` (Eq. 7), ``'dtw'`` (Eq. 8) or ``'fd'``
    (Eq. 9): exact, O(mn)."""
    for C, S in rows(distance_kind, costs, anchored=False, starts=np.arange(costs.shape[1])):
        pass
    j = int(np.argmin(C))
    return float(C[j]), int(S[j]), j
