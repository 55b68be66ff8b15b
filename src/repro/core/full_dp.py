"""Full-trajectory distance DPs (paper Eq. 2, Eq. 3, and discrete Fréchet).

These compute Θ(τq, τd) for *whole* trajectories, on whatever cost window
the caller passes: the per-start inner DP of ExactS, and the suffix (on the
reversed pair) and segment (on the transposed pair) distances of POS/PSS.
The row recurrences are not written here: they are the shared row steps of
:mod:`repro.core.kernels`, which CMA runs too. The classical DP differs from
CMA only in the boundary row it starts from, the *anchored* one: the
alignment must begin at τd[0]. For DTW that is the running sum of
``SUB[0]``, for FD its running max; for the WED family every window start j
pays for inserting ``τd[:j]`` first.
"""
from __future__ import annotations

import numpy as np

from repro.core.costs import WedCosts
from repro.core.kernels import prefix_sums, sub_rows, wed_rows


def _anchored(kind: str, costs: WedCosts | np.ndarray):
    """The classical DP's rows — the shared row steps from the anchored
    boundary — and the WED insertion prefix sums that close them (None for
    DTW / FD, whose rows need no closing)."""
    if kind == "wed":
        ins_pre = prefix_sums(costs.insert)
        return wed_rows(costs, ins_pre, ins_pre[:-1]), ins_pre
    if kind in ("dtw", "fd"):
        SUB = np.asarray(costs)
        first = np.add.accumulate(SUB[0]) if kind == "dtw" else np.maximum.accumulate(SUB[0])
        return sub_rows(kind, SUB, first), None
    raise ValueError(f"unknown kernel kind {kind!r}")


def full_lastrow(kind: str, costs: WedCosts | np.ndarray) -> np.ndarray:
    """Last DP row: ``row[j] = Θ(τq, τd[:j+1])`` for every prefix end j."""
    rows, ins_pre = _anchored(kind, costs)
    for C, _ in rows:
        pass
    if ins_pre is None:
        return C
    # A WED row still ends at τd[j]'s match: insert what follows it, or
    # delete every query point instead (Eq. 2's ``Σ del`` boundary).
    deleted = prefix_sums(costs.delete)[-1]
    return ins_pre[1:] + np.minimum(np.minimum.accumulate(C - ins_pre[1:]), deleted)


def prefix_distances(kind: str, costs: WedCosts | np.ndarray):
    """Yield ``Θ(τq[:i+1], τd)`` for i = 0, 1, …, one row step each."""
    rows, ins_pre = _anchored(kind, costs)
    if ins_pre is None:
        for C, _ in rows:
            yield float(C[-1])
        return
    deleted = 0.0
    for (C, _), dele in zip(rows, costs.delete.tolist()):
        deleted += dele  # closed as in full_lastrow, at the last prefix only
        yield float(ins_pre[-1] + min((C - ins_pre[1:]).min(), deleted))
