"""Full-trajectory distance DPs (paper Eq. 2, Eq. 3, and discrete Fréchet).

These compute Θ(τq, τd) for *whole* trajectories, on whatever cost window
the caller passes: the per-start inner DP of ExactS, and the suffix (on the
reversed pair) and segment (on the transposed pair) distances of POS/PSS.
They run the rows of :func:`repro.core.kernels.rows` that CMA runs, from the
*anchored* boundary (the alignment must begin at τd[0]), and close them: a
DTW or FD row is already Θ of each data prefix, a WED row still needs the
insertion of the data points after its last match.
"""
from __future__ import annotations

import numpy as np

from repro.core.costs import WedCosts
from repro.core.kernels import prefix_sums, rows


def _close(C: np.ndarray, ins_pre: np.ndarray, deleted: float) -> np.ndarray:
    """``Θ(τq[:i+1], τd[:j+1])`` for every j, from the anchored WED row ``C``
    of query point i. The row ends at τd[j]'s match: insert what follows
    it, or delete τq[:i+1] (``deleted``) instead, Eq. 2's ``Σ del`` boundary.
    ``ins_pre`` are the prefix sums of the insertion costs."""
    return ins_pre[1:] + np.minimum(np.minimum.accumulate(C - ins_pre[1:]), deleted)


def full_lastrow(kind: str, costs: WedCosts | np.ndarray) -> np.ndarray:
    """Last DP row: ``row[j] = Θ(τq, τd[:j+1])`` for every prefix end j."""
    for C, _ in rows(kind, costs, anchored=True):
        pass
    if kind != "wed":
        return C
    return _close(C, prefix_sums(costs.insert), prefix_sums(costs.delete)[-1])


def prefix_distances(kind: str, costs: WedCosts | np.ndarray):
    """Yield ``Θ(τq[:i+1], τd)`` for i = 0, 1, …, one row step each."""
    anchored = rows(kind, costs, anchored=True)
    if kind != "wed":
        for C, _ in anchored:
            yield float(C[-1])
        return
    ins_pre, deleted = prefix_sums(costs.insert), 0.0
    for (C, _), dele in zip(anchored, costs.delete.tolist()):
        deleted += dele
        # The last cell of ``_close``: a running minimum's last value is the minimum.
        yield float(ins_pre[-1] + min(float(np.minimum.reduce(C - ins_pre[1:])), deleted))
