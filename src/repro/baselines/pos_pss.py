"""POS / PSS approximate baselines (reimplemented from descriptions in
paper §6.1; originals in Wang et al. [26]) — O(mn), approximate.

Both scan the data trajectory once, maintaining the distance
``Θ(τq, τd[s:t])`` of the *current segment* (split start ``s``) with an
incremental column DP (O(m) per appended point), and decide at each point
whether to split (restart the segment at ``t+1``):

- **POS** (prefix-only): split when appending the current point strictly
  worsened the segment distance — it never looks ahead.
- **PSS** (prefix–suffix): additionally requires that the remaining suffix
  looks more promising than the current segment
  (``Θ(τq, τd[t+1:n]) < Θ(τq, τd[s:t])``), using suffix distances
  precomputed in one backward DP (reversal symmetry of the distances).

The incremental column DP here is also the machinery RLS reuses.
"""
from __future__ import annotations

import numpy as np

from repro.core.costs import WedCosts
from repro.core.full_dp import full_lastrow, prefix_distances, slice_costs

Result = tuple[float, int, int]


def _transpose(costs: WedCosts | np.ndarray) -> WedCosts | np.ndarray:
    """The pair with query and data swapped: WED deletions become insertions."""
    if isinstance(costs, WedCosts):
        return WedCosts(costs.sub.T, costs.insert, costs.delete)
    return np.asarray(costs, dtype=np.float64).T


class IncrementalDP:
    """Column DP of ``Θ(τq, τd[s:t])`` supporting append-a-point in O(m).

    The column for τd[s:t] is the classical DP's row for the transposed pair
    (τd[s:t] against τq), so each append is one shared row step.
    """

    def __init__(self, kind: str, costs: WedCosts | np.ndarray):
        self.kind = kind
        self.costs = costs
        self.n = (costs.sub if isinstance(costs, WedCosts) else np.asarray(costs)).shape[1]
        self.reset(0)

    def reset(self, start: int) -> None:
        """Begin an empty segment whose first point will be ``τd[start]``."""
        suffix = _transpose(slice_costs(self.costs, start, self.n))
        self._dists = prefix_distances(self.kind, suffix)

    def append(self) -> float:
        """Extend the segment with the next data point; return Θ(τq, τd[s:t])."""
        return next(self._dists)


def _reverse_costs(costs: WedCosts | np.ndarray) -> WedCosts | np.ndarray:
    if isinstance(costs, WedCosts):
        return WedCosts(
            costs.sub[::-1, ::-1].copy(),
            costs.delete[::-1].copy(),
            costs.insert[::-1].copy(),
        )
    return np.asarray(costs)[::-1, ::-1].copy()


def suffix_distances(kind: str, costs: WedCosts | np.ndarray) -> np.ndarray:
    """``sd[t] = Θ(τq, τd[t:n])`` for every suffix start, one backward DP.

    Uses the reversal symmetry of WED/DTW/FD: Θ(q, d) = Θ(rev q, rev d).
    """
    row = full_lastrow(kind, _reverse_costs(costs))
    return row[::-1].copy()  # sd[t] = row[n - 1 - t]


def _split_scan(kind, costs, should_split) -> Result:
    """Shared scan: ``should_split(cur, t, s)`` decides restarts, where
    ``cur = Θ(τq, τd[s:t])``."""
    dp = IncrementalDP(kind, costs)
    n = dp.n
    best: Result = (np.inf, 0, 0)
    s = 0
    for t in range(n):
        cur = dp.append()
        if cur < best[0]:
            best = (cur, s, t)
        if t + 1 < n and should_split(cur, t, s):
            s = t + 1
            dp.reset(s)
    return best


def pos(kind: str, costs: WedCosts | np.ndarray) -> Result:
    """Prefix-Only Search: split at t when the current prefix segment
    already beats letting the segment run to the end of the trajectory
    (``Θ(τq, τd[s:t]) < Θ(τq, τd[s:n])``) — the split decision looks only
    at the segment *before* the split point (paper §6.1)."""
    sd = suffix_distances(kind, costs)
    return _split_scan(kind, costs, lambda cur, t, s: cur < sd[s])


def pss(kind: str, costs: WedCosts | np.ndarray) -> Result:
    """Prefix-Suffix Search: split at t when either the prefix segment or
    the remaining suffix beats letting the segment run to the end
    (``min(Θ(τq, τd[s:t]), Θ(τq, τd[t+1:n])) < Θ(τq, τd[s:n])``) — POS's
    rule plus the "subtrajectory after the splitting point" (paper §6.1).
    Strictly better-informed splits than POS; same O(mn)."""
    sd = suffix_distances(kind, costs)
    return _split_scan(
        kind, costs, lambda cur, t, s: min(cur, sd[t + 1]) < sd[s]
    )
