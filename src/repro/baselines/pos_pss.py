"""POS / PSS approximate baselines (reimplemented from descriptions in
paper §6.1; originals in Wang et al. [26]) — O(mn), approximate.

Both scan the data trajectory once, maintaining the distance
``Θ(τq, τd[s:t])`` of the *current segment* (split start ``s``) with an
incremental DP (:func:`segment_distances`, O(m) per appended point), and
decide at each point whether to split (restart the segment at ``t+1``):

- **POS** (prefix-only): split when appending the current point strictly
  worsened the segment distance — it never looks ahead.
- **PSS** (prefix–suffix): additionally requires that the remaining suffix
  looks more promising than the current segment
  (``Θ(τq, τd[t+1:n]) < Θ(τq, τd[s:t])``), using suffix distances
  precomputed in one backward DP (reversal symmetry of the distances).

Both run the full DP (:mod:`repro.core.full_dp`) on a window of the cost
arrays; the segment distances are also the machinery RLS reuses.
"""
from __future__ import annotations

import numpy as np

from repro.core.cma import Result
from repro.core.costs import WedCosts
from repro.core.full_dp import full_lastrow, prefix_distances


def segment_distances(kind: str, costs: WedCosts | np.ndarray, start: int):
    """Yield ``Θ(τq, τd[start:t+1])`` for t = start, start + 1, …: the full
    DP's rows for the transposed pair, one O(m) row step per appended point."""
    return prefix_distances(kind, costs[:, start:].T)


def suffix_distances(kind: str, costs: WedCosts | np.ndarray) -> np.ndarray:
    """``sd[t] = Θ(τq, τd[t:n])`` for every suffix start, one backward DP.

    Uses the reversal symmetry of WED/DTW/FD: Θ(q, d) = Θ(rev q, rev d).
    """
    row = full_lastrow(kind, costs[::-1, ::-1])
    return row[::-1].copy()  # sd[t] = row[n - 1 - t]


def _split_scan(kind, costs, should_split) -> Result:
    """Shared scan: ``should_split(cur, t, s)`` decides restarts, where
    ``cur = Θ(τq, τd[s:t])``."""
    n = costs.shape[1]
    dists = segment_distances(kind, costs, 0)
    best: Result = (np.inf, 0, 0)
    s = 0
    for t in range(n):
        cur = next(dists)
        if cur < best[0]:
            best = (cur, s, t)
        if t + 1 < n and should_split(cur, t, s):
            s = t + 1
            dists = segment_distances(kind, costs, s)
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
