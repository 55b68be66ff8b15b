"""RLS / RLS-Skip approximate baselines — learned split policies.

The originals (Wang et al. [26]) train a neural RL agent to decide, at each
scanned data point, whether to split the current segment. No deep-learning
stack exists in this container, so — per the reproduction's substitution
rule (DESIGN.md §4) — we train a **tabular Q-learning** policy over a
discretised state instead. The search loop, state signal (how the current
segment compares to the best found so far, and how far the scan has
progressed), and the action sets match the paper's description:

- RLS actions: {continue, split};
- RLS-Skip adds {skip}: keep the segment and skip the next decision point,
  trading answer quality for scan speed (the paper's Table 2/3 trade-off).

Reward: dense +/- on improvements of the running best, terminal reward
``opt / found`` (computed with CMA during training only).
"""
from __future__ import annotations

import numpy as np

from repro.baselines.pos_pss import segment_distances
from repro.core.cma import Result, cma
from repro.core.costs import WedCosts

_RATIO_BINS = np.array([1.0, 1.25, 1.6, 2.0, 3.0, 5.0])  # cur / best ratio
_POS_BINS = np.array([0.25, 0.5, 0.75])  # scan progress
_EPOCHS, _EXPLORE = 2, 0.25  # training sweeps over the episodes; ε-greedy rate
_ALPHA, _GAMMA = 0.3, 0.95  # Q-learning step size and discount


class RLSPolicy:
    """Tabular Q-learning split policy. ``skip=True`` gives RLS-Skip."""

    def __init__(self, skip: bool = False, seed: int = 0):
        self.skip = skip
        self.n_actions = 3 if skip else 2
        n_states = (len(_RATIO_BINS) + 1) * (len(_POS_BINS) + 1)
        self.Q = np.zeros((n_states, self.n_actions))
        self.rng = np.random.default_rng(seed)

    @staticmethod
    def _state(cur: float, best: float, t: int, n: int) -> int:
        ratio = cur / best if np.isfinite(best) and best > 0 else 10.0
        r = int(np.searchsorted(_RATIO_BINS, ratio))
        p = int(np.searchsorted(_POS_BINS, t / max(n - 1, 1)))
        return r * (len(_POS_BINS) + 1) + p

    def _run(self, kind: str, costs: WedCosts | np.ndarray, *, learn: bool = False) -> Result:
        n = costs.shape[1]
        dists = segment_distances(kind, costs, 0)
        best: Result = (np.inf, 0, 0)
        s = 0
        skip_next = False
        prev_sa: tuple[int, int] | None = None
        for t in range(n):
            cur = next(dists)
            reward = 0.0
            if cur < best[0]:
                reward = 1.0
                best = (cur, s, t)
            state = self._state(cur, best[0], t, n)
            if learn and prev_sa is not None:
                ps, pa = prev_sa
                self.Q[ps, pa] += _ALPHA * (
                    reward + _GAMMA * self.Q[state].max() - self.Q[ps, pa]
                )
            if skip_next:
                skip_next = False
                prev_sa = None
                continue
            if learn and self.rng.random() < _EXPLORE:
                action = int(self.rng.integers(self.n_actions))
            else:
                action = int(np.argmax(self.Q[state]))
            prev_sa = (state, action)
            if action == 1 and t + 1 < n:  # split
                s = t + 1
                dists = segment_distances(kind, costs, s)
            elif action == 2:  # skip next decision (RLS-Skip only)
                skip_next = True
        if learn and prev_sa is not None:
            opt = cma(kind, costs)[0]
            terminal = opt / best[0] if best[0] > 0 else 1.0
            ps, pa = prev_sa
            self.Q[ps, pa] += _ALPHA * (terminal - self.Q[ps, pa])
        return best

    def train(self, episodes: list[tuple[str, WedCosts | np.ndarray]]) -> "RLSPolicy":
        """ε-greedy Q-learning over (kind, costs) training pairs."""
        for _ in range(_EPOCHS):
            for kind, costs in episodes:
                self._run(kind, costs, learn=True)
        return self

    def search(self, kind: str, costs: WedCosts | np.ndarray) -> Result:
        """Greedy (deterministic) search with the learned policy."""
        return self._run(kind, costs)
