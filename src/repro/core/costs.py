"""Point-cost models for the general distance Θ (paper §2.2, §5.3).

Every kernel in :mod:`repro.core.cma` / :mod:`repro.core.full_dp` consumes
pre-computed cost arrays rather than raw trajectories, decoupling the DP from
the distance function:

- ``SUB``: (m, n) matrix, ``SUB[i, j] = sub(τq[i+1], τd[j+1])``;
- ``DEL``: (m,) vector, ``DEL[i] = del(τq[i+1])`` (WED family only);
- ``INS``: (n,) vector, ``INS[j] = ins(τd[j+1])`` (WED family only).

The WED family (paper §5.3) covers ERP, EDR and — with road-network
distances — NetERP, NetEDR, SURS. DTW and discrete Fréchet use SUB only
(``euclid_matrix``). :data:`repro.search.api.DISTANCES` picks the model.

Both kinds share one window protocol: ``costs.shape``, ``costs[rows, cols]``
(e.g. ``costs[:, s:e]`` or the reversed pair ``costs[::-1, ::-1]``) and
``costs.T`` (query and data swapped) act on :class:`WedCosts` as on SUB.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class WedCosts:
    """Cost arrays for a WED-family distance between one (τq, τd) pair."""

    sub: np.ndarray  # (m, n)
    delete: np.ndarray  # (m,)
    insert: np.ndarray  # (n,)

    def __post_init__(self) -> None:
        m, n = self.sub.shape
        assert self.delete.shape == (m,) and self.insert.shape == (n,)

    @property
    def shape(self) -> tuple[int, int]:
        return self.sub.shape

    @property
    def T(self) -> WedCosts:
        """The pair with query and data swapped: deletions become insertions."""
        return WedCosts(self.sub.T, self.insert, self.delete)

    def __getitem__(self, key: tuple[slice, slice]) -> WedCosts:
        """The costs of the window ``τq[rows]`` × ``τd[cols]``, sliced as SUB is."""
        rows, cols = key
        return WedCosts(self.sub[rows, cols], self.delete[rows], self.insert[cols])


def euclid_matrix(q: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances, shape (len(q), len(d))."""
    q = np.asarray(q, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    diff = q[:, None, :] - d[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def wed_unit_costs(q: np.ndarray, d: np.ndarray) -> WedCosts:
    """Unit-cost WED (the paper's Example 1): sub = 1[p≠q], ins = del = 1.

    Points compare equal when identical in every coordinate — used for the
    symbol-trajectory worked examples and edit-distance-style tests.
    """
    q = np.atleast_2d(np.asarray(q, dtype=np.float64))
    d = np.atleast_2d(np.asarray(d, dtype=np.float64))
    sub = (~np.isclose(q[:, None, :], d[None, :, :]).all(axis=2)).astype(np.float64)
    return WedCosts(sub, np.ones(len(q)), np.ones(len(d)))


def erp_costs(q: np.ndarray, d: np.ndarray, ref: np.ndarray | None = None) -> WedCosts:
    """ERP as a WED special case (paper §5.3 (i)).

    ``sub = d(q_i, d_j)``; deleting/inserting a point costs its distance to a
    fixed reference point ``ref`` (default: origin of the working frame).
    """
    q = np.asarray(q, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    if ref is None:
        ref = np.zeros(q.shape[1])
    ref = np.asarray(ref, dtype=np.float64)
    sub = euclid_matrix(q, d)
    delete = np.sqrt(((q - ref) ** 2).sum(axis=1))
    insert = np.sqrt(((d - ref) ** 2).sum(axis=1))
    return WedCosts(sub, delete, insert)


def edr_costs(q: np.ndarray, d: np.ndarray, eps: float) -> WedCosts:
    """EDR as a WED special case (paper §5.3 (ii)).

    ``ins = del = 1``; ``sub(q_i, d_j) = 0`` iff ``d(q_i, d_j) < eps`` else 1.
    (The paper's §5.3 text has a typo — ``d(τd[j], qc)`` — the EDR definition
    [5] compares the two *points*, which is what the C++ artifact does too.)
    """
    sub = (euclid_matrix(q, d) >= eps).astype(np.float64)
    return WedCosts(sub, np.ones(len(q)), np.ones(len(d)))
