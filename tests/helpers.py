"""Shared test utilities: tiny trajectory and road-network walk factories,
an O(mn³) brute-force reference and the OSF-like envelope bound KPF is
compared with.

The reference is *independent* of ``src/``: it scores every window with
the textbook memoised recursions below (Eq. 2, Eq. 3 and discrete Fréchet
cell by cell), not with the shared row steps that CMA, the full-distance DP
and the segment distances all run. :func:`full_distance` is the exception:
it is the package's own full DP, for scoring many windows quickly.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from repro.core.full_dp import full_lastrow
from repro.roadnet.graph import RoadNetwork

#: (m, n) shapes that stress the DP boundary rows: single points and n < m.
EDGE_SHAPES = [
    pytest.param((m, n), id=f"{m}x{n}") for m, n in ((1, 1), (1, 6), (6, 1), (7, 3))
]


def _wed_recursive(SUB, DEL, INS):
    @lru_cache(maxsize=None)
    def w(i, j):  # i, j = prefix lengths
        if i == 0 and j == 0:
            return 0.0
        best = np.inf
        if i > 0 and j > 0:
            best = min(best, w(i - 1, j - 1) + SUB[i - 1][j - 1])
        if i > 0:
            best = min(best, w(i - 1, j) + DEL[i - 1])
        if j > 0:
            best = min(best, w(i, j - 1) + INS[j - 1])
        return best

    return w(len(DEL), len(INS))


def _dtw_recursive(SUB):
    m, n = len(SUB), len(SUB[0])

    @lru_cache(maxsize=None)
    def w(i, j):  # i, j = 0-indexed endpoints
        if i == 0 and j == 0:
            return SUB[0][0]
        if i == 0:
            return w(0, j - 1) + SUB[0][j]
        if j == 0:
            return w(i - 1, 0) + SUB[i][0]
        return min(w(i - 1, j), w(i, j - 1), w(i - 1, j - 1)) + SUB[i][j]

    return w(m - 1, n - 1)


def _fd_recursive(SUB):
    m, n = len(SUB), len(SUB[0])

    @lru_cache(maxsize=None)
    def w(i, j):
        if i == 0 and j == 0:
            return SUB[0][0]
        if i == 0:
            return max(w(0, j - 1), SUB[0][j])
        if j == 0:
            return max(w(i - 1, 0), SUB[i][0])
        return max(min(w(i - 1, j), w(i, j - 1), w(i - 1, j - 1)), SUB[i][j])

    return w(m - 1, n - 1)


def recursive_distance(kind: str, costs) -> float:
    """Θ(τq, τd) of kernel kind ``'wed'`` | ``'dtw'`` | ``'fd'`` by recursion."""
    if kind == "wed":
        return _wed_recursive(
            tuple(map(tuple, costs.sub)), tuple(costs.delete), tuple(costs.insert)
        )
    SUB = tuple(map(tuple, np.asarray(costs)))
    return _dtw_recursive(SUB) if kind == "dtw" else _fd_recursive(SUB)


def full_distance(kind: str, costs) -> float:
    """Θ(τq, τd) by the package's full DP (the last cell of
    :func:`repro.core.full_dp.full_lastrow`), not by the independent
    recursion above: use it to check a window ``src/`` returns, or the DP
    against the recursion."""
    return float(full_lastrow(kind, costs)[-1])


def brute_force_best(kind: str, costs) -> tuple[float, int, int]:
    """Enumerate every subtrajectory, recurse on each — the ground truth."""
    n = costs.shape[1]
    best, bs, be = np.inf, 0, 0
    for s in range(n):
        for e in range(s, n):
            d = recursive_distance(kind, costs[:, s : e + 1])
            if d < best:
                best, bs, be = d, s, e
    return best, bs, be


def random_pair(case, offset=0, *, max_m, max_n, min_n=1, kind="spatial"):
    """A random (τq, τd) pair. ``case`` is either a seed (shape drawn below
    ``max_m`` / ``max_n``) or an edge shape ``(m, n)`` from ``EDGE_SHAPES``."""
    if isinstance(case, tuple):
        rng = np.random.default_rng(offset)
        m, n = case
    else:
        rng = np.random.default_rng(case + offset)
        m, n = int(rng.integers(1, max_m)), int(rng.integers(min_n, max_n))
    make = random_symbol_traj if kind == "symbol" else random_traj
    return make(rng, m), make(rng, n)


def random_traj(rng: np.random.Generator, n: int, dim: int = 2, scale: float = 1.0) -> np.ndarray:
    """Smooth-ish random trajectory (cumulative steps)."""
    return np.cumsum(rng.normal(0, scale, size=(n, dim)), axis=0)


def random_symbol_traj(rng: np.random.Generator, n: int, alphabet: int = 4) -> np.ndarray:
    """Symbol trajectory (1-D integer points) for unit-cost WED tests."""
    return rng.integers(0, alphabet, size=(n, 1)).astype(np.float64)


def symbols(s: str) -> np.ndarray:
    """Paper-style letter trajectory → 1-D points ('a' → 0.0, 'b' → 1.0 …)."""
    return np.array([[float(ord(c) - ord("a"))] for c in s])


def random_walk(net: RoadNetwork, length: int, rng: np.random.Generator) -> np.ndarray:
    """Node-id random walk of ``length`` steps on ``net`` from a random node
    (no immediate backtracking when avoidable): the map-matched trajectory
    model."""
    u = int(rng.integers(net.n_nodes))
    walk = [u]
    prev = -1
    for _ in range(length - 1):
        nbrs = [v for v, _ in net.adj[u]]
        choices = [v for v in nbrs if v != prev] or nbrs
        prev, u = u, int(choices[rng.integers(len(choices))])
        walk.append(u)
    return np.asarray(walk, dtype=np.int64)


def walk_edges(net: RoadNetwork, walk: np.ndarray) -> np.ndarray:
    """Edge-id sequence of a node walk (for SURS, whose points are edges).

    Edge id = index into ``net.edges``, whichever way the walk crosses it.
    """
    key = {}
    for idx, (u, v, _) in enumerate(net.edges):
        key[(u, v)] = idx
        key[(v, u)] = idx
    return np.asarray(
        [key[(int(a), int(b))] for a, b in zip(walk[:-1], walk[1:])],
        dtype=np.int64,
    )


def osf_bound(
    q: np.ndarray,
    d: np.ndarray,
    distance: str,
    *,
    eps: float = 0.005,
    ref: np.ndarray | None = None,
) -> float:
    """Bounding-envelope lower bound standing in for the OSF comparison
    pruner (DESIGN.md §4): each query point pays at least its distance to
    τd's bounding box (capped by the deletion cost where the distance
    function has one). The App. C tests check that KPF is the tighter one."""
    lo, hi = d.min(axis=0), d.max(axis=0)
    gap = np.maximum(np.maximum(lo - q, q - hi), 0.0)
    per_point = np.linalg.norm(gap, axis=1)
    if distance == "EDR":
        # sub ∈ {0,1}: only points provably farther than ε from every data
        # point (bbox gap ≥ ε) must pay; del would also cost 1.
        per_point = (per_point >= eps).astype(np.float64)
    elif distance == "ERP":
        ref = np.zeros(q.shape[1]) if ref is None else np.asarray(ref)
        per_point = np.minimum(per_point, np.linalg.norm(q - ref, axis=1))
    if distance == "FD":
        return float(per_point.max())
    return float(per_point.sum())
