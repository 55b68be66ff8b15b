"""The row step of each DP family, and the scan primitives it uses.

Every DP in the package advances one query point at a time with its
family's row step, written here once:

- :func:`wed_row`: the WED family in theorem form (paper Eq. 7), with its
  fresh-start term;
- :func:`dtw_row`: DTW (Eq. 3 / Eq. 8);
- :func:`fd_row`: discrete Fréchet (Eq. 9).

The callers differ only in the boundary row they start from (CMA's free
start in :mod:`repro.core.cma`, the classical anchored start in
:mod:`repro.core.full_dp`, SPRING's star row in :mod:`repro.baselines.spring`)
and in whether they pass ``starts``, the window start of each cell of the
previous row, to have it carried along the optimal path. Only CMA and SPRING
track starts; the full DP and its callers pay nothing for it.

The ``min_{k<j}`` terms of the WED and DTW rows become *running minima*
after subtracting prefix sums, which numpy computes in O(n) per row — the
trick that keeps the Python-level work at O(m) rows instead of O(mn)
scalar ops. FD's (max, min) algebra does not unroll that way, so its row is
a scalar loop.
"""
from __future__ import annotations

import numpy as np

from repro.core.costs import WedCosts


def running_min_argmin(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Running minimum of ``x`` and an index achieving it.

    Returns ``(rmin, rarg)`` with ``rmin[k] = min(x[:k+1])`` and
    ``x[rarg[k]] == rmin[k]``. Ties resolve to the *latest* achieving index,
    which is immaterial for cost correctness (any optimal start is valid).
    """
    rmin = np.minimum.accumulate(x)
    hit = np.where(x == rmin, np.arange(len(x)), 0)
    rarg = np.maximum.accumulate(hit)
    return rmin, rarg


def prefix_sums(x: np.ndarray) -> np.ndarray:
    """``P`` with ``P[0] = 0`` and ``P[k] = x[0] + … + x[k-1]`` (len+1)."""
    out = np.zeros(len(x) + 1)
    np.add.accumulate(x, out=out[1:])
    return out


def wed_row(C, sub, dele, fresh, ins_pre, starts=None):
    """WED row i from row i-1 ``C`` (theorem form of Eq. 7):

    ``C'[j] = min(C[j] + dele, sub[j] + min_{k<j}(C[k] + ins(τd[k+1:j-1])), fresh[j])``

    ``C[j]`` is the best cost with τd[j] the last data point matched so
    far. The three terms delete τq[i] (τq[i-1]'s match stays at τd[j]);
    substitute τq[i] with τd[j], inserting the data points in between; or
    start fresh: substitute τq[i] with τd[j] after deleting all of τq[:i].
    ``fresh`` is that last term, priced by the caller's boundary. Eq. 7
    writes it only for j = 1, but when deleting a point can be cheaper than
    substituting it (e.g. ERP with a query point near the reference) it is
    optimal at interior j too. ``ins_pre`` are the insertion prefix sums.

    This is the theorem form, not the paper's ``C[i,j-1]``-rewrite of Eq. 7:
    the rewrite assumes ``C[i,j-1]`` was realised by the sub/ins path, the
    theorem form holds unconditionally.
    """
    n = len(C)
    c_del = C + dele
    # sub[j] + ins_pre[j] + min_{k<j}(C[k] - ins_pre[k+1])
    g = C - ins_pre[1:]
    if starts is None:
        gm = np.minimum.accumulate(g)
    else:
        gm, ga = running_min_argmin(g)
    c_sub = sub[1:] + ins_pre[1:n] + gm[: n - 1]
    c_mid = c_del.copy()
    np.minimum(c_mid[1:], c_sub, out=c_mid[1:])
    c_new = np.minimum(c_mid, fresh)
    if starts is None:
        return c_new, None
    s_new = starts.copy()
    s_new[1:] = np.where(c_sub < c_del[1:], starts[ga[: n - 1]], starts[1:])
    return c_new, np.where(fresh < c_mid, np.arange(n), s_new)


def dtw_row(C, sub, starts=None):
    """DTW row i from row i-1 ``C``:
    ``C'[j] = sub[j] + min(C[j], C'[j-1], C[j-1])``.

    Unrolls to ``P[j+1] + min_{k≤j}(a[k] - P[k])`` with
    ``a[k] = min(C[k], C[k-1])`` and P the prefix sums of ``sub``.
    """
    n = len(C)
    a = C.copy()
    np.minimum(a[1:], C[:-1], out=a[1:])
    P = prefix_sums(sub)
    h = a - P[:n]
    if starts is None:
        return P[1:] + np.minimum.accumulate(h), None
    hm, ha = running_min_argmin(h)
    # Which of (above, diag) achieved a[k] — carries the start position.
    a_src = np.arange(n)
    a_src[1:] = np.where(C[1:] <= C[:-1], a_src[1:], a_src[1:] - 1)
    return P[1:] + hm, starts[a_src[ha]]


def fd_row(C, sub, starts=None):
    """Discrete-Fréchet row i from row i-1 ``C``:
    ``C'[j] = max(min(C[j], C'[j-1], C[j-1]), sub[j])``.

    The scalar loop runs on Python floats; starts are recovered afterwards,
    since once the row is known each cell's choice of predecessor is
    elementwise and "left" choices are runs that copy their left neighbour.
    """
    up, s = C.tolist(), sub.tolist()
    left = max(up[0], s[0])
    row = [left]
    for u, diag, x in zip(up[1:], up, s[1:]):
        best = u if u < diag else diag
        if left < best:
            best = left
        left = best if best > x else x
        row.append(left)
    R = np.array(row)
    if starts is None:
        return R, None
    diag_wins = (C[:-1] <= C[1:]) & (C[:-1] <= R[:-1])
    left_wins = ~diag_wins & (R[:-1] <= C[1:])
    own = starts.copy()
    own[1:] = np.where(diag_wins, starts[:-1], starts[1:])
    src = np.arange(len(C))
    src[1:][left_wins] = 0
    return R, own[np.maximum.accumulate(src)]


def wed_rows(costs: WedCosts, ins_pre, base, starts=None):
    """Yield ``(C, starts)`` for each query point of a WED-family DP.

    ``base`` is the boundary: what it costs to begin the window at each data
    point (0 for a free start, the insertion of the data prefix for an
    anchored one). It prices the first row and every fresh start.
    ``ins_pre`` are the prefix sums of ``costs.insert``.
    """
    SUB, DEL = costs.sub, costs.delete.tolist()
    C = SUB[0] + base
    yield C, starts
    deleted = 0.0  # Σ DEL[:i]: a fresh start at row i deletes τq[:i]
    for i in range(1, len(SUB)):
        deleted += DEL[i - 1]
        C, starts = wed_row(C, SUB[i], DEL[i], SUB[i] + (deleted + base), ins_pre, starts)
        yield C, starts


_SUB_ONLY_ROW = {"dtw": dtw_row, "fd": fd_row}


def sub_rows(kind: str, SUB: np.ndarray, first: np.ndarray, starts=None):
    """Yield ``(C, starts)`` for each query point of a DTW or FD DP whose
    boundary is the first row ``first``."""
    step = _SUB_ONLY_ROW[kind]
    C = first
    yield C, starts
    for i in range(1, len(SUB)):
        C, starts = step(C, SUB[i], starts)
        yield C, starts
