"""The row step of each DP family, and the scan primitives it uses.

Every DP in the package advances one query point at a time with its
family's row step, written here once:

- :func:`wed_row`: the WED family in theorem form (paper Eq. 7), with its
  fresh-start term;
- :func:`dtw_row`: DTW (Eq. 3 / Eq. 8);
- :func:`fd_row`: discrete Fréchet (Eq. 9).

:func:`rows` runs them over all query points from one of two boundaries,
and is the one place that picks it: the *free* start of CMA
(:mod:`repro.core.cma`) or the classical *anchored* start of the full DP
(:mod:`repro.core.full_dp`). SPRING (:mod:`repro.baselines.spring`) calls
:func:`dtw_row` directly on its star-padded pair. Callers that pass
``starts``, the window start of each cell of the previous row, have it
carried along the optimal path; only CMA and SPRING do, and the full DP and
its callers pay nothing for it.

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
    ``fresh`` is that last term, priced by :func:`rows`' boundary. Eq. 7
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
    c_mid = c_del if starts is None else c_del.copy()  # starts compare against c_del
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


def rows(kind: str, costs: WedCosts | np.ndarray, *, anchored: bool, starts=None):
    """Yield ``(C, starts)`` for each query point of a DP of kernel kind
    ``'wed'``, ``'dtw'`` or ``'fd'``, from its free or anchored boundary.

    Free (CMA): the window may open at any data point, so the first row is
    ``SUB[0]``. Anchored (the classical DP): it opens at τd[0], so τq[0]
    matches all of τd[:j+1] — a running sum of ``SUB[0]`` for DTW, a running
    max for FD — and for the WED family every start j first inserts τd[:j].
    """
    if kind == "wed":
        SUB, DEL, ins_pre = costs.sub, costs.delete.tolist(), prefix_sums(costs.insert)
        base = ins_pre[:-1] if anchored else 0.0  # the cost of opening at τd[j]
        C = SUB[0] + base
        yield C, starts
        deleted = 0.0  # Σ DEL[:i]: a fresh start at row i deletes τq[:i]
        for i in range(1, len(SUB)):
            deleted += DEL[i - 1]
            C, starts = wed_row(C, SUB[i], DEL[i], SUB[i] + (deleted + base), ins_pre, starts)
            yield C, starts
    elif kind in ("dtw", "fd"):
        SUB = np.asarray(costs)
        C = (np.add if kind == "dtw" else np.maximum).accumulate(SUB[0]) if anchored else SUB[0]
        yield C, starts
        step = dtw_row if kind == "dtw" else fd_row
        for sub in SUB[1:]:
            C, starts = step(C, sub, starts)
            yield C, starts
    else:
        raise ValueError(f"unknown kernel kind {kind!r}")
