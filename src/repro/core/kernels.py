"""The row step of each DP family, and the scan primitives it uses.

Every DP in the package advances one query point at a time with its
family's row step, written here once:

- :func:`wed_row`: the WED family in theorem form (paper Eq. 7), with its
  fresh-start term;
- :func:`dtw_row`: DTW (Eq. 3 / Eq. 8);
- :func:`fd_row`: discrete Fréchet (Eq. 9).

A row step takes a leading *stack* axis: row i of several queries against
one data trajectory, shape ``(w, n)``, runs in the same array calls as the
row of one query, each stack row keeping the bits it has alone. A row with
no stack axis, shape ``(n,)``, is one query (SPRING's columns).

:func:`rows` runs them over all query points from one of two boundaries,
and is the one place that picks it: the *free* start of CMA
(:mod:`repro.core.cma`) or the classical *anchored* start of the full DP
(:mod:`repro.core.full_dp`). Its ``widths`` stack queries of different
lengths: row i runs only the queries longer than i, so each query ends on
its own last row. SPRING (:mod:`repro.baselines.spring`) calls
:func:`dtw_row` directly on its star-padded pair. Callers that pass
``starts``, the window start of each cell of the previous row, have it
carried along the optimal path; only CMA and SPRING do, and the full DP and
its callers pay nothing for it.

The ``min_{k<j}`` terms of the WED and DTW rows become *running minima*
after subtracting prefix sums, which numpy computes in O(n) per row — the
trick that keeps the Python-level work at O(m) rows instead of O(mn)
scalar ops. FD's (max, min) algebra does not unroll that way, so its row is
a scalar loop per stack row.
"""
from __future__ import annotations

import functools
import itertools

import numpy as np

from repro.core.costs import WedCosts

# Cells j ≥ 1 of a row, and their left neighbours j - 1, on any stack axis.
_CUR, _LEFT = np.s_[..., 1:], np.s_[..., :-1]


def running_min_argmin(x: np.ndarray, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Running minimum of ``x`` along its last axis, and the flat index
    (into ``x.ravel()``, from ``cells = _cells(x.shape)``) of a cell achieving it.

    Returns ``(rmin, rarg)`` with ``rmin[..., k] = min(x[..., :k+1])`` and
    ``x.ravel()[rarg[..., k]] == rmin[..., k]``. Ties resolve to the *latest*
    achieving index, which is immaterial for cost correctness (any optimal
    start is valid).
    """
    rmin = np.minimum.accumulate(x, axis=-1)
    hit = np.where(x == rmin, cells, 0)  # a row's first cell always hits
    return rmin, np.maximum.accumulate(hit, axis=-1)


@functools.lru_cache(maxsize=256)
def _cells(shape: tuple[int, ...]) -> np.ndarray:
    """The flat index of each cell of an array of ``shape`` (read-only): a
    gather along the last axis of a stack is one fancy index into
    ``ravel()`` with it. Cached, as every row of a DP has the same shape."""
    cells = np.arange(np.prod(shape, dtype=int)).reshape(shape)
    cells.flags.writeable = False
    return cells


def prefix_sums(x: np.ndarray) -> np.ndarray:
    """``P`` with ``P[0] = 0`` and ``P[k] = x[0] + … + x[k-1]`` (len+1)."""
    out = np.zeros(len(x) + 1)
    np.add.accumulate(x, out=out[1:])
    return out


def wed_row(C, sub_ins, dele, fresh, ins_pre, starts=None):
    """WED row i from row i-1 ``C`` (theorem form of Eq. 7):

    ``C'[j] = min(C[j] + dele, sub[j] + min_{k<j}(C[k] + ins(τd[k+1:j-1])), fresh[j])``

    ``C[j]`` is the best cost with τd[j] the last data point matched so
    far. The three terms delete τq[i] (τq[i-1]'s match stays at τd[j]);
    substitute τq[i] with τd[j], inserting the data points in between; or
    start fresh: substitute τq[i] with τd[j] after deleting all of τq[:i].
    ``fresh`` is that last term, priced by :func:`rows`' boundary. Eq. 7
    writes it only for j = 1, but when deleting a point can be cheaper than
    substituting it (e.g. ERP with a query point near the reference) it is
    optimal at interior j too. ``ins_pre`` are the insertion prefix sums,
    and ``sub_ins`` is ``sub[1:] + ins_pre[1:-1]``; on a stack, ``dele`` is a
    ``(w, 1)`` column.

    This is the theorem form, not the paper's ``C[i,j-1]``-rewrite of Eq. 7:
    the rewrite assumes ``C[i,j-1]`` was realised by the sub/ins path, the
    theorem form holds unconditionally.
    """
    n = C.shape[-1]
    c_del = C + dele
    # sub[j] + ins_pre[j] + min_{k<j}(C[k] - ins_pre[k+1])
    g = C - ins_pre[1:]
    if starts is None:
        c_sub = sub_ins + np.minimum.accumulate(g[_LEFT], axis=-1)
        np.minimum(c_del[_CUR], c_sub, out=c_del[_CUR])
        return np.minimum(c_del, fresh), None
    cells = _cells(g.shape)
    gm, ga = running_min_argmin(g, cells)
    c_sub = sub_ins + gm[_LEFT]
    c_mid = c_del.copy()  # starts compare against c_del
    np.minimum(c_mid[_CUR], c_sub, out=c_mid[_CUR])
    s_new = starts.copy()
    np.copyto(s_new[_CUR], starts.ravel()[ga[_LEFT]], where=c_sub < c_del[_CUR])
    return np.minimum(c_mid, fresh), np.where(fresh < c_mid, cells.ravel()[:n], s_new)


def dtw_row(C, sub, starts=None):
    """DTW row i from row i-1 ``C``:
    ``C'[j] = sub[j] + min(C[j], C'[j-1], C[j-1])``.

    Unrolls to ``P[j+1] + min_{k≤j}(a[k] - P[k])`` with
    ``a[k] = min(C[k], C[k-1])`` and P the prefix sums of ``sub``, here the
    running sums ``S[j] = P[j+1]``.
    """
    a = C.copy()
    np.minimum(a[_CUR], C[_LEFT], out=a[_CUR])
    S = np.add.accumulate(sub, axis=-1)
    a[_CUR] -= S[_LEFT]  # a[k] - P[k]; P[0] = 0
    if starts is None:
        return S + np.minimum.accumulate(a, axis=-1), None
    cells = _cells(C.shape)
    hm, ha = running_min_argmin(a, cells)
    # Which of (above, diag) achieved a[k] — carries the start position.
    src = cells.copy()
    src[_CUR] -= C[_CUR] > C[_LEFT]
    return S + hm, starts.ravel()[src.ravel()[ha]]


def fd_row(C, sub, starts=None):
    """Discrete-Fréchet row i from row i-1 ``C``:
    ``C'[j] = max(min(C[j], C'[j-1], C[j-1]), sub[j])``.

    The scalar loop runs on Python floats, once per stack row; starts are
    recovered afterwards, since once the row is known each cell's choice of
    predecessor is elementwise and "left" choices are runs that copy their
    left neighbour.
    """
    up, s = C.tolist(), sub.tolist()
    R = np.array(list(map(_fd_scan, up, s)) if C.ndim > 1 else _fd_scan(up, s))
    if starts is None:
        return R, None
    diag_wins = (C[_LEFT] <= C[_CUR]) & (C[_LEFT] <= R[_LEFT])
    left_wins = (R[_LEFT] <= C[_CUR]) > diag_wins  # and not diag_wins
    own = starts.copy()
    np.copyto(own[_CUR], starts[_LEFT], where=diag_wins)
    src = _cells(C.shape).copy()
    src[_CUR][left_wins] = 0  # a row's first cell is never a left choice
    return R, own.ravel()[np.maximum.accumulate(src, axis=-1)]


def _fd_scan(up: list[float], s: list[float]) -> list[float]:
    """One FD row on Python floats: ``up`` is the row above, ``s`` the sub costs."""
    left = max(up[0], s[0])
    row = [left]
    for u, diag, x in zip(up[1:], up, s[1:]):
        best = u if u < diag else diag
        if left < best:
            best = left
        left = best if best > x else x
        row.append(left)
    return row


def rows(kind: str, costs: WedCosts | np.ndarray, *, anchored: bool, starts=None, widths=None):
    """Yield ``(C, starts)`` for each row of a DP of kernel kind ``'wed'``,
    ``'dtw'`` or ``'fd'``, from its free or anchored boundary.

    Free (CMA): the window may open at any data point, so the first row is
    ``SUB[0]``. Anchored (the classical DP): it opens at τd[0], so τq[0]
    matches all of τd[:j+1] — a running sum of ``SUB[0]`` for DTW, a running
    max for FD — and for the WED family every start j first inserts τd[:j].

    By default the costs are one query's, and each row is ``(n,)``.
    ``widths`` stacks queries against one data trajectory, longest first
    (:func:`repro.core.cma.stack`): row i runs the first ``widths[i]`` of
    them, those longer than i, whose i-th points are the next ``widths[i]``
    cost rows, and ``C`` and ``starts`` are ``(widths[i], n)``.
    """
    if kind == "wed":
        ins_pre = prefix_sums(costs.insert)
        base = ins_pre[:-1] if anchored else 0.0  # the cost of opening at τd[j]
        # Each row's deletions and Σ DEL[:i] (a fresh start at row i deletes
        # τq[:i]): floats for one query, (w, 1) columns for a stack.
        if widths is None:
            DEL = costs.delete.tolist()
            deleted = itertools.accumulate(DEL, initial=0.0)
        else:
            live = np.arange(widths[0]) < np.array(widths)[:, None]
            per_query, sums = np.zeros(live.shape), np.zeros(live.shape)
            per_query[live] = costs.delete
            np.add.accumulate(per_query[:-1], axis=0, out=sums[1:])
            DEL, deleted = costs.delete[:, None], _levels(sums[live][:, None], widths)
        subs, dels = _levels(costs.sub, widths), _levels(DEL, widths)
        next(deleted), next(dels)  # row 0 has deleted nothing
        C = next(subs) + base
        yield C, starts
        for sub, dele, before in zip(subs, dels, deleted):
            if len(sub) < len(C):  # queries that ended on the row above leave the stack;
                # an unstacked row is n long on both sides
                C, starts = C[: len(sub)], starts if starts is None else starts[: len(sub)]
            C, starts = wed_row(
                C, sub[_CUR] + ins_pre[1:-1], dele, sub + (before + base), ins_pre, starts
            )
            yield C, starts
    elif kind in ("dtw", "fd"):
        subs = _levels(np.asarray(costs), widths)
        C = next(subs)
        if anchored:
            C = (np.add if kind == "dtw" else np.maximum).accumulate(C, axis=-1)
        yield C, starts
        step = dtw_row if kind == "dtw" else fd_row
        for sub in subs:
            if len(sub) < len(C):  # as above
                C, starts = C[: len(sub)], starts if starts is None else starts[: len(sub)]
            C, starts = step(C, sub, starts)
            yield C, starts
    else:
        raise ValueError(f"unknown kernel kind {kind!r}")


def _levels(values, widths):
    """``values`` one DP row at a time: row i alone (one query, no stack
    axis), or with ``widths`` the next ``widths[i]`` rows (a stack)."""
    if widths is None:
        return iter(values)
    return (values[e - w : e] for e, w in zip(itertools.accumulate(widths), widths))
