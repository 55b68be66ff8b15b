"""SPRING baseline (Sakurai, Faloutsos, Yamamuro, ICDE'07) — DTW only.

Stream-oriented subsequence matching under DTW: the DP of Eq. 3 with the
star-padding initialisation of Eq. 4 (``D[0, t] = 0``: a match may start at
any stream position), processed column-by-column as the data trajectory
"streams" in. Exact for DTW, O(mn).

Each column is one DTW row step (:func:`repro.core.kernels.dtw_row`) on
the transposed pair, the query with the zero star row prepended; the step
carries match starts, and the star cell's start is the current point.

Besides the optimum, SPRING's designed output is *every* disjoint
subsequence whose distance drops below a threshold ``epsilon``: each column
first reports the pending match once no live cell can still improve it,
then considers its own match (Fig. 4 of the ICDE paper). That check is the
extra work the paper's §6.2 notes makes SPRING slightly slower than CMA. We
run it every column even when ``epsilon`` is infinite so the measured cost
is faithful.
"""
from __future__ import annotations

import numpy as np

from repro.core.kernels import dtw_row


def spring_dtw(
    SUB: np.ndarray, epsilon: float = np.inf
) -> tuple[float, int, int, list[tuple[float, int, int]]]:
    """Returns ``(best, start, end, reports)``: the optimum, and the disjoint
    ``(dist, start, end)`` matches SPRING emits under threshold ``epsilon``
    (each ``dist`` is that of a path avoiding earlier matches' cells, so it
    can exceed the DTW of its own window, never fall below it)."""
    m, n = SUB.shape
    PAD = np.hstack([np.zeros((n, 1)), SUB.T])  # column t under the star row
    # D[i] = best cost of matching τq[:i] ending at the current stream
    # point, S[i] = where that match started; D[0] is the star row.
    D = np.r_[0.0, np.full(m, np.inf)]
    S = np.zeros(m + 1, dtype=np.int64)
    best, bs, be = np.inf, 0, 0
    dmin, cs, ce = np.inf, 0, 0  # the pending match of the ε-report protocol
    reports: list[tuple[float, int, int]] = []
    for t in range(n):
        S[0] = t  # a path through the star row starts its match at t
        D, S = dtw_row(D, PAD[t], S)
        if D[-1] < best:
            best, bs, be = float(D[-1]), int(S[-1]), t
        # Report the pending match once every cell either cannot beat it or
        # starts after it ends (the star cell starts at t, so it always
        # does); then drop the cells whose match overlaps it.
        if np.isfinite(dmin) and np.all((D >= dmin) | (S > ce)):
            reports.append((dmin, cs, ce))
            dmin = np.inf
            D[S <= ce] = np.inf
        if D[-1] <= epsilon and D[-1] < dmin:
            dmin, cs, ce = float(D[-1]), int(S[-1]), t
    if np.isfinite(dmin):
        reports.append((dmin, cs, ce))
    return best, bs, be, reports
