"""Table 4 — summary of subtrajectory similarity search algorithms.

The paper's Table 4 is a static complexity/applicability summary, not an
experiment. We emit it programmatically from the same metadata the search
API uses (``supports``, ``EXACT_ALGORITHMS``), so the table and the code
cannot drift apart.
"""
from __future__ import annotations

import pandas as pd

from repro.search.api import EXACT_ALGORITHMS, supports

_DISTANCES = ("DTW", "ERP", "EDR", "FD", "NetERP", "NetEDR", "SURS", "LCSS", "LCRS")
_ORDER_SENSITIVE = {"LCSS", "LCRS"}

#: API name and complexity per algorithm (paper Table 4).
_META = {
    "CMA (Ours)": ("CMA", "O(mn)"),
    "ExactS [26]": ("ExactS", "O(mn^2)"),
    "Spring [19]": ("Spring", "O(mn)"),
    "Greedy Backtracking (GB) [8]": ("GB", "O(mn)"),
    "POS [26]": ("POS", "O(mn)"),
    "PSS [26]": ("PSS", "O(mn)"),
    "RLS [26]": ("RLS", "O(mn)"),
    "RLS-Skip [26]": ("RLS-Skip", "O(mn)"),
}


def run_table4() -> pd.DataFrame:
    """Rows: algorithm × (accuracy, one column per distance function)."""
    rows = []
    for label, (api, complexity) in _META.items():
        exact = api in EXACT_ALGORITHMS
        row = {"Algorithms": label, "Accuracy": "exact" if exact else "approx."}
        for dist in _DISTANCES:
            if dist in _ORDER_SENSITIVE:
                # Only the approximate scanners handle order-sensitive fns;
                # CMA / Spring / GB do not (paper §5.3), ExactS does.
                ok = not exact or api == "ExactS"
            else:
                ok = supports(api, dist)
            row[dist] = complexity if ok else "-"
        rows.append(row)
    return pd.DataFrame(rows)


def format_table4(df: pd.DataFrame) -> str:
    return df.to_string(index=False)
