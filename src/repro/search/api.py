"""Unified per-pair search API: (algorithm, distance fn, τq, τd) → result.

This is the single entry point the search layers, the table harnesses and
KPF call. ``DISTANCES`` maps each distance function to its kernel kind
(``wed`` / ``dtw`` / ``fd``) and cost model, ``build_pair_costs`` checks a
pair and builds its costs, and ``search_pair`` runs the algorithm that
``ALGORITHMS`` names.
Applicability follows the paper's Table 4: Spring is DTW-only, GB is
FD-only; everything else supports all order-insensitive functions.
"""
from __future__ import annotations

import numpy as np

from repro.baselines.exacts import exacts
from repro.baselines.gb import gb_fd
from repro.baselines.pos_pss import pos, pss
from repro.baselines.rls import RLSPolicy
from repro.baselines.spring import spring_dtw
from repro.core import costs as C
from repro.core.cma import Result, cma
from repro.roadnet import netcosts as N

EXACT_ALGORITHMS = ("CMA", "ExactS", "Spring", "GB")


#: Distance function → (kernel kind, cost model ``(q, d, params) → costs``),
#: paper §5.3 and App. D; the graph-backed models read ``params["graph"]``.
DISTANCES = {
    "DTW": ("dtw", lambda q, d, p: C.euclid_matrix(q, d)),
    "FD": ("fd", lambda q, d, p: C.euclid_matrix(q, d)),
    "WED": ("wed", lambda q, d, p: C.wed_unit_costs(q, d)),
    "EDR": ("wed", lambda q, d, p: C.edr_costs(q, d, p.get("eps", 0.005))),
    "ERP": ("wed", lambda q, d, p: C.erp_costs(q, d, p.get("ref"))),
    "NetERP": ("wed", lambda q, d, p: N.neterp_costs(p["graph"], q, d, p.get("ref", 0))),
    "NetEDR": ("wed", lambda q, d, p: N.netedr_costs(p["graph"], q, d)),
    "SURS": ("wed", lambda q, d, p: N.surs_costs(p["graph"], q, d)),
}


def kernel_kind(distance: str) -> str:
    """Kernel family for a distance function name."""
    if distance not in DISTANCES:
        raise ValueError(f"unknown distance function {distance!r}")
    return DISTANCES[distance][0]


#: Algorithm → ``(kind, costs, policy) → Result``, in the Table 2/3 order.
#: RLS and RLS-Skip fall back to an untrained policy when none is given.
ALGORITHMS = {
    "POS": lambda kind, costs, policy: pos(kind, costs),
    "PSS": lambda kind, costs, policy: pss(kind, costs),
    "RLS": lambda kind, costs, policy: (policy or RLSPolicy()).search(kind, costs),
    "RLS-Skip": lambda kind, costs, policy: (policy or RLSPolicy(skip=True)).search(kind, costs),
    "CMA": lambda kind, costs, policy: cma(kind, costs),
    "ExactS": lambda kind, costs, policy: exacts(kind, costs),
    "Spring": lambda kind, costs, policy: spring_dtw(np.asarray(costs))[:3],
    "GB": lambda kind, costs, policy: gb_fd(np.asarray(costs)),
}


def supports(algorithm: str, distance: str) -> bool:
    """Paper Table 4 applicability (dashes in Tables 2/3)."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if algorithm == "Spring":
        return distance == "DTW"
    if algorithm == "GB":
        return distance == "FD"
    return True


def build_pair_costs(distance: str, q: np.ndarray, d: np.ndarray, **params):
    """Cost arrays for one (τq, τd) pair. Graph-backed fns need ``graph=``.

    Rejects an empty trajectory or a NaN/±inf coordinate: the DPs would
    return NaN or a wrong window for them, or fail on an empty row.
    """
    for name, t in (("τq", q), ("τd", d)):
        if np.size(t) == 0 or not np.isfinite(t).all():
            raise ValueError(f"{name} must be non-empty and finite")
    return DISTANCES[distance][1](q, d, params)


def search_pair(
    algorithm: str,
    distance: str,
    q: np.ndarray,
    d: np.ndarray,
    *,
    policy: RLSPolicy | None = None,
    **params,
) -> Result:
    """Best subtrajectory of ``d`` for query ``q`` under ``algorithm``."""
    if not supports(algorithm, distance):
        raise ValueError(f"{algorithm} does not support {distance} (paper Table 4)")
    kind = kernel_kind(distance)
    return ALGORITHMS[algorithm](kind, build_pair_costs(distance, q, d, **params), policy)
