"""Unified per-pair search API: (algorithm, distance fn, τq, τd) → result.

This is the single entry point the search layers, the table harnesses and
KPF call. ``DISTANCES`` maps each distance function to its kernel kind
(``wed`` / ``dtw`` / ``fd``) and cost model, ``build_pair_costs`` checks a
pair and builds its costs, and ``search_pair`` runs the algorithm that
``ALGORITHMS`` names; ``search_queries`` runs it for several queries
against one data trajectory, CMA in one stacked DP.
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
from repro.core.cma import Result, cma, cma_stack, stack
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


def check_finite(name: str, pts) -> None:
    """Rejects an empty ``pts``, whose empty row the DPs would fail on, and a
    NaN/±inf coordinate in ``pts``: the DPs would return NaN or a wrong
    window for it, and GBP's grid would put every such point in one cell."""
    if not np.size(pts) or not np.isfinite(pts).all(axis=None):
        raise ValueError(f"{name} must be non-empty and finite")


def build_pair_costs(distance: str, q: np.ndarray, d: np.ndarray, **params):
    """Cost arrays for one (τq, τd) pair. Graph-backed fns need ``graph=``.
    Rejects an empty or non-finite trajectory (:func:`check_finite`)."""
    for name, t in (("τq", q), ("τd", d)):
        check_finite(name, t)
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


def search_queries(
    algorithm: str,
    distance: str,
    qs: list[np.ndarray],
    d: np.ndarray,
    *,
    policy: RLSPolicy | None = None,
    **params,
) -> list[Result]:
    """:func:`search_pair` of each query of ``qs`` against ``d``, in order.

    CMA answers them all in one stacked DP (:func:`repro.core.cma.cma_stack`)
    over the costs of one :func:`build_pair_costs` call on the stack's
    concatenated points; every cost model is pointwise, so each cost, and
    each answer, has the bits of its own pair. Other algorithms run pair by
    pair.
    """
    if algorithm != "CMA":
        return [search_pair(algorithm, distance, q, d, policy=policy, **params) for q in qs]
    kind = kernel_kind(distance)
    for q in qs:  # the concatenation would hide an empty query
        check_finite("τq", q)
    if not qs:
        return []
    points, widths, order = stack([len(q) for q in qs])
    costs = build_pair_costs(distance, np.concatenate(qs)[points], d, **params)
    found = cma_stack(kind, costs, widths)
    answers: list[Result] = [None] * len(qs)
    for k, answer in zip(order, found):
        answers[k] = answer
    return answers
