"""Unified per-pair search API: (algorithm, distance fn, τq, τd) → result.

This is the single entry point the local and distributed search layers (and
the table harnesses) call. It routes a distance function to its kernel kind
(``wed`` / ``dtw`` / ``fd``), builds cost arrays, and dispatches to the
selected algorithm. Applicability follows the paper's Table 4: Spring is
DTW-only, GB is FD-only; everything else supports all order-insensitive
functions.
"""
from __future__ import annotations

import numpy as np

from repro.baselines.exacts import exacts
from repro.baselines.gb import gb_fd
from repro.baselines.pos_pss import pos, pss
from repro.baselines.rls import RLSPolicy
from repro.baselines.spring import spring_dtw
from repro.core import costs as C
from repro.core.cma import cma

Result = tuple[float, int, int]

EXACT_ALGORITHMS = ("CMA", "ExactS", "Spring", "GB")


def kernel_kind(distance: str) -> str:
    """Kernel family for a distance function name."""
    if distance in C.WED_FAMILY:
        return "wed"
    if distance == "DTW":
        return "dtw"
    if distance == "FD":
        return "fd"
    raise ValueError(f"unknown distance function {distance!r}")


def supports(algorithm: str, distance: str) -> bool:
    """Paper Table 4 applicability (dashes in Tables 2/3)."""
    if algorithm == "Spring":
        return distance == "DTW"
    if algorithm == "GB":
        return distance == "FD"
    return True


def build_pair_costs(distance: str, q: np.ndarray, d: np.ndarray, **params):
    """Cost arrays for one (τq, τd) pair. Graph-backed fns need ``graph=``."""
    if distance in ("NetERP", "NetEDR", "SURS"):
        from repro.roadnet.netcosts import build_net_costs

        return build_net_costs(
            distance, params["graph"], q, d, ref=params.get("ref", 0)
        )
    return C.build_costs(
        distance, q, d, eps=params.get("eps", 0.005), ref=params.get("ref")
    )


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
    costs = build_pair_costs(distance, q, d, **params)
    if algorithm == "CMA":
        return cma(kind, costs)
    if algorithm == "ExactS":
        return exacts(kind, costs)
    if algorithm == "Spring":
        return spring_dtw(np.asarray(costs))[:3]
    if algorithm == "GB":
        return gb_fd(np.asarray(costs))
    if algorithm == "POS":
        return pos(kind, costs)
    if algorithm == "PSS":
        return pss(kind, costs)
    if algorithm in ("RLS", "RLS-Skip"):
        if policy is None:
            policy = RLSPolicy(skip=algorithm == "RLS-Skip")
        return policy.search(kind, costs)
    raise ValueError(f"unknown algorithm {algorithm!r}")
