"""Table 2 harness — effectiveness (AR / MR / RR) of every algorithm.

Protocol (paper §6.1, adapted per DESIGN.md §3): for each query we locate
the data trajectory containing the *globally* optimal subtrajectory (CMA
over all data trajectories — exactness certified against ExactS in tests),
then run every algorithm on that (query, trajectory) pair. AR compares
distances; MR / RR rank the found distance among **all** subtrajectories of
that trajectory via the ExactS distance matrix. Exact algorithms must land
at AR = MR = 1, RR = 0 — the paper's headline effectiveness result.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.baselines.exacts import subtraj_distance_matrix
from repro.baselines.rls import RLSPolicy
from repro.eval import metrics
from repro.eval.datasets import dataset_label, load_profile
from repro.search.api import ALGORITHMS, build_pair_costs, kernel_kind, search_pair, supports
from repro.search.local import pairwise_results, topk
from repro.synth_data import CITY_SPECS

DEFAULT_DISTANCES = ("DTW", "EDR", "ERP", "FD")
DEFAULT_ALGORITHMS = tuple(ALGORITHMS)
_TRAIN_PAIRS = 6  # (query, data) episodes per distance that train the RLS policies


def city_params(city: str, distance: str, *, bbox_scale: float = 1.0) -> dict:
    """Per-city distance-function parameters: EDR ε and the ERP reference
    point q_c (the centre of the region, as in paper §5.3)."""
    w, h = CITY_SPECS[city]["bbox"]
    return {
        "eps": 0.25,
        "ref": np.array([w * bbox_scale / 2.0, h * bbox_scale / 2.0]),
    }


def train_policies(
    queries: list[np.ndarray],
    data: list[np.ndarray],
    distances: tuple[str, ...],
    params_for,
    *,
    seed: int = 0,
) -> dict[tuple[str, str], RLSPolicy]:
    """One tabular policy per (distance, ``"RLS"`` | ``"RLS-Skip"``), trained
    on a small sample of (query, data) episodes (DESIGN.md §4 substitution)."""
    rng = np.random.default_rng(seed)
    out: dict[tuple[str, str], RLSPolicy] = {}
    for distance in distances:
        kind = kernel_kind(distance)
        episodes = []
        for _ in range(_TRAIN_PAIRS):
            q = queries[int(rng.integers(len(queries)))]
            d = data[int(rng.integers(len(data)))]
            episodes.append((kind, build_pair_costs(distance, q, d, **params_for(distance))))
        for alg in ("RLS", "RLS-Skip"):
            out[(distance, alg)] = RLSPolicy(skip=alg == "RLS-Skip", seed=seed).train(episodes)
    return out


def run_table2(
    profile_names: tuple[str, ...] = ("porto", "xian"),
    distances: tuple[str, ...] = DEFAULT_DISTANCES,
    algorithms: tuple[str, ...] = DEFAULT_ALGORITHMS,
) -> pd.DataFrame:
    """Rows: (dataset, algorithm, distance, AR, MR, RR) — paper Table 2."""
    rows = []
    for pname in profile_names:
        profile, queries, data = load_profile(pname)
        params_for = lambda dist: city_params(  # noqa: E731
            profile.city, dist, bbox_scale=profile.bbox_scale
        )
        policies = train_policies(queries, data, distances, params_for, seed=profile.seed)
        for distance in distances:
            kind = kernel_kind(distance)
            params = params_for(distance)
            per_alg: dict[str, list[dict]] = {a: [] for a in algorithms}
            # Global optimum over all data trajectories: the driver's exact CMA
            # search, ties to the smallest traj_id.
            for best in topk(pairwise_results("CMA", distance, queries, data, **params), 1):
                q, d = queries[best["query_id"]], data[best["traj_id"]]
                D = subtraj_distance_matrix(kind, build_pair_costs(distance, q, d, **params))
                for alg in algorithms:
                    if not supports(alg, distance):
                        continue
                    found, _, _ = search_pair(
                        alg, distance, q, d,
                        policy=policies.get((distance, alg)), **params,
                    )
                    per_alg[alg].append(
                        metrics.effectiveness(
                            found, D, count_valued=distance in ("EDR", "NetEDR")
                        )
                    )
            for alg in algorithms:
                # No supported (alg, distance) pair leaves the means NaN.
                agg = pd.DataFrame(per_alg[alg], columns=["AR", "MR", "RR"], dtype=float).mean()
                rows.append(
                    dict(
                        dataset=dataset_label(pname),
                        algorithm=alg,
                        distance=distance,
                        AR=float(agg["AR"]),
                        MR=float(agg["MR"]),
                        RR=float(agg["RR"]),
                    )
                )
    return pd.DataFrame(rows)


def format_table2(df: pd.DataFrame) -> str:
    """Paper-shaped pivot: datasets × algorithms rows, distance metric cols."""
    out = []
    for dataset, block in df.groupby("dataset", sort=False):
        out.append(f"== {dataset} ==")
        piv = block.pivot(index="algorithm", columns="distance", values=["AR", "MR", "RR"])
        out.append(piv.round(4).to_string())
    return "\n".join(out)
