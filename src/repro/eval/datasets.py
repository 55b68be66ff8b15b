"""Dataset profiles for the reproduction experiments.

``test`` profiles keep the suite fast; ``bench`` profiles are the scaled
stand-ins for the paper's Porto / Xi'an / Beijing setups. Counts and
lengths are scaled per DESIGN.md §4; the *relative* ordering across cities
(lengths ↑, counts ↓) mirrors the paper.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.synth_data import make_queries, taxi_trajectories


@dataclass(frozen=True)
class Profile:
    city: str
    n_traj: int
    n_queries: int
    query_len: tuple[int, int]
    len_scale: float = 1.0
    #: Shrinks the city frame to keep spatial density at the paper's level
    #: despite the scaled-down trajectory counts (DESIGN.md §4).
    bbox_scale: float = 1.0
    #: Query perturbation (km). Real queries are independent trajectories,
    #: not copies: enough noise keeps best-match distances non-trivial so
    #: the KPF funnel retains a realistic candidate set.
    query_noise_km: float = 0.25
    #: GBP grid side (km) and close-ratio threshold (App. C defaults scaled).
    gbp_eps: float = 1.0
    gbp_mu: float = 0.3
    #: KPF key-point rate. The paper's r = 0.05 relies on Eq. 28's m/|K|
    #: scaling, which is not a bound; the unscaled bound prunes at r = 1.
    kpf_r: float = 1.0
    seed: int = 0


PROFILES: dict[str, Profile] = {
    # Paper: Porto avg len 67, queries [4, 20]; Xi'an avg 401, queries
    # [80, 180]; Beijing avg 1705, queries [200, 600] — scaled ~1/1, ~1/3,
    # ~1/4 in length and to hundreds/tens of trajectories.
    "porto": Profile("porto", 160, 6, (8, 16), bbox_scale=0.2),
    "xian": Profile("xian", 80, 5, (28, 40), bbox_scale=0.25),
    "beijing": Profile("beijing", 24, 3, (70, 110), bbox_scale=0.3),
    # Tiny profiles for unit tests / smoke runs.
    "porto-test": Profile("porto", 12, 2, (6, 10), len_scale=0.5, bbox_scale=0.2, seed=1),
    "xian-test": Profile("xian", 8, 2, (10, 16), len_scale=0.25, bbox_scale=0.25, seed=2),
    "beijing-test": Profile("beijing", 5, 1, (12, 20), len_scale=0.08, bbox_scale=0.3, seed=3),
}


def load_profile(name: str) -> tuple[Profile, list[np.ndarray], list[np.ndarray]]:
    """(profile, queries, data trajectories), deterministic in the profile."""
    p = PROFILES[name]
    data = taxi_trajectories(
        p.city, p.n_traj, seed=p.seed, len_scale=p.len_scale, bbox_scale=p.bbox_scale
    )
    queries = make_queries(
        p.city,
        p.n_queries,
        len_range=p.query_len,
        seed=p.seed + 1000,
        data=data,
        bbox_scale=p.bbox_scale,
        noise_km=p.query_noise_km,
    )
    return p, queries, data


def dataset_label(profile_name: str) -> str:
    """Paper-facing dataset name (Porto / Xi'an / Beijing)."""
    return {"porto": "Porto", "xian": "Xi'an", "beijing": "Beijing"}[
        PROFILES[profile_name].city
    ]
