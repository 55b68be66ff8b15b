"""Benchmark for Table 2 (effectiveness harness).

One pytest-benchmark case per algorithm class: times the per-pair search
that Table 2 runs for every (query, optimal trajectory) pair, on the
bench-scale Porto profile, plus the full small-profile harness. The actual
table (paper vs measured numbers) is produced by ``jobs/table2.py`` and
recorded in EXPERIMENTS.md.
"""
from __future__ import annotations

import numpy as np
import pytest

from repro.eval.datasets import load_profile
from repro.eval.table2 import city_params, run_table2, train_policies
from repro.search.api import search_pair, supports


@pytest.fixture(scope="module")
def porto():
    profile, queries, data = load_profile("porto")
    params = city_params(profile.city, "DTW", bbox_scale=profile.bbox_scale)
    # Largest surviving pair: representative of a Table 2 cell's inner work.
    q = max(queries, key=len)
    d = max(data, key=len)
    return profile, queries, data, q, d, params


@pytest.mark.parametrize("algorithm", ["CMA", "ExactS", "Spring", "POS", "PSS", "RLS"])
@pytest.mark.parametrize("distance", ["DTW", "ERP"])
def test_bench_pair_search(benchmark, porto, algorithm, distance):
    _, _, _, q, d, params = porto
    if not supports(algorithm, distance):
        pytest.skip("not applicable")
    res = benchmark(lambda: search_pair(algorithm, distance, q, d, **params))
    assert res[0] >= 0


@pytest.mark.parametrize("algorithm,distance", [("CMA", "FD"), ("GB", "FD"), ("ExactS", "FD")])
def test_bench_pair_search_fd(benchmark, porto, algorithm, distance):
    _, _, _, q, d, params = porto
    res = benchmark(lambda: search_pair(algorithm, distance, q, d, **params))
    assert res[0] >= 0


def test_bench_rls_training(benchmark, porto):
    profile, queries, data, *_ = porto
    benchmark.pedantic(
        lambda: train_policies(
            queries[:3], data[:20], ("DTW",),
            lambda d: city_params(profile.city, d, bbox_scale=profile.bbox_scale),
        ),
        rounds=1,
        iterations=1,
    )


def test_bench_table2_harness_small(benchmark):
    """End-to-end harness cost at test scale (structure identical to bench)."""
    df = benchmark.pedantic(
        lambda: run_table2(profile_names=("porto-test",), distances=("DTW",)),
        rounds=1,
        iterations=1,
    )
    assert np.allclose(df[df.algorithm == "CMA"]["AR"].dropna(), 1.0)
