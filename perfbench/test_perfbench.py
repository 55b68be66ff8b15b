"""Checks on the benchmark itself: run with ``python3 -m pytest perfbench``.

The seed-0 funnel of a benchmark batch must equal the searched pairs that
``run_table3`` wrote to ``results/table3.csv``; that proves a batch runs the
same GBP → KPF pipeline with the same profile parameters.
"""
import csv
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spans import Tracer  # noqa: E402


def table3_searched(dataset: str) -> dict[str, int]:
    with open(ROOT / "results" / "table3.csv") as f:
        return {
            r["distance"]: int(r["searched_pairs"])
            for r in csv.DictReader(f)
            if r["dataset"] == dataset and r["algorithm"] == "CMA"
        }


def funnel(profile: str, spark: bool) -> dict[str, int]:
    wl = run.Workload(profile, spark=spark, pruned=True)
    bench = run.Bench(wl, seed=0, tracer=Tracer(enabled=False))
    try:
        bench.setup()
        return {d: len(bench.batch(d)["survivors"]) for d in run.DISTANCES}
    finally:
        bench.close()


@pytest.fixture(scope="module", autouse=True)
def environment():
    run.prepare_environment()


@pytest.mark.parametrize(
    "profile, dataset, expected",
    [
        ("porto", "Porto", {"DTW": 274, "EDR": 335, "ERP": 301, "FD": 352}),
        ("beijing", "Beijing", {"DTW": 19, "EDR": 23, "ERP": 19, "FD": 23}),
    ],
)
def test_driver_funnel_matches_table3(profile, dataset, expected):
    assert table3_searched(dataset) == expected
    assert funnel(profile, spark=False) == expected


def test_spark_funnel_matches_table3():
    assert funnel("porto", spark=True) == table3_searched("Porto")


def test_tail_has_ten_samples_above():
    value, pct, n = run.tail([float(i) for i in range(40)])
    assert (value, pct, n) == (29.0, 75.0, 40)
    assert sum(x > value for x in range(40)) == 10


def test_spans_self_time():
    tr = Tracer(enabled=True)
    with tr.span("outer"):
        with tr.span("inner"):
            pass
    outer, inner = tr.with_self_times()
    assert inner["parent"] == outer["id"]
    assert outer["self"] == pytest.approx(outer["dur"] - inner["dur"])


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_cli_prints_result_last(trace, kind):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "beijing-pruned-driver",
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, check=True, cwd=ROOT, timeout=300,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec[kind]}
