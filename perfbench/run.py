#!/usr/bin/env python3
"""Closed-loop top-1 search benchmark over the Table 3 pipeline (CMA only).

Run from the repository root:

    python3 perfbench/run.py --workload porto-pruned-spark --seed 0 \\
        --seconds 20 --trace 0

One client (this process) sends one search batch at a time. A batch answers
every query of a profile at one distance function, cycling DTW → EDR →
ERP → FD, and calls the same public functions in the same order as
``repro.eval.table3.run_table3``: GBP → KPF (``kpf_bound`` plus a CMA probe
through ``search_pair``) → pairwise search → top-1. ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` records spans around each of those
calls and reports the per-layer metrics (see ``perfbench/README.md``).

Every answer is checked against an unpruned driver-side CMA reference,
computed outside all timers. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. Details (per-batch
latencies, funnel counts, mismatches, spans) go to ``.perfbench/`` in the
checkout.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shlex
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

DISTANCES = ("DTW", "EDR", "ERP", "FD")
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: A run measures at least this many batches, so the tail percentile
#: always has ten batches above it.
MIN_BATCHES = 12
REL_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    profile: str
    spark: bool
    pruned: bool


#: Why each workload exists: perfbench/README.md. beijing-pruned-driver is
#: not in BENCHMARK.json because its work varies too much between seeds.
WORKLOADS = {
    "porto-pruned-spark": Workload("porto", spark=True, pruned=True),
    "xian-full-spark": Workload("xian", spark=True, pruned=False),
    "beijing-pruned-driver": Workload("beijing", spark=False, pruned=True),
}


def prepare_environment() -> None:
    """Keep Spark, the JVM and Python temp files inside the checkout and
    put ``src/`` on the driver's and the Spark Python workers' path."""
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    os.environ["PYSPARK_PYTHON"] = sys.executable
    # spark-submit first runs a small launcher JVM with these options.
    os.environ["SPARK_LAUNCHER_OPTS"] = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            "--master local[*]",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            f"--conf spark.local.dir={shlex.quote(str(tmp))}",
            "--driver-java-options",
            shlex.quote(f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"),
            "pyspark-shell",
        ]
    )
    sys.path.insert(0, str(SRC))


# ----------------------------------------------------------------- /proc


def _children() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        kids.setdefault(ppid, []).append(int(entry.name))
    return kids


def descendants(pid: int) -> list[int]:
    kids, out, todo = _children(), [], [pid]
    while todo:
        for c in kids.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _status(pid: int, key: str) -> str | None:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith(key + ":"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def peak_rss_mb() -> float:
    """Peak RSS (VmHWM) of this process plus the Spark JVM, if any."""
    pids = [os.getpid()] + [
        p for p in descendants(os.getpid()) if _status(p, "Name") == "java"
    ]
    kb = 0
    for p in pids:
        hwm = _status(p, "VmHWM")
        if hwm:
            kb += int(hwm.split()[0])
    return kb / 1024.0


def wait_gone(pids: list[int], timeout: float = 60.0) -> None:
    """Wait for ``pids`` to exit; kill what is left after ``timeout``."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        pids = [p for p in pids if not (_status(p, "State") or "Z").startswith("Z")]
        if not pids:
            return
        time.sleep(0.1)
    for p in pids:
        try:
            os.kill(p, signal.SIGKILL)
        except ProcessLookupError:
            pass


# ---------------------------------------------------------------- search


class Bench:
    """One workload's inputs, backend state and batch pipeline."""

    def __init__(self, wl: Workload, seed: int, tracer) -> None:
        from repro.eval.datasets import PROFILES

        self.wl = wl
        self.profile = PROFILES[self.wl.profile]
        self.seed = seed
        self.tracer = tracer
        self.spark = None
        self.parallelism = 1
        self.setups: list[dict] = []

    # -- set-up -------------------------------------------------------

    def setup(self) -> None:
        """Session start, input generation, data-frame cache and one
        warm-up batch, timed into ``self.setups``. A repeated set-up stops
        the previous session first (untimed) and reuses the running JVM."""
        from repro.synth_data import (
            explode_points,
            make_queries,
            taxi_trajectories,
            trajectories_df,
        )

        if self.spark is not None:
            self.data_df.unpersist()
            self.spark.stop()
        span, p, parts = self.tracer.span, self.profile, {}
        t0 = time.perf_counter()
        if self.wl.spark:
            from pyspark.sql import SparkSession

            with span("spark.session_start"):
                self.spark = (
                    SparkSession.builder.appName("perfbench")
                    .config("spark.sql.shuffle.partitions", "64")
                    .config("spark.sql.execution.arrow.pyspark.enabled", "true")
                    .getOrCreate()
                )
                self.spark.sparkContext.setLogLevel("ERROR")
            self.parallelism = self.spark.sparkContext.defaultParallelism
            parts["spark.session_start_s"] = time.perf_counter() - t0
        t1 = time.perf_counter()
        with span("eval.datasets.load"):
            self.data = taxi_trajectories(
                p.city, p.n_traj, seed=self.seed,
                len_scale=p.len_scale, bbox_scale=p.bbox_scale,
            )
            self.queries = make_queries(
                p.city, p.n_queries, len_range=p.query_len,
                seed=self.seed + 1000, data=self.data,
                bbox_scale=p.bbox_scale, noise_km=p.query_noise_km,
            )
        parts["eval.datasets.load_s"] = time.perf_counter() - t1
        if self.wl.spark:
            t2 = time.perf_counter()
            with span("synth_data.trajectories_df"):
                self.data_df = trajectories_df(self.spark, self.data).cache()
                self.data_df.count()
                self.qpts = explode_points(
                    trajectories_df(self.spark, self.queries)
                ).withColumnRenamed("traj_id", "query_id")
                self.dpts = explode_points(self.data_df)
            parts["synth_data.trajectories_df_s"] = time.perf_counter() - t2
        self.batch(DISTANCES[0])
        parts["setup_s"] = time.perf_counter() - t0
        self.setups.append(parts)

    def close(self) -> None:
        if self.spark is None:
            return
        from pyspark import SparkContext

        gateway = SparkContext._gateway
        procs = descendants(os.getpid())
        self.spark.stop()
        gateway.shutdown()
        # The gateway JVM exits when its stdin closes.
        gateway.proc.stdin.close()
        gateway.proc.wait(timeout=60)
        wait_gone(procs)
        self.spark = None

    # -- one batch ----------------------------------------------------

    def params(self, distance: str) -> dict:
        from repro.eval.table2 import city_params

        return city_params(
            self.profile.city, distance, bbox_scale=self.profile.bbox_scale
        )

    def kpf(self, pairs, distance, params):
        """Two-phase KPF as in ``run_table3``: bound every GBP survivor,
        CMA-probe each query's min-bound pair, keep bounds ≤ best."""
        from repro.search.api import search_pair
        from repro.search.pruning import kpf_bound

        span = self.tracer.span
        bounds = {}
        for qid, tid in pairs:
            with span("search.pruning.kpf_bound"):
                bounds[(qid, tid)] = kpf_bound(
                    self.queries[qid], self.data[tid], distance,
                    r=self.profile.kpf_r, eps=params.get("eps", 0.25),
                    ref=params.get("ref"),
                )
        best: dict[int, float] = {}
        for qid in {q for q, _ in pairs}:
            _, probe = min((b, t) for (q, t), b in bounds.items() if q == qid)
            with span("search.api.search_pair"):
                best[qid] = search_pair(
                    "CMA", distance, self.queries[qid], self.data[probe], **params
                )[0]
        survivors = {
            k for k, b in bounds.items() if b <= best.get(k[0], math.inf) + 1e-12
        }
        return survivors, bounds

    def batch(self, distance: str) -> dict:
        """One top-1 search over all queries; returns answers and funnel."""
        from repro.search.distributed import pairwise_search_df, topk_df
        from repro.search.local import pairwise_results, topk
        from repro.search.pruning import gbp_candidates_df, gbp_candidates_local

        span, p, params = self.tracer.span, self.profile, self.params(distance)
        out = {"distance": distance, "gbp": None, "survivors": None, "bounds": {}}
        with span("batch", distance=distance):
            if self.wl.pruned:
                with span("search.pruning.gbp"):
                    if self.wl.spark:
                        got = gbp_candidates_df(
                            self.spark, self.qpts, self.dpts, p.gbp_eps, p.gbp_mu
                        ).collect()
                        gbp = {(int(r.query_id), int(r.traj_id)) for r in got}
                    else:
                        gbp = gbp_candidates_local(
                            self.queries, self.data, p.gbp_eps, p.gbp_mu
                        )
                with span("search.pruning.kpf"):
                    survivors, bounds = self.kpf(gbp, distance, params)
                out.update(gbp=gbp, survivors=survivors, bounds=bounds)
            else:
                survivors = None
            if self.wl.spark:
                with span("search.distributed.search"):
                    pairs_df = None
                    if survivors is not None:
                        with span("spark.createDataFrame"):
                            pairs_df = self.spark.createDataFrame(
                                sorted(survivors) or [(-1, -1)],
                                "query_id long, traj_id long",
                            )
                    with span("search.distributed.pairwise_search_df"):
                        pair_df = pairwise_search_df(
                            self.spark, self.queries, self.data_df, "CMA",
                            distance, pairs_df=pairs_df, **params,
                        )
                    with span("search.distributed.topk_df"):
                        top_df = topk_df(pair_df, 1)
                    with span("spark.collect"):
                        rows = top_df.collect()
                out["pairs_df"] = pairs_df
                out["top"] = {
                    int(r.query_id): (int(r.traj_id), float(r.dist)) for r in rows
                }
            else:
                with span("search.local.search"):
                    with span("search.local.pairwise_results"):
                        res = pairwise_results(
                            "CMA", distance, self.queries, self.data,
                            pairs=survivors, **params,
                        )
                    with span("search.local.topk"):
                        rows = topk(res, 1)
                out["top"] = {r["query_id"]: (r["traj_id"], r["dist"]) for r in rows}
        return out

    # -- traced-only side measurements (outside batch timing) ------------

    def measure_layers(self, b: dict) -> None:
        """Replay the batch's searched pairs on the driver, timing cost
        build and CMA kernel apart. On Spark, also time the driver search
        of the same pairs, the ``mapInPandas`` job materialising the pair
        frame, and the window query on that frame alone."""
        from repro.core.cma import cma
        from repro.search.api import build_pair_costs, kernel_kind
        from repro.search.distributed import pairwise_search_df, topk_df
        from repro.search.local import pairwise_results, topk

        span, distance = self.tracer.span, b["distance"]
        params = self.params(distance)
        pairs = b["survivors"]
        if pairs is None:
            pairs = {
                (q, t) for q in range(len(self.queries)) for t in range(len(self.data))
            }
        kind = kernel_kind(distance)
        with span("replay"):
            for qid, tid in sorted(pairs):
                q, d = self.queries[qid], self.data[tid]
                with span("core.costs.build_pair_costs"):
                    costs = build_pair_costs(distance, q, d, **params)
                with span("core.cma.cma", cells=len(q) * len(d)):
                    cma(kind, costs)
        if not self.wl.spark:
            return
        with span("search.local.search"):
            topk(
                pairwise_results(
                    "CMA", distance, self.queries, self.data,
                    pairs=b["survivors"], **params,
                ),
                1,
            )
        pair_df = pairwise_search_df(
            self.spark, self.queries, self.data_df, "CMA", distance,
            pairs_df=b["pairs_df"], **params,
        ).cache()
        with span("search.distributed.materialise"):
            pair_df.count()
        with span("search.distributed.window"):
            topk_df(pair_df, 1).collect()
        pair_df.unpersist()


# --------------------------------------------------------------- checking


class Reference:
    """Unpruned driver-side CMA results for every pair and distance."""

    def __init__(self, bench: Bench) -> None:
        from repro.search.local import pairwise_results

        self.rows = {}
        for distance in DISTANCES:
            rows = pairwise_results(
                "CMA", distance, bench.queries, bench.data, **bench.params(distance)
            )
            self.rows[distance] = {
                (r["query_id"], r["traj_id"]): r["dist"] for r in rows
            }

    def top1(self, distance: str, pairs=None) -> dict[int, tuple[int, float]]:
        """The driver's top-1 per query over ``pairs`` (all when None),
        with the same (dist, traj_id) tie-break as ``topk``."""
        best: dict[int, tuple[int, float]] = {}
        for (qid, tid), dist in self.rows[distance].items():
            if pairs is not None and (qid, tid) not in pairs:
                continue
            cur = best.get(qid)
            if cur is None or (dist, tid) < (cur[1], cur[0]):
                best[qid] = (tid, dist)
        return best


def same(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def check(ref: Reference, b: dict, n_queries: int) -> tuple[list, list]:
    """(misses, wrong): answers that differ from the unpruned reference,
    and answers that differ from the driver's search over the same pairs."""
    exact = ref.top1(b["distance"])
    driver = ref.top1(b["distance"], b["survivors"])
    misses, wrong = [], []
    for qid in range(n_queries):
        got = b["top"].get(qid)
        if got is None or not same(got[1], exact[qid][1]):
            misses.append(qid)
        want = driver.get(qid)
        if (got is None) != (want is None) or (
            got is not None and (got[0] != want[0] or not same(got[1], want[1]))
        ):
            wrong.append(qid)
    return misses, wrong


# ---------------------------------------------------------------- metrics


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile with at least
    ten samples above it."""
    xs = sorted(latencies)
    n = len(xs)
    k = max(n - 11, 0)
    return xs[k], 100.0 * (k + 1) / n, n


def median(xs) -> float:
    xs = list(xs)
    return statistics.median(xs) if xs else 0.0


def layer_metrics(bench: Bench, tracer, traced: list[dict], ref: Reference) -> dict:
    """Per-layer metrics from the traced batches (per-batch medians;
    ``count`` metrics are totals over one DTW→FD cycle)."""
    per_batch: dict[str, list[float]] = {}
    cells: dict[int, int] = {}
    for b in traced:
        bid = b["id"]

        def total(name: str) -> float:
            return sum(tracer.durations(name, bid))

        kernels = tracer.durations("core.cma.cma", bid)
        cells[bid] = sum(
            s["cells"] for s in tracer.spans
            if s["name"] == "core.cma.cma" and s["batch"] == bid
        )
        search_s = total("search.distributed.materialise")
        for name, value in {
            "core.cma.kernel_s": sum(kernels),
            "core.cma.kernel_p50_ms": 1e3 * median(kernels),
            "core.cma.kernel_max_ms": 1e3 * max(kernels, default=0.0),
            "core.cma.cells_per_s": cells[bid] / sum(kernels) if kernels else 0.0,
            "core.costs.build_s": total("core.costs.build_pair_costs"),
            "search.pruning.gbp_s": total("search.pruning.gbp"),
            "search.pruning.kpf_s": total("search.pruning.kpf"),
            "search.local.search_s": total("search.local.search"),
            "search.distributed.search_s": search_s,
            "search.distributed.topk_s": total("search.distributed.window"),
            "search.distributed.overhead_s": (
                search_s
                - (total("core.costs.build_pair_costs") + sum(kernels)) / bench.parallelism
                if bench.wl.spark else 0.0
            ),
        }.items():
            per_batch.setdefault(name, []).append(value)
    metrics = {k: median(v) for k, v in per_batch.items()}

    cycle = traced[: len(DISTANCES)]
    n_pairs = len(bench.queries) * len(bench.data)
    metrics["search.pruning.gbp_survivors"] = sum(
        n_pairs if b["gbp"] is None else len(b["gbp"]) for b in cycle
    )
    metrics["search.pruning.kpf_survivors"] = sum(
        n_pairs if b["survivors"] is None else len(b["survivors"]) for b in cycle
    )
    metrics["search.pruning.kpf_bound_violations"] = sum(
        bound > true and not same(bound, true)
        for b in cycle
        for pair, bound in b["bounds"].items()
        for true in [ref.rows[b["distance"]][pair]]
    )
    metrics["core.costs.cells"] = sum(cells[b["id"]] for b in cycle)
    for part in ("eval.datasets.load_s", "synth_data.trajectories_df_s", "spark.session_start_s"):
        metrics[part] = median(s.get(part, 0.0) for s in bench.setups)
    return metrics


# ------------------------------------------------------------------- main


def timed_phase(bench: Bench, ref: Reference, seconds: float, trace: bool) -> dict:
    """Closed loop: one batch at a time, DTW → EDR → ERP → FD, until
    ``seconds`` have passed and at least ``MIN_BATCHES`` batches ran.

    A trace run alternates traced and untraced DTW→FD cycles, so the
    difference of their median batch times is the tracing overhead; the
    per-layer side measurements follow each traced batch, outside its time.
    """
    tracer, n_q = bench.tracer, len(bench.queries)
    out = {"latency": {True: [], False: []}, "traced": [], "funnel": [],
           "mismatches": [], "raised": [], "attempted": 0, "failed": 0, "wrong": 0}
    t_start = time.perf_counter()
    i = 0
    while i < MIN_BATCHES or time.perf_counter() - t_start < seconds:
        distance = DISTANCES[i % len(DISTANCES)]
        tracer.enabled = trace and (i // len(DISTANCES)) % 2 == 0
        tracer.batch = i
        out["attempted"] += n_q
        try:
            t0 = time.perf_counter()
            b = bench.batch(distance)
            out["latency"][tracer.enabled].append(time.perf_counter() - t0)
        except Exception:  # a raising batch fails all its answers
            out["raised"].append((distance, traceback.format_exc()))
            out["failed"] += n_q
            out["wrong"] += n_q
            out["funnel"].append({"id": i, "distance": distance, "raised": True})
            i += 1
            continue
        b["id"] = i
        misses, wrong = check(ref, b, n_q)
        out["failed"] += len(set(misses) | set(wrong))
        out["wrong"] += len(wrong)
        for qid in sorted(set(misses) | set(wrong)):
            out["mismatches"].append(
                {"distance": distance, "query_id": qid, "batch": i,
                 "kind": "backend" if qid in wrong else "pruned-optimum"}
            )
        searched = b["survivors"]
        out["funnel"].append(
            {"id": i, "distance": distance, "traced": tracer.enabled,
             "gbp_survivors": None if b["gbp"] is None else len(b["gbp"]),
             "searched_pairs": n_q * len(bench.data) if searched is None else len(searched)}
        )
        if tracer.enabled:
            bench.measure_layers(b)
            out["traced"].append(b)
        i += 1
    tracer.enabled = False
    out["seconds"] = time.perf_counter() - t_start
    return out


def run(wl_name: str, seed: int, seconds: float, trace: bool) -> dict:
    from spans import Tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = Tracer(enabled=trace)
    bench = Bench(WORKLOADS[wl_name], seed, tracer)
    try:
        for _ in range(SETUP_REPEATS):
            bench.setup()
        ref = Reference(bench)
        phase = timed_phase(bench, ref, seconds, trace)
        rss = peak_rss_mb()
    finally:
        bench.close()

    n_q = len(bench.queries)
    lat = phase["latency"][False]
    tail_s, tail_pct, n_lat = tail(lat)
    if trace:
        metrics = layer_metrics(bench, tracer, phase["traced"], ref)
        metrics["search.pruning.top1_recall"] = 1.0 - sum(
            m["kind"] == "pruned-optimum" for m in phase["mismatches"]
        ) / phase["attempted"]
        metrics["trace.overhead_s"] = median(phase["latency"][True]) - median(lat)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics = {
            "setup_s": median(s["setup_s"] for s in bench.setups),
            "batch_latency_p50_s": median(lat),
            "batch_latency_tail_s": tail_s,
            "queries_per_s": n_q * len(lat) / sum(lat),
            "peak_rss_mb": rss,
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    failed_frac = phase["failed"] / phase["attempted"]

    stem = f"{wl_name}-seed{seed}-trace{int(trace)}"
    OUT.mkdir(exist_ok=True)
    report = {
        "workload": wl_name, "seed": seed, "trace": trace,
        "environment": environment(bench),
        "setups": bench.setups,
        "batch_latencies_s": {
            "untraced": phase["latency"][False], "traced": phase["latency"][True]
        },
        "tail": {"percentile": tail_pct, "samples": n_lat},
        "timed_phase_s": phase["seconds"],
        "failed_frac": failed_frac,
        "funnel": phase["funnel"],
        "mismatches": phase["mismatches"],
        "raised": phase["raised"],
        "metrics": metrics,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1))
    if trace:
        tracer.write(OUT / f"{stem}.spans.json", workload=wl_name, seed=seed)

    for m in phase["mismatches"]:
        print(f"mismatch: {wl_name} {m['distance']} query_id={m['query_id']} "
              f"batch={m['batch']} ({m['kind']})")
    for distance, tb in phase["raised"]:
        print(f"raised: {wl_name} {distance}\n{tb}", file=sys.stderr)
    print(f"failed_frac: {failed_frac:.6g} ({phase['failed']}/{phase['attempted']} answers)")
    if not trace:
        print(f"batch_latency_tail_s is p{tail_pct:.1f} of {n_lat} batches")
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    return {
        "correct": phase["wrong"] == 0,
        "attempted": phase["attempted"],
        "failed": phase["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }


def environment(bench: Bench) -> dict:
    import numpy
    import pandas
    import pyarrow
    import pyspark

    return {
        "cores": os.cpu_count(),
        "spark_default_parallelism": bench.parallelism if bench.wl.spark else None,
        "python": sys.version.split()[0],
        "pyspark": pyspark.__version__,
        "numpy": numpy.__version__,
        "pyarrow": pyarrow.__version__,
        "pandas": pandas.__version__,
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0, help="input seed (default: the profile seed, 0)")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "repro").is_dir():
        sys.exit(f"perfbench: {SRC / 'repro'} not found; run from a full checkout")
    prepare_environment()
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))


if __name__ == "__main__":
    main()
