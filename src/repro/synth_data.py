"""Synthetic taxi-trajectory data and its Spark views.

Generators are deterministic in ``seed`` so the DuckDB oracle sees
identical input.
"""
from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.search.api import check_finite


# ---------------------------------------------------------------------------
# Trajectory data (similar-subtrajectory-search reproduction)
#
# The paper evaluates on Porto / Xi'an / Beijing taxi data (avg trajectory
# lengths 67 / 401 / 1705, counts 1.7M / 150K / 10K). Neither dataset ships
# offline, so we generate momentum-random-walk "taxi" trajectories inside
# each city's bounding box (km frame), with lengths and counts scaled to
# laptop scale — preserving the *relative* length ordering across cities,
# which is the axis the paper's tables vary (see DESIGN.md §4).
# ---------------------------------------------------------------------------

#: City specs: bbox (km) and scaled mean trajectory length.
CITY_SPECS = {
    "porto": {"bbox": (23.44, 24.7), "mean_len": 60, "min_len": 20, "step_km": 0.25},
    "xian": {"bbox": (33.43, 23.5), "mean_len": 140, "min_len": 60, "step_km": 0.12},
    "beijing": {"bbox": (49.80, 42.11), "mean_len": 450, "min_len": 200, "step_km": 0.35},
}


def _one_walk(g: np.random.Generator, length: int, bbox: tuple[float, float], step: float) -> np.ndarray:
    """Momentum random walk: heading diffuses, position reflects at bbox."""
    w, h = bbox
    pos = np.array([g.uniform(0.1 * w, 0.9 * w), g.uniform(0.1 * h, 0.9 * h)])
    heading = g.uniform(0, 2 * np.pi)
    pts = np.empty((length, 2))
    for i in range(length):
        pts[i] = pos
        heading += g.normal(0, 0.35)
        pos = pos + step * np.array([np.cos(heading), np.sin(heading)])
        # Reflect at the city boundary.
        for k, lim in enumerate((w, h)):
            if pos[k] < 0:
                pos[k] = -pos[k]
                heading = np.pi - heading if k == 0 else -heading
            elif pos[k] > lim:
                pos[k] = 2 * lim - pos[k]
                heading = np.pi - heading if k == 0 else -heading
    return pts


def taxi_trajectories(
    city: str,
    n: int,
    *,
    seed: int = 0,
    len_scale: float = 1.0,
    bbox_scale: float = 1.0,
) -> list[np.ndarray]:
    """``n`` synthetic taxi trajectories for ``city`` (deterministic in seed).

    ``bbox_scale`` shrinks the city frame: with trajectory *counts* scaled
    down by orders of magnitude from the real datasets, shrinking the area
    keeps the spatial density (and hence the pruning/search balance) the
    paper's experiments operate at — see DESIGN.md §4.
    """
    spec = CITY_SPECS[city]
    bbox = (spec["bbox"][0] * bbox_scale, spec["bbox"][1] * bbox_scale)
    g = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        length = max(
            spec["min_len"], int(g.gamma(4.0, spec["mean_len"] * len_scale / 4.0))
        )
        out.append(_one_walk(g, length, bbox, spec["step_km"]))
    return out


def make_queries(
    city: str,
    q: int,
    *,
    len_range: tuple[int, int],
    seed: int = 100,
    noise_km: float = 0.02,
    data: list[np.ndarray] | None = None,
    bbox_scale: float = 1.0,
) -> list[np.ndarray]:
    """Query trajectories, mirroring the paper's protocol (queries drawn
    from the same population as the data trajectories).

    With ``data`` given, each query is a noisy subwindow of a randomly
    chosen data trajectory — guaranteeing genuinely similar subtrajectories
    exist (what the paper gets by sampling queries from the dataset).
    Without ``data``, queries are noisy windows of fresh data-like walks.
    """
    spec = CITY_SPECS[city]
    bbox = (spec["bbox"][0] * bbox_scale, spec["bbox"][1] * bbox_scale)
    g = np.random.default_rng(seed)
    lo, hi = len_range
    out = []
    for _ in range(q):
        m = int(g.integers(lo, hi + 1))
        if data is not None:
            src = data[int(g.integers(len(data)))]
            m = min(m, len(src))
            s = int(g.integers(0, len(src) - m + 1))
            out.append(src[s : s + m] + g.normal(0, noise_km, size=(m, 2)))
        else:
            walk = _one_walk(g, m + 10, bbox, spec["step_km"])
            s = int(g.integers(0, 10))
            out.append(walk[s : s + m] + g.normal(0, noise_km, size=(m, 2)))
    return out


def trajectories_df(spark: SparkSession, trajs: list[np.ndarray]) -> DataFrame:
    """Spark DataFrame ``(traj_id long, xs array<double>, ys array<double>)``:
    trajectory ``traj_id`` is the points ``(xs[i], ys[i])``. This module alone
    knows the layout: :func:`explode_points` and :func:`trajectory_points`
    read it.

    Built from a pandas frame: with Arrow on, Spark ships it to the JVM as
    Arrow batches and plans it as a ``LocalTableScan``, so reading it runs
    no Python worker (a row list would become a Python RDD, re-run by every
    uncached read such as GBP's exploded query points). A trajectory that is
    not an (n, 2) array, or is empty or holds a NaN or ±inf point
    (``check_finite``), raises ``ValueError`` before Arrow sees it.
    """
    for i, t in enumerate(trajs):
        if np.shape(t)[1:] != (2,):
            raise ValueError(f"trajectory {i} must be an (n, 2) array")
        check_finite(f"trajectory {i}", t)
    xy = [np.asarray(t, dtype=np.float64).T for t in trajs]
    pdf = pd.DataFrame({
        "traj_id": np.arange(len(xy)), "xs": [x for x, _ in xy], "ys": [y for _, y in xy]
    })
    return spark.createDataFrame(pdf, "traj_id long, xs array<double>, ys array<double>")


def explode_points(df: DataFrame) -> DataFrame:
    """Exploded relational view ``(traj_id, seq, x, y)`` (pure Catalyst)."""
    from pyspark.sql import functions as F

    return df.select(
        "traj_id", F.posexplode(F.arrays_zip("xs", "ys")).alias("seq", "pt")
    ).select("traj_id", "seq", F.col("pt.xs").alias("x"), F.col("pt.ys").alias("y"))


def trajectory_points(rows: pd.DataFrame) -> Iterator[np.ndarray]:
    """Each row's trajectory as an (n, 2) array, from a pandas batch of a
    :func:`trajectories_df` frame (a ``mapInPandas`` task's input)."""
    return map(np.column_stack, zip(rows["xs"], rows["ys"]))
