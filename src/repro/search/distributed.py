"""Distributed similar-subtrajectory search (the repro's Spark dataflow).

The search runs in an Arrow-backed ``mapInPandas`` UDF over the cached
trajectory frame: each task runs the driver's own loop,
:func:`repro.search.local.search_rows`, over its batch of trajectory rows,
whose points :func:`repro.synth_data.trajectory_points` decodes, so CMA
answers all of a trajectory's queries in one stacked DP, and Arrow casts
the result rows to ``PAIR_SCHEMA``. The (small) query set is broadcast with
the survivors, collected on the driver into
:func:`repro.search.local.by_trajectory`'s map, so the plan has no join and
no exchange. The top-K per query is merged on the driver:
:func:`topk_df` collects the pair rows in the search's own Arrow job and
ranks them with :func:`repro.search.local.rank` (checked against DuckDB's
window SQL in tests), so no shuffle follows the search.
Each search task starts in :func:`map_in_pandas`.
Spark's Python daemon makes zip-import invalidation lazy at start-up
(``src/sitecustomize.py``, :mod:`repro.lazy_zip`), so every worker it forks,
RDD and UDF workers too, skips re-reading the zip archives per task.
"""
from __future__ import annotations

import math
from typing import Callable, Iterator

import numpy as np
import pandas as pd
import pyarrow as pa
from pyspark.sql import DataFrame, SparkSession

from repro.baselines.rls import RLSPolicy
from repro.search.local import COLUMNS, PAIR_SCHEMA, by_trajectory, rank, search_rows
from repro.synth_data import trajectory_points


def map_in_pandas(df: DataFrame, fn: Callable, schema: str, *shared) -> DataFrame:
    """``df.mapInPandas`` of ``fn(batch, *shared)`` per Arrow batch, with
    ``shared`` broadcast once. The only ``mapInPandas`` in ``src/``
    (``tests/test_layout.py``)."""
    values = df.sparkSession.sparkContext.broadcast(shared)

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        return (fn(pdf, *values.value) for pdf in batches)

    return df.mapInPandas(run, schema)


_ARROW_TYPES = {"long": pa.int64(), "int": pa.int32(), "double": pa.float64()}


def _local_frame(spark: SparkSession, rows: pd.DataFrame, schema: str) -> DataFrame:
    """``rows``' columns named in the DDL ``schema`` as a local relation of
    those types, built from an Arrow table so that Spark scans it in the JVM
    even when empty (an empty pandas frame plans a Python RDD)."""
    fields = (field.split() for field in schema.split(", "))
    return spark.createDataFrame(pa.table({
        name: pa.array(rows[name], _ARROW_TYPES[kind], from_pandas=False)
        for name, kind in fields
    }))


def pairs_frame(spark: SparkSession, pairs: pd.DataFrame) -> DataFrame:
    """``pairs``' (query_id, traj_id) columns as a local relation."""
    return _local_frame(spark, pairs, "query_id long, traj_id long")


def pairwise_search_df(
    spark: SparkSession,
    queries: list[np.ndarray],
    data_df: DataFrame,
    algorithm: str,
    distance: str,
    *,
    pairs_df: DataFrame | None = None,
    policy: RLSPolicy | None = None,
    deadline: float = math.inf,
    **params,
) -> DataFrame:
    """(query_id, traj_id, dist, start, end) for every surviving pair.

    ``data_df`` is a :func:`repro.synth_data.trajectories_df` frame;
    ``pairs_df`` (optional, from the pruning stages) is ``(query_id,
    traj_id)`` and restricts the search: it is collected on the driver (no
    job for a :func:`pairs_frame`) — a ``None`` means the full cross product
    with the query set. A task searches each trajectory of its batch against
    all of its surviving queries at once; none starts a trajectory after
    ``deadline`` (:func:`repro.search.local.search_rows`).
    """

    def search(pdf: pd.DataFrame, queries: list, qids, policy: RLSPolicy | None) -> pd.DataFrame:
        rows = search_rows(
            algorithm, distance, queries, zip(pdf["traj_id"], trajectory_points(pdf)), qids,
            policy=policy, deadline=deadline, **params,
        )
        return pd.DataFrame(rows, columns=COLUMNS)

    qids = None if pairs_df is None else by_trajectory(pairs_df.collect())
    queries = [np.asarray(q, dtype=np.float64) for q in queries]
    return map_in_pandas(data_df, search, PAIR_SCHEMA, queries, qids, policy)


def topk_df(pair_df: DataFrame, k: int = 1) -> DataFrame:
    """Top-K per query of ``pair_df`` (``PAIR_SCHEMA``): its rows are
    collected in one Arrow job, ranked on the driver by ``rank`` and
    returned as a local relation, so the answer costs no further job."""
    top = rank(pair_df.toArrow().to_pandas(), k)
    return _local_frame(pair_df.sparkSession, top, PAIR_SCHEMA)
