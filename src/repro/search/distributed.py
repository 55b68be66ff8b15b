"""Distributed similar-subtrajectory search (the repro's Spark dataflow).

The search runs in an Arrow-backed ``mapInPandas`` UDF: each task runs the
driver's own loop, :func:`repro.search.local.search_rows`, over its batch
of trajectory rows, whose points :func:`repro.synth_data.trajectory_points`
decodes, grouped by trajectory so that CMA answers all of a trajectory's
queries in one stacked DP, and Arrow casts the result rows to
``PAIR_SCHEMA``. The (small) query set is broadcast, and no shuffle builds
the work: unpruned, a task gets each cached trajectory row once and pairs
it with every query; pruned, the survivors are broadcast-joined to the
trajectories and a task groups the joined rows by ``traj_id`` within its
batch. The top-K per query is merged on the driver: :func:`topk_df`
collects the pair rows in the search's own Arrow job and ranks them with
:func:`repro.search.local.rank` (checked against DuckDB's window SQL in
tests), so no shuffle follows the search.
Each search task starts in :func:`map_in_pandas`.
Spark's Python daemon makes zip-import invalidation lazy at start-up
(``src/sitecustomize.py``, :mod:`repro.lazy_zip`), so every worker it forks,
RDD and UDF workers too, skips re-reading the zip archives per task.
"""
from __future__ import annotations

import itertools
import math
from typing import Callable, Iterator

import numpy as np
import pandas as pd
import pyarrow as pa
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.baselines.rls import RLSPolicy
from repro.search.local import COLUMNS, PAIR_SCHEMA, rank, search_rows
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
    traj_id)`` and restricts the search via a broadcast join — a ``None``
    means the full cross product with the query set. A task searches each
    trajectory of its batch against all of its queries at once; none starts
    a trajectory after ``deadline`` (:func:`repro.search.local.search_rows`).
    """
    pruned, every = pairs_df is not None, range(len(queries))  # a task cannot pickle a DataFrame

    def groups(pdf: pd.DataFrame):
        """``(traj_id, τd, query_ids)`` per trajectory of a task's batch."""
        if not pruned:
            return zip(pdf["traj_id"], trajectory_points(pdf), itertools.repeat(every))
        qids = pdf.groupby("traj_id", sort=False)["query_id"].agg(list)
        return zip(qids.index, trajectory_points(pdf.drop_duplicates("traj_id")), qids)

    def search(pdf: pd.DataFrame, queries: list, policy: RLSPolicy | None) -> pd.DataFrame:
        rows = search_rows(
            algorithm, distance, queries, groups(pdf), policy=policy, deadline=deadline, **params
        )
        return pd.DataFrame(rows, columns=COLUMNS)

    work = data_df if pairs_df is None else data_df.join(F.broadcast(pairs_df), "traj_id")
    queries = [np.asarray(q, dtype=np.float64) for q in queries]
    return map_in_pandas(work, search, PAIR_SCHEMA, queries, policy)


def topk_df(pair_df: DataFrame, k: int = 1) -> DataFrame:
    """Top-K per query of ``pair_df`` (``PAIR_SCHEMA``): its rows are
    collected in one Arrow job, ranked on the driver by ``rank`` and
    returned as a local relation, so the answer costs no further job."""
    top = rank(pair_df.toArrow().to_pandas(), k)
    return _local_frame(pair_df.sparkSession, top, PAIR_SCHEMA)
