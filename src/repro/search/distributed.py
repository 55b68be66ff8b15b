"""Distributed similar-subtrajectory search (the repro's Spark dataflow).

The per-pair search runs in an Arrow-backed ``mapInPandas`` UDF: each task
runs the driver's own loop, :func:`repro.search.local.search_rows`, over
its batch of (query, trajectory) rows, and Arrow casts the rows to
``PAIR_SCHEMA``. The (small) query set is broadcast, and the pair rows are
built on the cached data partitions without a shuffle: the pruning
survivors are broadcast-joined to the trajectories, or, unpruned, each
trajectory row is exploded over every query id. The final top-K per query
is a Catalyst window query (oracle-checked against DuckDB in tests).

Each task first makes its worker's zip-import cache invalidation lazy
(:func:`_lazy_zip_imports`).
"""
from __future__ import annotations

import sys
import zipimport
from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession, Window
from pyspark.sql import functions as F

from repro.baselines.rls import RLSPolicy
from repro.search.local import COLUMNS, PAIR_SCHEMA, search_rows


class _LazyZipImporter(zipimport.zipimporter):
    """A ``zipimporter`` with Python 3.13's lazy ``invalidate_caches``: it
    only drops the archive's directory, which the next access by any method
    re-reads. Before 3.13 every method reads the directory as ``self._files``,
    and ``invalidate_caches`` re-reads it at once."""

    @property
    def _files(self) -> dict:
        try:
            return zipimport._zip_directory_cache[self.archive]
        except KeyError:
            try:
                files = zipimport._read_directory(self.archive)
            except zipimport.ZipImportError:
                return {}
            zipimport._zip_directory_cache[self.archive] = files
            return files

    @_files.setter
    def _files(self, files: dict) -> None:
        # ``zipimporter.__init__`` assigns the directory it has just stored
        # in ``_zip_directory_cache``, which the getter reads.
        pass

    def invalidate_caches(self) -> None:
        zipimport._zip_directory_cache.pop(self.archive, None)


def _lazy_zip_imports() -> None:
    """Make zip-import cache invalidation lazy in this process (idempotent).

    PySpark's Python worker calls ``importlib.invalidate_caches()`` at the
    start of every task; with the eager 3.11/3.12 ``zipimporter`` that re-reads
    the directory of every archive finder (``pyspark.zip``, py4j, the Spark
    jar): 128–225 ms per task on a 4-core box with Python 3.11.7. Called from
    the search UDF, so it runs only in Spark's Python workers. A no-op where
    ``zipimporter`` is already lazy."""
    if hasattr(zipimport.zipimporter, "_get_files"):
        return
    sys.path_hooks[:] = [
        _LazyZipImporter if hook is zipimport.zipimporter else hook for hook in sys.path_hooks
    ]
    for finder in sys.path_importer_cache.values():
        if type(finder) is zipimport.zipimporter:
            # In place, so the modules it loaded (their ``__loader__``) read
            # the shared directory too and are never served a stale one.
            finder.__class__ = _LazyZipImporter


def _decoded(pdf: pd.DataFrame) -> Iterator[tuple[int, int, np.ndarray]]:
    """``(query_id, traj_id, τd)`` per row. Both plans emit the pairs of one
    trajectory as adjacent rows, so its points are decoded once per run."""
    prev_tid = d = None
    for qid, tid, pts in zip(pdf["query_id"], pdf["traj_id"], pdf["pts"]):
        if tid != prev_tid:
            d, prev_tid = np.asarray([np.asarray(p) for p in pts], dtype=np.float64), tid
        yield qid, tid, d


def pairwise_search_df(
    spark: SparkSession,
    queries: list[np.ndarray],
    data_df: DataFrame,
    algorithm: str,
    distance: str,
    *,
    pairs_df: DataFrame | None = None,
    policy: RLSPolicy | None = None,
    **params,
) -> DataFrame:
    """(query_id, traj_id, dist, start, end) for every surviving pair.

    ``data_df`` is ``(traj_id, pts)``; ``pairs_df`` (optional, from the
    pruning stages) is ``(query_id, traj_id)`` and restricts the search via
    a broadcast join — a ``None`` means the full cross product with the
    query set.
    """
    if pairs_df is None:
        qids = F.array(*[F.lit(qid) for qid in range(len(queries))])
        work = data_df.withColumn("query_id", F.explode(qids))
    else:
        work = data_df.join(F.broadcast(pairs_df), "traj_id")

    bq = spark.sparkContext.broadcast(
        [np.asarray(q, dtype=np.float64) for q in queries]
    )
    bp = spark.sparkContext.broadcast(policy)

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        _lazy_zip_imports()
        for pdf in batches:
            rows = search_rows(
                algorithm, distance, bq.value, _decoded(pdf), policy=bp.value, **params
            )
            yield pd.DataFrame(rows, columns=COLUMNS)

    return work.mapInPandas(run, PAIR_SCHEMA)


def topk_df(pair_df: DataFrame, k: int = 1) -> DataFrame:
    """Top-K per query as a Catalyst window query (deterministic ties)."""
    w = Window.partitionBy("query_id").orderBy(F.col("dist").asc(), F.col("traj_id").asc())
    return (
        pair_df.withColumn("rank", F.row_number().over(w))
        .filter(F.col("rank") <= k)
        .drop("rank")
    )
