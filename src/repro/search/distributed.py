"""Distributed similar-subtrajectory search (the repro's Spark dataflow).

The O(mn) per-pair kernel runs in an Arrow-backed ``mapInPandas`` UDF. The
(small) query set is broadcast, and every row the UDF sees is one
(query, trajectory) pair built on the cached data partitions without a
shuffle: the pruning survivors are broadcast-joined to the trajectories,
or, unpruned, each trajectory row is exploded over every query id. The
final top-K per query is a Catalyst window query (oracle-checked against
DuckDB in tests).
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession, Window
from pyspark.sql import functions as F

from repro.baselines.rls import RLSPolicy
from repro.search.api import search_pair

PAIR_SCHEMA = "query_id long, traj_id long, dist double, start int, end int"


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
        queries_local = bq.value
        policy_local = bp.value
        for pdf in batches:
            out = {"query_id": [], "traj_id": [], "dist": [], "start": [], "end": []}
            prev_tid = d = None
            for tid, pts, qid in zip(pdf["traj_id"], pdf["pts"], pdf["query_id"]):
                # Both plans emit the pairs of one trajectory as adjacent
                # rows, so its points are decoded once per run.
                if tid != prev_tid:
                    d = np.asarray([np.asarray(p) for p in pts], dtype=np.float64)
                    prev_tid = tid
                dist, s, e = search_pair(
                    algorithm, distance, queries_local[qid], d,
                    policy=policy_local, **params,
                )
                out["query_id"].append(qid)
                out["traj_id"].append(tid)
                out["dist"].append(float(dist))
                out["start"].append(int(s))
                out["end"].append(int(e))
            yield pd.DataFrame(out).astype(
                {
                    "query_id": "int64",
                    "traj_id": "int64",
                    "dist": "float64",
                    "start": "int32",
                    "end": "int32",
                }
            )

    return work.mapInPandas(run, PAIR_SCHEMA)


def topk_df(pair_df: DataFrame, k: int = 1) -> DataFrame:
    """Top-K per query as a Catalyst window query (deterministic ties)."""
    w = Window.partitionBy("query_id").orderBy(F.col("dist").asc(), F.col("traj_id").asc())
    return (
        pair_df.withColumn("rank", F.row_number().over(w))
        .filter(F.col("rank") <= k)
        .drop("rank")
    )
