"""The pair-search loop, and the driver backend built on it.

``search_rows`` turns trajectories into result rows; it is the only code
that builds one and the only one that applies the survivor rule
(:func:`by_trajectory`), and it searches each trajectory with
:func:`repro.search.api.search_queries`, so CMA answers all of a
trajectory's queries in one stacked DP. The driver backend
(``pairwise_results`` + ``topk``: Table 3's sequential column, Table 2's
optimum search and perfbench's reference) runs it over the whole data
list, and every Spark task of :mod:`repro.search.distributed` runs it
over its own trajectory rows. ``rank`` is the only top-K: ``topk`` and
the Spark backend's driver merge both call it.
"""
from __future__ import annotations

import math
import time

import numpy as np
import pandas as pd

from repro.baselines.rls import RLSPolicy
from repro.search.api import search_queries

#: A result row: its Spark types, and its column names in that order.
PAIR_SCHEMA = "query_id long, traj_id long, dist double, start int, end int"
COLUMNS = tuple(field.split()[0] for field in PAIR_SCHEMA.split(", "))


def by_trajectory(pairs) -> dict[int, list[int]]:
    """``traj_id`` → its sorted, distinct query ids, over ``(query_id, traj_id)`` ``pairs``."""
    qids: dict[int, set[int]] = {}
    for qid, tid in pairs:
        qids.setdefault(int(tid), set()).add(int(qid))
    return {tid: sorted(group) for tid, group in qids.items()}


def search_rows(
    algorithm, distance, queries, trajectories, qids=None, *,
    policy=None, deadline=math.inf, **params,
):
    """One ``COLUMNS`` row per surviving pair of each ``(traj_id, τd)`` in
    ``trajectories``: τd against τq = ``queries[query_id]`` for each query
    id of ``qids[traj_id]`` (:func:`by_trajectory`), or of every query when
    ``qids`` is None; a trajectory with none is skipped. ``policy`` and
    ``params`` go to ``search_queries``. The deadline (``time.time()``) is
    checked once per searched trajectory: rows stop at the first one reached
    after it, and one begun before it is searched whole. Spark runs in local
    mode, so its tasks read the driver's clock: a search cut short returns
    after its deadline, and Table 3 reports it overtime."""
    every = range(len(queries))
    for tid, d in trajectories:
        group = every if qids is None else qids.get(tid)
        if not group:
            continue
        if time.time() > deadline:
            return
        found = search_queries(
            algorithm, distance, [queries[qid] for qid in group], d, policy=policy, **params
        )
        for qid, (dist, s, e) in zip(group, found):
            yield qid, tid, float(dist), int(s), int(e)


def pairwise_results(
    algorithm: str,
    distance: str,
    queries: list[np.ndarray],
    data: list[np.ndarray],
    *,
    pairs: set[tuple[int, int]] | None = None,
    policy: RLSPolicy | None = None,
    deadline: float = math.inf,
    **params,
) -> list[dict]:
    """Best subtrajectory per (query, data trajectory) pair, searched one
    trajectory at a time against all of its queries.

    ``pairs`` restricts evaluation to surviving (query_id, traj_id) pairs
    (the pruning stages produce this set); ``None`` means all pairs. No
    trajectory is searched after ``deadline`` (:func:`search_rows`).
    """
    qids = None if pairs is None else by_trajectory(pairs)
    rows = search_rows(
        algorithm, distance, queries, enumerate(data), qids,
        policy=policy, deadline=deadline, **params,
    )
    return [dict(zip(COLUMNS, row)) for row in rows]


def rank(rows: pd.DataFrame, k: int) -> pd.DataFrame:
    """The first ``k`` of ``rows`` (``COLUMNS``) per query, by (query_id,
    dist, traj_id). The sort is stable, so equal keys keep their input order."""
    ranked = rows.sort_values(["query_id", "dist", "traj_id"], kind="stable")
    return ranked.groupby("query_id", sort=False).head(k)


def topk(rows: list[dict], k: int = 1) -> list[dict]:
    """Top-K most similar subtrajectories per query (paper Def. 6 / App. E),
    ranked by :func:`rank`, as ``topk_df``'s driver merge."""
    return rank(pd.DataFrame(rows, columns=COLUMNS), k).to_dict("records")
