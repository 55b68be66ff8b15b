"""The pair-search loop, and the driver backend built on it.

``search_rows`` turns (query, trajectory) pairs into result rows; it is the
only code that builds one. The driver backend (``pairwise_results`` +
``topk``: Table 3's sequential column and perfbench's reference) runs it
over the whole data list, and every Spark task of
:mod:`repro.search.distributed` runs it over its own rows.
"""
from __future__ import annotations

import itertools
from operator import itemgetter

import numpy as np

from repro.baselines.rls import RLSPolicy
from repro.search.api import search_pair

#: A result row: its Spark types, and its column names in that order.
PAIR_SCHEMA = "query_id long, traj_id long, dist double, start int, end int"
COLUMNS = tuple(field.split()[0] for field in PAIR_SCHEMA.split(", "))


def search_rows(algorithm, distance, queries, work, *, policy=None, **params):
    """One ``COLUMNS`` row per ``(query_id, traj_id, τd)`` in ``work``, with
    τq = ``queries[query_id]``; ``policy`` and ``params`` go to ``search_pair``."""
    for qid, tid, d in work:
        dist, s, e = search_pair(algorithm, distance, queries[qid], d, policy=policy, **params)
        yield qid, tid, float(dist), int(s), int(e)


def pairwise_results(
    algorithm: str,
    distance: str,
    queries: list[np.ndarray],
    data: list[np.ndarray],
    *,
    pairs: set[tuple[int, int]] | None = None,
    policy: RLSPolicy | None = None,
    **params,
) -> list[dict]:
    """Best subtrajectory per (query, data trajectory) pair.

    ``pairs`` restricts evaluation to surviving (query_id, traj_id) pairs
    (the pruning stages produce this set); ``None`` means all pairs.
    """
    work = (
        (qid, tid, data[tid])
        for qid, tid in itertools.product(range(len(queries)), range(len(data)))
        if pairs is None or (qid, tid) in pairs
    )
    rows = search_rows(algorithm, distance, queries, work, policy=policy, **params)
    return [dict(zip(COLUMNS, row)) for row in rows]


def topk(rows: list[dict], k: int = 1) -> list[dict]:
    """Top-K most similar subtrajectories per query (paper Def. 6 / App. E).

    Ordered by (query_id, dist, traj_id), as ``topk_df``'s window, so the
    Spark window query and the DuckDB oracle agree row-for-row.
    """
    ranked = sorted(rows, key=itemgetter("query_id", "dist", "traj_id"))
    groups = itertools.groupby(ranked, key=itemgetter("query_id"))
    return [r for _, group in groups for r in itertools.islice(group, k)]
