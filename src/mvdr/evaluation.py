"""Ranked-run serialization and standard retrieval metrics.

Run files use the common 6-column whitespace format::

    query_id Q0 doc_id rank score tag

Scores are written with 6 decimal places so a run is byte-stable across
platforms and thread counts. Metrics treat a query with no run entries
as scoring 0 rather than skipping it; recall only averages over queries
that have at least one relevant document, since it is undefined
otherwise.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .corpus import Qrels, _fields, _read_lines, write_lines

log = logging.getLogger(__name__)

DEFAULT_RUN_TAG = "mvdr"


@dataclass(frozen=True)
class RunEntry:
    doc_id: str
    rank: int  # 1-based
    score: float


@dataclass(frozen=True)
class RankedList:
    """One query's run entries, best first."""

    query_id: str
    results: tuple[RunEntry, ...]


class Run:
    """A ranked run: per-query result lists, ranks contiguous from 1."""

    def __init__(self, by_query: Mapping[str, Sequence[RunEntry]], tag: str = DEFAULT_RUN_TAG):
        self.tag = tag
        self._by_query: dict[str, tuple[RunEntry, ...]] = {}
        for query_id, entries in by_query.items():
            ordered = tuple(sorted(entries, key=lambda e: e.rank))
            seen_docs = set()
            for i, entry in enumerate(ordered, 1):
                if entry.rank != i:
                    raise ValueError(
                        f"query {query_id!r}: ranks not contiguous from 1 (saw {entry.rank} at position {i})"
                    )
                if entry.doc_id in seen_docs:
                    raise ValueError(f"query {query_id!r}: duplicate doc {entry.doc_id!r}")
                seen_docs.add(entry.doc_id)
            for prev, cur in zip(ordered, ordered[1:]):
                if cur.score > prev.score:
                    raise ValueError(
                        f"query {query_id!r}: score increases with rank at doc {cur.doc_id!r}"
                    )
            self._by_query[query_id] = ordered

    def query_ids(self) -> list[str]:
        return list(self._by_query)

    def entries(self, query_id: str) -> tuple[RunEntry, ...]:
        return self._by_query.get(query_id, ())

    def __len__(self) -> int:
        return sum(len(v) for v in self._by_query.values())


def run_from_ranked_lists(ranked: Iterable[RankedList], tag: str = DEFAULT_RUN_TAG) -> Run:
    """The run of one ranked list per query; :class:`Run` checks the entries."""
    by_query = {}
    for rl in ranked:
        if rl.query_id in by_query:
            raise ValueError(f"duplicate ranked list for query {rl.query_id!r}")
        by_query[rl.query_id] = rl.results
    return Run(by_query, tag=tag)


def write_run(run: Run, path: str | Path) -> None:
    """Write the 6-column format with %.6f scores (byte-stable)."""
    entries = ((q, e) for q in run.query_ids() for e in run.entries(q))
    write_lines(path, (f"{q} Q0 {e.doc_id} {e.rank} {e.score:.6f} {run.tag}" for q, e in entries))


def load_run(path: str | Path) -> Run:
    """Parse and validate a 6-column run file."""
    by_query: dict[str, list[RunEntry]] = {}
    tag = DEFAULT_RUN_TAG
    for where, line in _read_lines(path):
        query_id, _, doc_id, rank_text, score_text, tag = _fields(line, 6, where)
        try:
            rank = int(rank_text)
            score_val = float(score_text)
        except ValueError:
            raise ValueError(f"{where}: bad rank or score") from None
        if not math.isfinite(score_val):
            raise ValueError(f"{where}: non-finite score")
        by_query.setdefault(query_id, []).append(RunEntry(doc_id, rank, score_val))
    run = Run(by_query, tag=tag)
    log.info("loaded run with %d queries from %s", len(run.query_ids()), path)
    return run


# ---------------------------------------------------------------------------
# Metrics


@dataclass(frozen=True)
class MetricReport:
    """A metric aggregated over queries, with the per-query breakdown."""

    name: str
    aggregate: float
    per_query: dict[str, float]

    @property
    def n_queries(self) -> int:
        return len(self.per_query)


def _mean(values: Sequence[float]) -> float:
    return float(sum(values) / len(values)) if values else 0.0


def mrr_at_k(run: Run, qrels: Qrels, k: int = 10, rel_threshold: int = 1) -> MetricReport:
    """Mean reciprocal rank of the first relevant document within the top k.

    Averages over every judged query; queries with no relevant document in
    the top k (or absent from the run) contribute 0.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    per_query: dict[str, float] = {}
    for query_id in qrels.query_ids():
        grades = qrels.grades_for(query_id)
        value = 0.0
        for entry in run.entries(query_id):
            if entry.rank > k:
                break
            if grades.get(entry.doc_id, 0) >= rel_threshold:
                value = 1.0 / entry.rank
                break
        per_query[query_id] = value
    return MetricReport(f"mrr@{k}", _mean(list(per_query.values())), per_query)


def recall_at_k(run: Run, qrels: Qrels, k: int = 1000, rel_threshold: int = 1) -> MetricReport:
    """Fraction of a query's relevant documents retrieved in the top k,
    averaged over queries that have at least one relevant document."""
    if k < 1:
        raise ValueError("k must be >= 1")
    per_query: dict[str, float] = {}
    for query_id in qrels.query_ids():
        relevant = set(qrels.relevant_docs(query_id, threshold=rel_threshold))
        if not relevant:
            continue
        retrieved = {e.doc_id for e in run.entries(query_id) if e.rank <= k}
        per_query[query_id] = len(relevant & retrieved) / len(relevant)
    return MetricReport(f"recall@{k}", _mean(list(per_query.values())), per_query)


def ndcg_at_k(run: Run, qrels: Qrels, k: int = 10) -> MetricReport:
    """Normalized discounted cumulative gain with exponential gains.

    Gain is ``2^grade - 1`` and the discount is ``log2(rank + 1)``.
    Queries whose ideal ranking has zero gain score 0.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    per_query: dict[str, float] = {}
    for query_id in qrels.query_ids():
        grades = qrels.grades_for(query_id)
        dcg = 0.0
        for entry in run.entries(query_id):
            if entry.rank > k:
                break
            gain = 2 ** grades.get(entry.doc_id, 0) - 1
            dcg += gain / math.log2(entry.rank + 1)
        ideal = sorted(grades.values(), reverse=True)[:k]
        idcg = sum((2**g - 1) / math.log2(i + 1) for i, g in enumerate(ideal, 1))
        per_query[query_id] = dcg / idcg if idcg > 0 else 0.0
    return MetricReport(f"ndcg@{k}", _mean(list(per_query.values())), per_query)


_METRIC_BUILDERS = {
    "mrr": mrr_at_k,
    "recall": recall_at_k,
    "ndcg": ndcg_at_k,
}


def parse_metric_spec(spec: str) -> tuple[str, int]:
    """Parse ``name@k`` (e.g. ``mrr@10``) into its parts."""
    name, sep, k_text = spec.partition("@")
    name = name.strip().lower()
    if not sep or name not in _METRIC_BUILDERS:
        raise ValueError(
            f"bad metric spec {spec!r}: expected one of "
            + ", ".join(f"{m}@k" for m in _METRIC_BUILDERS)
        )
    try:
        k = int(k_text)
    except ValueError:
        raise ValueError(f"bad metric spec {spec!r}: {k_text!r} is not an integer") from None
    if k < 1:
        raise ValueError(f"bad metric spec {spec!r}: k must be >= 1")
    return name, k


def compute_metric(
    spec: str, run: Run, qrels: Qrels, rel_threshold: int = 1
) -> MetricReport:
    """Compute a metric given as a ``name@k`` spec string."""
    name, k = parse_metric_spec(spec)
    if name == "ndcg":
        return ndcg_at_k(run, qrels, k=k)
    return _METRIC_BUILDERS[name](run, qrels, k=k, rel_threshold=rel_threshold)


def write_metrics_csv(reports: Sequence[MetricReport], path: str | Path) -> None:
    """Write aggregate metric values as ``metric,value`` CSV."""
    rows = (f"{report.name},{report.aggregate:.6f}" for report in reports)
    write_lines(path, chain(["metric,value"], rows))
