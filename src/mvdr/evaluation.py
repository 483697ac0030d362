"""Ranked runs, their serialization and standard retrieval metrics.

A :class:`Run` holds each query's ranking as arrays: indices into one
shared table of doc_ids and float64 scores, best first, so a document's
rank is its position + 1. :meth:`Run.from_arrays` takes a block of
rankings as search computes them; :class:`RunEntry` and
:class:`RankedList` are search's output and the run file's records, and
``Run(by_query)`` builds a run from them, sorting each query's entries
by rank and checking that ranks run from 1 without a gap. Both then run
the same checks on the whole run at once.

Run files use the common 6-column whitespace format::

    query_id Q0 doc_id rank score tag

so query ids, doc ids and the tag must each be one non-empty field, and
scores finite. Scores are written with 6 decimal places so a run is
byte-stable across platforms and thread counts. Each metric reads one
matrix of the grades at ranks 1..k of every judged query, and adds a
query's values rank by rank, so it keeps the floats of a per-query loop.
Metrics treat a query with no run entries as scoring 0 rather than
skipping it; recall only averages over queries that have at least one
relevant document, since it is undefined otherwise.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from itertools import accumulate, chain, compress
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

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


def check_fields(kind: str, values: Iterable[str]) -> None:
    """Reject a value that is empty, contains whitespace or cannot be
    encoded as UTF-8: run files split on whitespace and are written as
    UTF-8, so each id and the tag must be one non-empty, writable field."""
    for value in values:
        if value.split() != [value]:
            raise ValueError(f"{kind} {value!r} is empty or contains whitespace")
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError(f"{kind} {value!r} cannot be encoded as UTF-8") from None


class Run:
    """A ranked run: per query, indices into ``doc_ids`` and float64 scores,
    best first, with ranks contiguous from 1.

    ``Run(by_query, tag)`` builds one from run entries, sorted by rank;
    :meth:`from_arrays` from a block of ranked arrays. Both reject empty or
    whitespace ids and tags, repeated query ids, a document repeated in a
    query's ranking, scores that are not finite or that rise with rank,
    and doc indices outside ``doc_ids``.
    """

    def __init__(self, by_query: Mapping[str, Sequence[RunEntry]], tag: str = DEFAULT_RUN_TAG):
        table: dict[str, int] = {}
        docs: list[int] = []
        scores: list[float] = []
        lengths = []
        for query_id, entries in by_query.items():
            ordered = sorted(entries, key=lambda e: e.rank)
            for i, entry in enumerate(ordered, 1):
                if entry.rank != i:
                    raise ValueError(
                        f"query {query_id!r}: ranks not contiguous from 1 (saw {entry.rank} at position {i})"
                    )
            docs.extend(table.setdefault(e.doc_id, len(table)) for e in ordered)
            scores.extend(e.score for e in ordered)
            lengths.append(len(ordered))
        self._set(list(table), list(by_query), np.array(docs, dtype=np.intp), scores, lengths, tag)

    @classmethod
    def from_arrays(
        cls, doc_ids: Sequence[str], query_ids: Sequence[str], docs: np.ndarray,
        scores: np.ndarray, tag: str = DEFAULT_RUN_TAG,
    ) -> Run:
        """The run in which query ``query_ids[q]`` ranks ``doc_ids[docs[q, i]]``
        at rank ``i + 1`` with score ``scores[q, i]``; ``docs`` and
        ``scores`` share one ``(n_queries, n)`` shape, as
        :func:`~mvdr.index.search_prefixes` returns them per prefix."""
        docs = np.asarray(docs)
        scores = np.asarray(scores)
        if docs.ndim != 2 or docs.shape != scores.shape:
            raise ValueError(
                f"docs shape {docs.shape} and scores shape {scores.shape} "
                "must be one (n_queries, n) shape"
            )
        if docs.shape[0] != len(query_ids):
            raise ValueError(f"{len(query_ids)} query ids for {docs.shape[0]} ranked rows")
        run = cls.__new__(cls)
        lengths = [docs.shape[1]] * docs.shape[0]
        run._set(list(doc_ids), list(query_ids), docs.ravel(), scores.ravel(), lengths, tag)
        return run

    def _set(
        self, doc_ids: list[str], query_ids: list[str], docs: np.ndarray,
        scores: Sequence[float], lengths: Sequence[int], tag: str,
    ) -> None:
        """Check the flat rankings of ``query_ids`` in turn, ``lengths[q]``
        entries each, and keep them."""
        check_fields("tag", [tag])
        check_fields("query_id", query_ids)
        check_fields("doc_id", doc_ids)
        seen: set[str] = set()
        for query_id in query_ids:
            if query_id in seen:
                raise ValueError(f"duplicate ranked list for query {query_id!r}")
            seen.add(query_id)
        if len(set(doc_ids)) != len(doc_ids):
            raise ValueError("doc_ids must be unique")
        if docs.dtype.kind not in "iu":
            raise ValueError(f"doc indices must be integers, got {docs.dtype}")
        rows = np.repeat(np.arange(len(query_ids)), lengths)

        def fail(problem: Callable[[int], str], positions: np.ndarray) -> None:
            if positions.size:
                pos = positions[0]
                raise ValueError(f"query {query_ids[rows[pos]]!r}: {problem(pos)}")

        fail(
            lambda p: f"doc index {docs[p]} out of range for {len(doc_ids)} doc_ids",
            np.flatnonzero((docs < 0) | (docs >= len(doc_ids))),
        )
        docs = docs.astype(np.intp)
        scores = np.array(scores, dtype=np.float64)
        fail(lambda p: f"non-finite score at doc {doc_ids[docs[p]]!r}", np.flatnonzero(~np.isfinite(scores)))
        # a repeated document sorts next to its first place in the same row;
        # the stable sort puts the later place second
        keys = rows * len(doc_ids) + docs
        order = np.argsort(keys, kind="stable")
        repeats = order[1:][keys[order[1:]] == keys[order[:-1]]]
        fail(lambda p: f"duplicate doc {doc_ids[docs[p]]!r}", np.sort(repeats))
        rising = (scores[1:] > scores[:-1]) & (rows[1:] == rows[:-1])
        fail(lambda p: f"score increases with rank at doc {doc_ids[docs[p]]!r}", np.flatnonzero(rising) + 1)
        docs.flags.writeable = scores.flags.writeable = False
        self.tag = tag
        self.doc_ids = tuple(doc_ids)
        self._row = {query_id: row for row, query_id in enumerate(query_ids)}
        self._offsets = list(accumulate(lengths, initial=0))
        self._docs = docs
        self._scores = scores

    def query_ids(self) -> list[str]:
        return list(self._row)

    def ranking(self, query_id: str) -> tuple[np.ndarray, np.ndarray]:
        """A query's ranked indices into ``doc_ids`` and their scores, best
        first (read-only views); empty for a query not in the run."""
        row = self._row.get(query_id)
        if row is None:
            return self._docs[:0], self._scores[:0]
        start, end = self._offsets[row], self._offsets[row + 1]
        return self._docs[start:end], self._scores[start:end]

    def _spans(self, query_ids: Sequence[str], k: int) -> tuple[np.ndarray, np.ndarray]:
        """Where each query's ranks 1..k start in the flat arrays, and how
        many of them the run fills (0 for a query not in the run)."""
        rows = np.array([self._row.get(query_id, -1) for query_id in query_ids], dtype=np.intp)
        offsets = np.array(self._offsets, dtype=np.intp)
        listed = rows >= 0
        starts = np.where(listed, offsets[rows], 0)
        depth = np.where(listed, np.minimum(offsets[rows + 1] - starts, k), 0)
        return starts, depth

    def __len__(self) -> int:
        return len(self._docs)


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
    doc_ids, tag = run.doc_ids, run.tag

    def lines(query_id: str) -> Iterable[str]:
        docs, scores = run.ranking(query_id)
        for rank, (doc, score) in enumerate(zip(docs.tolist(), scores.tolist()), 1):
            yield f"{query_id} Q0 {doc_ids[doc]} {rank} {score:.6f} {tag}"

    write_lines(path, chain.from_iterable(map(lines, run.query_ids())))


def load_run(path: str | Path) -> Run:
    """Parse and validate a 6-column run file; every error names the file."""
    by_query: dict[str, list[RunEntry]] = {}
    tag = None
    for where, line in _read_lines(path):
        query_id, _, doc_id, rank_text, score_text, line_tag = _fields(line, 6, where)
        if tag is None:
            tag = line_tag
        elif line_tag != tag:
            raise ValueError(f"{where}: run tag {line_tag!r} differs from the first line's {tag!r}")
        try:
            rank = int(rank_text)
            score_val = float(score_text)
        except ValueError:
            raise ValueError(f"{where}: bad rank or score") from None
        if not math.isfinite(score_val):
            raise ValueError(f"{where}: non-finite score")
        by_query.setdefault(query_id, []).append(RunEntry(doc_id, rank, score_val))
    try:
        run = Run(by_query, tag=tag or DEFAULT_RUN_TAG)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
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


@dataclass(frozen=True)
class _Graded:
    """A run's ranks 1..k for each judged query, as grades.

    Row ``r`` of each matrix is ``query_ids[r]``, the judged queries in
    qrels order; the columns are ranks 1..width, width = min(k, longest
    ranking) and at least 1.
    """

    query_ids: list[str]
    grades: np.ndarray  # (n, width) the grade of the doc at each rank; 0 if unjudged or none
    judged: np.ndarray  # (n, width) whether that rank holds a judged doc
    ranked: np.ndarray  # (n, width) whether that rank holds a doc at all
    judgment_rows: np.ndarray  # each judgment's query row
    judgment_grades: np.ndarray  # each judgment's grade


def _graded(run: Run, qrels: Qrels, k: int) -> _Graded:
    """The grades of the docs ``run`` ranks 1..k for every judged query.

    The judgments of docs in ``run.doc_ids`` become one sorted
    (query row, doc index) key table, and the run's flat doc indices are
    looked up in it with ``searchsorted``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    query_ids = qrels.query_ids()
    row_of = {query_id: row for row, query_id in enumerate(query_ids)}
    doc_index = {doc_id: i for i, doc_id in enumerate(run.doc_ids)}
    judgments = [(row_of[q], doc_index.get(d, -1), grade) for (q, d), grade in qrels.items()]
    rows, docs, grades = np.array(judgments, dtype=np.int64).reshape(-1, 3).T
    n_docs = len(run.doc_ids)
    in_run = docs >= 0
    keys = rows[in_run] * n_docs + docs[in_run]
    order = np.argsort(keys)
    # a sentinel above every key keeps each lookup inside the table
    table = np.append(keys[order], len(query_ids) * n_docs)
    table_grades = np.append(grades[in_run][order], 0)

    starts, depth = run._spans(query_ids, k)
    rank = np.arange(max(1, int(depth.max(initial=0))))
    ranked = rank < depth[:, None]
    flat = (starts[:, None] + rank)[ranked]
    lookup = np.nonzero(ranked)[0] * n_docs + run._docs[flat]
    at = np.searchsorted(table, lookup)
    found = table[at] == lookup
    judged = np.zeros(ranked.shape, dtype=bool)
    judged[ranked] = found
    at_rank = np.zeros(ranked.shape, dtype=np.int64)
    at_rank[ranked] = np.where(found, table_grades[at], 0)
    return _Graded(query_ids, at_rank, judged, ranked, rows, grades)


def _rank_sums(values: np.ndarray) -> np.ndarray:
    """Each row's sum of ``values[:, r] / log2(r + 2)``, added rank by rank
    from the first, as a per-query loop over ranks would add them."""
    total = np.zeros(len(values))
    for r in range(values.shape[1]):
        total = total + values[:, r] / math.log2(r + 2)
    return total


def mrr_at_k(run: Run, qrels: Qrels, k: int = 10, rel_threshold: int = 1) -> MetricReport:
    """Mean reciprocal rank of the first relevant document within the top k.

    Averages over every judged query; queries with no relevant document in
    the top k (or absent from the run) contribute 0.
    """
    graded = _graded(run, qrels, k)
    hit = graded.ranked & (graded.grades >= rel_threshold)
    values = np.where(hit.any(axis=1), 1.0 / (np.argmax(hit, axis=1) + 1), 0.0)
    per_query = dict(zip(graded.query_ids, values.tolist()))
    return MetricReport(f"mrr@{k}", _mean(list(per_query.values())), per_query)


def recall_at_k(run: Run, qrels: Qrels, k: int = 1000, rel_threshold: int = 1) -> MetricReport:
    """Fraction of a query's relevant documents retrieved in the top k,
    averaged over queries that have at least one relevant document."""
    graded = _graded(run, qrels, k)
    relevant = np.bincount(
        graded.judgment_rows[graded.judgment_grades >= rel_threshold], minlength=len(graded.query_ids)
    )
    hits = (graded.judged & (graded.grades >= rel_threshold)).sum(axis=1)
    keep = relevant > 0
    values = hits[keep] / relevant[keep]
    per_query = dict(zip(compress(graded.query_ids, keep.tolist()), values.tolist()))
    return MetricReport(f"recall@{k}", _mean(list(per_query.values())), per_query)


def ndcg_at_k(run: Run, qrels: Qrels, k: int = 10) -> MetricReport:
    """Normalized discounted cumulative gain with exponential gains.

    Gain is ``2^grade - 1`` in float64 and the discount is
    ``log2(rank + 1)``. Queries whose ideal ranking has zero gain score 0.
    A query whose discounted gains overflow float64 (any grade of 1024 or
    more, or several just below) raises ``ValueError``.
    """
    graded = _graded(run, qrels, k)
    n = len(graded.query_ids)
    # the ideal ranking: each query's judged grades, largest first, to rank k
    order = np.lexsort((-graded.judgment_grades, graded.judgment_rows))
    rows = graded.judgment_rows[order]
    per_row = np.bincount(rows, minlength=n)
    rank = np.arange(len(rows)) - (np.cumsum(per_row) - per_row)[rows]
    ideal = np.zeros((n, max(1, min(k, int(per_row.max(initial=0))))), dtype=np.int64)
    keep = rank < k
    ideal[rows[keep], rank[keep]] = graded.judgment_grades[order][keep]
    with np.errstate(over="ignore"):
        dcg = _rank_sums(np.exp2(graded.grades) - 1.0)
        idcg = _rank_sums(np.exp2(ideal) - 1.0)
    overflow = np.flatnonzero(np.isinf(dcg) | np.isinf(idcg))
    if overflow.size:
        row = overflow[0]
        raise ValueError(
            f"query {graded.query_ids[row]!r}: nDCG's gains 2^grade - 1 of its grades, "
            f"up to {ideal[row].max()}, overflow float64"
        )
    values = np.where(idcg > 0, dcg / np.where(idcg > 0, idcg, 1.0), 0.0)
    per_query = dict(zip(graded.query_ids, values.tolist()))
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
