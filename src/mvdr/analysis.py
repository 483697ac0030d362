"""Query-set analysis: quality, diversity, and their link to retrieval.

Quality of generated queries is measured by the best ROUGE-L F-score
against the document's gold queries. Diversity within a document's query
set is measured by self-BLEU-4 (higher self-BLEU means the queries repeat
each other). Documents are bucketed into five equal-width diversity
levels over the observed self-BLEU range, and per-level retrieval and
quality averages expose how diversity relates to effectiveness.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .corpus import GeneratedQuerySet, tokenize, write_lines

log = logging.getLogger(__name__)

N_DIVERSITY_LEVELS = 5

_BLEU_MAX_ORDER = 4
_BLEU_EPS = 1e-9


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Longest common subsequence length, O(len(a) * len(b))."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, 1):
            if x == y:
                cur.append(prev[j - 1] + 1)
            else:
                cur.append(max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def rouge_l(candidate: str, reference: str) -> float:
    """ROUGE-L F-measure (equal precision/recall weight) over word tokens.

    0 when the texts share no common subsequence; raises if either side
    has no tokens at all.
    """
    cand = tokenize(candidate)
    ref = tokenize(reference)
    if not cand:
        raise ValueError(f"candidate has no tokens: {candidate!r}")
    if not ref:
        raise ValueError(f"reference has no tokens: {reference!r}")
    lcs = _lcs_length(cand, ref)
    if lcs == 0:
        return 0.0
    precision = lcs / len(cand)
    recall = lcs / len(ref)
    return 2.0 * precision * recall / (precision + recall)


def max_rouge_l(candidates: Sequence[str], references: Sequence[str]) -> float:
    """Best ROUGE-L of any candidate against any reference."""
    if not candidates:
        raise ValueError("no candidate queries")
    if not references:
        raise ValueError("no reference queries")
    return max(rouge_l(c, r) for c in candidates for r in references)


def _ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def self_bleu_4(queries: Sequence[str]) -> float:
    """Mean BLEU-4 of each query against its siblings as references.

    High values mean the queries restate each other; identical queries
    score 1. Needs at least two queries.

    Per query, modified n-gram precision clips counts by the largest count
    among the other queries. Orders with no overlap (or no n-grams) fall
    back to a tiny epsilon so the geometric mean stays defined. The brevity
    penalty uses the sibling whose length is closest, ties to the shorter.
    Each query's n-grams are counted once; for each gram the largest count,
    the query holding it and the second-largest count give every query's
    clip.
    """
    if len(queries) < 2:
        raise ValueError(f"self-BLEU needs at least 2 queries, got {len(queries)}")
    token_lists = [tokenize(q) for q in queries]
    for i, tokens in enumerate(token_lists):
        if not tokens:
            raise ValueError(f"query {i} has no tokens: {queries[i]!r}")
    log_precisions: list[list[float]] = [[] for _ in token_lists]
    for n in range(1, _BLEU_MAX_ORDER + 1):
        counts = [_ngram_counts(tokens, n) for tokens in token_lists]
        # gram -> (largest count, query holding it, second-largest count)
        best: dict[tuple[str, ...], tuple[int, int, int]] = {}
        for i, grams in enumerate(counts):
            for gram, count in grams.items():
                top, owner, second = best.get(gram, (0, -1, 0))
                if count > top:
                    best[gram] = (count, i, top)
                elif count > second:
                    best[gram] = (top, owner, count)
        for i, grams in enumerate(counts):
            total = sum(grams.values())
            if total == 0:
                log_precisions[i].append(math.log(_BLEU_EPS))
                continue
            clipped = 0
            for gram, count in grams.items():
                top, owner, second = best[gram]
                clipped += min(count, second if owner == i else top)
            precision = clipped / total if clipped > 0 else _BLEU_EPS
            log_precisions[i].append(math.log(precision))
    lengths = [len(tokens) for tokens in token_lists]
    scores = []
    for i, h_len in enumerate(lengths):
        geo_mean = math.exp(sum(log_precisions[i]) / _BLEU_MAX_ORDER)
        closest_ref_len = min(
            (abs(r_len - h_len), r_len) for j, r_len in enumerate(lengths) if j != i
        )[1]
        bp = 1.0 if h_len >= closest_ref_len else math.exp(1.0 - closest_ref_len / h_len)
        scores.append(bp * geo_mean)
    return float(sum(scores) / len(scores))


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation; raises on length mismatch, n < 2, or zero variance."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape:
        raise ValueError(f"length mismatch: {xs.shape} vs {ys.shape}")
    if xs.size < 2:
        raise ValueError("pearson needs at least 2 points")
    if np.ptp(xs) == 0 or np.ptp(ys) == 0:
        raise ValueError("pearson undefined for a zero-variance series")
    return float(np.corrcoef(xs, ys)[0, 1])


# ---------------------------------------------------------------------------
# Per-document records and diversity bucketing


@dataclass(frozen=True)
class QualityRecord:
    """Generated-query quality for one document: each view's best ROUGE-L
    against the document's gold queries."""

    doc_id: str
    view_rouge_l: tuple[float, ...]

    @property
    def max_rouge_l(self) -> float:
        return max(self.view_rouge_l)


@dataclass(frozen=True)
class DiversityRecord:
    """Within-set diversity for one document (level set after bucketing)."""

    doc_id: str
    self_bleu: float
    level: int


@dataclass(frozen=True)
class LevelSummary:
    """Aggregates over the documents in one diversity level."""

    level: int
    lo: float
    hi: float
    n_docs: int
    mean_metric: float | None
    mean_quality: float | None


def quality_records(
    generated: Sequence[GeneratedQuerySet], gold_by_doc: Mapping[str, Sequence[str]]
) -> list[QualityRecord]:
    """Each view's best ROUGE-L, for documents that have gold queries."""
    return [
        QualityRecord(qset.doc_id, tuple(max_rouge_l([query], gold) for query in qset.queries))
        for qset in generated
        if (gold := gold_by_doc.get(qset.doc_id))
    ]


def _level_scale(values: Sequence[float]) -> tuple[float, float]:
    """The lowest of ``values`` and the width of each of the equal-width
    levels over their range; the width is 0 when all values are equal."""
    lo, hi = min(values), max(values)
    return lo, (hi - lo) / N_DIVERSITY_LEVELS if hi > lo else 0.0


def assign_levels(values: Sequence[float]) -> list[int]:
    """Bucket values into equal-width levels over their observed range.

    Level ``N_DIVERSITY_LEVELS`` holds the highest values. A degenerate
    range (all values equal) puts everything in the top level.
    """
    if not values:
        return []
    lo, width = _level_scale(values)
    if width == 0:
        return [N_DIVERSITY_LEVELS] * len(values)
    return [min(N_DIVERSITY_LEVELS, int((v - lo) / width) + 1) for v in values]


def diversity_records(generated: Sequence[GeneratedQuerySet]) -> list[DiversityRecord]:
    """Self-BLEU per document plus its diversity level."""
    scores = [self_bleu_4(qset.queries) for qset in generated]
    levels = assign_levels(scores)
    return [
        DiversityRecord(qset.doc_id, score, level)
        for qset, score, level in zip(generated, scores, levels)
    ]


def level_summaries(
    records: Sequence[DiversityRecord],
    metric_by_doc: Mapping[str, float] | None = None,
    quality_by_doc: Mapping[str, float] | None = None,
) -> list[LevelSummary]:
    """Per-level document counts and mean metric/quality.

    Levels with no documents are omitted. A level's mean is None when no
    document in it has the corresponding value.
    """
    if not records:
        return []
    lo, width = _level_scale([r.self_bleu for r in records])
    summaries = []
    for level in range(1, N_DIVERSITY_LEVELS + 1):
        members = [r for r in records if r.level == level]
        if not members:
            continue
        metric_vals = (
            [metric_by_doc[r.doc_id] for r in members if r.doc_id in metric_by_doc]
            if metric_by_doc is not None
            else []
        )
        quality_vals = (
            [quality_by_doc[r.doc_id] for r in members if r.doc_id in quality_by_doc]
            if quality_by_doc is not None
            else []
        )
        summaries.append(
            LevelSummary(
                level=level,
                lo=lo + (level - 1) * width,
                hi=lo + level * width,
                n_docs=len(members),
                mean_metric=float(np.mean(metric_vals)) if metric_vals else None,
                mean_quality=float(np.mean(quality_vals)) if quality_vals else None,
            )
        )
    return summaries


def doc_metric_from_queries(
    per_query_metric: Mapping[str, float], positives: Mapping[str, Sequence[str]]
) -> dict[str, float]:
    """Roll a per-query metric up to documents via their linked queries.

    ``positives`` maps query_id to the doc_ids it is relevant to; a
    document's value is the mean over the queries linked to it.
    """
    by_doc: dict[str, list[float]] = {}
    for query_id, value in per_query_metric.items():
        for doc_id in positives.get(query_id, ()):
            by_doc.setdefault(doc_id, []).append(value)
    return {doc_id: float(np.mean(vals)) for doc_id, vals in by_doc.items()}


@dataclass(frozen=True)
class SweepPoint:
    """Quality (and optionally retrieval) using only the first k views."""

    k: int
    mean_max_rouge_l: float
    retrieval_metric: float | None
    quality: tuple[QualityRecord, ...]  # each document's first k views


def sweep_views(
    k_values: Sequence[int],
    generated: Sequence[GeneratedQuerySet],
    gold_by_doc: Mapping[str, Sequence[str]],
    retrieval: Sequence[float] | None = None,
) -> list[SweepPoint]:
    """Evaluate the first k views of every query set at each k.

    A point's ``quality`` is :func:`quality_records` over the sets
    truncated to k views, and ``mean_max_rouge_l`` the mean of their best
    views. Each view is scored against gold once. ``retrieval``, when
    given, holds one aggregate retrieval metric per k, in ``k_values``
    order (the CLI ranks every view prefix of one index). Raises if any k
    exceeds the available views.
    """
    if not generated:
        raise ValueError("no generated query sets to sweep")
    available = min(len(qset.queries) for qset in generated)
    for k in k_values:
        if k < 1 or k > available:
            raise ValueError(f"cannot sweep k={k}: only {available} views available")
    if retrieval is not None and len(retrieval) != len(k_values):
        raise ValueError(f"{len(retrieval)} retrieval values for {len(k_values)} values of k")
    quality = quality_records(generated, gold_by_doc)
    if not quality:
        raise ValueError("no documents with gold queries to score")
    points = []
    for i, k in enumerate(k_values):
        prefix = tuple(QualityRecord(r.doc_id, r.view_rouge_l[:k]) for r in quality)
        mean_quality = float(np.mean([r.max_rouge_l for r in prefix]))
        metric = retrieval[i] if retrieval is not None else None
        points.append(SweepPoint(k, mean_quality, metric, prefix))
    return points


# ---------------------------------------------------------------------------
# CSV writers


def write_quality_csv(records: Sequence[QualityRecord], path: str | Path) -> None:
    rows = (f"{r.doc_id},{r.max_rouge_l:.6f}" for r in records)
    write_lines(path, chain(["doc_id,max_rouge_l"], rows))


def write_diversity_csv(records: Sequence[DiversityRecord], path: str | Path) -> None:
    rows = (f"{r.doc_id},{r.self_bleu:.6f},{r.level}" for r in records)
    write_lines(path, chain(["doc_id,self_bleu_4,level"], rows))


def _optional(value: float | None) -> str:
    return f"{value:.6f}" if value is not None else ""


def write_level_csv(summaries: Sequence[LevelSummary], path: str | Path) -> None:
    rows = (
        f"{s.level},{s.lo:.6f},{s.hi:.6f},{s.n_docs},"
        f"{_optional(s.mean_metric)},{_optional(s.mean_quality)}"
        for s in summaries
    )
    write_lines(path, chain(["level,lo,hi,n_docs,mean_metric,mean_quality"], rows))


def write_sweep_csv(points: Sequence[SweepPoint], path: str | Path) -> None:
    rows = (f"{p.k},{p.mean_max_rouge_l:.6f},{_optional(p.retrieval_metric)}" for p in points)
    write_lines(path, chain(["k,mean_max_rouge_l,retrieval_metric"], rows))
