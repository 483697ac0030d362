"""Query-set analysis: quality, diversity, and their link to retrieval.

Quality of generated queries is measured by the best ROUGE-L F-score
against the document's gold queries. Diversity within a document's query
set is measured by self-BLEU-4 (higher self-BLEU means the queries repeat
each other). Documents are bucketed into five equal-width diversity
levels over the observed self-BLEU range, and per-level retrieval and
quality averages expose how diversity relates to effectiveness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Hashable, Mapping, Sequence

import numpy as np

from .corpus import GeneratedQuerySet, tokenize, write_lines

N_DIVERSITY_LEVELS = 5

_BLEU_MAX_ORDER = 4
_BLEU_EPS = 1e-9


_BLEU_BLOCK_DOCS = 100  # query sets per self-BLEU block: bounds the block's arrays


def _bit_masks(tokens: Sequence[Hashable]) -> dict[Hashable, int]:
    """Each distinct token's positions in ``tokens`` as the set bits of an int."""
    masks: dict[Hashable, int] = {}
    for i, token in enumerate(tokens):
        masks[token] = masks.get(token, 0) | 1 << i
    return masks


def _lcs_bits(masks: Mapping[Hashable, int], length: int, tokens: Sequence[Hashable]) -> int:
    """Longest common subsequence length of ``tokens`` and the ``length``-token
    reference whose :func:`_bit_masks` are ``masks``.

    Bit-parallel (Allison & Dix, IPL 1986; Hyyrö, AWOCA 2004): one big-int
    step per token. After each step the zero bits among the low ``length``
    bits of ``v`` count the LCS so far; carries above them are ignored.
    """
    full = (1 << length) - 1
    v = full
    for token in tokens:
        u = v & masks.get(token, 0)
        v = (v + u) | (v - u)
    return length - (v & full).bit_count()


def _checked_tokens(text: str, side: str) -> list[str]:
    tokens = tokenize(text)
    if not tokens:
        raise ValueError(f"{side} has no tokens: {text!r}")
    return tokens


def _best_rouge_l(candidates: Sequence[str], references: Sequence[str]) -> list[float]:
    """Each candidate's best ROUGE-L against any reference. Each reference's
    bitmask table is built once, after the first candidate is tokenized."""
    if not candidates:
        raise ValueError("no candidate queries")
    if not references:
        raise ValueError("no reference queries")
    tables = None
    values = []
    for candidate in candidates:
        cand = _checked_tokens(candidate, "candidate")
        if tables is None:
            refs = [_checked_tokens(text, "reference") for text in references]
            tables = [(len(ref), _bit_masks(ref)) for ref in refs]
        best = 0.0
        for length, masks in tables:
            lcs = _lcs_bits(masks, length, cand)
            if lcs:
                precision = lcs / len(cand)
                recall = lcs / length
                best = max(best, 2.0 * precision * recall / (precision + recall))
        values.append(best)
    return values


def rouge_l(candidate: str, reference: str) -> float:
    """ROUGE-L F-measure (equal precision/recall weight) over word tokens.

    0 when the texts share no common subsequence; raises if either side
    has no tokens at all.
    """
    return _best_rouge_l([candidate], [reference])[0]


def max_rouge_l(candidates: Sequence[str], references: Sequence[str]) -> float:
    """Best ROUGE-L of any candidate against any reference."""
    return max(_best_rouge_l(candidates, references))


def _firsts(ordered: np.ndarray) -> np.ndarray:
    """Whether each element of a sorted array differs from the one before."""
    first = np.ones(len(ordered), dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    return first


def _dense_ids(keys: np.ndarray) -> np.ndarray:
    """Each key's rank among the distinct keys (0 for the smallest)."""
    order = np.argsort(keys, kind="stable")
    ids = np.empty_like(keys)
    ids[order] = np.cumsum(_firsts(keys[order])) - 1
    return ids


def _clipped_sums(query_of: np.ndarray, grams: np.ndarray, set_of: np.ndarray) -> list[int]:
    """Each query's clipped n-gram count: the sum over its distinct grams
    of ``min(count, largest count among the other queries of its set)``.

    ``grams`` holds one order's dense gram ids, ``query_of`` the query of
    each (non-decreasing) and ``set_of`` each query's set.
    """
    n_grams = int(grams.max()) + 1 if len(grams) else 1
    keys = np.sort(query_of * n_grams + grams)
    first = _firsts(keys)
    counts = np.diff(np.flatnonzero(first), append=len(keys))
    pair_query, pair_gram = np.divmod(keys[first], n_grams)
    # Sorted by (set, gram, count descending), the head of each group holds
    # the gram's largest count: it is clipped to the next count in its group
    # (0 when no other query has the gram), and every other query keeps its
    # count, which is at most the head's.
    groups = set_of[pair_query] * n_grams + pair_gram
    order = np.lexsort((-counts, groups))
    ranked = counts[order]
    head = _firsts(groups[order])
    next_in_group = np.append(np.where(head[1:], 0, ranked[1:]), 0)
    clipped = np.zeros(len(set_of), dtype=np.int64)
    np.add.at(clipped, pair_query[order], np.where(head, next_in_group, ranked))
    return clipped.tolist()


def _closest_lengths(lengths: np.ndarray, set_of: np.ndarray) -> list[int]:
    """For each query, the length of the other query in its set that is
    closest to its own, ties to the shorter (the brevity penalty's
    reference length). After sorting by (set, length) that query is a
    neighbour: the lower one on a tie, an equal one when two share a length."""
    order = np.lexsort((lengths, set_of))
    ordered = lengths[order]
    sets = set_of[order]
    below = ~_firsts(sets)
    above = np.append(below[1:], False)
    gap_below = np.diff(ordered, prepend=0)
    gap_above = np.diff(ordered, append=0)
    take_below = below & ~(above & (gap_above < gap_below))
    closest = np.empty_like(lengths)
    closest[order] = np.where(take_below, np.roll(ordered, 1), np.roll(ordered, -1))
    return closest.tolist()


def _self_bleu_block(query_sets: Sequence[Sequence[str]]) -> list[float]:
    """:func:`self_bleu_4` of each query set in ``query_sets``.

    The block's queries are tokenized once into ids from one vocabulary.
    Order 1's grams are the token ids; each higher order's gram ids are the
    dense ids of (the (n-1)-gram id, the next token), so a gram never
    crosses a query. Per-(query, gram) counts and the query holding each
    (set, gram)'s largest count come from sorts, and each order's clipped
    counts are exact ints; the logs, their mean, the brevity penalty and
    each set's mean are taken per query in plain floats.
    """
    vocab: dict[str, int] = {}
    token_ids: list[int] = []
    lengths: list[int] = []
    for queries in query_sets:
        if len(queries) < 2:
            raise ValueError(f"self-BLEU needs at least 2 queries, got {len(queries)}")
        for i, query in enumerate(queries):
            ids = [vocab.setdefault(token, len(vocab)) for token in tokenize(query)]
            if not ids:
                raise ValueError(f"query {i} has no tokens: {query!r}")
            token_ids.extend(ids)
            lengths.append(len(ids))
    tokens = np.array(token_ids, dtype=np.int64)
    query_lengths = np.array(lengths, dtype=np.int64)
    query_of = np.repeat(np.arange(len(lengths)), query_lengths)
    set_of = np.repeat(np.arange(len(query_sets)), [len(queries) for queries in query_sets])
    # tokens from each position to the end of its query
    room = np.repeat(np.cumsum(query_lengths), query_lengths) - np.arange(len(tokens))
    starts = np.arange(len(tokens))
    grams = tokens
    clipped = []
    for n in range(1, _BLEU_MAX_ORDER + 1):
        if n > 1:
            keep = room[starts] >= n
            starts = starts[keep]
            grams = _dense_ids(grams[keep] * len(vocab) + tokens[starts + n - 1])
        clipped.append(_clipped_sums(query_of[starts], grams, set_of))

    log_eps = math.log(_BLEU_EPS)
    # order n + 1 has length - n grams; a query with no clipped hits, or no
    # grams at all, takes the epsilon
    log_precisions = (
        [math.log(hits / (length - n)) if hits else log_eps for hits, length in zip(sums, lengths)]
        for n, sums in enumerate(clipped)
    )
    geo_means = [math.exp(sum(logs) / _BLEU_MAX_ORDER) for logs in zip(*log_precisions)]
    closest = _closest_lengths(query_lengths, set_of)
    scores = []
    first = 0
    for queries in query_sets:
        last = first + len(queries)
        set_scores = [
            (1.0 if h_len >= ref_len else math.exp(1.0 - ref_len / h_len)) * geo_mean
            for h_len, ref_len, geo_mean in zip(
                lengths[first:last], closest[first:last], geo_means[first:last]
            )
        ]
        scores.append(float(sum(set_scores) / len(set_scores)))
        first = last
    return scores


def self_bleu_4(queries: Sequence[str]) -> float:
    """Mean BLEU-4 of each query against its siblings as references.

    High values mean the queries restate each other; identical queries
    score 1. Needs at least two queries.

    Per query, modified n-gram precision clips each gram's count by the
    largest count among the other queries: the gram's second-largest count
    in the set when the query holds the largest, else the largest. Orders
    with no overlap (or no n-grams) fall back to a tiny epsilon so the
    geometric mean stays defined. The brevity penalty uses the sibling
    whose length is closest, ties to the shorter.
    """
    return _self_bleu_block([queries])[0]


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
        QualityRecord(qset.doc_id, tuple(_best_rouge_l(qset.queries, gold)))
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
    """Self-BLEU per document plus its diversity level; documents are
    scored in blocks of ``_BLEU_BLOCK_DOCS``."""
    scores = []
    for start in range(0, len(generated), _BLEU_BLOCK_DOCS):
        block = generated[start : start + _BLEU_BLOCK_DOCS]
        scores.extend(_self_bleu_block([qset.queries for qset in block]))
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
        if members:
            bounds = (lo + (level - 1) * width, lo + level * width)
            means = (_mean_over(members, metric_by_doc), _mean_over(members, quality_by_doc))
            summaries.append(LevelSummary(level, *bounds, len(members), *means))
    return summaries


def _mean_over(
    members: Sequence[DiversityRecord], value_by_doc: Mapping[str, float] | None
) -> float | None:
    """The mean value of the ``members`` that have one, or None if none has."""
    values = [value_by_doc[r.doc_id] for r in members if r.doc_id in (value_by_doc or {})]
    return float(np.mean(values)) if values else None


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
