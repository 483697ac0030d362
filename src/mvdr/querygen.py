"""Pseudo-query generation from document term salience.

Each document gets k short queries built from a question template plus a
few salient content terms. Salience is tf-idf over the corpus the
generator was fitted on. Sampling is top-k in both choice points: the
template is drawn uniformly from the first ``top_k`` templates, and
content terms are drawn salience-weighted (without replacement) from the
document's ``top_k`` most salient terms. With ``top_k`` of 1 every draw
collapses to the argmax, so all k queries of a document are identical.

Every document is generated with its own PCG64 stream derived from the
base seed and the doc_id, so outputs do not depend on corpus order. A view
takes ``integers(0, n_templates)`` for its template, then, per term, the
draw of ``choice(len(w), p=w / w.sum())`` over the remaining weights ``w``.
Those scalar ``Generator`` calls are not made: each document's raw words
are drawn in bulk with ``random_raw`` and the calls are replayed for many
documents at once in numpy, with the same results bit for bit:

- a 32-bit draw takes a new word's low half and keeps its high half for
  the next 32-bit draw;
- ``integers(0, n)`` is Lemire's ``(u32 * n) >> 32``, drawn again while
  the product's low half is below ``2**32 % n``; ``integers(0, 1)`` draws
  nothing;
- a uniform is a new word's top 53 bits times ``2**-53``;
- the choice searches the uniform in the cumulative sum of ``w`` divided
  by its pairwise sum, normalized by its last entry.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .corpus import Document, GeneratedQuerySet, tokenize
from .hashing import derive_seed

log = logging.getLogger(__name__)

DEFAULT_TEMPLATES = (
    "what is",
    "what",
    "how does",
    "how many",
    "when was",
    "where is",
    "why does",
    "who",
)

# content terms appended to a template per query
_TERMS_PER_QUERY = 3

# documents whose draws are replayed together
_BLOCK_DOCS = 1024


@dataclass(frozen=True)
class SamplingConfig:
    """Knobs for one generation pass."""

    k_views: int = 10
    top_k: int = 10
    max_query_tokens: int = 16

    def __post_init__(self) -> None:
        if self.k_views < 1:
            raise ValueError(f"k_views must be >= 1, got {self.k_views}")
        if self.top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k}")
        if self.max_query_tokens < 1:
            raise ValueError(f"max_query_tokens must be >= 1, got {self.max_query_tokens}")


@dataclass(frozen=True)
class QGModel:
    """A fitted generator: per-document term salience plus templates."""

    salience: Mapping[str, Mapping[str, float]]
    templates: tuple[str, ...]
    rng_seed: int

    def __post_init__(self) -> None:
        if not self.templates:
            raise ValueError("QGModel needs at least one template")


def fit_qg(
    corpus: Sequence[Document],
    seed: int = 0,
    templates: Sequence[str] = DEFAULT_TEMPLATES,
) -> QGModel:
    """Fit tf-idf salience over the corpus.

    idf uses add-one smoothing, ``log((1 + N) / (1 + df)) + 1``, so a
    single-document corpus still yields positive weights.
    """
    if not corpus:
        raise ValueError("cannot fit a query generator on an empty corpus")
    doc_terms: dict[str, dict[str, int]] = {}
    df: dict[str, int] = {}
    for doc in corpus:
        counts: dict[str, int] = {}
        for token in tokenize(doc.text):
            counts[token] = counts.get(token, 0) + 1
        doc_terms[doc.doc_id] = counts
        for term in counts:
            df[term] = df.get(term, 0) + 1
    n_docs = len(corpus)
    idf = {
        term: math.log((1 + n_docs) / (1 + count)) + 1.0 for term, count in df.items()
    }
    salience = {
        doc_id: {term: tf * idf[term] for term, tf in counts.items()}
        for doc_id, counts in doc_terms.items()
    }
    return QGModel(salience=salience, templates=tuple(templates), rng_seed=seed)


def _term_pool(weights: Mapping[str, float], top_k: int) -> tuple[list[str], list[float]]:
    """The document's top-salience terms, ties broken alphabetically."""
    ranked = sorted(weights.items(), key=lambda kv: (-kv[1], kv[0]))[:top_k]
    return [t for t, _ in ranked], [w for _, w in ranked]


def _choose(weights: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Per row, the index that ``Generator.choice(n, p=w / w.sum())``
    picks with the uniform ``uniforms[row]``: the uniform searched in the
    normalized cumulative sum of the row's probabilities. ``weights`` is
    C-contiguous, so numpy sums each row in the pairwise order in which
    ``np.sum`` sums that row alone."""
    cdf = np.cumsum(weights / weights.sum(axis=1, keepdims=True), axis=1)
    cdf /= cdf[:, -1:]
    return np.count_nonzero(cdf <= uniforms[:, None], axis=1)


def _draw_words(seeds: Sequence[int], width: int) -> np.ndarray:
    """The first ``width`` raw words of ``PCG64(seed)`` for each seed, one row each."""
    words = np.empty((len(seeds), width), dtype=np.uint64)
    for row, seed in zip(words, seeds):
        row[:] = np.random.PCG64(seed).random_raw(width)
    return words


class _Streams:
    """The ``PCG64(seed)`` stream of each seed, read as the scalar
    ``Generator`` calls read it, for many streams at once.

    Each stream's first ``width`` raw words are drawn up front, one row per
    stream; the rows are drawn again, twice as wide, when one runs out.
    """

    def __init__(self, seeds: Sequence[int], width: int) -> None:
        self._seeds = seeds
        self.words = _draw_words(seeds, width)
        n = len(seeds)
        self._next = np.zeros(n, dtype=np.int64)  # next unread word per stream
        self._high = np.zeros(n, dtype=np.uint64)  # buffered upper half-word
        self._has_high = np.zeros(n, dtype=bool)

    def _take(self, rows: np.ndarray) -> np.ndarray:
        at = self._next[rows]
        if len(at) and at.max() >= self.words.shape[1]:
            self.words = _draw_words(self._seeds, 2 * self.words.shape[1])
        self._next[rows] = at + 1
        return self.words[rows, at]

    def uniforms(self, rows: np.ndarray) -> np.ndarray:
        """``random()`` in each row's stream: the top 53 bits of a new word."""
        return (self._take(rows) >> np.uint64(11)) * 2.0**-53

    def _uint32(self, rows: np.ndarray) -> np.ndarray:
        # a new word hands out its low half and keeps its high half for the
        # next 32-bit draw; doubles never touch the kept half
        has_high = self._has_high[rows]
        out = self._high[rows]
        fresh = rows[~has_high]
        word = self._take(fresh)
        out[~has_high] = word & np.uint64(0xFFFFFFFF)
        self._high[fresh] = word >> np.uint64(32)
        self._has_high[rows] = ~has_high
        return out

    def integers(self, rows: np.ndarray, n: int) -> np.ndarray:
        """``integers(0, n)`` in each row's stream: Lemire's bounded draw
        ``(u32 * n) >> 32``, drawn again while the product's low 32 bits
        fall below ``2**32 % n``. ``integers(0, 1)`` draws nothing."""
        out = np.zeros(len(rows), dtype=np.int64)
        if n == 1:
            return out
        threshold = np.uint64(2**32 % n)
        todo = np.arange(len(rows))
        while len(todo):
            m = self._uint32(rows[todo]) * np.uint64(n)
            out[todo] = (m >> np.uint64(32)).astype(np.int64)
            todo = todo[(m & np.uint64(0xFFFFFFFF)) < threshold]
        return out


def _replay(
    seeds: Sequence[int],
    pool_weights: Sequence[Sequence[float]],
    template_lengths: Sequence[int],
    cfg: SamplingConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Every document's draws (see the module docstring), one view at a
    time for all documents; document i draws from ``PCG64(seeds[i])`` and
    ``pool_weights[i]`` are its term pool's weights.

    Returns the template index of each (document, view) and the pool index
    of each of its terms, -1 past the view's last term.
    """
    # every view draws a template and at most three terms: at most 4 words
    streams = _Streams(seeds, cfg.k_views * (1 + _TERMS_PER_QUERY))
    n_docs = len(pool_weights)
    pool_size = np.fromiter(map(len, pool_weights), dtype=np.int64, count=n_docs)
    weights = np.zeros((n_docs, max(pool_size, default=0)))
    for row, w in zip(weights, pool_weights):
        row[: len(w)] = w
    lengths = np.asarray(template_lengths, dtype=np.int64)
    budget = np.maximum(0, cfg.max_query_tokens - lengths)
    templates = np.empty((n_docs, cfg.k_views), dtype=np.int64)
    terms = np.full((n_docs, cfg.k_views, _TERMS_PER_QUERY), -1, dtype=np.int64)
    docs = np.arange(n_docs)
    for view in range(cfg.k_views):
        templates[:, view] = streams.integers(docs, len(lengths))
        n_terms = np.minimum(np.minimum(_TERMS_PER_QUERY, pool_size), budget[templates[:, view]])
        # at each step, a row's first (pool size - step) entries are the
        # pool indices its view has not drawn yet, in pool order
        remaining = np.tile(np.arange(weights.shape[1]), (n_docs, 1))
        for step in range(_TERMS_PER_QUERY):
            live = np.flatnonzero(n_terms > step)
            uniforms = streams.uniforms(live)
            # pairwise sums take a fixed order per count, so group by count
            left = pool_size[live] - step
            # sorted(set()) rather than np.unique, which imports numpy.ma
            for count in sorted(set(left.tolist())):
                rows = live[left == count]
                avail = remaining[rows, :count]
                pick = _choose(weights[rows[:, None], avail], uniforms[left == count])
                terms[rows, view, step] = avail[np.arange(len(rows)), pick]
                kept = np.arange(count) != pick[:, None]
                remaining[rows, : count - 1] = avail[kept].reshape(len(rows), count - 1)
    return templates, terms


def _generate(
    model: QGModel, docs: Sequence[Document], cfg: SamplingConfig, seeds: Sequence[int]
) -> list[GeneratedQuerySet]:
    """Query sets for ``docs``, document i drawn from ``PCG64(seeds[i])``,
    replayed ``_BLOCK_DOCS`` documents at a time."""
    template_tokens = [t.split() for t in model.templates[: cfg.top_k]]
    lengths = list(map(len, template_tokens))
    sets = []
    for start in range(0, len(docs), _BLOCK_DOCS):
        block = docs[start : start + _BLOCK_DOCS]
        pools = []
        for doc in block:
            weights = model.salience.get(doc.doc_id)
            if weights is None:
                raise ValueError(f"document {doc.doc_id!r} is not in the generator's corpus")
            if not weights:
                raise ValueError(f"document {doc.doc_id!r} has no usable terms")
            pools.append(_term_pool(weights, cfg.top_k))
        block_seeds = seeds[start : start + _BLOCK_DOCS]
        templates, terms = _replay(block_seeds, [w for _, w in pools], lengths, cfg)
        for doc, (pool_terms, _), doc_templates, doc_terms in zip(block, pools, templates, terms):
            queries = tuple(
                " ".join(
                    (template_tokens[t] + [pool_terms[j] for j in chosen if j >= 0])[: cfg.max_query_tokens]
                )
                for t, chosen in zip(doc_templates.tolist(), doc_terms.tolist())
            )
            sets.append(GeneratedQuerySet(doc_id=doc.doc_id, queries=queries))
    return sets


def generate(
    model: QGModel, doc: Document, cfg: SamplingConfig, seed: int | None = None
) -> GeneratedQuerySet:
    """Generate ``cfg.k_views`` queries for one document.

    The document must belong to the fitted corpus and have at least one
    in-vocabulary token. Identical (model, doc, cfg, seed) always yields
    identical queries.
    """
    return _generate(model, [doc], cfg, [model.rng_seed if seed is None else seed])[0]


def generate_corpus(
    model: QGModel,
    corpus: Sequence[Document],
    cfg: SamplingConfig,
    seed: int | None = None,
    threads: int | None = None,
) -> list[GeneratedQuerySet]:
    """Generate query sets for every document.

    Each document's RNG stream is derived from (seed, doc_id), so results
    are invariant to corpus order. ``threads`` is ignored: generation runs
    on the calling thread.
    """
    if seed is None:
        seed = model.rng_seed
    sets = _generate(model, corpus, cfg, [derive_seed(seed, doc.doc_id) for doc in corpus])
    total = sum(len(qset.queries) for qset in sets)
    log.info("generated %d queries for %d documents (%d each)", total, len(sets), cfg.k_views)
    return sets
