"""Pseudo-query generation from document term salience.

Each document gets k short queries built from a question template plus a
few salient content terms. Salience is tf-idf over the corpus the
generator was fitted on. Sampling is top-k in both choice points: the
template is drawn uniformly from the first ``top_k`` templates, and
content terms are drawn salience-weighted (without replacement) from the
document's ``top_k`` most salient terms. With ``top_k`` of 1 every draw
collapses to the argmax, so all k queries of a document are identical.

Every document draws from its own stream, ``PCG64(derive_seed(seed,
doc_id))`` for the call's base seed, so outputs do not depend on corpus
order, and ``generate`` of one document gives that document's entry of
any ``generate_corpus`` call with the same seed. View ``v`` reads the
stream's raw words ``4v`` to ``4v + 3`` and nothing else, each as the
uniform ``u = (word >> 11) * 2**-53``:

- the first word picks the template ``floor(u * n_templates)``;
- term draw ``j`` reads word ``1 + j`` and picks the first pool entry
  whose cumulative weight, divided by its last entry, exceeds ``u``. The
  cumulative weight runs in pool order over the terms the view has not
  drawn (a drawn term counts as weight 0), so the pick is salience-weighted
  without replacement.

Each document's words are drawn in bulk with ``random_raw``, and every
draw is made for a block of documents at once in numpy.
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

# raw words each view reads: one for its template, one per term draw
_WORDS_PER_VIEW = 1 + _TERMS_PER_QUERY

# documents whose draws are sampled together
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


def fit_qg(corpus: Sequence[Document], seed: int = 0) -> QGModel:
    """Fit tf-idf salience over the corpus, with ``DEFAULT_TEMPLATES``.

    ``seed`` becomes ``QGModel.rng_seed``, the base seed of a generation
    call that passes none; document ``doc_id`` then draws from
    ``PCG64(derive_seed(seed, doc_id))``. idf uses add-one smoothing,
    ``log((1 + N) / (1 + df)) + 1``, so a single-document corpus still
    yields positive weights.
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
    return QGModel(salience=salience, templates=DEFAULT_TEMPLATES, rng_seed=seed)


def _term_pool(weights: Mapping[str, float], top_k: int) -> tuple[list[str], list[float]]:
    """The document's top-salience terms, ties broken alphabetically."""
    ranked = sorted(weights.items(), key=lambda kv: (-kv[1], kv[0]))[:top_k]
    return [t for t, _ in ranked], [w for _, w in ranked]


def _draw_words(seeds: Sequence[int], width: int) -> np.ndarray:
    """The first ``width`` raw words of ``PCG64(seed)`` for each seed, one row each."""
    words = np.empty((len(seeds), width), dtype=np.uint64)
    for row, seed in zip(words, seeds):
        row[:] = np.random.PCG64(seed).random_raw(width)
    return words


def _sample(
    seeds: Sequence[int],
    pool_weights: Sequence[Sequence[float]],
    template_lengths: Sequence[int],
    cfg: SamplingConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Every document's draws (see the module docstring), one view at a
    time for all documents; document i reads the words of
    ``PCG64(seeds[i])`` and ``pool_weights[i]`` are its term pool's weights.

    Returns the template index of each (document, view) and the pool index
    of each of its terms, -1 past the view's last term.
    """
    words = _draw_words(seeds, cfg.k_views * _WORDS_PER_VIEW)
    n_docs = len(pool_weights)
    pool_size = np.fromiter(map(len, pool_weights), dtype=np.int64, count=n_docs)
    weights = np.zeros((n_docs, max(pool_size, default=0)))
    for row, w in zip(weights, pool_weights):
        row[: len(w)] = w
    lengths = np.asarray(template_lengths, dtype=np.int64)
    budget = np.maximum(0, cfg.max_query_tokens - lengths)
    templates = np.empty((n_docs, cfg.k_views), dtype=np.int64)
    terms = np.full((n_docs, cfg.k_views, _TERMS_PER_QUERY), -1, dtype=np.int64)
    for view in range(cfg.k_views):
        first = view * _WORDS_PER_VIEW
        u = (words[:, first : first + _WORDS_PER_VIEW] >> np.uint64(11)) * 2.0**-53
        templates[:, view] = (u[:, 0] * len(lengths)).astype(np.int64)
        n_terms = np.minimum(np.minimum(_TERMS_PER_QUERY, pool_size), budget[templates[:, view]])
        left = weights.copy()  # a drawn term's weight drops to 0
        for step in range(_TERMS_PER_QUERY):
            live = np.flatnonzero(n_terms > step)
            cdf = np.cumsum(left[live], axis=1)
            cdf /= cdf[:, -1:]
            pick = np.count_nonzero(cdf <= u[live, 1 + step][:, None], axis=1)
            terms[live, view, step] = pick
            left[live, pick] = 0.0
    return templates, terms


def generate_corpus(
    model: QGModel,
    corpus: Sequence[Document],
    cfg: SamplingConfig,
    seed: int | None = None,
    threads: int | None = None,
) -> list[GeneratedQuerySet]:
    """Generate query sets for every document, ``_BLOCK_DOCS`` at a time.

    Document ``doc_id`` draws from ``PCG64(derive_seed(seed, doc_id))``,
    with ``seed`` defaulting to ``model.rng_seed``, so results are
    invariant to corpus order and identical inputs give identical queries.
    Every document must belong to the fitted corpus and have at least one
    in-vocabulary token. ``threads`` is ignored: generation runs on the
    calling thread.
    """
    if seed is None:
        seed = model.rng_seed
    template_tokens = [t.split() for t in model.templates[: cfg.top_k]]
    lengths = list(map(len, template_tokens))
    sets = []
    for start in range(0, len(corpus), _BLOCK_DOCS):
        block = corpus[start : start + _BLOCK_DOCS]
        pools = []
        for doc in block:
            weights = model.salience.get(doc.doc_id)
            if weights is None:
                raise ValueError(f"document {doc.doc_id!r} is not in the generator's corpus")
            if not weights:
                raise ValueError(f"document {doc.doc_id!r} has no usable terms")
            pools.append(_term_pool(weights, cfg.top_k))
        block_seeds = [derive_seed(seed, doc.doc_id) for doc in block]
        templates, terms = _sample(block_seeds, [w for _, w in pools], lengths, cfg)
        for doc, (pool_terms, _), doc_templates, doc_terms in zip(block, pools, templates, terms):
            queries = tuple(
                " ".join(
                    (template_tokens[t] + [pool_terms[j] for j in chosen if j >= 0])[: cfg.max_query_tokens]
                )
                for t, chosen in zip(doc_templates.tolist(), doc_terms.tolist())
            )
            sets.append(GeneratedQuerySet(doc_id=doc.doc_id, queries=queries))
    total = sum(len(qset.queries) for qset in sets)
    log.info("generated %d queries for %d documents (%d each)", total, len(sets), cfg.k_views)
    return sets


def generate(
    model: QGModel, doc: Document, cfg: SamplingConfig, seed: int | None = None
) -> GeneratedQuerySet:
    """Generate ``cfg.k_views`` queries for one document:
    ``generate_corpus(model, [doc], cfg, seed)[0]``, so the document draws
    from ``PCG64(derive_seed(seed, doc.doc_id))`` here as in any corpus.
    """
    return generate_corpus(model, [doc], cfg, seed)[0]
