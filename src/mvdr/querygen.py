"""Pseudo-query generation from document term salience.

Each document gets k short queries built from a question template plus a
few salient content terms. Salience is tf-idf over the corpus the
generator was fitted on. Sampling is top-k in both choice points: the
template is drawn uniformly from the first ``top_k`` templates, and
content terms are drawn salience-weighted (without replacement) from the
document's ``top_k`` most salient terms. With ``top_k`` of 1 every draw
collapses to the argmax, so all k queries of a document are identical.

Every document is generated with its own RNG stream derived from the base
seed and the doc_id, so outputs do not depend on corpus order. Each term
draw takes one uniform from that stream and inverts the cumulative
distribution of the remaining weights, as ``Generator.choice`` does with
``p``, in plain Python over at most ``top_k`` weights.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
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


def _numpy_sum(values: list[float]) -> float:
    """``np.sum`` of a float64 array, summed in numpy's pairwise order.

    numpy sums fewer than 8 values left to right. From 8 to 128 values it
    keeps 8 running sums over strides of 8, combines them pairwise and adds
    the remainder left to right. Longer arrays are split in two at a
    multiple of 8 near the middle.
    """
    n = len(values)
    if n > 128:
        half = n // 2 - (n // 2) % 8
        return _numpy_sum(values[:half]) + _numpy_sum(values[half:])
    if n < 8:
        total = -0.0
        for v in values:
            total += v
        return total
    r = values[:8]
    tail = n - n % 8
    for i in range(8, tail, 8):
        for j in range(8):
            r[j] += values[i + j]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for v in values[tail:]:
        total += v
    return total


def _draw(rng: np.random.Generator, weights: list[float]) -> int:
    """Index drawn with probability proportional to ``weights``.

    The same draw, bit for bit, as ``rng.choice(len(weights), p=probs)``
    with ``probs = w / w.sum()``: one uniform searched in the normalized
    cumulative sum of ``probs``.
    """
    total = _numpy_sum(weights)
    cdf = list(accumulate([w / total for w in weights]))
    last = cdf[-1]
    return bisect_right([c / last for c in cdf], rng.random())


def generate(
    model: QGModel, doc: Document, cfg: SamplingConfig, seed: int | None = None
) -> GeneratedQuerySet:
    """Generate ``cfg.k_views`` queries for one document.

    The document must belong to the fitted corpus and have at least one
    in-vocabulary token. Identical (model, doc, cfg, seed) always yields
    identical queries.
    """
    weights = model.salience.get(doc.doc_id)
    if weights is None:
        raise ValueError(f"document {doc.doc_id!r} is not in the generator's corpus")
    if not weights:
        raise ValueError(f"document {doc.doc_id!r} has no usable terms")
    if seed is None:
        seed = model.rng_seed
    rng = np.random.Generator(np.random.PCG64(seed))
    pool_terms, pool_weights = _term_pool(weights, cfg.top_k)
    n_templates = min(cfg.top_k, len(model.templates))
    queries = []
    for _ in range(cfg.k_views):
        template_tokens = model.templates[int(rng.integers(0, n_templates))].split()
        budget = max(0, cfg.max_query_tokens - len(template_tokens))
        n_terms = min(_TERMS_PER_QUERY, len(pool_terms), budget)
        chosen: list[str] = []
        avail_terms = list(pool_terms)
        avail_weights = list(pool_weights)
        for _ in range(n_terms):
            j = _draw(rng, avail_weights)
            chosen.append(avail_terms.pop(j))
            del avail_weights[j]
        tokens = (template_tokens + chosen)[: cfg.max_query_tokens]
        queries.append(" ".join(tokens))
    return GeneratedQuerySet(doc_id=doc.doc_id, queries=tuple(queries))


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
    sets = [generate(model, doc, cfg, seed=derive_seed(seed, doc.doc_id)) for doc in corpus]
    total = sum(len(qset.queries) for qset in sets)
    log.info("generated %d queries for %d documents (%d each)", total, len(sets), cfg.k_views)
    return sets
