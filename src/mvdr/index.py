"""Flat vector index with exact search and max-pooling over document views.

The index stores every document's views doc-major: document ``i`` owns
rows ``i * k_views`` to ``i * k_views + k_views - 1``, in view order.
Search scores a query against every row, max-pools each document's
``k_views`` scores, and ranks documents by pooled score. Scores are float64
dot products, and ties break by doc_id. One kernel, :func:`_rank`, does all
ranking, a block of queries at a time: float32 products and a proven error
bound find the documents that can reach the top k, and only their rows are
rescored in float64, each row summed on its own. :func:`search` ranks one
query over every view, :func:`search_corpus` all its queries in one call,
and :func:`search_prefixes` many over every view prefix; a query's ranking
does not depend on the block it is ranked in, so all three agree bit for
bit.

The on-disk format is little-endian and checksummed:

    magic 'MVIXT2'
    u32 n_docs, u32 k_views, u32 embed_dim
    n_docs * (u32 length, utf-8 doc_id)
    n_docs * k_views * embed_dim float32 (doc-major, row-major)
    u32 CRC-32 of everything before the footer
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import Document, GeneratedQuerySet
from .encoder import EncoderParams, FeatureTable, encode_candidates, encode_queries
from .evaluation import RankedList, RunEntry, check_fields
from .hashing import FramedReader, write_framed

log = logging.getLogger(__name__)

_MAGIC = b"MVIXT2"

# Search's work per block of queries (see _rank). A block holds
# _BLOCK_QUERIES queries, enough that one product pays for packing its rows,
# or fewer where its screen would pass _SCREEN_BYTES at 13 bytes per (query,
# document): two float32 pooled maps, the float32 copy that is partitioned
# and the candidate mask. A product covers as many whole documents' rows as
# keep its float32 scores within _BLOCK_BYTES; a rescore chunk, as many
# (query, document) pairs as keep their gathered float32 rows and float64
# copy (12 bytes per value) within it.
_BLOCK_QUERIES = 32
_SCREEN_BYTES = 2**22
_BLOCK_BYTES = 2**18


@dataclass
class FlatIndex:
    """In-memory flat index over per-view embeddings, stored doc-major."""

    matrix: np.ndarray  # (n_docs * k_views, embed_dim) float32, never changed
    doc_ids: list[str]
    k_views: int
    # the largest view norm, for search's error bound
    _max_norm: float = field(init=False, repr=False)
    # (n_docs,) each document's place in doc_id order, for search's tie-break
    _doc_rank: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.matrix.ndim != 2 or self.matrix.shape[1] < 1:
            raise ValueError(
                f"matrix must be 2-D with at least one column, got shape {self.matrix.shape}"
            )
        n_rows = self.matrix.shape[0]
        if self.k_views < 1:
            raise ValueError("k_views must be >= 1")
        if len(set(self.doc_ids)) != len(self.doc_ids):
            raise ValueError("doc_ids must be unique")
        check_fields("doc_id", self.doc_ids)
        if n_rows != self.k_views * len(self.doc_ids):
            raise ValueError(
                f"{n_rows} rows != {self.k_views} views * {len(self.doc_ids)} docs"
            )
        squares = np.einsum("ij,ij->i", self.matrix, self.matrix, dtype=np.float64)
        # float32 rows are finite exactly when their float64 sums of squares
        # are, so only a wider matrix, or a bad one, is checked value by value
        if not np.isfinite(squares).all() and not np.isfinite(self.matrix).all():
            raise ValueError("index embeddings must be finite")
        self._max_norm = float(np.sqrt(squares.max(initial=0.0)))
        # the inverse of the permutation that sorts doc_ids
        self._doc_rank = np.argsort(sorted(range(self.n_docs), key=self.doc_ids.__getitem__))

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_docs(self) -> int:
        return len(self.doc_ids)

    @property
    def embed_dim(self) -> int:
        return self.matrix.shape[1]

    @property
    def row_doc(self) -> np.ndarray:
        """Each row's index into ``doc_ids``."""
        return np.repeat(np.arange(self.n_docs), self.k_views)


def build_index(
    params: EncoderParams,
    corpus: Sequence[Document],
    mode: str = "dce",
    generated: Sequence[GeneratedQuerySet] | None = None,
    threads: int | None = None,
) -> FlatIndex:
    """Encode a corpus into a flat index.

    Single-view mode embeds each document alone (one row per document).
    Query-informed mode needs ``generated`` to cover every document and
    produces one row per (document, generated query). Rows are doc-major.
    Every row is featurized through one :class:`FeatureTable`, dropped on
    return. ``threads`` is ignored: encoding runs on the calling thread.
    """
    if mode not in ("de", "dce"):
        raise ValueError(f"mode must be 'de' or 'dce', got {mode!r}")
    doc_ids = [doc.doc_id for doc in corpus]
    if mode == "de":
        k_views = 1
        pairs: list[tuple[str | None, str]] = [(None, doc.text) for doc in corpus]
    else:
        if generated is None:
            raise ValueError("query-informed indexing requires generated queries")
        by_id = {qset.doc_id: qset for qset in generated}
        k_views = None
        pairs = []
        for doc in corpus:
            qset = by_id.get(doc.doc_id)
            if qset is None:
                raise ValueError(f"no generated queries for doc_id {doc.doc_id!r}")
            if k_views is None:
                k_views = len(qset.queries)
            elif len(qset.queries) != k_views:
                raise ValueError(
                    f"doc {doc.doc_id!r} has {len(qset.queries)} views, expected {k_views}"
                )
            pairs.extend((query_text, doc.text) for query_text in qset.queries)
        if k_views is None:
            k_views = 1  # empty corpus

    matrix = np.empty((len(pairs), params.config.embed_dim), dtype=np.float32)
    table = FeatureTable(params.config)
    for start in range(0, len(pairs), 512):
        matrix[start : start + 512] = encode_candidates(params, pairs[start : start + 512], table)
    index = FlatIndex(matrix=matrix, doc_ids=doc_ids, k_views=int(k_views))
    log.info(
        "built index: %d docs, %d views/doc, dim %d", index.n_docs, index.k_views, index.embed_dim
    )
    return index


def _screen_slack(dim: int, query_norm: np.ndarray, doc_norm: float) -> np.ndarray:
    """Per query, a bound on |float32 pooled score - float64 pooled score|
    over every document and every prefix of its views; ``query_norm`` and
    the bound are shaped ``(n_queries, 1)``, and ``doc_norm`` is the index's
    largest view norm.

    For a view d of n = ``dim`` values and a query q (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., sec. 3.1; gamma_n = nu/(1-nu)):

    - the float32 product of d with q rounded to float32 is within
      gamma_n(2^-24) (1 + 2^-24) |d||q| of that rounded product, and rounding
      q moves it by at most 2^-24 |d||q| more;
    - the float64 rescore is within gamma_n(2^-53) |d||q| of the exact q.d;
    - underflow, gradual or flushed to zero, loses at most 2^-126 per
      product and per rounded query value, times the other factor: at most
      n 2^-126 (1 + |q|)(1 + |d|), doubled for the sums that carry it.

    Max-pooling keeps the largest of the view bounds, so the largest view
    norm bounds them all. The total is doubled once more, which covers the
    rounding of this computation and of the screen's own arithmetic.
    """
    gamma32 = dim * 2.0**-24 / (1 - dim * 2.0**-24) if dim < 2**23 else np.inf
    gamma64 = dim * 2.0**-53 / (1 - dim * 2.0**-53)
    relative = 2 * (gamma32 * (1 + 2.0**-24) + 2.0**-24 + gamma64) * query_norm
    absolute = 4 * dim * 2.0**-126 * (1 + query_norm)
    return doc_norm * (relative + absolute) + absolute


def _screen(index: FlatIndex, block_queries: np.ndarray, first: int, top: int) -> np.ndarray:
    """The ``(n_queries, n_docs)`` mask of the documents that may reach the
    top ``top`` of a block of float64 queries over some prefix of at least
    ``first`` views; see :func:`_rank`."""
    n_docs, k_views = index.n_docs, index.k_views
    n_queries = len(block_queries)
    # float32 pooled scores over the first `first` views and over all views
    low = np.empty((n_queries, n_docs), dtype=np.float32)
    high = low if first == k_views else np.empty_like(low)
    chunk = max(1, _BLOCK_BYTES // (4 * n_queries * k_views))  # whole documents
    with np.errstate(over="ignore", invalid="ignore"):  # overflow falls back below
        block32 = block_queries.astype(np.float32)
        for lo in range(0, n_docs, chunk):
            hi = min(lo + chunk, n_docs)
            tile = block32 @ index.matrix[lo * k_views : hi * k_views].T
            # a running max over strided views, far faster than max(axis=-1)
            # over rows of k_views scores
            tile = tile.reshape(n_queries, hi - lo, k_views)
            pooled = low[:, lo:hi]
            np.copyto(pooled, tile[:, :, 0])
            for view in range(1, k_views):
                if view == first:
                    pooled = high[:, lo:hi]
                    np.copyto(pooled, low[:, lo:hi])
                np.maximum(pooled, tile[:, :, view], out=pooled)
    norms = np.sqrt(np.einsum("qj,qj->q", block_queries, block_queries))[:, np.newaxis]
    slack = _screen_slack(index.embed_dim, norms, index._max_norm)
    # high pools low's views too and max keeps NaN, so a NaN or +inf in low
    # shows in high; a -inf in low is still a lower bound
    if not np.isfinite(high).all() or not np.isfinite(slack).all():
        return np.ones((n_queries, n_docs), dtype=bool)  # no usable bound
    # keep high + slack >= t, where t is the top-th largest low minus slack
    kth = np.partition(low, n_docs - top, axis=1)[:, n_docs - top, np.newaxis]
    return high >= kth - 2 * slack


def _rank_block(
    index: FlatIndex, block_queries: np.ndarray, prefixes: Sequence[int], top: int
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_rank`'s screen, rescore and order for one block of float64
    queries; the block's work arrays go when it returns."""
    n_docs, k_views, dim = index.n_docs, index.k_views, index.embed_dim
    n_block = len(block_queries)
    candidates = _screen(index, block_queries, prefixes[0], top)
    pair_query, pair_doc = np.divmod(np.flatnonzero(candidates), n_docs)
    # each query's documents in doc_id order, so that a stable sort breaks
    # score ties by it
    pair_doc = pair_doc[np.argsort(pair_query * n_docs + index._doc_rank[pair_doc])]
    counts = np.bincount(pair_query, minlength=n_block)
    starts = np.cumsum(counts) - counts
    column = np.arange(len(pair_doc)) - starts[pair_query]
    # negated pooled scores on a (prefix, query, candidate) grid, padded with
    # NaN, which sorts last
    grid = np.full((len(prefixes), n_block, counts.max()), np.nan)
    views = index.matrix.reshape(n_docs, k_views, dim)
    last_views = [k - 1 for k in prefixes]
    step = max(1, _BLOCK_BYTES // (12 * k_views * dim))
    for lo in range(0, len(pair_doc), step):
        pairs = slice(lo, lo + step)
        rows = views[pair_doc[pairs]].astype(np.float64)
        view_scores = np.einsum("pvj,pj->pv", rows, block_queries[pair_query[pairs]])
        pooled = np.maximum.accumulate(view_scores, axis=1).T[last_views]
        grid[:, pair_query[pairs], column[pairs]] = np.negative(pooled, out=pooled)
    order = grid.argsort(axis=2, kind="stable")[:, :, :top]
    prefix_rows = np.arange(len(prefixes))[:, np.newaxis, np.newaxis]
    query_rows = np.arange(n_block)[:, np.newaxis]
    return pair_doc[order + starts[:, np.newaxis]], -grid[prefix_rows, query_rows, order]


def _rank(
    index: FlatIndex, query_embs: np.ndarray, ndim: int, top_k_docs: int, prefixes: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Rank documents for ``ndim``-dimensional ``query_embs`` over the first
    k views of every document, for each k in ascending ``prefixes``.

    Returns ``(docs, scores)``, both shaped ``(len(prefixes), n_queries,
    min(top_k_docs, n_docs))``: indices into ``doc_ids``, best first, and
    pooled float64 scores. Queries go in blocks (see ``_BLOCK_QUERIES``),
    and each block runs one pipeline:

    - **Screen** (:func:`_screen`): float32 products against chunks of whole
      documents' rows keep two pooled maps, each document's max over the
      first prefix's views (``low``) and over all its views (``high``).
      Each float32 pooled score is within ``slack`` of the float64 one (see
      :func:`_screen_slack`). Pooling more views never lowers a score, so
      on every prefix the n = min(top_k_docs, n_docs) documents with the
      largest ``low`` score at least t, the n-th largest ``low`` minus
      ``slack``. A document with ``high + slack`` below t is beaten by n
      documents on every prefix, so one partition per block screens all
      prefixes.
    - **Rescore:** one einsum rescores every surviving (query, document)
      pair's views in float64. It sums each row on its own in one fixed
      order, so that a score does not depend on which other rows are
      rescored with it; a BLAS product may sum a row differently by its
      place in a block. Running maxima pool the prefixes.
    - **Order:** the negated pooled scores fill a (prefix, query,
      candidate) grid, each query's candidates in doc_id order and padded
      with NaN, which sorts last. One stable argsort per block ranks the
      grid, so ties go to the smaller doc_id.
    """
    if top_k_docs < 1:
        raise ValueError(f"top_k_docs must be >= 1, got {top_k_docs}")
    queries = np.asarray(query_embs)
    noun = "query embedding" if ndim == 1 else "query embeddings"
    n_docs, dim = index.n_docs, index.embed_dim
    if queries.ndim != ndim or queries.shape[-1] != dim:
        shape = f"({dim},)" if ndim == 1 else f"(n, {dim})"
        raise ValueError(f"{noun} shape {queries.shape} != {shape}")
    if not np.isfinite(queries).all():
        raise ValueError(f"{noun} must be finite")
    queries = queries.reshape(-1, dim)
    top = min(top_k_docs, n_docs)
    docs = np.empty((len(prefixes), len(queries), top), dtype=np.int32)
    scores = np.empty((len(prefixes), len(queries), top))
    if top == 0:
        return docs, scores
    block = min(_BLOCK_QUERIES, max(1, _SCREEN_BYTES // (13 * n_docs)))
    for start in range(0, len(queries), block):
        at = slice(start, start + block)
        block_queries = np.ascontiguousarray(queries[at], dtype=np.float64)
        docs[:, at], scores[:, at] = _rank_block(index, block_queries, prefixes, top)
    return docs, scores


def _ranked_list(
    index: FlatIndex, query_id: str, docs: np.ndarray, scores: np.ndarray
) -> RankedList:
    """One query's ranked ``docs`` and ``scores`` as run entries, ranked from 1."""
    ranked = enumerate(zip(docs.tolist(), scores.tolist()), 1)
    return RankedList(query_id, tuple(RunEntry(index.doc_ids[i], r, s) for r, (i, s) in ranked))


def search(
    index: FlatIndex, query_emb: np.ndarray, top_k_docs: int, query_id: str = ""
) -> RankedList:
    """Exact search: a document's score is the largest float64 dot product
    of the query with its views; ties break by doc_id ascending, so
    rankings are platform-independent. Returns the run entries of the top
    documents, ranked from 1. See :func:`_rank`."""
    docs, scores = _rank(index, query_emb, 1, top_k_docs, [index.k_views])
    return _ranked_list(index, query_id, docs[0, 0], scores[0, 0])


def search_prefixes(
    index: FlatIndex, query_embs: np.ndarray, top_k_docs: int
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`search` over the first k views of every document, for every k.

    Returns ``(docs, scores)``, both shaped ``(k_views, n_queries,
    min(top_k_docs, n_docs))``: ``docs[k - 1, q]`` holds the indices into
    ``doc_ids`` of query ``q``'s ranked documents when each document keeps
    only its first k views, and ``scores[k - 1, q]`` their pooled scores.
    Both equal :func:`search`'s over an index of those views, bit for bit.
    """
    return _rank(index, query_embs, 2, top_k_docs, range(1, index.k_views + 1))


def batch_search(
    index: FlatIndex, queries: Sequence[tuple[str, np.ndarray]], top_k_docs: int
) -> list[RankedList]:
    """Search many (query_id, embedding) pairs, one :func:`search` each, in order.

    The package no longer calls it: :func:`search_corpus` ranks its queries
    in one :func:`_rank` call. It is kept only because the benchmark's tracer
    wraps it and a layer test pins its one :func:`search` per query; the
    benchmark upkeep in ROADMAP item 1 deletes it.
    """
    return [search(index, emb, top_k_docs, query_id=qid) for qid, emb in queries]


def search_corpus(
    params: EncoderParams,
    index: FlatIndex,
    queries: Sequence,
    top_k_docs: int,
    threads: int | None = None,
) -> list[RankedList]:
    """Encode query objects and rank the index for all of them in one
    :func:`_rank` call; each ranked list equals :func:`search`'s for that
    query's embedding. ``threads`` is ignored."""
    embs = encode_queries(params, [q.text for q in queries])
    docs, scores = _rank(index, embs, 2, top_k_docs, [index.k_views])
    return [_ranked_list(index, q.query_id, d, s) for q, d, s in zip(queries, docs[0], scores[0])]


def save_index(index: FlatIndex, path: str | Path) -> None:
    """Serialize the index with a CRC-32 footer."""
    parts = [struct.pack("<III", index.n_docs, index.k_views, index.embed_dim)]
    for doc_id in index.doc_ids:
        raw = doc_id.encode("utf-8")
        parts.append(struct.pack("<I", len(raw)))
        parts.append(raw)
    parts.append(np.ascontiguousarray(index.matrix, dtype="<f4"))
    size = write_framed(path, _MAGIC, parts)
    log.info("saved index to %s (%d bytes)", path, size)


def load_index(path: str | Path) -> FlatIndex:
    """Load an index written by :func:`save_index`, verifying the checksum.

    The matrix is read from the file straight into its own aligned float32
    array, which is then made read-only.
    """
    with FramedReader(path, _MAGIC, "index") as reader:
        n_docs, k_views, embed_dim = reader.unpack("<III", "header")
        doc_ids = []
        for _ in range(n_docs):
            (length,) = reader.unpack("<I", "doc_id length")
            doc_ids.append(str(reader.take(length, "doc_id"), "utf-8"))
        matrix = reader.floats((n_docs * k_views, embed_dim), "embeddings")
    matrix.flags.writeable = False
    return FlatIndex(matrix=matrix, doc_ids=doc_ids, k_views=int(k_views))
