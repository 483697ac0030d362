"""Flat vector index with exact search and max-pooling over document views.

The index stores every document's views doc-major: document ``i`` owns
rows ``i * k_views`` to ``i * k_views + k_views - 1``, in view order.
Search scores a query against every row, max-pools each document's
``k_views`` scores, and ranks documents by pooled score. Scores are float64
dot products, and ties break by doc_id. One kernel, :func:`_rank`, does all
ranking: one float32 pass and a proven error bound find the documents that
can reach the top k, and only their rows are rescored in float64, each row
summed on its own. :func:`search` ranks one query over every view, and
:func:`search_prefixes` ranks many over every view prefix, so the two agree
bit for bit.

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

# Bytes of one block of search's work arrays: per query of a block, its
# float32 row scores and, per view prefix and document, the float32 pooled
# score, its float64 bounds and the candidate mask (4 bytes per row and 21
# per pooled score); per block of rescored documents, the gathered float32
# rows and their float64 copy (12 bytes per value).
_BLOCK_BYTES = 2**20


@dataclass
class FlatIndex:
    """In-memory flat index over per-view embeddings, stored doc-major."""

    matrix: np.ndarray  # (n_docs * k_views, embed_dim) float32, never changed
    doc_ids: list[str]
    k_views: int
    # (n_docs,) each document's largest view norm, for search's error bound
    _doc_norm: np.ndarray = field(init=False, repr=False)

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
        self._doc_norm = np.sqrt(squares).reshape(self.n_docs, self.k_views).max(axis=1)

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


def _screen_slack(dim: int, query_norm: np.ndarray, doc_norm: np.ndarray) -> np.ndarray:
    """Per query and document, a bound on |float32 pooled score - float64
    pooled score|; ``query_norm`` is shaped ``(n_queries, 1)``.

    For a view d of n = ``dim`` values and a query q (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., sec. 3.1; gamma_n = nu/(1-nu)):

    - the float32 product of d with q rounded to float32 is within
      gamma_n(2^-24) (1 + 2^-24) |d||q| of that rounded product, and rounding
      q moves it by at most 2^-24 |d||q| more;
    - the float64 rescore is within gamma_n(2^-53) |d||q| of the exact q.d;
    - underflow, gradual or flushed to zero, loses at most 2^-126 per
      product and per rounded query value, times the other factor: at most
      n 2^-126 (1 + |q|)(1 + |d|), doubled for the sums that carry it.

    Max-pooling keeps the largest of a document's view bounds, so |d| is the
    document's largest view norm; it bounds every prefix of its views too.
    The total is doubled once more, which covers the rounding of this
    computation.
    """
    gamma32 = dim * 2.0**-24 / (1 - dim * 2.0**-24) if dim < 2**23 else np.inf
    gamma64 = dim * 2.0**-53 / (1 - dim * 2.0**-53)
    relative = 2 * (gamma32 * (1 + 2.0**-24) + 2.0**-24 + gamma64) * query_norm
    absolute = 4 * dim * 2.0**-126 * (1 + query_norm)
    return doc_norm * (relative + absolute) + absolute


def _rank(
    index: FlatIndex, query_embs: np.ndarray, ndim: int, top_k_docs: int, prefixes: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Rank documents for ``ndim``-dimensional ``query_embs`` over the first
    k views of every document, for each k in ascending ``prefixes``.

    Returns ``(docs, scores)``, both shaped ``(len(prefixes), n_queries,
    min(top_k_docs, n_docs))``: indices into ``doc_ids``, best first, and
    pooled float64 scores. A block of queries is scored against every row
    with one float32 matrix product, and a running max over the strided
    views pools each prefix. A document whose upper bound (see
    :func:`_screen_slack`) falls below a prefix's k-th largest lower bound
    cannot reach that prefix's top k. The rows of every document that can
    reach some prefix's top k are rescored in float64, and ranked by
    (-score, doc_id).
    """
    if top_k_docs < 1:
        raise ValueError(f"top_k_docs must be >= 1, got {top_k_docs}")
    queries = np.ascontiguousarray(query_embs, dtype=np.float64)
    noun = "query embedding" if ndim == 1 else "query embeddings"
    n_docs, k_views, dim = index.n_docs, index.k_views, index.embed_dim
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
    views = index.matrix.reshape(n_docs, k_views, dim)
    last_views = [k - 1 for k in prefixes]
    prefix_rows = np.arange(len(prefixes))[:, np.newaxis]
    cut = n_docs - top
    block = max(1, _BLOCK_BYTES // (4 * index.n_rows + 21 * len(prefixes) * n_docs))
    step = max(1, _BLOCK_BYTES // (12 * k_views * dim))
    for start in range(0, len(queries), block):
        block_queries = queries[start : start + block]
        with np.errstate(over="ignore", invalid="ignore"):  # overflow falls back below
            row_scores = (block_queries.astype(np.float32) @ index.matrix.T).ravel()
        # a running max over strided views, far faster than max(axis=-1) over
        # rows of k_views scores; row_scores[view::k_views] runs over (query,
        # document) pairs in order
        approx = np.empty((len(prefixes), len(block_queries) * n_docs), dtype=np.float32)
        best = row_scores[::k_views].copy()
        pooled = 1
        for p, k in enumerate(prefixes):
            for view in range(pooled, k):
                np.maximum(best, row_scores[view::k_views], out=best)
            approx[p] = best
            pooled = k
        approx = approx.reshape(len(prefixes), len(block_queries), n_docs)
        norms = np.sqrt(np.einsum("qj,qj->q", block_queries, block_queries))[:, np.newaxis]
        slack = _screen_slack(dim, norms, index._doc_norm)
        if np.isfinite(approx).all() and np.isfinite(slack).all():
            bound = approx - slack
            bound.partition(cut, axis=2)
            threshold = bound[:, :, cut, np.newaxis].copy()
            candidates = (np.add(approx, slack, out=bound) >= threshold).any(axis=0)
        else:  # float32 overflow or no usable bound: rescore every document
            candidates = np.ones((len(block_queries), n_docs), dtype=bool)
        for q, (query, mask) in enumerate(zip(block_queries, candidates)):
            # in doc_id order, so that a stable sort breaks score ties by it
            cand = np.array(sorted(np.flatnonzero(mask).tolist(), key=index.doc_ids.__getitem__))
            # einsum sums each row on its own in one fixed order, so a score
            # does not depend on which other rows are rescored with it; a
            # BLAS product may sum a row differently by its place in a block
            view_scores = np.empty((len(cand), k_views))
            for first in range(0, len(cand), step):
                rows = views[cand[first : first + step]].astype(np.float64)
                view_scores[first : first + step] = np.einsum("dvj,j->dv", rows, query)
            # (prefix, candidate) pooled scores
            pooled_scores = np.maximum.accumulate(view_scores, axis=1).T[last_views]
            order = np.argsort(-pooled_scores, axis=1, kind="stable")[:, :top]
            docs[:, start + q] = cand[order]
            scores[:, start + q] = pooled_scores[prefix_rows, order]
    return docs, scores


def search(
    index: FlatIndex, query_emb: np.ndarray, top_k_docs: int, query_id: str = ""
) -> RankedList:
    """Exact search: a document's score is the largest float64 dot product
    of the query with its views; ties break by doc_id ascending, so
    rankings are platform-independent. Returns the run entries of the top
    documents, ranked from 1. See :func:`_rank`."""
    docs, scores = _rank(index, query_emb, 1, top_k_docs, [index.k_views])
    ranked = enumerate(zip(docs[0, 0].tolist(), scores[0, 0].tolist()), 1)
    return RankedList(query_id, tuple(RunEntry(index.doc_ids[i], r, s) for r, (i, s) in ranked))


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
    """Search many (query_id, embedding) pairs, one :func:`search` each, in order."""
    return [search(index, emb, top_k_docs, query_id=qid) for qid, emb in queries]


def search_corpus(
    params: EncoderParams,
    index: FlatIndex,
    queries: Sequence,
    top_k_docs: int,
    threads: int | None = None,
) -> list[RankedList]:
    """Encode query objects and search the index with them; ``threads`` is
    ignored."""
    embs = encode_queries(params, [q.text for q in queries])
    pairs = [(q.query_id, embs[i]) for i, q in enumerate(queries)]
    return batch_search(index, pairs, top_k_docs)


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
