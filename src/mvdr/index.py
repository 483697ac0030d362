"""Flat vector index with exact search and max-pooling over document views.

The index stores every document's views doc-major: document ``i`` owns
rows ``i * k_views`` to ``i * k_views + k_views - 1``, in view order.
Search scores a query against every row, max-pools each document's
``k_views`` scores, and ranks documents by pooled score.

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
from .encoder import EncoderParams, encode_candidates, encode_queries
from .hashing import FramedReader, write_framed

log = logging.getLogger(__name__)

_MAGIC = b"MVIXT2"

# Bytes that one query block of search_prefixes holds: its float64 scores,
# their partitioned copy and the candidate mask, 17 bytes per score.
_PREFIX_BLOCK_BYTES = 2**20


@dataclass(frozen=True)
class SearchResult:
    """One ranked retrieval result."""

    doc_id: str
    score: float


@dataclass(frozen=True)
class RankedList:
    """Ranked results for one query, best first."""

    query_id: str
    results: tuple[SearchResult, ...]


@dataclass
class FlatIndex:
    """In-memory flat index over per-view embeddings, stored doc-major."""

    matrix: np.ndarray  # (n_docs * k_views, embed_dim) float32
    doc_ids: list[str]
    k_views: int
    _matrix64: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.matrix.ndim != 2:
            raise ValueError(f"matrix must be 2-D, got shape {self.matrix.shape}")
        n_rows = self.matrix.shape[0]
        if self.k_views < 1:
            raise ValueError("k_views must be >= 1")
        if len(set(self.doc_ids)) != len(self.doc_ids):
            raise ValueError("doc_ids must be unique")
        if n_rows != self.k_views * len(self.doc_ids):
            raise ValueError(
                f"{n_rows} rows != {self.k_views} views * {len(self.doc_ids)} docs"
            )
        if not np.isfinite(self.matrix).all():
            raise ValueError("index embeddings must be finite")

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

    def scores_matrix(self) -> np.ndarray:
        """Float64 copy of the row matrix, cached for repeated searches."""
        if self._matrix64 is None:
            self._matrix64 = self.matrix.astype(np.float64)
        return self._matrix64


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
    ``threads`` is ignored: encoding runs on the calling thread.
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

    if not pairs:
        matrix = np.zeros((0, params.config.embed_dim), dtype=np.float32)
    else:
        parts = [encode_candidates(params, pairs[i : i + 512]) for i in range(0, len(pairs), 512)]
        matrix = np.concatenate(parts, axis=0).astype(np.float32)
    index = FlatIndex(matrix=matrix, doc_ids=doc_ids, k_views=int(k_views))
    log.info(
        "built index: %d docs, %d views/doc, dim %d", index.n_docs, index.k_views, index.embed_dim
    )
    return index


def search(
    index: FlatIndex, query_emb: np.ndarray, top_k_docs: int, query_id: str = ""
) -> RankedList:
    """Exact search: max-pool row scores per document, rank documents.

    Scoring accumulates in float64. Ties in pooled score break by doc_id
    ascending, so rankings are platform-independent.
    """
    if top_k_docs < 1:
        raise ValueError(f"top_k_docs must be >= 1, got {top_k_docs}")
    query_emb = np.asarray(query_emb, dtype=np.float64)
    if query_emb.shape != (index.embed_dim,):
        raise ValueError(
            f"query embedding shape {query_emb.shape} != ({index.embed_dim},)"
        )
    if not np.isfinite(query_emb).all():
        raise ValueError("query embedding must be finite")
    if index.n_docs == 0:
        return RankedList(query_id=query_id, results=())
    scores = index.scores_matrix() @ query_emb
    doc_best = scores.reshape(index.n_docs, index.k_views).max(axis=1)
    # every document tied with the k-th best score is a candidate, so the
    # doc_id tie-break below sees all of them
    cut = index.n_docs - min(top_k_docs, index.n_docs)
    boundary = np.partition(doc_best, cut)[cut]
    ranked = sorted(
        ((index.doc_ids[i], doc_best[i]) for i in np.flatnonzero(doc_best >= boundary)),
        key=lambda t: (-t[1], t[0]),
    )
    top = ranked[:top_k_docs]
    return RankedList(
        query_id=query_id,
        results=tuple(SearchResult(doc_id, float(s)) for doc_id, s in top),
    )


def search_prefixes(
    index: FlatIndex, query_embs: np.ndarray, top_k_docs: int
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`search` over the first k views of every document, for every k.

    Returns ``(docs, scores)``, both shaped ``(k_views, n_queries,
    min(top_k_docs, n_docs))``: ``docs[k - 1, q]`` holds the indices into
    ``doc_ids`` of query ``q``'s ranked documents when each document keeps
    only its first k views, and ``scores[k - 1, q]`` their pooled scores.
    Ranking and ties follow :func:`search`.

    Each block of queries is scored once against every view with one
    matrix product, and a running maximum along the view axis pools every
    prefix together. Scores may differ from :func:`search`'s in the last
    bits, because the product sums in a different order.
    """
    if top_k_docs < 1:
        raise ValueError(f"top_k_docs must be >= 1, got {top_k_docs}")
    query_embs = np.asarray(query_embs, dtype=np.float64)
    if query_embs.ndim != 2 or query_embs.shape[1] != index.embed_dim:
        raise ValueError(
            f"query embeddings shape {query_embs.shape} != (n, {index.embed_dim})"
        )
    if not np.isfinite(query_embs).all():
        raise ValueError("query embeddings must be finite")
    n_docs, k_views = index.n_docs, index.k_views
    top = min(top_k_docs, n_docs)
    docs = np.empty((k_views, len(query_embs), top), dtype=np.int32)
    scores = np.empty((k_views, len(query_embs), top))
    if top == 0:
        return docs, scores
    # position of each document in doc_id order, the tie-break of search
    rank = np.empty(n_docs, dtype=np.int64)
    rank[sorted(range(n_docs), key=index.doc_ids.__getitem__)] = np.arange(n_docs)
    cut = n_docs - top
    # a float64 copy for this call only: the index keeps none after it
    rows_t = index.matrix.astype(np.float64).T
    block = max(1, _PREFIX_BLOCK_BYTES // (17 * index.n_rows))
    for start in range(0, len(query_embs), block):
        pooled = (query_embs[start : start + block] @ rows_t).reshape(-1, n_docs, k_views)
        n_block = len(pooled)
        np.maximum.accumulate(pooled, axis=2, out=pooled)
        # (view prefix, query, doc); every document tied with a row's k-th
        # best score is a candidate, so the doc_id tie-break sees all of them
        pooled = pooled.transpose(2, 0, 1)
        boundary = np.partition(pooled, cut, axis=2)[:, :, cut, np.newaxis]
        prefix, query, doc = np.nonzero(pooled >= boundary)
        cand = pooled[prefix, query, doc]
        row = prefix * n_block + query
        order = np.lexsort((rank[doc], -cand, row))
        counts = np.bincount(row, minlength=k_views * n_block)
        firsts = np.cumsum(counts) - counts
        keep = order[(firsts[:, np.newaxis] + np.arange(top)).ravel()]
        docs[:, start : start + n_block] = doc[keep].reshape(k_views, n_block, top)
        scores[:, start : start + n_block] = cand[keep].reshape(k_views, n_block, top)
    return docs, scores


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

    The matrix is a read-only view of the file's bytes.
    """
    reader = FramedReader(path, _MAGIC, "index")
    n_docs, k_views, embed_dim = reader.unpack("<III", "header")
    doc_ids = []
    for _ in range(n_docs):
        (length,) = reader.unpack("<I", "doc_id length")
        doc_ids.append(str(reader.take(length, "doc_id"), "utf-8"))
    matrix = reader.floats((n_docs * k_views, embed_dim), "embeddings")
    reader.finish()
    return FlatIndex(matrix=matrix, doc_ids=doc_ids, k_views=int(k_views))
