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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import Document, GeneratedQuerySet
from .encoder import EncoderParams, encode_candidates, encode_queries
from .hashing import crc32

log = logging.getLogger(__name__)

_MAGIC = b"MVIXT2"


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


def _chunked(seq: Sequence, size: int) -> list[Sequence]:
    return [seq[i : i + size] for i in range(0, len(seq), size)]


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
    produces one row per (document, generated query). Rows are doc-major,
    so identical inputs give identical index bytes regardless of
    ``threads``.
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
        chunks = _chunked(pairs, 512)
        if threads and threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                parts = list(pool.map(lambda c: encode_candidates(params, c), chunks))
        else:
            parts = [encode_candidates(params, c) for c in chunks]
        matrix = np.concatenate(parts, axis=0).astype(np.float32)
    index = FlatIndex(matrix=matrix, doc_ids=doc_ids, k_views=int(k_views))
    log.info(
        "built index: %d docs, %d views/doc, dim %d", index.n_docs, index.k_views, index.embed_dim
    )
    return index


def first_views(index: FlatIndex, k: int) -> FlatIndex:
    """The first ``k`` views of every document: :func:`build_index` over the
    query sets truncated to ``k`` views, without encoding again."""
    if not 1 <= k <= index.k_views:
        raise ValueError(f"k must lie in [1, {index.k_views}], got {k}")
    views = index.matrix.reshape(index.n_docs, index.k_views, index.embed_dim)
    return FlatIndex(views[:, :k].reshape(-1, index.embed_dim), index.doc_ids, k)


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


def batch_search(
    index: FlatIndex,
    queries: Sequence[tuple[str, np.ndarray]],
    top_k_docs: int,
    threads: int | None = None,
) -> list[RankedList]:
    """Search many (query_id, embedding) pairs; order and results match
    running :func:`search` one query at a time."""
    index.scores_matrix()  # materialize once, not per worker
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(
                pool.map(lambda q: search(index, q[1], top_k_docs, query_id=q[0]), queries)
            )
    return [search(index, emb, top_k_docs, query_id=qid) for qid, emb in queries]


def search_corpus(
    params: EncoderParams,
    index: FlatIndex,
    queries: Sequence,
    top_k_docs: int,
    threads: int | None = None,
) -> list[RankedList]:
    """Encode query objects and search the index with them."""
    embs = encode_queries(params, [q.text for q in queries])
    pairs = [(q.query_id, embs[i]) for i, q in enumerate(queries)]
    return batch_search(index, pairs, top_k_docs, threads=threads)


def save_index(index: FlatIndex, path: str | Path) -> None:
    """Serialize the index with a CRC-32 footer."""
    parts = [_MAGIC, struct.pack("<III", index.n_docs, index.k_views, index.embed_dim)]
    for doc_id in index.doc_ids:
        raw = doc_id.encode("utf-8")
        parts.append(struct.pack("<I", len(raw)))
        parts.append(raw)
    parts.append(np.ascontiguousarray(index.matrix, dtype="<f4").tobytes())
    payload = b"".join(parts)
    with open(path, "wb") as handle:
        handle.write(payload)
        handle.write(struct.pack("<I", crc32(payload)))
    log.info("saved index to %s (%d bytes)", path, len(payload) + 4)


def load_index(path: str | Path) -> FlatIndex:
    """Load an index written by :func:`save_index`, verifying the checksum."""
    with open(path, "rb") as handle:
        data = handle.read()
    if len(data) < len(_MAGIC) + 4:
        raise ValueError(f"{path}: truncated index file")
    if data[: len(_MAGIC)] != _MAGIC:
        raise ValueError(f"{path}: bad magic {data[:len(_MAGIC)]!r}, expected {_MAGIC!r}")
    payload, footer = data[:-4], data[-4:]
    (expect_crc,) = struct.unpack("<I", footer)
    actual_crc = crc32(payload)
    if actual_crc != expect_crc:
        raise ValueError(
            f"{path}: checksum mismatch (stored {expect_crc:#010x}, computed {actual_crc:#010x})"
        )
    offset = len(_MAGIC)

    def take(n: int, what: str) -> bytes:
        nonlocal offset
        if offset + n > len(payload):
            raise ValueError(f"{path}: truncated index while reading {what}")
        chunk = payload[offset : offset + n]
        offset += n
        return chunk

    n_docs, k_views, embed_dim = struct.unpack("<III", take(12, "header"))
    doc_ids = []
    for _ in range(n_docs):
        (length,) = struct.unpack("<I", take(4, "doc_id length"))
        doc_ids.append(take(length, "doc_id").decode("utf-8"))
    n_rows = n_docs * k_views
    matrix = (
        np.frombuffer(take(4 * n_rows * embed_dim, "embeddings"), dtype="<f4")
        .reshape(n_rows, embed_dim)
        .copy()
    )
    if offset != len(payload):
        raise ValueError(f"{path}: trailing bytes after index data")
    return FlatIndex(matrix=matrix, doc_ids=doc_ids, k_views=int(k_views))
