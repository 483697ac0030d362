"""Flat vector index with exact search and max-pooling over document views.

The index stores one embedding row per (document, view). Search scores a
query against every row, keeps the top ``k_views * top_k_docs`` rows (so
no document can be squeezed out even if all its views score well), pools
row scores per document by maximum, and ranks documents by pooled score.
Rows tied with the score at the cutoff are all kept, which makes the
result identical to pooling over the full score vector.

The on-disk format is little-endian and checksummed:

    magic 'MVIXT1'
    u64 n_rows, u32 embed_dim, u32 k_views, u32 n_docs
    n_docs * (u32 length, utf-8 doc_id)
    n_rows * (u32 doc_index, u32 view_id)
    n_rows * embed_dim float32 (row-major)
    u64 CRC-64 of everything before the footer
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
from .hashing import crc64

log = logging.getLogger(__name__)

_MAGIC = b"MVIXT1"


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
    """In-memory flat index over per-view embeddings.

    ``row_doc`` maps each row to an index into ``doc_ids``; ``row_view``
    is the row's view number within its document.
    """

    matrix: np.ndarray  # (n_rows, embed_dim) float32
    doc_ids: list[str]
    row_doc: np.ndarray  # (n_rows,) int64
    row_view: np.ndarray  # (n_rows,) int64
    k_views: int
    _matrix64: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.matrix.ndim != 2:
            raise ValueError(f"matrix must be 2-D, got shape {self.matrix.shape}")
        n_rows = self.matrix.shape[0]
        if len(self.row_doc) != n_rows or len(self.row_view) != n_rows:
            raise ValueError("row tables must match the matrix row count")
        if self.k_views < 1:
            raise ValueError("k_views must be >= 1")
        if len(set(self.doc_ids)) != len(self.doc_ids):
            raise ValueError("doc_ids must be unique")
        if n_rows != self.k_views * len(self.doc_ids):
            raise ValueError(
                f"{n_rows} rows != {self.k_views} views * {len(self.doc_ids)} docs"
            )
        pairs = set(zip(self.row_doc.tolist(), self.row_view.tolist()))
        if len(pairs) != n_rows:
            raise ValueError("(doc, view) row assignments must be unique")
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
    produces one row per (document, generated query). Row order is
    document order then view order, so identical inputs give identical
    index bytes regardless of ``threads``.
    """
    if mode not in ("de", "dce"):
        raise ValueError(f"mode must be 'de' or 'dce', got {mode!r}")
    pairs: list[tuple[str | None, str]] = []
    row_doc: list[int] = []
    row_view: list[int] = []
    doc_ids = [doc.doc_id for doc in corpus]
    if mode == "de":
        k_views = 1
        for i, doc in enumerate(corpus):
            pairs.append((None, doc.text))
            row_doc.append(i)
            row_view.append(0)
    else:
        if generated is None:
            raise ValueError("query-informed indexing requires generated queries")
        by_id = {qset.doc_id: qset for qset in generated}
        k_views = None
        for i, doc in enumerate(corpus):
            qset = by_id.get(doc.doc_id)
            if qset is None:
                raise ValueError(f"no generated queries for doc_id {doc.doc_id!r}")
            if k_views is None:
                k_views = len(qset.queries)
            elif len(qset.queries) != k_views:
                raise ValueError(
                    f"doc {doc.doc_id!r} has {len(qset.queries)} views, expected {k_views}"
                )
            for view_id, query_text in enumerate(qset.queries):
                pairs.append((query_text, doc.text))
                row_doc.append(i)
                row_view.append(view_id)
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
    index = FlatIndex(
        matrix=matrix,
        doc_ids=doc_ids,
        row_doc=np.asarray(row_doc, dtype=np.int64),
        row_view=np.asarray(row_view, dtype=np.int64),
        k_views=int(k_views),
    )
    log.info(
        "built index: %d docs, %d views/doc, dim %d", index.n_docs, index.k_views, index.embed_dim
    )
    return index


def first_views(index: FlatIndex, k: int) -> FlatIndex:
    """The first ``k`` views of every document: :func:`build_index` over the
    query sets truncated to ``k`` views, without encoding again."""
    if not 1 <= k <= index.k_views:
        raise ValueError(f"k must lie in [1, {index.k_views}], got {k}")
    keep = index.row_view < k
    return FlatIndex(index.matrix[keep], index.doc_ids, index.row_doc[keep], index.row_view[keep], k)


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
    if index.n_rows == 0:
        return RankedList(query_id=query_id, results=())
    scores = index.scores_matrix() @ query_emb
    rows_needed = min(index.n_rows, index.k_views * top_k_docs)
    if rows_needed >= index.n_rows:
        cand = np.arange(index.n_rows)
    else:
        part = np.argpartition(-scores, rows_needed - 1)[:rows_needed]
        boundary = scores[part].min()
        # keep every row tied with the boundary score: pooling then matches
        # pooling over the full score vector exactly
        cand = np.flatnonzero(scores >= boundary)
    doc_best = np.full(index.n_docs, -np.inf)
    np.maximum.at(doc_best, index.row_doc[cand], scores[cand])
    found = np.flatnonzero(doc_best > -np.inf)
    ranked = sorted(
        ((index.doc_ids[i], doc_best[i]) for i in found), key=lambda t: (-t[1], t[0])
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
    """Serialize the index with a CRC-64 footer."""
    parts = [_MAGIC]
    parts.append(
        struct.pack("<QIII", index.n_rows, index.embed_dim, index.k_views, index.n_docs)
    )
    for doc_id in index.doc_ids:
        raw = doc_id.encode("utf-8")
        parts.append(struct.pack("<I", len(raw)))
        parts.append(raw)
    rows = np.empty((index.n_rows, 2), dtype="<u4")
    rows[:, 0] = index.row_doc
    rows[:, 1] = index.row_view
    parts.append(rows.tobytes())
    parts.append(np.ascontiguousarray(index.matrix, dtype="<f4").tobytes())
    payload = b"".join(parts)
    with open(path, "wb") as handle:
        handle.write(payload)
        handle.write(struct.pack("<Q", crc64(payload)))
    log.info("saved index to %s (%d bytes)", path, len(payload) + 8)


def load_index(path: str | Path) -> FlatIndex:
    """Load an index written by :func:`save_index`, verifying the checksum."""
    with open(path, "rb") as handle:
        data = handle.read()
    if len(data) < len(_MAGIC) + 8:
        raise ValueError(f"{path}: truncated index file")
    if data[: len(_MAGIC)] != _MAGIC:
        raise ValueError(f"{path}: bad magic {data[:len(_MAGIC)]!r}, expected {_MAGIC!r}")
    payload, footer = data[:-8], data[-8:]
    (expect_crc,) = struct.unpack("<Q", footer)
    actual_crc = crc64(payload)
    if actual_crc != expect_crc:
        raise ValueError(
            f"{path}: checksum mismatch (stored {expect_crc:#018x}, computed {actual_crc:#018x})"
        )
    offset = len(_MAGIC)

    def take(n: int, what: str) -> bytes:
        nonlocal offset
        if offset + n > len(payload):
            raise ValueError(f"{path}: truncated index while reading {what}")
        chunk = payload[offset : offset + n]
        offset += n
        return chunk

    n_rows, embed_dim, k_views, n_docs = struct.unpack("<QIII", take(20, "header"))
    doc_ids = []
    for _ in range(n_docs):
        (length,) = struct.unpack("<I", take(4, "doc_id length"))
        doc_ids.append(take(length, "doc_id").decode("utf-8"))
    rows = np.frombuffer(take(8 * n_rows, "row table"), dtype="<u4").reshape(n_rows, 2)
    matrix = (
        np.frombuffer(take(4 * n_rows * embed_dim, "embeddings"), dtype="<f4")
        .reshape(n_rows, embed_dim)
        .copy()
    )
    if offset != len(payload):
        raise ValueError(f"{path}: trailing bytes after index data")
    return FlatIndex(
        matrix=matrix,
        doc_ids=doc_ids,
        row_doc=rows[:, 0].astype(np.int64),
        row_view=rows[:, 1].astype(np.int64),
        k_views=int(k_views),
    )
