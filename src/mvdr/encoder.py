"""Hashed n-gram text encoder with query and document towers.

A text is mapped to hashed n-gram features (configurable orders), the
matching rows of a token table are mean-pooled, and a two-layer MLP with a
tanh hidden layer produces the embedding:

    e = W_out @ tanh(W_hidden @ h + b_hidden) + b_out

Documents can be encoded two ways: alone (single-view mode) or jointly
with a query prefix separated by a sentinel token (query-informed views).
The joint encoding sees n-grams that cross the separator, so the same
document yields a different vector for each prefix query.

Gradients are computed by hand in :func:`backprop_tower`; there is no
autodiff anywhere in the package. Training runs in float32 and every
forward/backward path also works in float64 for verification.
"""

from __future__ import annotations

import functools
import io
import logging
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import tokenize
from .hashing import crc32, stable_hash64

log = logging.getLogger(__name__)

# Joins a query and a document in joint encodings. The word tokenizer can
# never produce this control character, so the separator's hash bucket is
# reserved and no ordinary feature collides with it.
SEP_TOKEN = "\x1e"

_GRAM_JOIN = "\x1f"

_TENSOR_NAMES = ("token_table", "w_hidden", "b_hidden", "w_out", "b_out")

_MAGIC = b"MVDR1"


@dataclass(frozen=True)
class EncoderConfig:
    """Architecture and truncation settings shared by both towers."""

    embed_dim: int = 128
    hash_buckets: int = 2**18
    ngram_orders: tuple[int, ...] = (1, 2)
    tie_params: bool = True
    max_query_tokens: int = 16
    max_doc_tokens: int = 128

    def __post_init__(self) -> None:
        if self.embed_dim < 1:
            raise ValueError(f"embed_dim must be >= 1, got {self.embed_dim}")
        if self.hash_buckets < 2:
            raise ValueError(f"hash_buckets must be >= 2, got {self.hash_buckets}")
        orders = tuple(self.ngram_orders)
        if not orders or any(n < 1 for n in orders):
            raise ValueError(f"ngram_orders must be positive, got {orders}")
        if len(set(orders)) != len(orders):
            raise ValueError(f"ngram_orders must be distinct, got {orders}")
        object.__setattr__(self, "ngram_orders", orders)
        if self.max_query_tokens < 1 or self.max_doc_tokens < 1:
            raise ValueError("token caps must be >= 1")


@dataclass
class Tower:
    """Parameters of one encoding tower."""

    token_table: np.ndarray  # (hash_buckets, embed_dim)
    w_hidden: np.ndarray  # (embed_dim, embed_dim)
    b_hidden: np.ndarray  # (embed_dim,)
    w_out: np.ndarray  # (embed_dim, embed_dim)
    b_out: np.ndarray  # (embed_dim,)

    def tensors(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in _TENSOR_NAMES}

    def copy(self) -> "Tower":
        return Tower(**{name: arr.copy() for name, arr in self.tensors().items()})

    @classmethod
    def zeros_like(cls, tower: "Tower") -> "Tower":
        """Zeros shaped like ``tower``: a gradient or optimizer-moment holder."""
        return cls(**{name: np.zeros_like(arr) for name, arr in tower.tensors().items()})


@dataclass
class EncoderParams:
    """Both towers plus their shared configuration.

    When parameters are tied, ``query_tower`` and ``doc_tower`` are the
    same object, so one update reaches both roles.
    """

    config: EncoderConfig
    query_tower: Tower
    doc_tower: Tower

    @property
    def tied(self) -> bool:
        return self.doc_tower is self.query_tower

    def towers(self) -> dict[str, Tower]:
        """Distinct towers keyed by role; a tied model has a single entry."""
        if self.tied:
            return {"query": self.query_tower}
        return {"query": self.query_tower, "doc": self.doc_tower}

    def copy(self) -> "EncoderParams":
        query_tower = self.query_tower.copy()
        doc_tower = query_tower if self.tied else self.doc_tower.copy()
        return EncoderParams(self.config, query_tower, doc_tower)


def _init_tower(cfg: EncoderConfig, rng: np.random.Generator, dtype: np.dtype) -> Tower:
    dim = cfg.embed_dim
    bound = 1.0 / np.sqrt(dim)
    token_table = rng.uniform(-bound, bound, size=(cfg.hash_buckets, dim))
    w_hidden = np.eye(dim) + rng.uniform(-0.01, 0.01, size=(dim, dim))
    w_out = np.eye(dim) + rng.uniform(-0.01, 0.01, size=(dim, dim))
    return Tower(
        token_table=token_table.astype(dtype),
        w_hidden=w_hidden.astype(dtype),
        b_hidden=np.zeros(dim, dtype=dtype),
        w_out=w_out.astype(dtype),
        b_out=np.zeros(dim, dtype=dtype),
    )


def init_params(cfg: EncoderConfig, seed: int, dtype: np.dtype | type = np.float32) -> EncoderParams:
    """Draw fresh parameters; identical (cfg, seed) gives identical values.

    Projections start near identity so an untrained model already behaves
    like a hashed bag-of-n-grams scorer rather than pure noise.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    query_tower = _init_tower(cfg, rng, np.dtype(dtype))
    doc_tower = query_tower if cfg.tie_params else _init_tower(cfg, rng, np.dtype(dtype))
    return EncoderParams(cfg, query_tower, doc_tower)


# ---------------------------------------------------------------------------
# Feature extraction


# Distinct (text, cap, orders, buckets) entries kept by the feature memo.
_FEATURE_MEMO_SIZE = 200_000


def _hash_gram(gram: tuple[str, ...], space: int) -> int:
    return stable_hash64(_GRAM_JOIN.join(gram)) % space


@functools.lru_cache(maxsize=_FEATURE_MEMO_SIZE)
def _text_features(
    text: str, cap: int, orders: tuple[int, ...], hash_buckets: int
) -> tuple[tuple[str, ...], np.ndarray]:
    """The first ``cap`` tokens of ``text`` and their hashed n-grams.

    Ordinary features hash into [0, hash_buckets - 1); the last bucket is
    reserved for the separator token. Every caller shares the memoized
    bucket array, so it is read-only.
    """
    tokens = tuple(tokenize(text)[:cap])
    space = hash_buckets - 1
    buckets = np.asarray(
        [_hash_gram(tokens[i : i + n], space) for n in orders for i in range(len(tokens) - n + 1)],
        dtype=np.int64,
    )
    buckets.flags.writeable = False
    return tokens, buckets


def _segment(
    cfg: EncoderConfig, text: str, cap: int, what: str
) -> tuple[tuple[str, ...], np.ndarray]:
    tokens, buckets = _text_features(text, cap, cfg.ngram_orders, cfg.hash_buckets)
    if not tokens:
        raise ValueError(f"{what} has no tokens after canonicalization: {text!r}")
    return tokens, buckets


def _require_features(cfg: EncoderConfig, buckets: np.ndarray, what: str) -> np.ndarray:
    # An all-empty feature set would mean-pool to a NaN embedding.
    if buckets.size == 0:
        raise ValueError(f"{what} is shorter than every n-gram order {cfg.ngram_orders}")
    return buckets


def query_feature_buckets(cfg: EncoderConfig, text: str) -> np.ndarray:
    """Hashed n-gram features of a query encoded alone (read-only)."""
    _, buckets = _segment(cfg, text, cfg.max_query_tokens, "query")
    return _require_features(cfg, buckets, f"query {text!r}")


def doc_feature_buckets(cfg: EncoderConfig, text: str) -> np.ndarray:
    """Hashed n-gram features of a document encoded alone (read-only)."""
    _, buckets = _segment(cfg, text, cfg.max_doc_tokens, "document")
    return _require_features(cfg, buckets, f"document {text!r}")


def joint_feature_buckets(cfg: EncoderConfig, query_text: str, doc_text: str) -> np.ndarray:
    """Features of ``query <SEP> document`` as one sequence.

    Equal to the features of the concatenated token sequence: segment
    features come from the per-text memo and only the n-grams that
    overlap the separator are hashed here.
    """
    q_tokens, q_part = _segment(cfg, query_text, cfg.max_query_tokens, "query")
    d_tokens, d_part = _segment(cfg, doc_text, cfg.max_doc_tokens, "document")
    seq = q_tokens + (SEP_TOKEN,) + d_tokens
    sep_pos = len(q_tokens)
    space = cfg.hash_buckets - 1
    boundary: list[int] = []
    for n in cfg.ngram_orders:
        lo = max(0, sep_pos - n + 1)
        hi = min(sep_pos, len(seq) - n)
        for i in range(lo, hi + 1):
            gram = seq[i : i + n]
            if n == 1:
                boundary.append(cfg.hash_buckets - 1)
            else:
                boundary.append(_hash_gram(gram, space))
    buckets = np.concatenate([q_part, np.asarray(boundary, dtype=np.int64), d_part])
    return _require_features(cfg, buckets, f"query {query_text!r} with document {doc_text!r}")


# ---------------------------------------------------------------------------
# Forward / backward


@dataclass
class ForwardCache:
    """Intermediate activations needed to backpropagate a batch."""

    buckets: list[np.ndarray]
    pooled: np.ndarray  # (B, dim) mean-pooled table rows
    hidden: np.ndarray  # (B, dim) tanh activations


def forward_tower(
    tower: Tower, buckets: Sequence[np.ndarray], want_cache: bool = False
) -> tuple[np.ndarray, ForwardCache | None]:
    """Embed a batch of feature-bucket arrays through one tower."""
    pooled = np.stack([tower.token_table[b].mean(axis=0) for b in buckets])
    hidden = np.tanh(pooled @ tower.w_hidden.T + tower.b_hidden)
    out = hidden @ tower.w_out.T + tower.b_out
    cache = ForwardCache(list(buckets), pooled, hidden) if want_cache else None
    return out, cache


def backprop_tower(
    tower: Tower, cache: ForwardCache, d_out: np.ndarray, grads: Tower
) -> None:
    """Accumulate parameter gradients for a batch embedded by ``tower``.

    ``d_out`` is the loss gradient w.r.t. the tower outputs, one row per
    batch element. Mean pooling spreads each row gradient uniformly over
    the row's feature buckets (repeated buckets accumulate).
    """
    d_out = d_out.astype(tower.w_out.dtype, copy=False)
    grads.w_out += d_out.T @ cache.hidden
    grads.b_out += d_out.sum(axis=0)
    d_hidden = (d_out @ tower.w_out) * (1.0 - cache.hidden**2)
    grads.w_hidden += d_hidden.T @ cache.pooled
    grads.b_hidden += d_hidden.sum(axis=0)
    d_pooled = d_hidden @ tower.w_hidden
    lengths = np.array([len(b) for b in cache.buckets])
    scaled = d_pooled / lengths[:, None]
    flat = np.concatenate(cache.buckets)
    np.add.at(grads.token_table, flat, np.repeat(scaled, lengths, axis=0))


# ---------------------------------------------------------------------------
# Public encoding ops


def encode_query(params: EncoderParams, text: str) -> np.ndarray:
    """Embed a query on its own through the query tower."""
    buckets = [query_feature_buckets(params.config, text)]
    out, _ = forward_tower(params.query_tower, buckets)
    return out[0]


def encode_queries(params: EncoderParams, texts: Sequence[str]) -> np.ndarray:
    if len(texts) == 0:
        return np.zeros((0, params.config.embed_dim), dtype=params.query_tower.b_out.dtype)
    buckets = [query_feature_buckets(params.config, t) for t in texts]
    out, _ = forward_tower(params.query_tower, buckets)
    return out


def encode_document(params: EncoderParams, text: str) -> np.ndarray:
    """Embed a document alone through the doc tower (single-view mode)."""
    buckets = [doc_feature_buckets(params.config, text)]
    out, _ = forward_tower(params.doc_tower, buckets)
    return out[0]


def encode_document_view(params: EncoderParams, query_text: str, doc_text: str) -> np.ndarray:
    """Embed a document jointly with a query prefix (one query-informed view)."""
    buckets = [joint_feature_buckets(params.config, query_text, doc_text)]
    out, _ = forward_tower(params.doc_tower, buckets)
    return out[0]


def candidate_feature_buckets(
    cfg: EncoderConfig, pair: tuple[str | None, str]
) -> np.ndarray:
    """Features for a candidate: ``(None, doc)`` alone or ``(query, doc)`` jointly."""
    query_text, doc_text = pair
    if query_text is None:
        return doc_feature_buckets(cfg, doc_text)
    return joint_feature_buckets(cfg, query_text, doc_text)


def encode_candidates(
    params: EncoderParams, pairs: Sequence[tuple[str | None, str]]
) -> np.ndarray:
    """Embed candidate inputs through the doc tower, preserving order."""
    if len(pairs) == 0:
        return np.zeros((0, params.config.embed_dim), dtype=params.doc_tower.b_out.dtype)
    buckets = [candidate_feature_buckets(params.config, p) for p in pairs]
    out, _ = forward_tower(params.doc_tower, buckets)
    return out


def score(query_emb: np.ndarray, doc_emb: np.ndarray) -> float:
    """Dot-product relevance score between two embeddings."""
    query_emb = np.asarray(query_emb)
    doc_emb = np.asarray(doc_emb)
    if query_emb.shape != doc_emb.shape or query_emb.ndim != 1:
        raise ValueError(
            f"embedding shapes differ: {query_emb.shape} vs {doc_emb.shape}"
        )
    return float(np.dot(query_emb.astype(np.float64), doc_emb.astype(np.float64)))


# ---------------------------------------------------------------------------
# Checkpoint I/O
#
# Layout (all little-endian):
#   magic 'MVDR1'
#   u32 embed_dim, u64 hash_buckets, u8 n_orders, n_orders * u8,
#   u8 tied, u32 max_query_tokens, u32 max_doc_tokens
#   float32 tensors in fixed order (query tower, then doc tower if untied)
#   u32 CRC-32 of everything before the footer


def _pack_header(cfg: EncoderConfig) -> bytes:
    parts = [
        _MAGIC,
        struct.pack("<IQ", cfg.embed_dim, cfg.hash_buckets),
        struct.pack("<B", len(cfg.ngram_orders)),
        struct.pack(f"<{len(cfg.ngram_orders)}B", *cfg.ngram_orders),
        struct.pack("<BII", int(cfg.tie_params), cfg.max_query_tokens, cfg.max_doc_tokens),
    ]
    return b"".join(parts)


def save_params(params: EncoderParams, path: str | Path) -> None:
    """Serialize parameters as float32 with a checksum footer."""
    buf = io.BytesIO()
    cfg = params.config
    header_cfg = EncoderConfig(
        embed_dim=cfg.embed_dim,
        hash_buckets=cfg.hash_buckets,
        ngram_orders=cfg.ngram_orders,
        tie_params=params.tied,
        max_query_tokens=cfg.max_query_tokens,
        max_doc_tokens=cfg.max_doc_tokens,
    )
    buf.write(_pack_header(header_cfg))
    for tower in params.towers().values():
        for arr in tower.tensors().values():
            buf.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    payload = buf.getvalue()
    with open(path, "wb") as handle:
        handle.write(payload)
        handle.write(struct.pack("<I", crc32(payload)))
    log.info("saved checkpoint to %s (%d bytes)", path, len(payload) + 4)


def _read_exact(handle: io.BytesIO, n: int, path: str | Path, what: str) -> bytes:
    data = handle.read(n)
    if len(data) != n:
        raise ValueError(f"{path}: truncated checkpoint while reading {what}")
    return data


def load_params(path: str | Path) -> EncoderParams:
    """Load a checkpoint written by :func:`save_params`.

    Rejects unknown magic, truncation, and checksum mismatches.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    if len(data) < len(_MAGIC) + 4:
        raise ValueError(f"{path}: truncated checkpoint")
    if data[: len(_MAGIC)] != _MAGIC:
        raise ValueError(f"{path}: bad magic {data[:len(_MAGIC)]!r}, expected {_MAGIC!r}")
    payload, footer = data[:-4], data[-4:]
    (expect_crc,) = struct.unpack("<I", footer)
    actual_crc = crc32(payload)
    if actual_crc != expect_crc:
        raise ValueError(
            f"{path}: checksum mismatch (stored {expect_crc:#010x}, computed {actual_crc:#010x})"
        )
    stream = io.BytesIO(payload)
    stream.seek(len(_MAGIC))
    embed_dim, hash_buckets = struct.unpack("<IQ", _read_exact(stream, 12, path, "header"))
    (n_orders,) = struct.unpack("<B", _read_exact(stream, 1, path, "header"))
    orders = struct.unpack(f"<{n_orders}B", _read_exact(stream, n_orders, path, "header"))
    tied_flag, max_q, max_d = struct.unpack("<BII", _read_exact(stream, 9, path, "header"))
    cfg = EncoderConfig(
        embed_dim=embed_dim,
        hash_buckets=hash_buckets,
        ngram_orders=tuple(int(n) for n in orders),
        tie_params=bool(tied_flag),
        max_query_tokens=max_q,
        max_doc_tokens=max_d,
    )

    def read_tower() -> Tower:
        shapes = {
            "token_table": (cfg.hash_buckets, cfg.embed_dim),
            "w_hidden": (cfg.embed_dim, cfg.embed_dim),
            "b_hidden": (cfg.embed_dim,),
            "w_out": (cfg.embed_dim, cfg.embed_dim),
            "b_out": (cfg.embed_dim,),
        }
        arrays = {}
        for name, shape in shapes.items():
            count = int(np.prod(shape))
            raw = _read_exact(stream, 4 * count, path, name)
            arrays[name] = np.frombuffer(raw, dtype="<f4").reshape(shape).copy()
        return Tower(**arrays)

    query_tower = read_tower()
    doc_tower = query_tower if cfg.tie_params else read_tower()
    if stream.read(1):
        raise ValueError(f"{path}: trailing bytes after checkpoint tensors")
    return EncoderParams(cfg, query_tower, doc_tower)
