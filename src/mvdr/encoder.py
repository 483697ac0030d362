"""Hashed n-gram text encoder with query and document towers.

A text is mapped to hashed n-gram features (configurable orders), the
matching rows of a token table are mean-pooled, and a two-layer MLP with a
tanh hidden layer produces the embedding:

    e = W_out @ tanh(W_hidden @ h + b_hidden) + b_out

A batch is pooled one feature-count group at a time, with one gather and
one in-order sum per group (see :func:`forward_tower`), so a text pools to
the same bits in any batch as on its own.

Documents can be encoded two ways: alone (single-view mode) or jointly
with a query prefix separated by a sentinel token (query-informed views).
The joint encoding sees n-grams that cross the separator, so the same
document yields a different vector for each prefix query.

Each stage makes one :class:`FeatureTable` from the config it encodes
with, passes it to every featurization call and drops it when the stage
ends; the module keeps no feature state.

Gradients are computed by hand in :func:`backprop_tower`; there is no
autodiff anywhere in the package. Training runs in float32 and every
forward/backward path also works in float64 for verification.
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import tokenize
from .hashing import FramedReader, stable_hash64, write_framed

log = logging.getLogger(__name__)

# Joins a query and a document in joint encodings. The word tokenizer can
# never produce this control character, so the separator's hash bucket is
# reserved and no ordinary feature collides with it.
SEP_TOKEN = "\x1e"

_GRAM_JOIN = "\x1f"

_TENSOR_NAMES = ("token_table", "w_hidden", "b_hidden", "w_out", "b_out")

_MAGIC = b"MVDR1"

# Bytes of one block of token-table rows: a float64 block drawn by
# init_params, or one gather of a batch's feature rows in forward_tower.
_BLOCK_BYTES = 2**20


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
        # upper bounds are what the checkpoint header stores: u32, u64, u8
        # (distinct u8 orders also keep their u8 count in range)
        if not 1 <= self.embed_dim < 2**32:
            raise ValueError(f"embed_dim must lie in [1, 2**32), got {self.embed_dim}")
        if not 2 <= self.hash_buckets < 2**64:
            raise ValueError(f"hash_buckets must lie in [2, 2**64), got {self.hash_buckets}")
        orders = tuple(self.ngram_orders)
        if not orders or any(not 1 <= n < 2**8 for n in orders):
            raise ValueError(f"ngram_orders must lie in [1, 255], got {orders}")
        if len(set(orders)) != len(orders):
            raise ValueError(f"ngram_orders must be distinct, got {orders}")
        object.__setattr__(self, "ngram_orders", orders)
        if not (1 <= self.max_query_tokens < 2**32 and 1 <= self.max_doc_tokens < 2**32):
            raise ValueError("token caps must lie in [1, 2**32)")


@dataclass
class Tower:
    """Parameters of one encoding tower.

    Gradients use the same holder, with the token table's gradient kept
    as a :class:`RowGrad` over the rows a batch touched.
    """

    token_table: np.ndarray  # (hash_buckets, embed_dim)
    w_hidden: np.ndarray  # (embed_dim, embed_dim)
    b_hidden: np.ndarray  # (embed_dim,)
    w_out: np.ndarray  # (embed_dim, embed_dim)
    b_out: np.ndarray  # (embed_dim,)

    def tensors(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in _TENSOR_NAMES}

    def copy(self) -> "Tower":
        return Tower(**{name: arr.copy() for name, arr in self.tensors().items()})


@dataclass
class RowGrad:
    """A table that is zero outside ``rows``: the gradient at the rows a
    batch touched, or an Adam moment at the rows a stage touched.

    ``rows`` is sorted and unique, and ``values[i]`` is table row
    ``rows[i]``.
    """

    rows: np.ndarray  # (n,) int64
    values: np.ndarray  # (n, embed_dim), the table's dtype

    @classmethod
    def empty(cls, table: np.ndarray) -> "RowGrad":
        return cls(np.zeros(0, dtype=np.int64), np.zeros((0, table.shape[1]), dtype=table.dtype))

    def include(self, rows: np.ndarray) -> np.ndarray:
        """Hold every row in ``rows``, a row not held yet at zero; return
        the index of each of ``rows`` in ``self.rows``."""
        held, inverse = np.unique(np.concatenate([self.rows, rows]), return_inverse=True)
        n_old = len(self.rows)
        if len(held) > n_old:
            values = np.zeros((len(held), self.values.shape[1]), dtype=self.values.dtype)
            values[inverse[:n_old]] = self.values
            self.rows, self.values = held, values
        return inverse[n_old:]

    def accumulate(self, flat: np.ndarray, contributions: np.ndarray) -> None:
        """Add ``contributions[j]`` to row ``flat[j]`` for every j.

        Each element sums from zero in the order ``np.add.at`` would use
        on the dense table: earlier calls first, then ``flat`` order, so
        the result is bit-identical to the dense scatter. The scatter runs
        over the flattened values, where ``np.add.at`` takes its 1-D fast
        path.
        """
        dim = self.values.shape[1]
        at = self.include(flat)
        flat_at = (at[:, None] * dim + np.arange(dim)).reshape(-1)
        np.add.at(self.values.reshape(-1), flat_at, contributions.reshape(-1))

    def to_dense(self, n_rows: int) -> np.ndarray:
        dense = np.zeros((n_rows, self.values.shape[1]), dtype=self.values.dtype)
        dense[self.rows] = self.values
        return dense


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
    # Rows drawn in blocks take the same stream as one draw of the whole
    # table, so the values are those of that draw without its float64 copy.
    token_table = np.empty((cfg.hash_buckets, dim), dtype=dtype)
    step = max(1, _BLOCK_BYTES // (8 * dim))
    for start in range(0, cfg.hash_buckets, step):
        block = token_table[start : start + step]
        block[...] = rng.uniform(-bound, bound, size=block.shape)
    w_hidden = np.eye(dim) + rng.uniform(-0.01, 0.01, size=(dim, dim))
    w_out = np.eye(dim) + rng.uniform(-0.01, 0.01, size=(dim, dim))
    return Tower(
        token_table=token_table,
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


class FeatureTable:
    """Hashed n-gram features for the texts of one stage.

    A stage (one index build, one training run, one batch of query
    encodings) makes a table, featurizes every text through it and drops
    it when done, so no feature state outlives the stage. The table hashes
    each distinct n-gram once and keeps its bucket. Ordinary features hash
    into [0, hash_buckets - 1); the last bucket is reserved for the
    separator token.

    A text's tokens and read-only bucket array are kept only while the
    stage can use them again. With ``keep_texts`` (training, which reads
    every text once per epoch) the table keeps them for every text;
    otherwise only for the latest query and the latest document, which
    covers a document whose views are encoded one after another.
    """

    def __init__(self, cfg: EncoderConfig, keep_texts: bool = False) -> None:
        self.cfg = cfg
        self._space = cfg.hash_buckets - 1
        self._keep_texts = keep_texts
        # joined n-gram -> bucket
        self._buckets: dict[str, int] = {}
        # (what, text), or just what, -> (text, tokens, buckets)
        self._texts: dict[object, tuple[str, tuple[str, ...], np.ndarray]] = {}

    def _lookup(self, grams: list[str]) -> list[int]:
        """Buckets of joined n-grams, hashing those the table has not seen."""
        buckets = self._buckets
        for gram in grams:
            if gram not in buckets:
                buckets[gram] = stable_hash64(gram) % self._space
        return [buckets[gram] for gram in grams]

    def segment(self, text: str, what: str) -> tuple[tuple[str, ...], np.ndarray]:
        """Tokens of a query or document (``what``), cut at its cap, and
        their n-gram buckets (read-only)."""
        key = (what, text) if self._keep_texts else what
        kept = self._texts.get(key)
        if kept is not None and kept[0] == text:
            return kept[1], kept[2]
        cap = self.cfg.max_query_tokens if what == "query" else self.cfg.max_doc_tokens
        tokens = tuple(tokenize(text)[:cap])
        if not tokens:
            raise ValueError(f"{what} has no tokens after canonicalization: {text!r}")
        grams: list[str] = []
        for n in self.cfg.ngram_orders:
            grams.extend(_grams(tokens, n))
        buckets = np.asarray(self._lookup(grams), dtype=np.int64)
        buckets.flags.writeable = False
        self._texts[key] = (text, tokens, buckets)
        return tokens, buckets

    def boundary(self, q_tokens: tuple[str, ...], d_tokens: tuple[str, ...]) -> list[int]:
        """Buckets of the n-grams of ``query <SEP> document`` that overlap
        the separator, in order."""
        out: list[int] = []
        for n in self.cfg.ngram_orders:
            if n == 1:
                out.append(self._space)
            else:
                # the last n - 1 query tokens, the separator, the first n - 1 document tokens
                window = q_tokens[max(0, len(q_tokens) - n + 1) :] + (SEP_TOKEN,) + d_tokens[: n - 1]
                out.extend(self._lookup(list(_grams(window, n))))
        return out


def _grams(tokens: tuple[str, ...], n: int) -> Iterable[str]:
    """The n-grams of ``tokens``, each joined into one string."""
    if n == 1:
        return tokens
    return map(_GRAM_JOIN.join, zip(*[tokens[k:] for k in range(n)]))


def _require_features(
    table: FeatureTable, buckets: np.ndarray, what: str, *texts: str
) -> np.ndarray:
    """``buckets``, unless empty; ``what`` is formatted with the reprs of
    ``texts`` only when raising, since most inputs pass."""
    # An all-empty feature set would mean-pool to a NaN embedding.
    if buckets.size == 0:
        described = what.format(*map(repr, texts))
        raise ValueError(f"{described} is shorter than every n-gram order {table.cfg.ngram_orders}")
    return buckets


def query_feature_buckets(table: FeatureTable, text: str) -> np.ndarray:
    """Hashed n-gram features of a query encoded alone (read-only)."""
    _, buckets = table.segment(text, "query")
    return _require_features(table, buckets, "query {}", text)


def doc_feature_buckets(table: FeatureTable, text: str) -> np.ndarray:
    """Hashed n-gram features of a document encoded alone (read-only)."""
    _, buckets = table.segment(text, "document")
    return _require_features(table, buckets, "document {}", text)


def joint_feature_buckets(table: FeatureTable, query_text: str, doc_text: str) -> np.ndarray:
    """Features of ``query <SEP> document`` as one sequence.

    Equal to the features of the concatenated token sequence: the query's
    and the document's own n-grams, then those that overlap the separator.
    """
    q_tokens, q_part = table.segment(query_text, "query")
    d_tokens, d_part = table.segment(doc_text, "document")
    boundary = np.asarray(table.boundary(q_tokens, d_tokens), dtype=np.int64)
    buckets = np.concatenate([q_part, boundary, d_part])
    return _require_features(table, buckets, "query {} with document {}", query_text, doc_text)


# ---------------------------------------------------------------------------
# Forward / backward


@dataclass
class ForwardCache:
    """Intermediate activations needed to backpropagate a batch."""

    buckets: list[np.ndarray]
    lengths: np.ndarray  # (B,) int64 feature count of each row
    pooled: np.ndarray  # (B, dim) mean-pooled table rows
    hidden: np.ndarray  # (B, dim) tanh activations


def forward_tower(tower: Tower, buckets: Sequence[np.ndarray]) -> tuple[np.ndarray, ForwardCache]:
    """Embed a batch of feature-bucket arrays through one tower; the cache
    holds what :func:`backprop_tower` needs.

    Rows with the same feature count L are pooled together: their table
    rows are gathered into an (n, L, dim) block, at most about
    ``_BLOCK_BYTES`` at a time, summed over L and divided by L in the
    table's dtype. That sums each row in order, exactly as
    ``table[b].mean(axis=0)`` does, so every pooled row equals the
    one-row-at-a-time mean bit for bit.
    """
    table = tower.token_table
    lengths = np.fromiter(map(len, buckets), dtype=np.int64, count=len(buckets))
    pooled = np.empty((len(buckets), table.shape[1]), dtype=table.dtype)
    row_bytes = table.shape[1] * table.itemsize
    # sorted(set()) rather than np.unique, which imports numpy.ma
    for length in sorted(set(lengths.tolist())):
        group = np.flatnonzero(lengths == length)
        step = max(1, _BLOCK_BYTES // (max(1, length) * row_bytes))
        for start in range(0, len(group), step):
            rows = group[start : start + step]
            idx = np.stack([buckets[i] for i in rows])
            # the gather is freed before the next one is made
            pooled[rows] = np.add.reduce(table[idx], axis=1) / table.dtype.type(length)
    hidden = np.tanh(pooled @ tower.w_hidden.T + tower.b_hidden)
    out = hidden @ tower.w_out.T + tower.b_out
    return out, ForwardCache(list(buckets), lengths, pooled, hidden)


def backprop_tower(
    tower: Tower, cache: ForwardCache, d_out: np.ndarray, grads: Tower
) -> None:
    """Accumulate parameter gradients for a batch embedded by ``tower``.

    ``d_out`` is the loss gradient w.r.t. the tower outputs, one row per
    batch element. Mean pooling spreads each row gradient uniformly over
    the row's feature buckets (repeated buckets accumulate) into the
    :class:`RowGrad` ``grads.token_table``.
    """
    d_out = d_out.astype(tower.w_out.dtype, copy=False)
    grads.w_out += d_out.T @ cache.hidden
    grads.b_out += d_out.sum(axis=0)
    d_hidden = (d_out @ tower.w_out) * (1.0 - cache.hidden**2)
    grads.w_hidden += d_hidden.T @ cache.pooled
    grads.b_hidden += d_hidden.sum(axis=0)
    d_pooled = d_hidden @ tower.w_hidden
    # divide in the parameter dtype: int64 lengths would promote float32 to float64
    scaled = d_pooled / cache.lengths[:, None].astype(d_pooled.dtype)
    flat = np.concatenate(cache.buckets)
    grads.token_table.accumulate(flat, np.repeat(scaled, cache.lengths, axis=0))


# ---------------------------------------------------------------------------
# Public encoding ops


def encode_queries(params: EncoderParams, texts: Sequence[str]) -> np.ndarray:
    """Embed queries through the query tower, featurized through one table.

    A text pools to the same features in any batch, but its float32
    embedding can differ in the last bit between a one-row batch, whose
    MLP product runs as a GEMV, and a larger one, whose GEMM sums in
    another order. So a query encoded alone and the same query encoded in
    a batch can order near-tied documents differently.
    """
    table = FeatureTable(params.config)
    buckets = [query_feature_buckets(table, t) for t in texts]
    out, _ = forward_tower(params.query_tower, buckets)
    return out


def candidate_feature_buckets(table: FeatureTable, pair: tuple[str | None, str]) -> np.ndarray:
    """Features for a candidate: ``(None, doc)`` alone or ``(query, doc)`` jointly."""
    query_text, doc_text = pair
    if query_text is None:
        return doc_feature_buckets(table, doc_text)
    return joint_feature_buckets(table, query_text, doc_text)


def encode_candidates(
    params: EncoderParams, pairs: Sequence[tuple[str | None, str]], table: FeatureTable
) -> np.ndarray:
    """Embed candidate inputs through the doc tower, preserving order.

    ``table`` is the stage's feature table, made from ``params.config``;
    it carries feature hashes across the stage's calls.
    """
    buckets = [candidate_feature_buckets(table, p) for p in pairs]
    out, _ = forward_tower(params.doc_tower, buckets)
    return out


# ---------------------------------------------------------------------------
# Checkpoint I/O
#
# Layout (all little-endian):
#   magic 'MVDR1'
#   u32 embed_dim, u64 hash_buckets, u8 n_orders, n_orders * u8,
#   u8 tied, u32 max_query_tokens, u32 max_doc_tokens
#   float32 tensors in fixed order (query tower, then doc tower if untied)
#   u32 CRC-32 of everything before the footer


def save_params(params: EncoderParams, path: str | Path) -> None:
    """Serialize parameters as float32 with a checksum footer."""
    cfg = params.config
    orders = cfg.ngram_orders
    header = [
        struct.pack("<IQB", cfg.embed_dim, cfg.hash_buckets, len(orders)),
        struct.pack(f"<{len(orders)}B", *orders),
        struct.pack("<BII", int(params.tied), cfg.max_query_tokens, cfg.max_doc_tokens),
    ]
    tensors = [
        np.ascontiguousarray(arr, dtype="<f4")
        for tower in params.towers().values()
        for arr in tower.tensors().values()
    ]
    size = write_framed(path, _MAGIC, header + tensors)
    log.info("saved checkpoint to %s (%d bytes)", path, size)


def load_params(path: str | Path) -> EncoderParams:
    """Load a checkpoint written by :func:`save_params`.

    Rejects unknown magic, truncation, trailing bytes and checksum
    mismatches. Each tensor is read from the file straight into its own
    aligned, writable array.
    """
    with FramedReader(path, _MAGIC, "checkpoint") as reader:
        embed_dim, hash_buckets, n_orders = reader.unpack("<IQB", "header")
        orders = reader.unpack(f"<{n_orders}B", "header")
        tied_flag, max_q, max_d = reader.unpack("<BII", "header")
        cfg = EncoderConfig(
            embed_dim=embed_dim,
            hash_buckets=hash_buckets,
            ngram_orders=orders,
            tie_params=bool(tied_flag),
            max_query_tokens=max_q,
            max_doc_tokens=max_d,
        )
        shapes = {
            "token_table": (hash_buckets, embed_dim),
            "w_hidden": (embed_dim, embed_dim),
            "b_hidden": (embed_dim,),
            "w_out": (embed_dim, embed_dim),
            "b_out": (embed_dim,),
        }

        def read_tower() -> Tower:
            return Tower(**{name: reader.floats(shape, name) for name, shape in shapes.items()})

        query_tower = read_tower()
        doc_tower = query_tower if cfg.tie_params else read_tower()
    return EncoderParams(cfg, query_tower, doc_tower)
