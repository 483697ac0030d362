"""Hashed n-gram text encoder: one tower encodes queries and documents alike.

A text is mapped to hashed n-gram features (configurable orders), the
matching rows of a token table are mean-pooled, and a two-layer MLP with a
tanh hidden layer produces the embedding:

    e = W_out @ tanh(W_hidden @ h + b_hidden) + b_out

An n-gram's bucket comes from its tokens' 64-bit hashes through a fixed
integer mix (the hashing trick of Weinberger et al., "Feature Hashing for
Large Scale Multitask Learning", ICML 2009), so no n-gram string is ever
built and a unigram's bucket is its token's hash; see :class:`FeatureTable`.

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
from dataclasses import dataclass, fields
from itertools import accumulate, chain
from pathlib import Path
from typing import Collection, Iterable, Sequence

import numpy as np

from .corpus import tokenize
from .hashing import FramedReader, stable_hash64, write_framed

log = logging.getLogger(__name__)

# Joins a query and a document in joint encodings. The word tokenizer can
# never produce this control character, so the separator's hash bucket is
# reserved and no ordinary feature collides with it.
SEP_TOKEN = "\x1e"
_SEP_HASH = stable_hash64(SEP_TOKEN)

# An n-gram's hash takes in each token after the first as
# h = _mix(h * _GRAM_MUL + token hash); see FeatureTable.
_GRAM_MUL = np.uint64(0x9E3779B97F4A7C15)
_FMIX_SHIFT = np.uint64(33)
_FMIX_MUL = (np.uint64(0xFF51AFD7ED558CCD), np.uint64(0xC4CEB9FE1A85EC53))

MODES = ("de", "dce")

_MAGIC = b"MVDR3"

# Bytes of one block of token-table rows: a float64 block drawn by
# init_params, or one gather of a batch's feature rows in forward_tower.
_BLOCK_BYTES = 2**20


@dataclass(frozen=True)
class EncoderConfig:
    """Architecture and truncation settings of the encoder.

    ``tie_params`` must be True: queries and documents share one tower.
    The field exists only so that callers which pass ``tie_params=True``
    keep working.
    """

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
        if self.tie_params is not True:
            message = "queries and documents share one tower"
            raise ValueError(f"tie_params must be True ({message}), got {self.tie_params!r}")


@dataclass
class Tower:
    """Parameters of the encoding tower.

    Gradients and Adam moments use the same holder, with the token
    table's kept as a :class:`RowGrad` over the rows a batch or a stage
    touched. The fields, in order, are the tower's tensors.
    """

    token_table: np.ndarray  # (hash_buckets, embed_dim)
    w_hidden: np.ndarray  # (embed_dim, embed_dim)
    b_hidden: np.ndarray  # (embed_dim,)
    w_out: np.ndarray  # (embed_dim, embed_dim)
    b_out: np.ndarray  # (embed_dim,)

    def tensors(self) -> dict[str, np.ndarray]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def copy(self) -> "Tower":
        return Tower(**{name: arr.copy() for name, arr in self.tensors().items()})

    def dense(self, n_rows: int) -> "Tower":
        """This gradient or moment tower with its :class:`RowGrad` token
        table as the dense ``n_rows``-row table it stands for; the other
        tensors are this tower's own arrays."""
        return Tower(**{**self.tensors(), "token_table": self.token_table.to_dense(n_rows)})


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
    """The one tower that encodes queries and documents, plus its configuration."""

    config: EncoderConfig
    tower: Tower

    def copy(self) -> "EncoderParams":
        return EncoderParams(self.config, self.tower.copy())


def init_params(cfg: EncoderConfig, seed: int, dtype: np.dtype | type = np.float32) -> EncoderParams:
    """Draw fresh parameters; identical (cfg, seed) gives identical values.

    Projections start near identity so an untrained model already behaves
    like a hashed bag-of-n-grams scorer rather than pure noise.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
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
    return EncoderParams(cfg, Tower(
        token_table=token_table,
        w_hidden=w_hidden.astype(dtype),
        b_hidden=np.zeros(dim, dtype=dtype),
        w_out=w_out.astype(dtype),
        b_out=np.zeros(dim, dtype=dtype),
    ))


# ---------------------------------------------------------------------------
# Feature extraction


class FeatureTable:
    """Hashed n-gram features for the texts of one stage.

    A stage (one index build, one training run, one batch of query
    encodings) makes a table, featurizes every text through it and drops
    it when done, so no feature state outlives the stage.

    The table hashes each distinct token once with ``stable_hash64`` and
    keeps that 64-bit hash, so its memory grows with the stage's distinct
    tokens, not with its distinct n-grams. A unigram's bucket is its
    token's hash modulo ``hash_buckets - 1``; the last bucket is reserved
    for the separator token. An n-gram of order 2 or more, including one
    that overlaps the separator, starts from its first token's hash ``h``
    and takes ``h = _mix(h * _GRAM_MUL + t)`` for each further token's hash
    ``t``, in wrapping uint64 arithmetic; its bucket is the final ``h``
    modulo ``hash_buckets - 1``.

    Featurization runs in passes. :meth:`queue` names the requests a
    caller is about to ask for. A request the table does not keep joins
    that queue, and one pass runs over the whole queue, which is then
    empty: it tokenizes each distinct text once and takes every n-gram's
    bucket in one array computation. The table keeps what its latest
    pass featurized, and nothing per request: per text, the
    buckets of its own n-grams; per separator window (the token hashes on
    each side of the separator that an n-gram overlapping it can reach),
    the buckets of the n-grams that overlap the separator. A request
    whose texts and window are kept runs no pass, whichever pass kept
    them.
    """

    def __init__(self, cfg: EncoderConfig) -> None:
        self.cfg = cfg
        self._space = cfg.hash_buckets - 1
        self._orders = np.array(cfg.ngram_orders, dtype=np.int64)
        self._token_hashes: dict[str, int] = {}
        # ("query" or "document", text) -> (its token count after its cap;
        # the read-only buckets of its own n-grams; its side of a separator
        # window, a query's last and a document's first `reach` token hashes)
        self._texts: dict[tuple[str, str], tuple[int, np.ndarray, tuple[int, ...]]] = {}
        # separator window (query side, document side) -> buckets of the
        # n-grams overlapping the separator, which depend on nothing else
        self._windows: dict[tuple[tuple[int, ...], tuple[int, ...]], np.ndarray] = {}
        self._queued: dict[tuple[str | None, str | None], None] = {}

    def queue(self, requests: Iterable[tuple[str | None, str | None]]) -> None:
        """Featurize these (query text or None, document text or None)
        requests in the next pass, which the first request the table does
        not keep runs; the queue is emptied when its pass runs."""
        self._queued = dict.fromkeys(requests)

    def features(self, query_text: str | None, doc_text: str | None) -> np.ndarray:
        """Buckets of a query, a document or ``query <SEP> document``: the
        query's own n-grams, those that overlap the separator, then the
        document's own, each part by order and then by position. A query's
        or a document's array is read-only. Raises for a text without
        tokens, and for a request with no n-gram of any order."""
        request = (query_text, doc_text)
        parts = self._kept(*request)
        if parts is None:
            self._queued[request] = None
            requests, self._queued = self._queued, {}
            self._featurize(requests)
            parts = self._kept(*request)
        buckets = parts[0] if len(parts) == 1 else np.concatenate(parts)
        # a text without tokens or shorter than every order has no own buckets
        if not all(map(len, parts)):
            named = [(w, t) for w, t in zip(("query", "document"), request) if t is not None]
            for what, text in named:
                if not self._texts[what, text][0]:
                    raise ValueError(f"{what} has no tokens after canonicalization: {text!r}")
            # An all-empty feature set would mean-pool to a NaN embedding.
            if buckets.size == 0:
                described = " with ".join(f"{what} {text!r}" for what, text in named)
                orders = self.cfg.ngram_orders
                raise ValueError(f"{described} is shorter than every n-gram order {orders}")
        return buckets

    def _kept(self, query_text: str | None, doc_text: str | None) -> list[np.ndarray] | None:
        """The kept buckets of a request's parts, in its feature order, or
        None when the latest pass did not featurize all of them."""
        query = self._texts.get(("query", query_text))
        doc = self._texts.get(("document", doc_text))
        if (query is None) != (query_text is None) or (doc is None) != (doc_text is None):
            return None
        if query is None:
            return [doc[1]]
        if doc is None:
            return [query[1]]
        window = self._windows.get((query[2], doc[2]))
        return None if window is None else [query[1], window, doc[1]]

    def _featurize(self, requests: Collection[tuple[str | None, str | None]]) -> None:
        """One pass: the buckets of every text of ``requests`` and of every
        query-document request's separator window, each in one array
        computation. The table then keeps these and nothing else."""
        keys = [("query", q) for q in dict.fromkeys(q for q, _ in requests) if q is not None]
        keys += [("document", d) for d in dict.fromkeys(d for _, d in requests) if d is not None]
        self._texts, self._windows = {}, {}
        hashes = [self._token_hashes_of(*key) for key in keys]
        reach = max(self.cfg.ngram_orders) - 1
        # the kept keys are the pass's own tuples: no second tuple per kept text
        for key, text_hashes, buckets in zip(keys, hashes, self._grams(hashes)):
            cut = max(0, len(text_hashes) - reach) if key[0] == "query" else 0
            side = tuple(text_hashes[cut : cut + reach])
            self._texts[key] = (len(text_hashes), buckets, side)
        texts = self._texts
        joint = ((texts["query", q][2], texts["document", d][2])
                 for q, d in requests if None not in (q, d))
        windows = list(dict.fromkeys(joint))
        boundaries = self._grams(
            [[*q, _SEP_HASH, *d] for q, d in windows], [len(q) for q, _ in windows]
        )
        self._windows = dict(zip(windows, boundaries))

    def _token_hashes_of(self, what: str, text: str) -> list[int]:
        """The token hashes of a query or document (``what``), cut at its cap."""
        cap = self.cfg.max_query_tokens if what == "query" else self.cfg.max_doc_tokens
        known = self._token_hashes
        tokens = tokenize(text)[:cap]
        for token in tokens:
            if token not in known:
                known[token] = stable_hash64(token)
        return [known[token] for token in tokens]

    def _grams(
        self, sequences: list[list[int]], separators: list[int] | None = None
    ) -> list[np.ndarray]:
        """Per sequence of token hashes, the read-only buckets of its
        n-grams, by order and then by position; with ``separators``, only
        the n-grams that overlap position ``separators[i]`` of sequence i,
        the separator, whose unigram takes the reserved bucket. All
        sequences are hashed in one array."""
        if not sequences:
            return []
        orders = self.cfg.ngram_orders
        lengths = np.fromiter(map(len, sequences), dtype=np.int64, count=len(sequences))
        starts = lengths.cumsum() - lengths
        hashes = np.fromiter(chain.from_iterable(sequences), dtype=np.uint64, count=int(lengths.sum()))
        space = np.uint64(self._space)
        buckets = {}  # order -> bucket of the n-gram starting at each position
        gram = hashes
        for n in range(1, max(orders) + 1):
            if n > 1:
                gram = _mix(gram[:-1] * _GRAM_MUL + hashes[n - 1 :])
            if n in orders:
                buckets[n] = gram % space
        # (sequence, order): its first and last n-gram
        first = np.zeros((len(sequences), len(orders)), dtype=np.int64)
        last = lengths[:, None] - self._orders
        if separators is not None:
            sep = np.array(separators, dtype=np.int64)
            if 1 in orders:
                buckets[1][starts + sep] = space
            first = np.maximum(first, sep[:, None] - self._orders + 1)
            last = np.minimum(last, sep[:, None])
        stacked = np.concatenate([buckets[n] for n in orders]).astype(np.int64)
        offsets = np.array([0, *accumulate(len(buckets[n]) for n in orders[:-1])])
        counts = np.maximum(0, last - first + 1)
        out = stacked[_ranges((starts[:, None] + first + offsets).reshape(-1), counts.reshape(-1))]
        out.flags.writeable = False
        ends = counts.sum(axis=1).cumsum().tolist()
        return [out[a:b] for a, b in zip([0, *ends], ends)]


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``arange(s, s + c)`` for each (s, c) of ``starts`` and ``counts``, concatenated."""
    ends = counts.cumsum()
    return (starts - (ends - counts)).repeat(counts) + np.arange(ends[-1] if len(ends) else 0)


def _mix(x: np.ndarray) -> np.ndarray:
    """MurmurHash3's 64-bit finalizer (fmix64), in place on a uint64 array."""
    x ^= x >> _FMIX_SHIFT
    x *= _FMIX_MUL[0]
    x ^= x >> _FMIX_SHIFT
    x *= _FMIX_MUL[1]
    x ^= x >> _FMIX_SHIFT
    return x


def query_feature_buckets(table: FeatureTable, text: str) -> np.ndarray:
    """Hashed n-gram features of a query encoded alone (read-only)."""
    return table.features(text, None)


def doc_feature_buckets(table: FeatureTable, text: str) -> np.ndarray:
    """Hashed n-gram features of a document encoded alone (read-only)."""
    return table.features(None, text)


def joint_feature_buckets(table: FeatureTable, query_text: str, doc_text: str) -> np.ndarray:
    """Features of ``query <SEP> document`` as one sequence.

    Equal to the features of the concatenated token sequence: the query's
    and the document's own n-grams, then those that overlap the separator.
    """
    return table.features(query_text, doc_text)


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
    """Embed queries through the tower, featurized through one table.

    A text pools to the same features in any batch, but its float32
    embedding can differ in the last bit between a one-row batch, whose
    MLP product runs as a GEMV, and a larger one, whose GEMM sums in
    another order. So a query encoded alone and the same query encoded in
    a batch can order near-tied documents differently.
    """
    table = FeatureTable(params.config)
    table.queue((t, None) for t in texts)
    buckets = [query_feature_buckets(table, t) for t in texts]
    out, _ = forward_tower(params.tower, buckets)
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
    """Embed candidate inputs through the tower, preserving order.

    ``table`` is the stage's feature table, made from ``params.config``;
    it carries token hashes across the stage's calls, and featurizes
    ``pairs`` in one pass.
    """
    table.queue(pairs)
    buckets = [candidate_feature_buckets(table, p) for p in pairs]
    out, _ = forward_tower(params.tower, buckets)
    return out


# ---------------------------------------------------------------------------
# Checkpoint I/O
#
# Layout (all little-endian):
#   magic 'MVDR3'
#   u32 embed_dim, u64 hash_buckets, u8 n_orders, n_orders * u8,
#   u8 tied (always 1), u32 max_query_tokens, u32 max_doc_tokens
#   float32 tensors of the tower in fixed order, each after the zero bytes
#   that start it at a multiple of 64
#   u32 CRC-32 of everything before the footer


def save_params(params: EncoderParams, path: str | Path) -> None:
    """Serialize parameters as float32 with a checksum footer."""
    cfg = params.config
    orders = cfg.ngram_orders
    header = [
        struct.pack("<IQB", cfg.embed_dim, cfg.hash_buckets, len(orders)),
        struct.pack(f"<{len(orders)}B", *orders),
        struct.pack("<BII", 1, cfg.max_query_tokens, cfg.max_doc_tokens),
    ]
    tensors = [np.ascontiguousarray(arr, dtype="<f4") for arr in params.tower.tensors().values()]
    size = write_framed(path, _MAGIC, header + tensors)
    log.info("saved checkpoint to %s (%d bytes)", path, size)


def load_params(path: str | Path) -> EncoderParams:
    """Load a checkpoint written by :func:`save_params`.

    Rejects bad magic, checksum mismatches, truncation, trailing bytes,
    nonzero padding, a tied byte other than 1 (separate towers exist only in
    older formats, which fail on their magic) and a header that
    :class:`EncoderConfig` rejects. Each tensor is an aligned, writable
    view of the file mapped copy-on-write: a write copies the page it
    touches, never the file.
    """
    with FramedReader(path, _MAGIC, "checkpoint") as reader:
        embed_dim, hash_buckets, n_orders = reader.unpack("<IQB", "header")
        orders = reader.unpack(f"<{n_orders}B", "header")
        tied, max_q, max_d = reader.unpack("<BII", "header")
        if tied != 1:
            raise ValueError(
                f"checkpoint tied byte is {tied}, expected 1 (a checkpoint of this "
                "format holds one tower for queries and documents)"
            )
        cfg = EncoderConfig(
            embed_dim=embed_dim,
            hash_buckets=hash_buckets,
            ngram_orders=orders,
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
        tower = Tower(**{name: reader.floats(shape, name) for name, shape in shapes.items()})
    return EncoderParams(cfg, tower)
