"""Contrastive training loop for the two retrieval modes.

Each training example is a (query, positive, negatives) triple. In
single-view mode candidates are the documents themselves; in
query-informed mode every candidate document is paired with the triple's
query before encoding, so the model learns to score the joint inputs it
will see at search time.

The loss over one example is softmax cross-entropy with the positive as
the target class. A batch always shares candidates: every example scores
against all B * (1 + m) candidates in the batch (in-batch negatives plus
each triple's m hard negatives), which is where most of the supervision
comes from at small batch sizes.

Optimization is Adam over the tower tensors with a linear
warmup-then-decay schedule per stage. The step is exact dense Adam, but
it runs only over the token-table rows the stage has touched so far: a
row no gradient has reached has zero moments, and dense Adam leaves it
where it is. Two stages are supported: an optional pretraining pass over
(generated query, document) pairs with in-batch negatives only, then
finetuning on the triples.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from .corpus import Document, GeneratedQuerySet, TrainingTriple, write_lines
from .encoder import (
    MODES,
    EncoderParams,
    FeatureTable,
    ForwardCache,
    RowGrad,
    Tower,
    backprop_tower,
    candidate_feature_buckets,
    forward_tower,
    query_feature_buckets,
)

log = logging.getLogger(__name__)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for both training stages."""

    mode: str = "dce"
    batch_size: int = 32
    pretrain_batch_size: int = 256
    negatives_per_positive: int = 7
    learning_rate: float = 1e-3
    warmup_fraction: float = 0.1
    epochs_pretrain: int = 0
    epochs_finetune: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.negatives_per_positive < 1:
            raise ValueError("negatives_per_positive must be >= 1")
        if self.batch_size < 2 or self.pretrain_batch_size < 2:
            raise ValueError("batch sizes must be >= 2: examples share in-batch negatives")
        if not 0.0 <= self.warmup_fraction <= 1.0:
            raise ValueError("warmup_fraction must lie in [0, 1]")
        if not 0.0 <= self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and >= 0")
        if self.epochs_pretrain < 0 or self.epochs_finetune < 0:
            raise ValueError("epoch counts must be >= 0")


@dataclass(frozen=True)
class MappedTriple:
    """A triple mapped into encoder inputs for one mode.

    Candidate pairs are ``(None, doc_text)`` in single-view mode and
    ``(query_text, doc_text)`` in query-informed mode.
    """

    query_text: str
    positive: tuple[str | None, str]
    negatives: tuple[tuple[str | None, str], ...]


def map_triple(triple: TrainingTriple, mode: str) -> MappedTriple:
    """Turn a raw triple into mode-specific encoder inputs."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    prefix = triple.query.text if mode == "dce" else None
    return MappedTriple(
        query_text=triple.query.text,
        positive=(prefix, triple.positive.text),
        negatives=tuple((prefix, doc.text) for doc in triple.negatives),
    )


@dataclass
class TrainBatch:
    """A batch laid out for one loss/gradient evaluation.

    ``candidates`` is triple-major: example i's positive sits at column
    ``i * block`` and its hard negatives follow. Every example scores
    against every candidate in the batch.
    """

    query_texts: list[str]
    candidates: list[tuple[str | None, str]]
    block: int

    @property
    def size(self) -> int:
        return len(self.query_texts)

    def positive_column(self, i: int) -> int:
        return i * self.block


def build_batch(mapped: Sequence[MappedTriple]) -> TrainBatch:
    """Assemble mapped triples into a batch.

    All triples must carry the same number of negatives, and at least two
    triples are required, otherwise there are no candidates to share.
    """
    if not mapped:
        raise ValueError("cannot build an empty batch")
    if len(mapped) < 2:
        raise ValueError("in-batch negatives require at least 2 triples per batch")
    n_neg = len(mapped[0].negatives)
    candidates: list[tuple[str | None, str]] = []
    for i, triple in enumerate(mapped):
        if len(triple.negatives) != n_neg:
            raise ValueError(
                f"triple {i} has {len(triple.negatives)} negatives, expected {n_neg}"
            )
        candidates.append(triple.positive)
        candidates.extend(triple.negatives)
    return TrainBatch(
        query_texts=[t.query_text for t in mapped],
        candidates=candidates,
        block=1 + n_neg,
    )


def contrastive_loss(score_pos: float, scores_neg: Sequence[float]) -> float:
    """Softmax cross-entropy of one example in float64.

    ``-log(exp(s+) / (exp(s+) + sum exp(s-)))``, computed after
    subtracting the max score so large magnitudes cannot overflow.
    """
    scores_neg = np.asarray(scores_neg, dtype=np.float64)
    if scores_neg.size == 0:
        raise ValueError("contrastive loss needs at least one negative score")
    scores = np.concatenate([[np.float64(score_pos)], scores_neg])
    m = scores.max()
    log_z = m + math.log(np.exp(scores - m).sum())
    return float(log_z - score_pos)


@dataclass
class BatchResult:
    loss: float
    grads: Tower


def zero_grads(params: EncoderParams) -> Tower:
    """Zero gradients of the tower; the token-table gradient starts with no rows."""
    return Tower(**{
        name: RowGrad.empty(arr) if name == "token_table" else np.zeros_like(arr)
        for name, arr in params.tower.tensors().items()
    })


def embed_batch(
    params: EncoderParams, batch: TrainBatch, table: FeatureTable
) -> tuple[tuple[np.ndarray, ForwardCache], tuple[np.ndarray, ForwardCache]]:
    """The batch's query and candidate embeddings, each with the cache
    :func:`backprop_tower` needs. ``table`` is a feature table made from
    ``params.config``; the batch's first request it lacks runs one pass
    over that request and the table's queue (:func:`train` queues a whole
    stage)."""
    q_buckets = [query_feature_buckets(table, t) for t in batch.query_texts]
    c_buckets = [candidate_feature_buckets(table, p) for p in batch.candidates]
    return forward_tower(params.tower, q_buckets), forward_tower(params.tower, c_buckets)


def loss_and_grads(params: EncoderParams, batch: TrainBatch, table: FeatureTable) -> BatchResult:
    """Mean batch loss and parameter gradients, by hand-rolled backprop.

    Each row of the ``(B, B * block)`` score matrix is one softmax over
    every candidate in the batch, with the target at ``i * block``.
    Arithmetic follows the parameter dtype except the softmax itself,
    which always runs in float64 for stability. The batch is embedded by
    :func:`embed_batch` through ``table``.
    """
    (q_emb, q_cache), (c_emb, c_cache) = embed_batch(params, batch, table)

    scores = q_emb @ c_emb.T  # (B, n_candidates)
    scores64 = scores.astype(np.float64)
    b = batch.size
    rows = np.arange(b)
    targets = rows * batch.block
    m = scores64.max(axis=1, keepdims=True)
    exp_scores = np.exp(scores64 - m)
    z = exp_scores.sum(axis=1, keepdims=True)
    losses = (m + np.log(z))[:, 0] - scores64[rows, targets]
    d_scores = exp_scores / z
    d_scores[rows, targets] -= 1.0
    d_scores /= b
    loss = float(losses.mean())
    if not math.isfinite(loss):
        raise RuntimeError(f"non-finite training loss: {loss}")

    dtype = q_emb.dtype
    d_scores_t = d_scores.astype(dtype)
    d_q = d_scores_t @ c_emb
    d_c = d_scores_t.T @ q_emb

    grads = zero_grads(params)
    backprop_tower(params.tower, q_cache, d_q, grads)
    backprop_tower(params.tower, c_cache, d_c, grads)
    return BatchResult(loss=loss, grads=grads)


# ---------------------------------------------------------------------------
# Optimizer


@dataclass
class AdamState:
    """Adam moments of the tower.

    ``m`` and ``v`` are shaped like the gradients: the token table's
    moments are a :class:`RowGrad` over the stage's live rows, the rows
    some gradient of the stage has touched, and every other tensor's are
    dense. A token-table moment is table-sized only once the stage has
    touched every row.
    """

    m: Tower
    v: Tower
    t: int = 0

    @classmethod
    def for_params(cls, params: EncoderParams) -> "AdamState":
        return cls(m=zero_grads(params), v=zero_grads(params))


def adam_step(
    params: EncoderParams,
    grads: Tower,
    state: AdamState,
    lr: float,
) -> None:
    """One in-place Adam update over every tensor of the tower.

    Exact dense Adam, run over the live rows only. A token-table row
    becomes live, with zero moments, the first step of the stage whose
    gradient touches it; from then on its moments decay and it moves
    every step, touched or not. A row no gradient of the stage has touched
    has m = v = 0, which dense Adam moves by lr * 0 / (0 + eps) = 0, so
    it is left out. Every row of the other tensors is live.
    """
    state.t += 1
    t = state.t
    bias1 = 1.0 - ADAM_BETA1**t
    bias2 = 1.0 - ADAM_BETA2**t
    for name, param in params.tower.tensors().items():
        g, m, v = (getattr(tower, name) for tower in (grads, state.m, state.v))
        if isinstance(g, RowGrad):
            slots = m.include(g.rows)
            # v's rows are m's, so they grow only on a step where m's did
            if len(v.rows) != len(m.rows):
                v.include(m.rows)
            live = param[m.rows]
            _adam_update(live, m.values, v.values, slots, g.values, lr, bias1, bias2)
            param[m.rows] = live
        else:
            _adam_update(param, m, v, ..., g, lr, bias1, bias2)


def _adam_update(
    param: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    slots,
    g: np.ndarray,
    lr: float,
    bias1: float,
    bias2: float,
) -> None:
    """Adam over rows of a tensor, in place; ``g`` is the gradient of rows
    ``slots`` of ``param``, ``m`` and ``v``, and zero at the other rows."""
    m *= ADAM_BETA1
    m[slots] += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v[slots] += (1.0 - ADAM_BETA2) * g**2
    # param -= lr * (m / bias1) / (sqrt(v / bias2) + eps)
    m_hat = m / bias1
    v_hat = v / bias2
    np.sqrt(v_hat, out=v_hat)
    v_hat += ADAM_EPS
    np.multiply(lr, m_hat, out=m_hat)
    m_hat /= v_hat
    param -= m_hat


def lr_at(step: int, total_steps: int, base_lr: float, warmup_fraction: float) -> float:
    """Linear warmup for the first fraction of steps, then linear decay to 0.

    ``step`` is 0-based. The first step after warmup runs at the full base
    rate and the schedule would hit exactly 0 one step past the end.
    """
    if total_steps <= 0:
        return base_lr
    warmup = int(round(warmup_fraction * total_steps))
    if step < warmup:
        return base_lr * (step + 1) / warmup
    if total_steps == warmup:
        return base_lr
    return base_lr * (total_steps - step) / (total_steps - warmup)


# ---------------------------------------------------------------------------
# Training loop


@dataclass(frozen=True)
class TraceEntry:
    step: int
    stage: str
    loss: float


def write_loss_trace(trace: Sequence[TraceEntry], path) -> None:
    """Write the per-step loss record as ``step,stage,loss`` CSV."""
    rows = (f"{entry.step},{entry.stage},{entry.loss:.6f}" for entry in trace)
    write_lines(path, chain(["step,stage,loss"], rows))


def pretrain_examples(
    corpus: Sequence[Document], generated: Sequence[GeneratedQuerySet], mode: str
) -> list[MappedTriple]:
    """(generated query, source document) pairs for the pretraining stage.

    Pairs carry no hard negatives; supervision comes entirely from other
    in-batch candidates.
    """
    by_id = {doc.doc_id: doc for doc in corpus}
    examples: list[MappedTriple] = []
    for qset in generated:
        doc = by_id.get(qset.doc_id)
        if doc is None:
            raise ValueError(f"generated queries reference unknown doc_id {qset.doc_id!r}")
        for query_text in qset.queries:
            prefix = query_text if mode == "dce" else None
            examples.append(
                MappedTriple(query_text=query_text, positive=(prefix, doc.text), negatives=())
            )
    return examples


def finetune_examples(triples: Sequence[TrainingTriple], cfg: TrainConfig) -> list[MappedTriple]:
    """Mode-mapped triples, each trimmed to the configured negative count."""
    m = cfg.negatives_per_positive
    examples = []
    for i, triple in enumerate(triples):
        if len(triple.negatives) < m:
            raise ValueError(
                f"triple {i} ({triple.query.query_id!r}) has {len(triple.negatives)} "
                f"negatives, need {m}"
            )
        trimmed = TrainingTriple(triple.query, triple.positive, triple.negatives[:m])
        examples.append(map_triple(trimmed, cfg.mode))
    return examples


def train(
    params: EncoderParams,
    triples: Sequence[TrainingTriple],
    cfg: TrainConfig,
    corpus: Sequence[Document] | None = None,
    generated: Sequence[GeneratedQuerySet] | None = None,
) -> list[TraceEntry]:
    """Train ``params`` in place; returns the per-step loss trace.

    Pretraining (when ``epochs_pretrain > 0``) requires ``corpus`` and
    ``generated``. Both stages' inputs are checked before either runs.
    Optimizer state is fresh per stage, and the step counter in the trace
    runs across both stages. Each epoch's mean step loss is logged at
    INFO level as ``<stage> epoch i/n loss x``. Both stages featurize
    through one :class:`FeatureTable`, which featurizes each stage's
    queries and candidates in one pass and keeps them for all its epochs;
    it is dropped on return.
    Deterministic for a fixed (params, data, cfg).
    """
    stages = []
    if cfg.epochs_pretrain > 0:
        if corpus is None or generated is None:
            raise ValueError("pretraining requires a corpus and generated queries")
        examples = pretrain_examples(corpus, generated, cfg.mode)
        if len(examples) < 2:
            raise ValueError("pretraining requires at least 2 (query, document) pairs")
        stages.append(("pretrain", examples, cfg.pretrain_batch_size, cfg.epochs_pretrain))
    if cfg.epochs_finetune > 0:
        if not triples:
            raise ValueError("finetuning requires training triples")
        if len(triples) < 2:
            raise ValueError("finetuning requires at least 2 triples")
        examples = finetune_examples(triples, cfg)
        stages.append(("finetune", examples, cfg.batch_size, cfg.epochs_finetune))
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    trace: list[TraceEntry] = []
    table = FeatureTable(params.config)
    for stage, examples, batch_size, epochs in stages:
        log.info("%s on %d examples for %d epochs", stage, len(examples), epochs)
        requests = ([(ex.query_text, None), ex.positive, *ex.negatives] for ex in examples)
        table.queue(chain.from_iterable(requests))
        n = len(examples)
        # a last batch of one example has nothing to share and is dropped;
        # every stage has n >= 2 and batch_size >= 2, so at least one batch
        spans = [(s, min(s + batch_size, n)) for s in range(0, n, batch_size) if n - s >= 2]
        total_steps = epochs * len(spans)
        state = AdamState.for_params(params)
        first = len(trace)
        for epoch in range(epochs):
            order = rng.permutation(n)
            for start, end in spans:
                batch = build_batch([examples[j] for j in order[start:end]])
                result = loss_and_grads(params, batch, table)
                lr = lr_at(len(trace) - first, total_steps, cfg.learning_rate, cfg.warmup_fraction)
                adam_step(params, result.grads, state, lr)
                trace.append(TraceEntry(step=len(trace), stage=stage, loss=result.loss))
            epoch_loss = np.mean([entry.loss for entry in trace[-len(spans) :]])
            log.info("%s epoch %d/%d loss %.4f", stage, epoch + 1, epochs, epoch_loss)
    return trace
