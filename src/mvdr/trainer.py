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

Optimization is plain Adam over the tower tensors with a linear
warmup-then-decay schedule per stage. Two stages are supported: an
optional pretraining pass over (generated query, document) pairs with
in-batch negatives only, then finetuning on the triples.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .corpus import Document, GeneratedQuerySet, TrainingTriple
from .encoder import (
    EncoderParams,
    Tower,
    backprop_tower,
    candidate_feature_buckets,
    forward_tower,
    query_feature_buckets,
)

log = logging.getLogger(__name__)

MODES = ("de", "dce")

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
        if not self.learning_rate >= 0.0:
            raise ValueError("learning_rate must be >= 0")
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
    grads: dict[str, Tower]


def zero_grads(params: EncoderParams) -> dict[str, Tower]:
    return {role: Tower.zeros_like(t) for role, t in params.towers().items()}


def loss_and_grads(params: EncoderParams, batch: TrainBatch) -> BatchResult:
    """Mean batch loss and parameter gradients, by hand-rolled backprop.

    Each row of the ``(B, B * block)`` score matrix is one softmax over
    every candidate in the batch, with the target at ``i * block``.
    Arithmetic follows the parameter dtype except the softmax itself,
    which always runs in float64 for stability.
    """
    cfg = params.config
    q_buckets = [query_feature_buckets(cfg, t) for t in batch.query_texts]
    c_buckets = [candidate_feature_buckets(cfg, p) for p in batch.candidates]
    q_emb, q_cache = forward_tower(params.query_tower, q_buckets, want_cache=True)
    c_emb, c_cache = forward_tower(params.doc_tower, c_buckets, want_cache=True)

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
    q_grads = grads["query"]
    c_grads = grads["query"] if params.tied else grads["doc"]
    backprop_tower(params.query_tower, q_cache, d_q, q_grads)
    backprop_tower(params.doc_tower, c_cache, d_c, c_grads)
    return BatchResult(loss=loss, grads=grads)


# ---------------------------------------------------------------------------
# Optimizer


@dataclass
class AdamState:
    """First/second moment accumulators per distinct tower, keyed by role."""

    m: dict[str, Tower]
    v: dict[str, Tower]
    t: int = 0

    @classmethod
    def for_params(cls, params: EncoderParams) -> "AdamState":
        return cls(m=zero_grads(params), v=zero_grads(params))


def adam_step(
    params: EncoderParams,
    grads: dict[str, Tower],
    state: AdamState,
    lr: float,
) -> None:
    """One in-place Adam update over every distinct tensor."""
    state.t += 1
    t = state.t
    bias1 = 1.0 - ADAM_BETA1**t
    bias2 = 1.0 - ADAM_BETA2**t
    for role, tower in params.towers().items():
        for name, param in tower.tensors().items():
            g = getattr(grads[role], name)
            m = getattr(state.m[role], name)
            v = getattr(state.v[role], name)
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g**2
            m_hat = m / bias1
            v_hat = v / bias2
            param -= (lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)).astype(param.dtype)


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
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("step,stage,loss\n")
        for entry in trace:
            handle.write(f"{entry.step},{entry.stage},{entry.loss:.6f}\n")


def _batch_starts(n: int, batch_size: int) -> list[tuple[int, int]]:
    """Batch spans; a last batch of one example has nothing to share and is dropped."""
    spans = []
    for start in range(0, n, batch_size):
        end = min(start + batch_size, n)
        if end - start >= 2:
            spans.append((start, end))
    return spans


def _run_stage(
    params: EncoderParams,
    stage: str,
    examples: Sequence[MappedTriple],
    batch_size: int,
    epochs: int,
    cfg: TrainConfig,
    rng: np.random.Generator,
    trace: list[TraceEntry],
    step_offset: int,
    progress: Callable[[str], None] | None = None,
) -> int:
    """Run one optimization stage; returns the global step counter."""
    spans = _batch_starts(len(examples), batch_size)
    total_steps = epochs * len(spans)
    if total_steps == 0:
        return step_offset
    state = AdamState.for_params(params)
    step = step_offset
    stage_step = 0
    for epoch in range(epochs):
        order = rng.permutation(len(examples))
        for start, end in spans:
            batch_examples = [examples[j] for j in order[start:end]]
            batch = build_batch(batch_examples)
            result = loss_and_grads(params, batch)
            lr = lr_at(stage_step, total_steps, cfg.learning_rate, cfg.warmup_fraction)
            adam_step(params, result.grads, state, lr)
            trace.append(TraceEntry(step=step, stage=stage, loss=result.loss))
            step += 1
            stage_step += 1
        if progress is not None:
            progress(f"{stage} epoch {epoch + 1}/{epochs} loss {result.loss:.4f}")
    return step


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
    progress: Callable[[str], None] | None = None,
) -> list[TraceEntry]:
    """Train ``params`` in place; returns the per-step loss trace.

    Pretraining (when ``epochs_pretrain > 0``) requires ``corpus`` and
    ``generated``. Optimizer state is fresh per stage, and the step
    counter in the trace runs across both stages. Deterministic for a
    fixed (params, data, cfg).
    """
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    trace: list[TraceEntry] = []
    step = 0
    if cfg.epochs_pretrain > 0:
        if corpus is None or generated is None:
            raise ValueError("pretraining requires a corpus and generated queries")
        examples = pretrain_examples(corpus, generated, cfg.mode)
        if len(examples) < 2:
            raise ValueError("pretraining requires at least 2 (query, document) pairs")
        log.info("pretraining on %d pairs for %d epochs", len(examples), cfg.epochs_pretrain)
        step = _run_stage(
            params,
            "pretrain",
            examples,
            cfg.pretrain_batch_size,
            cfg.epochs_pretrain,
            cfg,
            rng,
            trace,
            step,
            progress,
        )
    if cfg.epochs_finetune > 0:
        if not triples:
            raise ValueError("finetuning requires training triples")
        examples = finetune_examples(triples, cfg)
        log.info("finetuning on %d triples for %d epochs", len(examples), cfg.epochs_finetune)
        step = _run_stage(
            params,
            "finetune",
            examples,
            cfg.batch_size,
            cfg.epochs_finetune,
            cfg,
            rng,
            trace,
            step,
            progress,
        )
    return trace
