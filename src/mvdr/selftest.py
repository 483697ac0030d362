"""Independent reference implementations and a runnable self-check suite.

Everything in this module recomputes a result the package produces
elsewhere, by a deliberately different route: brute-force enumeration and
dynamic programming instead of bit-parallel LCS, exhaustive scoring
instead of top-k partitioning, finite differences instead of
backpropagation, dense Adam over every row instead of over the live rows.
The test suite and the ``selftest`` CLI command both compare the fast
paths against these references.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Mapping, Sequence

import numpy as np

from . import analysis, evaluation, trainer
from .corpus import Qrels, Query
from .encoder import (
    EncoderConfig,
    EncoderParams,
    FeatureTable,
    RowGrad,
    Tower,
    candidate_feature_buckets,
    encode_queries,
    forward_tower,
    init_params,
    query_feature_buckets,
)
from .index import _BLOCK_QUERIES, FlatIndex, search, search_corpus, search_prefixes
from .trainer import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    TrainBatch,
    adam_step,
    build_batch,
    contrastive_loss,
    loss_and_grads,
)

# Known-good (query-set quality, retrieval effectiveness) measurement
# pairs whose correlation is 0.9958. Regression fixture for the
# correlation op; the values are data, not targets to reproduce.
PEARSON_FIXTURE_PAIRS = (
    (42.49, 27.74),
    (50.93, 30.09),
    (55.67, 31.15),
    (58.45, 31.66),
    (60.63, 31.92),
    (62.28, 32.38),
    (63.57, 32.67),
    (64.62, 32.88),
    (65.46, 32.96),
    (66.22, 33.23),
)
PEARSON_FIXTURE_EXPECTED = 0.9958
PEARSON_FIXTURE_TOL = 5e-4


# ---------------------------------------------------------------------------
# Text-overlap references


def lcs_reference(a: Sequence[str], b: Sequence[str]) -> int:
    """Longest common subsequence by enumerating subsequences of the
    shorter side (exponential; keep inputs short)."""
    short, long_ = (a, b) if len(a) <= len(b) else (b, a)

    def is_subsequence(sub: Sequence[str], seq: Sequence[str]) -> bool:
        it = iter(seq)
        return all(tok in it for tok in sub)

    for length in range(len(short), 0, -1):
        for idxs in combinations(range(len(short)), length):
            if is_subsequence([short[i] for i in idxs], long_):
                return length
    return 0


def lcs_dp_reference(a: Sequence[str], b: Sequence[str]) -> int:
    """Longest common subsequence length by the O(len(a) * len(b)) dynamic
    program over prefixes; the reference for inputs too long to enumerate."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, 1):
            if x == y:
                cur.append(prev[j - 1] + 1)
            else:
                cur.append(max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def rouge_l_reference(
    cand_tokens: Sequence[str],
    ref_tokens: Sequence[str],
    lcs_length: Callable[[Sequence[str], Sequence[str]], int] = lcs_reference,
) -> float:
    lcs = lcs_length(cand_tokens, ref_tokens)
    if lcs == 0:
        return 0.0
    p = lcs / len(cand_tokens)
    r = lcs / len(ref_tokens)
    return 2 * p * r / (p + r)


def bleu4_reference(
    hyp: Sequence[str], refs: Sequence[Sequence[str]], eps: float = 1e-9
) -> float:
    """BLEU-4 recomputed with plain dict counting and a product-form
    geometric mean."""
    precisions = []
    for n in range(1, 5):
        hyp_counts: dict[tuple, int] = {}
        for i in range(len(hyp) - n + 1):
            gram = tuple(hyp[i : i + n])
            hyp_counts[gram] = hyp_counts.get(gram, 0) + 1
        total = sum(hyp_counts.values())
        if total == 0:
            precisions.append(eps)
            continue
        clipped = 0
        for gram, count in hyp_counts.items():
            best = 0
            for ref in refs:
                ref_count = 0
                for i in range(len(ref) - n + 1):
                    if tuple(ref[i : i + n]) == gram:
                        ref_count += 1
                best = max(best, ref_count)
            clipped += min(count, best)
        precisions.append(clipped / total if clipped > 0 else eps)
    geo = (precisions[0] * precisions[1] * precisions[2] * precisions[3]) ** 0.25
    h_len = len(hyp)
    closest = min(refs, key=lambda r: (abs(len(r) - h_len), len(r)))
    if h_len >= len(closest):
        bp = 1.0
    elif h_len == 0:
        bp = 0.0
    else:
        bp = math.exp(1 - len(closest) / h_len)
    return bp * geo


def self_bleu4_reference(token_lists: Sequence[Sequence[str]]) -> float:
    scores = []
    for i, hyp in enumerate(token_lists):
        refs = [r for j, r in enumerate(token_lists) if j != i]
        scores.append(bleu4_reference(hyp, refs))
    return sum(scores) / len(scores)


def pearson_reference(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation from the defining sums."""
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    vx = sum((x - mx) ** 2 for x in xs)
    vy = sum((y - my) ** 2 for y in ys)
    return cov / math.sqrt(vx * vy)


# ---------------------------------------------------------------------------
# Ranking-metric references (plain-dict inputs, straight loops)


def mrr_reference(
    ranked: Mapping[str, Sequence[str]],
    grades: Mapping[str, Mapping[str, int]],
    k: int,
    threshold: int = 1,
) -> float:
    total = 0.0
    for query_id, doc_grades in grades.items():
        docs = list(ranked.get(query_id, ()))[:k]
        for pos, doc_id in enumerate(docs, 1):
            if doc_grades.get(doc_id, 0) >= threshold:
                total += 1.0 / pos
                break
    return total / len(grades)


def recall_reference(
    ranked: Mapping[str, Sequence[str]],
    grades: Mapping[str, Mapping[str, int]],
    k: int,
    threshold: int = 1,
) -> float:
    values = []
    for query_id, doc_grades in grades.items():
        relevant = {d for d, g in doc_grades.items() if g >= threshold}
        if not relevant:
            continue
        hits = sum(1 for d in list(ranked.get(query_id, ()))[:k] if d in relevant)
        values.append(hits / len(relevant))
    return sum(values) / len(values)


def ndcg_reference(
    ranked: Mapping[str, Sequence[str]],
    grades: Mapping[str, Mapping[str, int]],
    k: int,
) -> float:
    values = []
    for query_id, doc_grades in grades.items():
        dcg = 0.0
        for pos, doc_id in enumerate(list(ranked.get(query_id, ()))[:k], 1):
            dcg += (2 ** doc_grades.get(doc_id, 0) - 1) / math.log2(pos + 1)
        ideal = sorted(doc_grades.values(), reverse=True)[:k]
        idcg = sum((2**g - 1) / math.log2(pos + 1) for pos, g in enumerate(ideal, 1))
        values.append(dcg / idcg if idcg > 0 else 0.0)
    return sum(values) / len(values)


# ---------------------------------------------------------------------------
# Retrieval reference


def exhaustive_maxpool(
    matrix: np.ndarray, row_doc_ids: Sequence[str], query_emb: np.ndarray
) -> list[tuple[str, float]]:
    """Score every row, pool per document by max, rank all documents.

    The reference for index search: no row cutoff, no partitioning.
    """
    q = np.asarray(query_emb, dtype=np.float64)
    best: dict[str, float] = {}
    for row, doc_id in zip(matrix, row_doc_ids):
        s = float(np.dot(row.astype(np.float64), q))
        if doc_id not in best or s > best[doc_id]:
            best[doc_id] = s
    return sorted(best.items(), key=lambda t: (-t[1], t[0]))


# ---------------------------------------------------------------------------
# Encoder references


def mean_pool_reference(table: np.ndarray, buckets: Sequence[np.ndarray]) -> np.ndarray:
    """Mean of each input's table rows, one input at a time.

    The reference for :func:`forward_tower`, which pools every input of a
    feature count together.
    """
    return np.stack([table[b].mean(axis=0) for b in buckets])


def batch_loss(params: EncoderParams, batch: TrainBatch) -> float:
    """Forward-only batch loss, composed from the scalar loss op."""
    table = FeatureTable(params.config)
    q_buckets = [query_feature_buckets(table, t) for t in batch.query_texts]
    c_buckets = [candidate_feature_buckets(table, p) for p in batch.candidates]
    q_emb, _ = forward_tower(params.query_tower, q_buckets)
    c_emb, _ = forward_tower(params.doc_tower, c_buckets)
    scores = (q_emb @ c_emb.T).astype(np.float64)
    losses = []
    for i in range(batch.size):
        target = batch.positive_column(i)
        negs = [scores[i, j] for j in range(scores.shape[1]) if j != target]
        losses.append(contrastive_loss(scores[i, target], negs))
    return sum(losses) / len(losses)


def finite_difference_grads(
    params: EncoderParams, batch: TrainBatch, step: float = 1e-5
) -> dict[str, dict[str, np.ndarray]]:
    """Central finite differences of the batch loss w.r.t. every tensor."""
    out: dict[str, dict[str, np.ndarray]] = {}
    for role, tower in params.towers().items():
        tower_grads = {}
        for name, arr in tower.tensors().items():
            grad = np.zeros_like(arr)
            flat = arr.reshape(-1)
            grad_flat = grad.reshape(-1)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + step
                loss_plus = batch_loss(params, batch)
                flat[idx] = orig - step
                loss_minus = batch_loss(params, batch)
                flat[idx] = orig
                grad_flat[idx] = (loss_plus - loss_minus) / (2 * step)
            tower_grads[name] = grad
        out[role] = tower_grads
    return out


def gradient_relative_errors(
    params: EncoderParams, batch: TrainBatch, step: float = 1e-5
) -> dict[str, float]:
    """Per-tensor relative error between backprop and finite differences.

    Error is ``||analytic - numeric|| / max(||analytic||, ||numeric||)``
    (0 when both are exactly zero). The token table's row gradient is
    compared as the dense table it stands for.
    """
    analytic = loss_and_grads(params, batch, FeatureTable(params.config)).grads
    numeric = finite_difference_grads(params, batch, step=step)
    errors = {}
    for role, tower_grads in numeric.items():
        for name, fd in tower_grads.items():
            bp = analytic[role].tensors()[name]
            if isinstance(bp, RowGrad):
                bp = bp.to_dense(len(fd))
            denom = max(np.linalg.norm(bp), np.linalg.norm(fd))
            diff = np.linalg.norm(bp - fd)
            errors[f"{role}.{name}"] = float(diff / denom) if denom > 0 else 0.0
    return errors


# ---------------------------------------------------------------------------
# Optimizer reference


@dataclass
class DenseAdamState:
    """Textbook Adam state: a dense m and v for every tensor of every
    distinct tower, token table included."""

    m: dict[str, Tower]
    v: dict[str, Tower]
    t: int = 0

    @classmethod
    def for_params(cls, params: EncoderParams) -> "DenseAdamState":
        def zeros() -> dict[str, Tower]:
            return {
                role: Tower(**{name: np.zeros_like(arr) for name, arr in t.tensors().items()})
                for role, t in params.towers().items()
            }

        return cls(m=zeros(), v=zeros())


def adam_step_reference(
    params: EncoderParams, grads: dict[str, Tower], state: DenseAdamState, lr: float
) -> None:
    """Kingma & Ba's Adam over dense gradients: both moments of every row
    of every tensor decay, and every row moves, each step.

    The reference for :func:`trainer.adam_step`, which runs the same
    element-wise arithmetic over the live rows only.
    """
    state.t += 1
    bias1 = 1.0 - ADAM_BETA1**state.t
    bias2 = 1.0 - ADAM_BETA2**state.t
    for role, tower in params.towers().items():
        for name, param in tower.tensors().items():
            g = getattr(grads[role], name)
            if isinstance(g, RowGrad):
                g = g.to_dense(len(param))
            m = getattr(state.m[role], name)
            v = getattr(state.v[role], name)
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g**2
            param -= lr * (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)


def dense_moments(
    params: EncoderParams, state: AdamState
) -> tuple[dict[str, Tower], dict[str, Tower]]:
    """``state``'s m and v, each token-table moment as the dense table it
    stands for."""
    n_rows = params.config.hash_buckets

    def dense(towers: dict[str, Tower]) -> dict[str, Tower]:
        return {
            role: Tower(**{**t.tensors(), "token_table": t.token_table.to_dense(n_rows)})
            for role, t in towers.items()
        }

    return dense(state.m), dense(state.v)


# ---------------------------------------------------------------------------
# Random instance generators shared by tests and the selftest command


def random_ranking_instance(
    rng: np.random.Generator,
) -> tuple[dict[str, list[str]], dict[str, dict[str, int]]]:
    """A random run + judgment set exercising metric edge cases."""
    n_queries = int(rng.integers(2, 6))
    n_docs = int(rng.integers(5, 25))
    doc_ids = [f"d{i}" for i in range(n_docs)]
    ranked: dict[str, list[str]] = {}
    grades: dict[str, dict[str, int]] = {}
    for qi in range(n_queries):
        query_id = f"q{qi}"
        judged = rng.choice(n_docs, size=int(rng.integers(1, n_docs + 1)), replace=False)
        grades[query_id] = {doc_ids[int(d)]: int(rng.integers(0, 4)) for d in judged}
        # some queries are missing from the run entirely
        if rng.random() < 0.15:
            continue
        depth = int(rng.integers(1, n_docs + 1))
        order = rng.permutation(n_docs)[:depth]
        ranked[query_id] = [doc_ids[int(d)] for d in order]
    return ranked, grades


def random_index(
    rng: np.random.Generator, n_docs: int, k_views: int, dim: int
) -> FlatIndex:
    doc_ids = [f"d{i:05d}" for i in range(n_docs)]
    matrix = rng.normal(size=(n_docs * k_views, dim)).astype(np.float32)
    return FlatIndex(matrix=matrix, doc_ids=doc_ids, k_views=k_views)


def random_token_list(rng: np.random.Generator, max_len: int = 8) -> list[str]:
    vocab = list("abcdefgh")
    length = int(rng.integers(1, max_len + 1))
    return [vocab[int(i)] for i in rng.integers(0, len(vocab), size=length)]


# Documents of the self-check training batches.
_BATCH_DOCS = (
    "solar panels convert sunlight into electricity",
    "the court ruled on the appeal last spring",
    "rivers carry sediment toward the delta",
    "a vaccine primes the immune system",
    "the bridge spans a tidal strait",
    "markets closed higher after the report",
    "the recipe calls for fresh basil",
    "glaciers retreat as summers lengthen",
    "the satellite relays weather imagery",
    "miners extract ore from the seam",
    "the novel follows two estranged siblings",
    "bees pollinate the orchard in april",
    "the turbine hall hums day and night",
    "archaeologists dated the site to the bronze age",
    "the ferry crossing takes forty minutes",
    "drought stressed the wheat harvest",
)


def _batch(*triples: tuple[str, int, Sequence[int]]) -> TrainBatch:
    """A query-informed batch of (query, positive doc, negative docs)
    triples, docs given by their position in ``_BATCH_DOCS``."""
    return build_batch(
        [
            trainer.MappedTriple(
                query_text=query,
                positive=(query, _BATCH_DOCS[positive]),
                negatives=tuple((query, _BATCH_DOCS[i]) for i in negatives),
            )
            for query, positive, negatives in triples
        ]
    )


def _gradcheck_batch() -> tuple[EncoderParams, TrainBatch]:
    cfg = EncoderConfig(
        embed_dim=6, hash_buckets=32, ngram_orders=(1, 2), max_query_tokens=8, max_doc_tokens=16
    )
    params = init_params(cfg, seed=11, dtype=np.float64)
    batch = _batch(
        ("how do solar panels work", 0, range(1, 8)),
        ("what did the court decide", 1, range(8, 15)),
    )
    return params, batch


# ---------------------------------------------------------------------------
# Suite runner


@dataclass(frozen=True)
class SelftestResult:
    name: str
    passed: bool
    detail: str


def _check_uniform_loss() -> SelftestResult:
    worst = 0.0
    for n in (1, 7, 255):
        got = contrastive_loss(0.0, [0.0] * n)
        worst = max(worst, abs(got - math.log(n + 1)))
    ok = worst <= 1e-9
    return SelftestResult("contrastive-loss-uniform", ok, f"max deviation {worst:.3e}")


def _check_gradients() -> SelftestResult:
    """Backprop against finite differences, and the pooled rows of the
    forward pass against the one-input-at-a-time mean, bit for bit."""
    params, batch = _gradcheck_batch()
    errors = gradient_relative_errors(params, batch)
    worst_name, worst = max(errors.items(), key=lambda kv: kv[1])
    table = FeatureTable(params.config)
    towers_and_inputs = (
        (params.query_tower, [query_feature_buckets(table, t) for t in batch.query_texts]),
        (params.doc_tower, [candidate_feature_buckets(table, p) for p in batch.candidates]),
    )
    pool_mismatches = 0
    for tower, buckets in towers_and_inputs:
        _, cache = forward_tower(tower, buckets)
        want = mean_pool_reference(tower.token_table, buckets)
        pool_mismatches += int((cache.pooled != want).any(axis=1).sum())
    ok = worst <= 1e-4 and pool_mismatches == 0
    detail = f"worst {worst_name}: {worst:.3e}; pooled rows off the reference: {pool_mismatches}"
    return SelftestResult("gradient-check", ok, detail)


def _check_adam() -> SelftestResult:
    """The live-row Adam step against dense Adam over a few real training
    batches, tied and untied, every parameter and moment compared exactly.

    The first batch's rows are never touched again, so their moments
    decay while they stay live."""
    first = _batch(
        ("how do solar panels work", 0, range(1, 8)),
        ("what did the court decide", 1, range(8, 15)),
    )
    later = _batch(("when do bees pollinate", 11, [12]), ("how long is the ferry", 14, [15]))
    mismatched = []
    live = []
    for tied in (True, False):
        cfg = EncoderConfig(embed_dim=8, hash_buckets=512, tie_params=tied, max_doc_tokens=16)
        fast = init_params(cfg, seed=13)
        ref = fast.copy()
        state, ref_state = AdamState.for_params(fast), DenseAdamState.for_params(ref)
        table = FeatureTable(cfg)
        for step, batch in enumerate([first, later, later, later]):
            lr = 0.05 / (step + 1)
            adam_step(fast, loss_and_grads(fast, batch, table).grads, state, lr)
            adam_step_reference(ref, loss_and_grads(ref, batch, table).grads, ref_state, lr)
        live.append(len(state.m["query"].token_table.rows))
        got = (fast.towers(), *dense_moments(fast, state))
        want = (ref.towers(), ref_state.m, ref_state.v)
        for what, got_towers, want_towers in zip(("param", "m", "v"), got, want):
            for role, tower in got_towers.items():
                for name, arr in tower.tensors().items():
                    if not np.array_equal(arr, getattr(want_towers[role], name)):
                        mismatched.append(f"{'tied' if tied else 'untied'} {what} {role}.{name}")
    detail = f"4 steps, live rows {live[0]} (tied) and {live[1]} (untied query) of 512"
    if mismatched:
        detail += "; differ: " + ", ".join(mismatched)
    return SelftestResult("adam-live-rows", not mismatched, detail)


def _check_retrieval() -> SelftestResult:
    """search over every view, search_prefixes over each prefix of k views
    and search_corpus, against exhaustive max-pooling over those views'
    rows. search_prefixes and search_corpus rank enough queries for two
    full blocks and a short last one."""
    rng = np.random.default_rng(5150)
    index = random_index(rng, n_docs=100, k_views=4, dim=16)
    queries = rng.normal(size=(2 * _BLOCK_QUERIES + 6, 16))
    docs, scores = search_prefixes(index, queries, top_k_docs=10)
    ids = np.array(index.doc_ids, dtype=object)
    params = init_params(EncoderConfig(embed_dim=16, hash_buckets=256), seed=17)
    texts = [f"term{i % 13} word{i % 5} query{i}" for i in range(len(queries))]
    ranked = search_corpus(params, index, [Query(f"q{i}", t) for i, t in enumerate(texts)], 10)
    # (kernel, k views, query, ranked (doc_id, score) pairs)
    cases = [
        ("search", index.k_views, q, [(r.doc_id, r.score) for r in search(index, q, 10).results])
        for q in queries[:10]
    ]
    cases += [
        ("search_prefixes", k, q, list(zip(ids[docs[k - 1, i]], scores[k - 1, i])))
        for k in range(1, index.k_views + 1)
        for i, q in enumerate(queries)
    ]
    cases += [
        ("search_corpus", index.k_views, emb, [(r.doc_id, r.score) for r in rl.results])
        for emb, rl in zip(encode_queries(params, texts), ranked)
    ]
    views = index.matrix.reshape(index.n_docs, index.k_views, index.embed_dim)
    worst = 0.0
    for kernel, k, q, got in cases:
        rows = views[:, :k].reshape(-1, index.embed_dim)
        want = exhaustive_maxpool(rows, [d for d in index.doc_ids for _ in range(k)], q)[:10]
        if [d for d, _ in got] != [d for d, _ in want]:
            detail = f"{kernel}: document order mismatch at k={k}"
            return SelftestResult("retrieval-maxpool", False, detail)
        worst = max(worst, max(abs(s - w) for (_, s), (_, w) in zip(got, want)))
    ok = worst <= 1e-6
    detail = (
        f"search, every view prefix and search_corpus over {len(queries)} queries: "
        f"max score deviation {worst:.3e}"
    )
    return SelftestResult("retrieval-maxpool", ok, detail)


def _check_metrics() -> SelftestResult:
    rng = np.random.default_rng(907)
    worst = 0.0
    for _ in range(25):
        ranked, grades = random_ranking_instance(rng)
        qrels = Qrels({(q, d): g for q, dg in grades.items() for d, g in dg.items()})
        run = evaluation.Run(
            {
                q: [
                    evaluation.RunEntry(d, i, float(len(docs) - i))
                    for i, d in enumerate(docs, 1)
                ]
                for q, docs in ranked.items()
            }
        )
        k = int(rng.integers(1, 12))
        pairs = (
            (evaluation.mrr_at_k(run, qrels, k=k).aggregate, mrr_reference(ranked, grades, k)),
            (evaluation.ndcg_at_k(run, qrels, k=k).aggregate, ndcg_reference(ranked, grades, k)),
        )
        if any(len(dg) and max(dg.values()) >= 1 for dg in grades.values()):
            pairs += (
                (
                    evaluation.recall_at_k(run, qrels, k=k).aggregate,
                    recall_reference(ranked, grades, k),
                ),
            )
        worst = max(worst, max(abs(a - b) for a, b in pairs))
    ok = worst <= 1e-9
    return SelftestResult("ranking-metrics", ok, f"max deviation {worst:.3e}")


def _check_text_overlap() -> SelftestResult:
    rng = np.random.default_rng(33)
    worst = 0.0
    for _ in range(25):
        cand = random_token_list(rng)
        ref = random_token_list(rng)
        got = analysis.rouge_l(" ".join(cand), " ".join(ref))
        want = rouge_l_reference(cand, ref)
        worst = max(worst, abs(got - want))
        n = int(rng.integers(2, 5))
        token_lists = [random_token_list(rng) for _ in range(n)]
        got_sb = analysis.self_bleu_4([" ".join(t) for t in token_lists])
        want_sb = self_bleu4_reference(token_lists)
        worst = max(worst, abs(got_sb - want_sb))
        # long pairs cross the 64-bit words of the bit-parallel LCS
        cand = random_token_list(rng, max_len=80)
        ref = random_token_list(rng, max_len=80)
        got = analysis.rouge_l(" ".join(cand), " ".join(ref))
        worst = max(worst, abs(got - rouge_l_reference(cand, ref, lcs_dp_reference)))
    ok = worst <= 1e-9
    return SelftestResult("text-overlap", ok, f"max deviation {worst:.3e}")


def _check_pearson() -> SelftestResult:
    xs = [p[0] for p in PEARSON_FIXTURE_PAIRS]
    ys = [p[1] for p in PEARSON_FIXTURE_PAIRS]
    got = analysis.pearson(xs, ys)
    ref = pearson_reference(xs, ys)
    dev_fixture = abs(got - PEARSON_FIXTURE_EXPECTED)
    dev_ref = abs(got - ref)
    ok = dev_fixture <= PEARSON_FIXTURE_TOL and dev_ref <= 1e-12
    return SelftestResult(
        "quality-correlation", ok, f"value {got:.6f}, fixture deviation {dev_fixture:.2e}"
    )


def run_selftest() -> list[SelftestResult]:
    """Run every suite; a failed suite does not stop the rest."""
    checks = (
        _check_uniform_loss,
        _check_gradients,
        _check_adam,
        _check_retrieval,
        _check_metrics,
        _check_text_overlap,
        _check_pearson,
    )
    results = []
    for check in checks:
        try:
            results.append(check())
        except Exception as exc:  # a crashed suite is a failed suite
            results.append(SelftestResult(check.__name__, False, f"raised {exc!r}"))
    return results
