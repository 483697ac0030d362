import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvdr.corpus import Document, GeneratedQuerySet, Query, TrainingTriple
from mvdr.encoder import (
    EncoderConfig,
    RowGrad,
    backprop_tower,
    candidate_feature_buckets,
    forward_tower,
    init_params,
    query_feature_buckets,
)
from mvdr.selftest import batch_loss, gradient_relative_errors
from mvdr.trainer import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    TraceEntry,
    TrainConfig,
    adam_step,
    build_batch,
    contrastive_loss,
    finetune_examples,
    loss_and_grads,
    lr_at,
    map_triple,
    pretrain_examples,
    train,
    write_loss_trace,
    zero_grads,
)

SMALL_CFG = EncoderConfig(
    embed_dim=6, hash_buckets=64, ngram_orders=(1, 2), max_query_tokens=8, max_doc_tokens=12
)


class TestContrastiveLoss:
    @pytest.mark.parametrize("n", [1, 7, 255])
    def test_uniform_scores(self, n):
        # all candidates equal means a uniform softmax over n + 1 entries
        assert contrastive_loss(0.0, [0.0] * n) == pytest.approx(math.log(n + 1), abs=1e-9)

    def test_confident_positive(self):
        assert contrastive_loss(10.0, [0.0, 0.0]) == pytest.approx(
            9.079573746717529e-05, abs=1e-18
        )

    def test_large_scores_stable(self):
        assert math.isfinite(contrastive_loss(1e4, [1e4 - 1.0]))

    def test_no_negatives_rejected(self):
        with pytest.raises(ValueError, match="at least one negative"):
            contrastive_loss(1.0, [])

    @given(
        st.floats(-50, 50),
        st.lists(st.floats(-50, 50), min_size=1, max_size=6),
        st.floats(-100, 100),
    )
    @settings(max_examples=80)
    def test_shift_invariance(self, pos, negs, shift):
        base = contrastive_loss(pos, negs)
        shifted = contrastive_loss(pos + shift, [s + shift for s in negs])
        assert shifted == pytest.approx(base, rel=1e-9, abs=1e-9)


class TestTripleMapping:
    def test_dce_keeps_query_prefix(self, tiny_triples):
        mapped = map_triple(tiny_triples[0], "dce")
        assert mapped.positive == ("how do solar panels work", tiny_triples[0].positive.text)
        assert all(prefix == "how do solar panels work" for prefix, _ in mapped.negatives)

    def test_de_drops_prefix(self, tiny_triples):
        mapped = map_triple(tiny_triples[0], "de")
        assert mapped.positive[0] is None
        assert all(prefix is None for prefix, _ in mapped.negatives)

    def test_unknown_mode(self, tiny_triples):
        with pytest.raises(ValueError, match="mode"):
            map_triple(tiny_triples[0], "cross")


class TestBatchLayout:
    def test_columns(self, tiny_triples):
        mapped = [map_triple(t, "dce") for t in tiny_triples]
        batch = build_batch(mapped)
        assert batch.size == 2
        assert batch.block == 3
        assert batch.positive_column(0) == 0
        assert batch.positive_column(1) == 3
        assert len(batch.candidates) == 6

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            build_batch([])

    def test_single_triple_needs_own_negatives(self, tiny_triples):
        mapped = [map_triple(tiny_triples[0], "dce")]
        with pytest.raises(ValueError, match="at least 2"):
            build_batch(mapped)

    def test_uneven_negative_counts_rejected(self, tiny_triples):
        short = TrainingTriple(
            tiny_triples[1].query, tiny_triples[1].positive, tiny_triples[1].negatives[:1]
        )
        mapped = [map_triple(tiny_triples[0], "dce"), map_triple(short, "dce")]
        with pytest.raises(ValueError, match="negative"):
            build_batch(mapped)


def _shaped_batch(shape, mode, docs, triples):
    """A finetuning batch (two triples, block 3), one whose four candidates
    are all distinct (two triples, block 2), or a pretraining one (four
    generated-query pairs, no hard negatives, block 1)."""
    if shape == "distinct":
        by_id = {d.doc_id: d for d in docs}
        distinct = [
            TrainingTriple(Query("q1", "solar power"), by_id["d1"], (by_id["d3"],)),
            TrainingTriple(Query("q2", "appeal ruling"), by_id["d2"], (by_id["d4"],)),
        ]
        return build_batch([map_triple(t, mode) for t in distinct])
    if shape == "pretrain":
        generated = [
            GeneratedQuerySet("d1", ("sunlight electricity",)),
            GeneratedQuerySet("d2", ("appeal ruling",)),
            GeneratedQuerySet("d3", ("river sediment",)),
            GeneratedQuerySet("d4", ("immune vaccine",)),
        ]
        return build_batch(pretrain_examples(docs, generated, mode))
    return build_batch([map_triple(t, mode) for t in triples])


class TestGradients:
    def test_loss_matches_forward_only_evaluation(self, tiny_docs, tiny_triples):
        params = init_params(SMALL_CFG, seed=9, dtype=np.float64)
        for mode in ("dce", "de"):
            for shape in ("finetune", "pretrain"):
                batch = _shaped_batch(shape, mode, tiny_docs, tiny_triples)
                result = loss_and_grads(params, batch)
                assert result.loss == pytest.approx(batch_loss(params, batch), abs=1e-12)

    @pytest.mark.parametrize(
        "mode, shape",
        [
            pytest.param("dce", "finetune", id="dce"),
            pytest.param("de", "finetune", id="de"),
            # tiny_triples holds d2 at two columns, which hides a wrong target column in `de`
            pytest.param("de", "distinct", id="de-distinct"),
            ("dce", "pretrain"),
            ("de", "pretrain"),
        ],
    )
    def test_analytic_matches_finite_differences(self, tiny_docs, tiny_triples, mode, shape):
        params = init_params(SMALL_CFG, seed=9, dtype=np.float64)
        batch = _shaped_batch(shape, mode, tiny_docs, tiny_triples)
        assert batch.block == {"finetune": 3, "distinct": 2, "pretrain": 1}[shape]
        errors = gradient_relative_errors(params, batch)
        assert max(errors.values()) <= 1e-6

    def test_untied_towers_get_separate_grads(self, tiny_docs, tiny_triples):
        cfg = EncoderConfig(embed_dim=4, hash_buckets=32, tie_params=False)
        params = init_params(cfg, seed=9, dtype=np.float64)
        batch = _shaped_batch("finetune", "de", tiny_docs, tiny_triples)
        grads = loss_and_grads(params, batch).grads
        assert set(grads) == {"query", "doc"}
        assert np.abs(grads["query"].w_out).sum() > 0
        assert np.abs(grads["doc"].w_out).sum() > 0


def _dense_token_grad_reference(tower, cache, d_out):
    """The token-table gradient as a dense float64 table, scattered with np.add.at."""
    d_out = d_out.astype(np.float64)
    hidden = cache.hidden.astype(np.float64)
    d_hidden = (d_out @ tower.w_out.astype(np.float64)) * (1.0 - hidden**2)
    d_pooled = d_hidden @ tower.w_hidden.astype(np.float64)
    table = np.zeros(tower.token_table.shape, dtype=np.float64)
    for row, buckets in zip(d_pooled, cache.buckets):
        np.add.at(table, buckets, np.tile(row / len(buckets), (len(buckets), 1)))
    return table


class TestTokenTableGradient:
    """The token-table gradient is a RowGrad over the rows a batch touched."""

    def _tied_sides(self, dtype, tiny_triples):
        params = init_params(SMALL_CFG, seed=9, dtype=dtype)
        tower = params.query_tower
        batch = build_batch([map_triple(t, "dce") for t in tiny_triples])
        q_buckets = [query_feature_buckets(SMALL_CFG, t) for t in batch.query_texts]
        c_buckets = [candidate_feature_buckets(SMALL_CFG, p) for p in batch.candidates]
        _, q_cache = forward_tower(tower, q_buckets, want_cache=True)
        _, c_cache = forward_tower(tower, c_buckets, want_cache=True)
        rng = np.random.default_rng(3)
        d_q = rng.normal(size=(len(q_buckets), SMALL_CFG.embed_dim)).astype(dtype)
        d_c = rng.normal(size=(len(c_buckets), SMALL_CFG.embed_dim)).astype(dtype)
        return params, (q_cache, d_q), (c_cache, d_c)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rows_sorted_unique_in_param_dtype(self, dtype, tiny_triples):
        params = init_params(SMALL_CFG, seed=9, dtype=dtype)
        batch = build_batch([map_triple(t, "dce") for t in tiny_triples])
        grad = loss_and_grads(params, batch).grads["query"].token_table
        assert isinstance(grad, RowGrad)
        touched = np.concatenate(
            [query_feature_buckets(SMALL_CFG, t) for t in batch.query_texts]
            + [candidate_feature_buckets(SMALL_CFG, p) for p in batch.candidates]
        )
        np.testing.assert_array_equal(grad.rows, np.unique(touched))  # sorted and unique
        assert grad.values.shape == (len(grad.rows), SMALL_CFG.embed_dim)
        assert grad.values.dtype == np.dtype(dtype)

    def test_tied_shared_bucket_sums_both_sides(self, tiny_triples):
        params, (q_cache, d_q), (c_cache, d_c) = self._tied_sides(np.float32, tiny_triples)
        tower = params.query_tower
        n = SMALL_CFG.hash_buckets
        sides = []
        for cache, d_out in ((q_cache, d_q), (c_cache, d_c)):
            alone = zero_grads(params)["query"]
            backprop_tower(tower, cache, d_out, alone)
            sides.append(alone.token_table)
        merged = zero_grads(params)["query"]
        backprop_tower(tower, q_cache, d_q, merged)
        backprop_tower(tower, c_cache, d_c, merged)
        shared = np.intersect1d(sides[0].rows, sides[1].rows)
        assert shared.size > 0  # dce candidates repeat their query's unigrams
        np.testing.assert_array_equal(merged.token_table.rows, np.union1d(*[g.rows for g in sides]))
        q_dense, c_dense = (g.to_dense(n) for g in sides)
        assert np.all(np.abs(q_dense[shared]) > 0) and np.all(np.abs(c_dense[shared]) > 0)
        np.testing.assert_allclose(
            merged.token_table.to_dense(n)[shared],
            q_dense[shared] + c_dense[shared],
            rtol=1e-6,
            atol=1e-6,
        )

    def test_matches_dense_float64_scatter(self, tiny_triples):
        params, (q_cache, d_q), (c_cache, d_c) = self._tied_sides(np.float32, tiny_triples)
        tower = params.query_tower
        merged = zero_grads(params)["query"]
        backprop_tower(tower, q_cache, d_q, merged)
        backprop_tower(tower, c_cache, d_c, merged)
        reference = _dense_token_grad_reference(tower, q_cache, d_q)
        reference += _dense_token_grad_reference(tower, c_cache, d_c)
        np.testing.assert_allclose(
            merged.token_table.to_dense(SMALL_CFG.hash_buckets), reference, rtol=1e-6, atol=1e-6
        )


class TestAdam:
    def test_first_step_moves_by_sign(self):
        params = init_params(SMALL_CFG, seed=0)
        before = params.query_tower.b_out.copy()
        grads = zero_grads(params)
        grads["query"].b_out[:] = np.array([3.0, -2.0, 5.0, -1.0, 4.0, -6.0], dtype=np.float32)
        state = AdamState.for_params(params)
        adam_step(params, grads, state, lr=0.1)
        delta = params.query_tower.b_out - before
        np.testing.assert_allclose(delta, -0.1 * np.sign(grads["query"].b_out), rtol=1e-4)

    def test_zero_gradient_is_noop(self):
        params = init_params(SMALL_CFG, seed=0)
        before = params.query_tower.w_hidden.copy()
        state = AdamState.for_params(params)
        adam_step(params, zero_grads(params), state, lr=0.1)
        np.testing.assert_array_equal(params.query_tower.w_hidden, before)
        assert state.t == 1

    def test_tied_params_have_single_role(self):
        params = init_params(SMALL_CFG, seed=0)
        assert set(AdamState.for_params(params).m) == {"query"}

    @pytest.mark.parametrize("tied", [True, False], ids=["tied", "untied"])
    def test_row_sparse_step_equals_dense_adam(self, tied):
        cfg = EncoderConfig(embed_dim=4, hash_buckets=32, tie_params=tied)
        params = init_params(cfg, seed=5)
        assert params.query_tower.token_table.dtype == np.float32
        roles = params.towers()
        ref = {r: {n: a.copy() for n, a in t.tensors().items()} for r, t in roles.items()}
        ref_m = {r: {n: np.zeros_like(a) for n, a in p.items()} for r, p in ref.items()}
        ref_v = {r: {n: np.zeros_like(a) for n, a in p.items()} for r, p in ref.items()}
        state = AdamState.for_params(params)
        rng = np.random.default_rng(17)
        touched = np.zeros(cfg.hash_buckets, dtype=int)
        steps = 24
        for step in range(steps):
            grads = zero_grads(params)
            for grad in grads.values():
                # a few rows out of eight, with repeats; some steps touch none
                flat = rng.integers(0, 8, size=int(rng.integers(0, 6)))
                contrib = rng.normal(size=(len(flat), cfg.embed_dim)).astype(np.float32)
                grad.token_table.accumulate(flat, contrib)
                touched[grad.token_table.rows] += 1
                for name in ("w_hidden", "b_hidden", "w_out", "b_out"):
                    arr = getattr(grad, name)
                    arr[...] = rng.normal(size=arr.shape)
            lr = 0.05 * (steps - step) / steps
            adam_step(params, grads, state, lr)

            # the textbook update over dense gradients
            bias1 = 1.0 - ADAM_BETA1 ** (step + 1)
            bias2 = 1.0 - ADAM_BETA2 ** (step + 1)
            for role, grad in grads.items():
                for name, p in ref[role].items():
                    g = getattr(grad, name)
                    if isinstance(g, RowGrad):
                        g = g.to_dense(cfg.hash_buckets)
                    m, v = ref_m[role][name], ref_v[role][name]
                    m *= ADAM_BETA1
                    m += (1.0 - ADAM_BETA1) * g
                    v *= ADAM_BETA2
                    v += (1.0 - ADAM_BETA2) * g**2
                    m_hat = m / bias1
                    v_hat = v / bias2
                    p -= (lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)).astype(p.dtype)
        assert np.any((touched > 0) & (touched < steps))
        for role, tower in roles.items():
            for name, arr in tower.tensors().items():
                assert np.array_equal(arr, ref[role][name]), (role, name)
                assert np.array_equal(getattr(state.m[role], name), ref_m[role][name])
                assert np.array_equal(getattr(state.v[role], name), ref_v[role][name])


class TestSchedule:
    def test_warmup_ramps_linearly(self):
        lrs = [lr_at(s, 100, 1.0, 0.1) for s in range(10)]
        assert lrs == pytest.approx([(s + 1) / 10 for s in range(10)])

    def test_peak_then_decay(self):
        assert lr_at(10, 100, 1.0, 0.1) == pytest.approx(1.0)
        assert lr_at(55, 100, 1.0, 0.1) == pytest.approx(0.5)
        assert lr_at(99, 100, 1.0, 0.1) == pytest.approx(1 / 90)

    def test_no_warmup(self):
        assert lr_at(0, 10, 2.0, 0.0) == pytest.approx(2.0)

    def test_all_warmup(self):
        assert lr_at(5, 10, 1.0, 1.0) == pytest.approx(0.6)
        assert lr_at(10, 10, 1.0, 1.0) == pytest.approx(1.0)

    def test_degenerate_total(self):
        assert lr_at(0, 0, 0.5, 0.1) == 0.5


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "bm25"},
            {"negatives_per_positive": 0},
            {"batch_size": 1},
            {"pretrain_batch_size": 1},
            {"warmup_fraction": 1.5},
            {"learning_rate": -0.1},
            {"epochs_finetune": -1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


class TestExampleBuilders:
    def test_pretrain_pairs_follow_mode(self, tiny_docs):
        generated = [GeneratedQuerySet("d1", ("sun power", "panel output"))]
        dce = pretrain_examples(tiny_docs, generated, "dce")
        de = pretrain_examples(tiny_docs, generated, "de")
        assert len(dce) == 2
        assert dce[0].positive == ("sun power", tiny_docs[0].text)
        assert de[0].positive == (None, tiny_docs[0].text)
        assert dce[0].negatives == ()

    def test_pretrain_unknown_doc(self, tiny_docs):
        with pytest.raises(ValueError, match="unknown doc_id"):
            pretrain_examples(tiny_docs, [GeneratedQuerySet("nope", ("q",))], "de")

    def test_finetune_trims_negatives(self, tiny_triples):
        cfg = TrainConfig(negatives_per_positive=1, epochs_finetune=1)
        examples = finetune_examples(tiny_triples, cfg)
        assert all(len(e.negatives) == 1 for e in examples)

    def test_finetune_rejects_short_triples(self, tiny_triples):
        cfg = TrainConfig(negatives_per_positive=5)
        with pytest.raises(ValueError, match="need 5"):
            finetune_examples(tiny_triples, cfg)


def _toy_world():
    docs = [
        Document("d1", "solar panels convert sunlight into electricity"),
        Document("d2", "the court ruled on the appeal last spring"),
        Document("d3", "rivers carry sediment toward the delta"),
        Document("d4", "a vaccine primes the immune system"),
    ]
    by_id = {d.doc_id: d for d in docs}
    triples = [
        TrainingTriple(Query("q1", "solar power"), by_id["d1"], (by_id["d2"], by_id["d3"])),
        TrainingTriple(Query("q2", "appeal ruling"), by_id["d2"], (by_id["d1"], by_id["d4"])),
        TrainingTriple(Query("q3", "river delta"), by_id["d3"], (by_id["d4"], by_id["d1"])),
        TrainingTriple(Query("q4", "immune vaccine"), by_id["d4"], (by_id["d3"], by_id["d2"])),
    ]
    generated = [GeneratedQuerySet(d.doc_id, (f"about {d.doc_id}", f"more {d.doc_id}")) for d in docs]
    return docs, triples, generated


class TestTrainLoop:
    CFG = TrainConfig(
        mode="dce",
        batch_size=2,
        pretrain_batch_size=4,
        negatives_per_positive=2,
        learning_rate=0.01,
        epochs_pretrain=1,
        epochs_finetune=2,
        seed=3,
    )

    def test_deterministic(self):
        docs, triples, generated = _toy_world()
        runs = []
        for _ in range(2):
            params = init_params(SMALL_CFG, seed=4)
            train(params, triples, self.CFG, corpus=docs, generated=generated)
            runs.append(params)
        for name, arr in runs[0].query_tower.tensors().items():
            np.testing.assert_array_equal(arr, runs[1].query_tower.tensors()[name])

    def test_trace_covers_both_stages(self):
        docs, triples, generated = _toy_world()
        params = init_params(SMALL_CFG, seed=4)
        trace = train(params, triples, self.CFG, corpus=docs, generated=generated)
        stages = [e.stage for e in trace]
        assert "pretrain" in stages and "finetune" in stages
        assert [e.step for e in trace] == list(range(len(trace)))
        assert all(math.isfinite(e.loss) and e.loss > 0 for e in trace)

    def test_zero_learning_rate_is_noop(self):
        docs, triples, generated = _toy_world()
        cfg = TrainConfig(
            mode="de",
            batch_size=2,
            pretrain_batch_size=4,
            negatives_per_positive=2,
            learning_rate=0.0,
            epochs_pretrain=0,
            epochs_finetune=1,
            seed=3,
        )
        params = init_params(SMALL_CFG, seed=4)
        before = params.query_tower.w_out.copy()
        train(params, triples, cfg)
        np.testing.assert_array_equal(params.query_tower.w_out, before)

    def test_training_reduces_loss(self):
        docs, triples, generated = _toy_world()
        cfg = TrainConfig(
            mode="dce",
            batch_size=4,
            pretrain_batch_size=4,
            negatives_per_positive=2,
            learning_rate=0.05,
            epochs_pretrain=0,
            epochs_finetune=30,
            seed=3,
        )
        params = init_params(SMALL_CFG, seed=4)
        trace = train(params, triples, cfg)
        assert trace[-1].loss < trace[0].loss

    def test_pretrain_requires_inputs(self):
        _, triples, _ = _toy_world()
        params = init_params(SMALL_CFG, seed=4)
        with pytest.raises(ValueError, match="pretraining requires"):
            train(params, triples, self.CFG)

    def test_finetune_requires_triples(self):
        params = init_params(SMALL_CFG, seed=4)
        cfg = TrainConfig(mode="de", epochs_pretrain=0, epochs_finetune=1)
        with pytest.raises(ValueError, match="requires training triples"):
            train(params, [], cfg)

    def test_finetune_requires_two_triples(self):
        # one triple makes one batch of one, which has no in-batch negative
        # to share and would train nothing
        _, triples, _ = _toy_world()
        params = init_params(SMALL_CFG, seed=4)
        cfg = TrainConfig(negatives_per_positive=2, epochs_finetune=3)
        with pytest.raises(ValueError, match="finetuning requires at least 2 triples"):
            train(params, triples[:1], cfg)


def test_loss_trace_csv(tmp_path):
    trace = [TraceEntry(0, "pretrain", 2.0), TraceEntry(1, "finetune", 1.25)]
    path = tmp_path / "trace.csv"
    write_loss_trace(trace, path)
    assert path.read_text() == "step,stage,loss\n0,pretrain,2.000000\n1,finetune,1.250000\n"
