import dataclasses
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from synthcorpus import build_synth

from mvdr import trainer
from mvdr.corpus import Document, GeneratedQuerySet, Query, TrainingTriple
from mvdr.encoder import (
    EncoderConfig,
    FeatureTable,
    RowGrad,
    backprop_tower,
    candidate_feature_buckets,
    forward_tower,
    init_params,
    query_feature_buckets,
    save_params,
)
from mvdr.querygen import SamplingConfig, fit_qg, generate_corpus
from mvdr.selftest import (
    adam_step_reference,
    batch_loss,
    dense_adam_state,
    gradient_relative_errors,
)
from mvdr.trainer import (
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
                result = loss_and_grads(params, batch, FeatureTable(SMALL_CFG))
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
        tower = params.tower
        batch = build_batch([map_triple(t, "dce") for t in tiny_triples])
        table = FeatureTable(SMALL_CFG)
        q_buckets = [query_feature_buckets(table, t) for t in batch.query_texts]
        c_buckets = [candidate_feature_buckets(table, p) for p in batch.candidates]
        _, q_cache = forward_tower(tower, q_buckets)
        _, c_cache = forward_tower(tower, c_buckets)
        rng = np.random.default_rng(3)
        d_q = rng.normal(size=(len(q_buckets), SMALL_CFG.embed_dim)).astype(dtype)
        d_c = rng.normal(size=(len(c_buckets), SMALL_CFG.embed_dim)).astype(dtype)
        return params, (q_cache, d_q), (c_cache, d_c)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rows_sorted_unique_in_param_dtype(self, dtype, tiny_triples):
        params = init_params(SMALL_CFG, seed=9, dtype=dtype)
        batch = build_batch([map_triple(t, "dce") for t in tiny_triples])
        table = FeatureTable(SMALL_CFG)
        grad = loss_and_grads(params, batch, table).grads.token_table
        assert isinstance(grad, RowGrad)
        touched = np.concatenate(
            [query_feature_buckets(table, t) for t in batch.query_texts]
            + [candidate_feature_buckets(table, p) for p in batch.candidates]
        )
        np.testing.assert_array_equal(grad.rows, np.unique(touched))  # sorted and unique
        assert grad.values.shape == (len(grad.rows), SMALL_CFG.embed_dim)
        assert grad.values.dtype == np.dtype(dtype)

    def test_tied_shared_bucket_sums_both_sides(self, tiny_triples):
        params, (q_cache, d_q), (c_cache, d_c) = self._tied_sides(np.float32, tiny_triples)
        tower = params.tower
        n = SMALL_CFG.hash_buckets
        sides = []
        for cache, d_out in ((q_cache, d_q), (c_cache, d_c)):
            alone = zero_grads(params)
            backprop_tower(tower, cache, d_out, alone)
            sides.append(alone.token_table)
        merged = zero_grads(params)
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
        tower = params.tower
        merged = zero_grads(params)
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
        before = params.tower.b_out.copy()
        grads = zero_grads(params)
        grads.b_out[:] = np.array([3.0, -2.0, 5.0, -1.0, 4.0, -6.0], dtype=np.float32)
        state = AdamState.for_params(params)
        adam_step(params, grads, state, lr=0.1)
        delta = params.tower.b_out - before
        np.testing.assert_allclose(delta, -0.1 * np.sign(grads.b_out), rtol=1e-4)

    def test_zero_gradient_is_noop(self):
        params = init_params(SMALL_CFG, seed=0)
        before = params.tower.w_hidden.copy()
        state = AdamState.for_params(params)
        adam_step(params, zero_grads(params), state, lr=0.1)
        np.testing.assert_array_equal(params.tower.w_hidden, before)
        assert state.t == 1

    def test_tied_params_have_single_role(self):
        # one set of moments, shaped like the one tower's gradients
        params = init_params(SMALL_CFG, seed=0)
        state = AdamState.for_params(params)
        for moments in (state.m, state.v):
            assert isinstance(moments.token_table, RowGrad) and moments.token_table.rows.size == 0
            for name in ("w_hidden", "b_hidden", "w_out", "b_out"):
                assert getattr(moments, name).shape == getattr(params.tower, name).shape

    def test_row_sparse_step_equals_dense_adam(self):
        cfg = EncoderConfig(embed_dim=4, hash_buckets=32)
        rng = np.random.default_rng(17)
        # the first step touches no row; row 3 is touched once, early, and
        # never again; rows 12 and up never; later steps touch a few of
        # rows 4-11, with repeats, and some touch none
        schedule = [[], [3, 5, 5, 9], []]
        schedule += [rng.integers(4, 12, size=int(rng.integers(0, 6))).tolist() for _ in range(21)]
        for dtype in (np.float32, np.float64):
            params, state = _adam_against_reference(cfg, dtype, schedule, seed=17)
            table = params.tower.token_table
            start = init_params(cfg, seed=5, dtype=dtype).tower.token_table
            assert 3 in state.m.token_table.rows
            assert 12 not in state.m.token_table.rows
            # the idle row kept moving; the untouched ones never moved
            assert not np.array_equal(table[3], start[3])
            assert np.array_equal(table[12:], start[12:])

    @given(
        st.sampled_from([np.float32, np.float64]),
        st.lists(st.lists(st.integers(0, 15), max_size=6), min_size=1, max_size=8),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_row_sparse_step_equals_dense_adam_on_random_rows(self, dtype, schedule, seed):
        cfg = EncoderConfig(embed_dim=3, hash_buckets=16)
        _adam_against_reference(cfg, dtype, schedule, seed)

    def test_state_holds_no_table_sized_array(self):
        cfg = EncoderConfig(embed_dim=4, hash_buckets=4096)
        params = init_params(cfg, seed=5)
        state = AdamState.for_params(params)
        rng = np.random.default_rng(2)
        sizes = [max(a.size for a in _arrays(state))]
        for _ in range(3):
            grads = zero_grads(params)
            flat = rng.integers(0, cfg.hash_buckets, size=10)
            grads.token_table.accumulate(flat, np.ones((10, cfg.embed_dim), dtype=np.float32))
            adam_step(params, grads, state, lr=0.01)
            sizes.append(max(a.size for a in _arrays(state)))
        # at most 30 live rows of 4 values each, against a 4096-row table
        assert max(sizes) <= 30 * cfg.embed_dim < cfg.hash_buckets


def _arrays(obj):
    """Every numpy array reachable from ``obj`` through dataclass fields."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _arrays(getattr(obj, f.name))


def _adam_against_reference(cfg, dtype, schedule, seed):
    """Step ``adam_step`` and the dense reference side by side on the same
    gradients. ``schedule[s]`` lists the token-table rows, with repeats,
    that step s's gradient touches; the other tensors get a dense gradient
    each step. Params and both full moments must match
    exactly after every step."""
    params = init_params(cfg, seed=5, dtype=dtype)
    ref = params.copy()
    state, ref_state = AdamState.for_params(params), dense_adam_state(ref)
    rng = np.random.default_rng(seed)
    steps = len(schedule)
    for step, rows in enumerate(schedule):
        grads = zero_grads(params)
        flat = np.asarray(rows, dtype=np.int64)
        contrib = rng.normal(size=(len(flat), cfg.embed_dim)).astype(dtype)
        grads.token_table.accumulate(flat, contrib)
        for name in ("w_hidden", "b_hidden", "w_out", "b_out"):
            arr = getattr(grads, name)
            arr[...] = rng.normal(size=arr.shape)
        lr = 0.05 * (steps - step) / steps
        adam_step(params, grads, state, lr)
        adam_step_reference(ref, grads, ref_state, lr)
        m, v = (moment.dense(cfg.hash_buckets) for moment in (state.m, state.v))
        for name, arr in params.tower.tensors().items():
            assert arr.dtype == np.dtype(dtype)
            assert np.array_equal(arr, getattr(ref.tower, name)), (step, name)
            assert np.array_equal(getattr(m, name), getattr(ref_state.m, name))
            assert np.array_equal(getattr(v, name), getattr(ref_state.v, name))
    return params, state


class TestSchedule:
    def test_warmup_ramps_linearly(self):
        lrs = [lr_at(s, 100, 1.0) for s in range(10)]
        assert lrs == pytest.approx([(s + 1) / 10 for s in range(10)])

    def test_peak_then_decay(self):
        assert lr_at(10, 100, 1.0) == pytest.approx(1.0)
        assert lr_at(55, 100, 1.0) == pytest.approx(0.5)
        assert lr_at(99, 100, 1.0) == pytest.approx(1 / 90)

    def test_a_stage_under_five_steps_has_no_warmup(self):
        # 10 % of 4 steps rounds to 0, so the first step runs at the full rate
        assert [lr_at(s, 4, 2.0) for s in range(4)] == pytest.approx([2.0, 1.5, 1.0, 0.5])


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "bm25"},
            {"negatives_per_positive": 0},
            {"batch_size": 1},
            {"pretrain_batch_size": 1},
            {"epochs_pretrain": -1},
            {"learning_rate": -0.1},
            {"epochs_finetune": -1},
            {"learning_rate": float("inf")},
            {"learning_rate": float("nan")},
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
        for name, arr in runs[0].tower.tensors().items():
            np.testing.assert_array_equal(arr, runs[1].tower.tensors()[name])

    def test_trace_covers_both_stages(self):
        docs, triples, generated = _toy_world()
        params = init_params(SMALL_CFG, seed=4)
        trace = train(params, triples, self.CFG, corpus=docs, generated=generated)
        stages = [e.stage for e in trace]
        assert "pretrain" in stages and "finetune" in stages
        assert [e.step for e in trace] == list(range(len(trace)))
        assert all(math.isfinite(e.loss) and e.loss > 0 for e in trace)

    def test_logs_each_epoch_mean_loss(self, caplog):
        docs, triples, generated = _toy_world()
        params = init_params(SMALL_CFG, seed=4)
        with caplog.at_level(logging.INFO, logger="mvdr.trainer"):
            trace = train(params, triples, self.CFG, corpus=docs, generated=generated)
        lines = [
            r.getMessage() for r in caplog.records
            if r.name == "mvdr.trainer" and r.levelno == logging.INFO and " epoch " in r.getMessage()
        ]
        expected = []
        for stage, epochs in (("pretrain", 1), ("finetune", 2)):
            losses = [e.loss for e in trace if e.stage == stage]
            per_epoch = len(losses) // epochs
            assert per_epoch > 1 and len(losses) == epochs * per_epoch
            for e in range(epochs):
                mean = np.mean(losses[e * per_epoch : (e + 1) * per_epoch])
                expected.append(f"{stage} epoch {e + 1}/{epochs} loss {mean:.4f}")
        assert lines == expected

    @pytest.mark.parametrize("mode", ["dce", "de"])
    def test_one_featurization_pass_per_stage(self, monkeypatch, mode):
        # each stage queues all of its requests, so every batch of every
        # epoch reads the features of that stage's one pass
        passes = []
        one_pass = FeatureTable._featurize

        def counted(table, requests):
            passes.append(requests)
            one_pass(table, requests)

        monkeypatch.setattr(FeatureTable, "_featurize", counted)
        docs, triples, generated = _toy_world()
        cfg = dataclasses.replace(self.CFG, mode=mode)
        trace = train(init_params(SMALL_CFG, seed=4), triples, cfg, corpus=docs, generated=generated)
        assert [e.stage for e in trace].count("finetune") == 4
        assert len(passes) == len({e.stage for e in trace}) == 2

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
        before = params.tower.w_out.copy()
        train(params, triples, cfg)
        np.testing.assert_array_equal(params.tower.w_out, before)

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

    def test_pretrain_requires_two_pairs(self):
        docs, triples, _ = _toy_world()
        one = [GeneratedQuerySet("d1", ("about solar",))]
        params = init_params(SMALL_CFG, seed=4)
        with pytest.raises(ValueError, match=r"at least 2 \(query, document\) pairs"):
            train(params, triples, self.CFG, corpus=docs, generated=one)

    def test_non_finite_loss_stops_training(self):
        _, triples, _ = _toy_world()
        params = init_params(SMALL_CFG, seed=4)
        params.tower.b_out[...] = np.inf
        cfg = dataclasses.replace(self.CFG, epochs_pretrain=0)
        # the scores are inf - inf on purpose: silence numpy's warnings,
        # which pyproject.toml turns into errors
        with np.errstate(all="ignore"), pytest.raises(RuntimeError, match="non-finite training loss"):
            train(params, triples, cfg)

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


def test_training_matches_dense_adam_reference(tmp_path, monkeypatch):
    """Both stages on the synthetic collection: the live-row step and
    textbook dense Adam save the same checkpoint bytes and trace."""
    coll = build_synth(n_entities=12)
    generated = generate_corpus(
        fit_qg(coll.docs, seed=7), coll.docs, SamplingConfig(k_views=3, top_k=8), seed=7
    )
    encoder = EncoderConfig(
        embed_dim=8, hash_buckets=4096, ngram_orders=(1,), max_doc_tokens=16
    )
    cfg = TrainConfig(
        batch_size=8,
        pretrain_batch_size=32,
        negatives_per_positive=3,
        learning_rate=0.05,
        epochs_pretrain=2,
        epochs_finetune=2,
        seed=3,
    )

    def run(name):
        params = init_params(encoder, seed=4)
        trace = train(params, coll.triples, cfg, corpus=coll.docs, generated=generated)
        save_params(params, tmp_path / name)
        return trace, (tmp_path / name).read_bytes()

    fast = run("fast.ckpt")
    monkeypatch.setattr(AdamState, "for_params", staticmethod(dense_adam_state))
    monkeypatch.setattr(trainer, "adam_step", adam_step_reference)
    reference = run("reference.ckpt")
    assert {e.stage for e in fast[0]} == {"pretrain", "finetune"}
    assert fast[0] == reference[0]
    assert fast[1] == reference[1]


def test_loss_trace_csv(tmp_path):
    trace = [TraceEntry(0, "pretrain", 2.0), TraceEntry(1, "finetune", 1.25)]
    path = tmp_path / "trace.csv"
    write_loss_trace(trace, path)
    assert path.read_text() == "step,stage,loss\n0,pretrain,2.000000\n1,finetune,1.250000\n"
