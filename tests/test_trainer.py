import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvdr.corpus import Document, GeneratedQuerySet, Query, TrainingTriple
from mvdr.encoder import EncoderConfig, init_params
from mvdr.selftest import batch_loss, gradient_relative_errors
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
    """A finetuning batch (two triples, block 3) or a pretraining one
    (four generated-query pairs, no hard negatives, block 1)."""
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
            ("dce", "pretrain"),
            ("de", "pretrain"),
        ],
    )
    def test_analytic_matches_finite_differences(self, tiny_docs, tiny_triples, mode, shape):
        params = init_params(SMALL_CFG, seed=9, dtype=np.float64)
        batch = _shaped_batch(shape, mode, tiny_docs, tiny_triples)
        assert batch.block == (1 if shape == "pretrain" else 3)
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


def test_loss_trace_csv(tmp_path):
    trace = [TraceEntry(0, "pretrain", 2.0), TraceEntry(1, "finetune", 1.25)]
    path = tmp_path / "trace.csv"
    write_loss_trace(trace, path)
    assert path.read_text() == "step,stage,loss\n0,pretrain,2.000000\n1,finetune,1.250000\n"
