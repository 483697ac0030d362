import functools
import math
import operator
from types import SimpleNamespace

import numpy as np
import pytest

from mvdr.corpus import Document, tokenize
from mvdr.querygen import (
    DEFAULT_TEMPLATES,
    QGModel,
    SamplingConfig,
    _draw,
    _numpy_sum,
    fit_qg,
    generate,
    generate_corpus,
)


def tfidf_oracle(corpus, doc):
    """Independent tf-idf with add-one idf smoothing."""
    n = len(corpus)
    tf = {}
    for token in tokenize(doc.text):
        tf[token] = tf.get(token, 0) + 1
    out = {}
    for term, count in tf.items():
        df = sum(1 for d in corpus if term in set(tokenize(d.text)))
        out[term] = count * (math.log((1 + n) / (1 + df)) + 1.0)
    return out


class TestFit:
    def test_salience_matches_oracle(self, tiny_docs):
        model = fit_qg(tiny_docs, seed=1)
        for doc in tiny_docs:
            oracle = tfidf_oracle(tiny_docs, doc)
            got = model.salience[doc.doc_id]
            assert set(got) == set(oracle)
            for term, weight in oracle.items():
                assert got[term] == pytest.approx(weight, abs=1e-12)

    def test_rare_terms_outweigh_common_ones(self, tiny_docs):
        model = fit_qg(tiny_docs, seed=1)
        # "the" appears in several documents, "sediment" in one
        weights = model.salience["d3"]
        assert weights["sediment"] > weights["the"]

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty corpus"):
            fit_qg([])

    def test_templates_default(self, tiny_docs):
        assert len(DEFAULT_TEMPLATES) == 8
        assert fit_qg(tiny_docs).templates == DEFAULT_TEMPLATES

    def test_needs_templates(self):
        with pytest.raises(ValueError, match="template"):
            QGModel(salience={}, templates=(), rng_seed=0)


class TestSamplingConfig:
    @pytest.mark.parametrize("kwargs", [{"k_views": 0}, {"top_k": 0}, {"max_query_tokens": 0}])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SamplingConfig(**kwargs)


class TestGenerate:
    CFG = SamplingConfig(k_views=4, top_k=5, max_query_tokens=8)

    def test_counts_and_determinism(self, tiny_docs):
        model = fit_qg(tiny_docs, seed=9)
        a = generate(model, tiny_docs[0], self.CFG)
        b = generate(model, tiny_docs[0], self.CFG)
        assert a == b
        assert len(a.queries) == 4
        assert a.doc_id == "d1"

    def test_queries_start_with_a_template(self, tiny_docs):
        model = fit_qg(tiny_docs, seed=9)
        qset = generate(model, tiny_docs[0], self.CFG)
        for query in qset.queries:
            assert any(query.startswith(t + " ") or query == t for t in DEFAULT_TEMPLATES)

    def test_terms_come_from_the_document(self, tiny_docs):
        model = fit_qg(tiny_docs, seed=9)
        doc_tokens = set(tokenize(tiny_docs[0].text))
        template_tokens = {t for tpl in DEFAULT_TEMPLATES for t in tpl.split()}
        qset = generate(model, tiny_docs[0], self.CFG)
        for query in qset.queries:
            for token in tokenize(query):
                assert token in doc_tokens or token in template_tokens

    def test_token_cap_enforced(self, tiny_docs):
        model = fit_qg(tiny_docs, seed=9)
        cfg = SamplingConfig(k_views=6, top_k=8, max_query_tokens=3)
        qset = generate(model, tiny_docs[0], cfg)
        assert all(len(tokenize(q)) <= 3 for q in qset.queries)

    def test_top_k_one_collapses_to_argmax(self, tiny_docs):
        model = fit_qg(tiny_docs, seed=9)
        cfg = SamplingConfig(k_views=5, top_k=1, max_query_tokens=8)
        qset = generate(model, tiny_docs[2], cfg)
        assert len(set(qset.queries)) == 1
        # top-salience term, ties broken alphabetically
        best = sorted(model.salience["d3"].items(), key=lambda kv: (-kv[1], kv[0]))[0][0]
        assert qset.queries[0] == f"{DEFAULT_TEMPLATES[0]} {best}"

    def test_seed_changes_output(self, tiny_docs):
        model = fit_qg(tiny_docs, seed=9)
        a = generate(model, tiny_docs[0], self.CFG, seed=1)
        b = generate(model, tiny_docs[0], self.CFG, seed=2)
        assert a != b

    def test_unknown_document_rejected(self, tiny_docs):
        model = fit_qg(tiny_docs, seed=9)
        with pytest.raises(ValueError, match="not in the generator"):
            generate(model, Document("ghost", "some text"), self.CFG)


class TestGenerateCorpus:
    CFG = SamplingConfig(k_views=3, top_k=5, max_query_tokens=8)

    def test_covers_every_document(self, tiny_docs):
        model = fit_qg(tiny_docs, seed=9)
        sets = generate_corpus(model, tiny_docs, self.CFG)
        assert [s.doc_id for s in sets] == [d.doc_id for d in tiny_docs]
        assert all(len(s.queries) == 3 for s in sets)

    def test_invariant_to_corpus_order(self, tiny_docs):
        model = fit_qg(tiny_docs, seed=9)
        forward = {s.doc_id: s for s in generate_corpus(model, tiny_docs, self.CFG)}
        reverse = {s.doc_id: s for s in generate_corpus(model, tiny_docs[::-1], self.CFG)}
        assert forward == reverse

    def test_per_doc_streams_differ(self, tiny_docs):
        model = fit_qg(tiny_docs, seed=9)
        sets = generate_corpus(model, tiny_docs, self.CFG)
        # documents share no vocabulary here, so equal queries would mean
        # the same template + term positions; streams should decorrelate
        assert len({s.queries for s in sets}) == len(sets)


def reference_generate(model, doc, cfg, seed):
    """Queries drawn with ``Generator.choice(p=...)`` and ``np.delete``."""
    rng = np.random.Generator(np.random.PCG64(seed))
    ranked = sorted(model.salience[doc.doc_id].items(), key=lambda kv: (-kv[1], kv[0]))
    ranked = ranked[: cfg.top_k]
    pool_terms = [t for t, _ in ranked]
    pool_weights = np.asarray([w for _, w in ranked], dtype=np.float64)
    n_templates = min(cfg.top_k, len(model.templates))
    queries = []
    for _ in range(cfg.k_views):
        template_tokens = model.templates[int(rng.integers(0, n_templates))].split()
        budget = max(0, cfg.max_query_tokens - len(template_tokens))
        n_terms = min(3, len(pool_terms), budget)
        chosen = []
        avail_terms = list(pool_terms)
        avail_weights = pool_weights.copy()
        for _ in range(n_terms):
            probs = avail_weights / avail_weights.sum()
            j = int(rng.choice(len(avail_terms), p=probs))
            chosen.append(avail_terms.pop(j))
            avail_weights = np.delete(avail_weights, j)
        queries.append(" ".join((template_tokens + chosen)[: cfg.max_query_tokens]))
    return tuple(queries)


def spread_weights(rng, n):
    """Positive weights over many magnitudes, so that summation order shows."""
    return rng.lognormal(mean=0.0, sigma=3.0, size=n).tolist()


class TestDrawMatchesChoice:
    """Pool sizes below, at and above numpy's 8-way summation unroll."""

    POOLS = (1, 5, 7, 8, 12, 16, 20)

    def test_sum_in_numpy_order(self):
        rng = np.random.default_rng(0)
        left_to_right_differs = 0
        for n in list(range(1, 40)) + [127, 128, 129, 136, 300, 1001]:
            for _ in range(20):
                values = spread_weights(rng, n)
                assert _numpy_sum(values) == np.asarray(values).sum()
                left_to_right_differs += functools.reduce(operator.add, values) != _numpy_sum(values)
        # the data can tell the orders apart
        assert left_to_right_differs > 0

    @pytest.mark.parametrize("n", POOLS + (129, 300))
    def test_draw_equals_choice(self, n):
        weights = spread_weights(np.random.default_rng(n), n)
        probs = np.asarray(weights) / np.asarray(weights).sum()
        for seed in range(50):
            ours = np.random.Generator(np.random.PCG64(seed))
            theirs = np.random.Generator(np.random.PCG64(seed))
            for _ in range(5):
                assert _draw(ours, weights) == int(theirs.choice(n, p=probs))

    @pytest.mark.parametrize("n", POOLS + (129, 300))
    def test_draw_at_every_cdf_boundary(self, n):
        # a uniform exactly at, or just below, one of numpy's cumulative
        # values tells apart cumulative sums that differ in the last bit
        weights = spread_weights(np.random.default_rng(100 + n), n)
        w = np.asarray(weights)
        cdf = (w / w.sum()).cumsum()
        cdf /= cdf[-1]
        for u in np.concatenate([[0.0], cdf[:-1], np.nextafter(cdf[:-1], 0)]):
            rng = SimpleNamespace(random=lambda u=float(u): u)
            assert _draw(rng, weights) == int(np.searchsorted(cdf, u, side="right"))

    @pytest.mark.parametrize("pool", POOLS)
    def test_generate_equals_reference(self, pool):
        weights = spread_weights(np.random.default_rng(pool), pool)
        salience = {f"t{i:02d}": w for i, w in enumerate(weights)}
        model = QGModel(salience={"d": salience}, templates=DEFAULT_TEMPLATES, rng_seed=0)
        doc = Document("d", "unused by generation")
        for max_query_tokens in (1, 2, 3, 4, 16):
            for top_k in (pool, pool + 3):
                cfg = SamplingConfig(k_views=6, top_k=top_k, max_query_tokens=max_query_tokens)
                for seed in range(12):
                    got = generate(model, doc, cfg, seed=seed).queries
                    assert got == reference_generate(model, doc, cfg, seed)
