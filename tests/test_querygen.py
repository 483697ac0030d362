import functools
import math
import operator
from types import SimpleNamespace

import numpy as np
import pytest

from mvdr import querygen
from mvdr.corpus import Document, tokenize
from mvdr.hashing import derive_seed
from mvdr.querygen import (
    DEFAULT_TEMPLATES,
    QGModel,
    SamplingConfig,
    _choose,
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


def reference_queries(model, doc, cfg, rng):
    """Queries drawn with ``rng.integers``, ``rng.choice(p=...)`` and ``np.delete``."""
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


def reference_generate(model, doc, cfg, seed):
    return reference_queries(model, doc, cfg, np.random.Generator(np.random.PCG64(seed)))


class WordRng:
    """The scalar ``Generator`` calls that generation makes, over given raw
    PCG64 words: ``integers(0, n)`` by Lemire's method on 32-bit halves (a
    word's low half first, its high half kept for the next one), and
    ``random()`` from the top 53 bits of a new word."""

    def __init__(self, words):
        self.words = iter(int(w) for w in words)
        self.high = None
        self.rejections = 0

    def _uint32(self):
        if self.high is not None:
            out, self.high = self.high, None
            return out
        word = next(self.words)
        self.high = word >> 32
        return word & 0xFFFFFFFF

    def integers(self, low, high):
        n = high - low
        if n == 1:
            return low
        while True:
            m = self._uint32() * n
            if m & 0xFFFFFFFF >= 2**32 % n:
                return low + (m >> 32)
            self.rejections += 1

    def random(self):
        return (next(self.words) >> 11) * 2.0**-53

    def choice(self, n, p):
        cdf = np.cumsum(p)
        cdf /= cdf[-1]
        return int(np.searchsorted(cdf, self.random(), side="right"))


def spread_weights(rng, n):
    """Positive weights over many magnitudes, so that summation order shows."""
    return rng.lognormal(mean=0.0, sigma=3.0, size=n).tolist()


def spread_model(pools, seed=0, templates=DEFAULT_TEMPLATES):
    """A fitted-looking model with one document per pool size."""
    rng = np.random.default_rng(seed)
    salience = {
        f"d{i}": {f"t{j:03d}": w for j, w in enumerate(spread_weights(rng, pool))}
        for i, pool in enumerate(pools)
    }
    docs = [Document(doc_id, "unused by generation") for doc_id in salience]
    return QGModel(salience=salience, templates=tuple(templates), rng_seed=0), docs


class TestReplayMatchesScalarCalls:
    """Pool sizes below, at and above numpy's 8-way summation unroll."""

    POOLS = (1, 5, 7, 8, 12, 16, 20)

    def test_sum_in_numpy_order(self):
        rng = np.random.default_rng(0)
        left_to_right_differs = 0
        for n in list(range(1, 40)) + [127, 128, 129, 136, 300, 1001]:
            rows = np.asarray([spread_weights(rng, n) for _ in range(20)])
            # _choose normalizes with this row sum of a C-contiguous block
            sums = rows.sum(axis=1)
            assert sums.tolist() == [row.sum() for row in rows]
            left_to_right_differs += sum(
                functools.reduce(operator.add, row.tolist()) != total for row, total in zip(rows, sums)
            )
        # the data can tell the orders apart
        assert left_to_right_differs > 0

    @pytest.mark.parametrize("n", POOLS + (129, 300))
    def test_choose_equals_choice(self, n):
        weights = np.asarray(spread_weights(np.random.default_rng(n), n))
        probs = weights / weights.sum()
        rows = np.tile(weights, (50, 1))
        ours = [np.random.Generator(np.random.PCG64(seed)) for seed in range(50)]
        theirs = [np.random.Generator(np.random.PCG64(seed)) for seed in range(50)]
        for _ in range(5):
            picks = _choose(rows, np.asarray([rng.random() for rng in ours]))
            assert picks.tolist() == [int(rng.choice(n, p=probs)) for rng in theirs]

    @pytest.mark.parametrize("n", POOLS + (129, 300))
    def test_choose_at_every_cdf_boundary(self, n):
        # a uniform exactly at, or just below, one of numpy's cumulative
        # values tells apart cumulative sums that differ in the last bit
        w = np.asarray(spread_weights(np.random.default_rng(100 + n), n))
        cdf = (w / w.sum()).cumsum()
        cdf /= cdf[-1]
        uniforms = np.concatenate([[0.0], cdf[:-1], np.nextafter(cdf[:-1], 0)])
        picks = _choose(np.tile(w, (len(uniforms), 1)), uniforms)
        assert picks.tolist() == np.searchsorted(cdf, uniforms, side="right").tolist()

    def test_word_model_matches_generator(self):
        # the test's own model of the scalar calls, used on crafted words below
        model, docs = spread_model(self.POOLS)
        for top_k in (1, 3, 5, 8, 12):
            cfg = SamplingConfig(k_views=5, top_k=top_k, max_query_tokens=16)
            for seed in range(4):
                for doc in docs:
                    words = np.random.PCG64(seed).random_raw(4 * cfg.k_views)
                    assert reference_queries(model, doc, cfg, WordRng(words)) == (
                        reference_generate(model, doc, cfg, seed)
                    )

    @pytest.mark.parametrize("pool", POOLS)
    def test_generate_equals_reference(self, pool):
        model, docs = spread_model([pool], seed=pool)
        for max_query_tokens in (1, 2, 3, 4, 16):
            for top_k in (pool, pool + 3):
                cfg = SamplingConfig(k_views=6, top_k=top_k, max_query_tokens=max_query_tokens)
                for seed in range(12):
                    got = generate(model, docs[0], cfg, seed=seed).queries
                    assert got == reference_generate(model, docs[0], cfg, seed)

    def test_generate_corpus_equals_reference(self):
        # several pool sizes in one corpus, so documents leave the term
        # draws at different steps and their streams drift apart
        model, docs = spread_model(list(range(1, 21)) + [129], seed=5)
        for top_k in (1, 3, 5, 6, 8, 12, 20):
            for max_query_tokens in (1, 2, 3, 4, 16):
                for seed in range(12):
                    cfg = SamplingConfig(
                        k_views=5 + seed % 2, top_k=top_k, max_query_tokens=max_query_tokens
                    )
                    got = [qset.queries for qset in generate_corpus(model, docs, cfg, seed=seed)]
                    want = [reference_generate(model, d, cfg, derive_seed(seed, d.doc_id)) for d in docs]
                    assert got == want

    @pytest.mark.parametrize("top_k", [3, 5, 6])
    def test_lemire_rejection_replayed(self, monkeypatch, top_k):
        # template counts of 3, 5 and 6 reject a 32-bit draw whose product
        # with the count is below 2**32 % count mod 2**32, which a zero half
        # always is; crafted words with many zero halves force rejections,
        # runs of them, and more words than a stream first draws
        model, docs = spread_model([1, 2, 3, 4, 12], seed=top_k)
        cfg = SamplingConfig(k_views=7, top_k=top_k, max_query_tokens=16)
        rng = np.random.default_rng(top_k)
        words = rng.integers(0, 2**64, size=(len(docs), 40 * cfg.k_views), dtype=np.uint64)
        halves = words.view(np.uint32)
        halves[rng.random(halves.shape) < 0.5] = 0
        monkeypatch.setattr(querygen, "_draw_words", lambda seeds, n: words[:, :n])
        got = [qset.queries for qset in generate_corpus(model, docs, cfg, seed=0)]
        scalar = [WordRng(row) for row in words]
        assert got == [reference_queries(model, d, cfg, r) for d, r in zip(docs, scalar)]
        assert sum(r.rejections for r in scalar) > 10
