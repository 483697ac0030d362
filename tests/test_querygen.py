import bisect
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvdr import querygen
from mvdr.corpus import Document, tokenize
from mvdr.hashing import derive_seed
from mvdr.querygen import (
    DEFAULT_TEMPLATES,
    QGModel,
    SamplingConfig,
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


    def test_document_without_word_tokens_rejected(self, tiny_docs):
        doc = Document("marks", "!!!")
        model = fit_qg([*tiny_docs, doc], seed=9)
        with pytest.raises(ValueError, match="'marks' has no usable terms"):
            generate(model, doc, self.CFG)


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
        # documents share no vocabulary here, so equal queries would mean
        # the same template + term positions; streams should decorrelate,
        # in one corpus and one document at a time alike
        for sets in (
            generate_corpus(model, tiny_docs, self.CFG),
            [generate(model, doc, self.CFG) for doc in tiny_docs],
            [generate(model, doc, self.CFG, seed=5) for doc in tiny_docs],
        ):
            assert len({s.queries for s in sets}) == len(sets)


class TestOneSeedRule:
    # every document draws from PCG64(derive_seed(seed, doc_id)), whether
    # generated alone or in any corpus
    CFG = SamplingConfig(k_views=3, top_k=5, max_query_tokens=8)

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.one_of(st.none(), st.integers(0, 2**63 - 1)),
        order=st.permutations(range(4)),
        size=st.integers(1, 4),
    )
    def test_generate_is_generate_corpus_of_one_document(self, seed, order, size):
        docs = [Document(f"d{i}", text) for i, text in enumerate(
            ["solar panels convert sunlight", "the court ruled on the appeal",
             "rivers carry sediment", "a vaccine primes the immune system"]
        )]
        model = fit_qg(docs, seed=9)
        corpus = [docs[i] for i in order[:size]]
        doc = corpus[-1]
        got = generate(model, doc, self.CFG, seed)
        assert got == generate_corpus(model, [doc], self.CFG, seed)[0]
        assert got == generate_corpus(model, corpus, self.CFG, seed)[-1]
        base = model.rng_seed if seed is None else seed
        assert got.queries == reference_queries(model, doc, self.CFG, derive_seed(base, doc.doc_id))


# 16 templates, so that top_k 8, 12 and 20 keep different counts, up to
# four tokens long, so that the budget of max_query_tokens cuts term draws
# short
TEMPLATES = DEFAULT_TEMPLATES + (
    "which one",
    "is there a",
    "can you tell me",
    "list",
    "name the",
    "how long is",
    "what kind of",
    "define",
)
POOLS = tuple(range(1, 21)) + (129,)


def spread_weights(rng, n):
    """Positive weights over many magnitudes."""
    return rng.lognormal(mean=0.0, sigma=3.0, size=n).tolist()


def spread_model(pools, seed=0, templates=TEMPLATES):
    """A fitted-looking model with one document per pool size."""
    rng = np.random.default_rng(seed)
    salience = {
        f"d{i}": {f"t{j:03d}": w for j, w in enumerate(spread_weights(rng, pool))}
        for i, pool in enumerate(pools)
    }
    docs = [Document(doc_id, "unused by generation") for doc_id in salience]
    return QGModel(salience=salience, templates=tuple(templates), rng_seed=0), docs


def ranked_pool(model, doc, top_k):
    ranked = sorted(model.salience[doc.doc_id].items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:top_k]


def reference_queries(model, doc, cfg, seed):
    """The module docstring's definition in plain Python: view v reads
    words 4v to 4v + 3 of ``PCG64(seed)``."""
    templates = model.templates[: cfg.top_k]
    pool = ranked_pool(model, doc, cfg.top_k)
    words = iter(np.random.PCG64(seed).random_raw(4 * cfg.k_views).tolist())
    queries = []
    for _ in range(cfg.k_views):
        u = [(next(words) >> 11) * 2.0**-53 for _ in range(4)]
        template_tokens = templates[int(u[0] * len(templates))].split()
        n_terms = min(3, len(pool), max(0, cfg.max_query_tokens - len(template_tokens)))
        left = list(pool)
        chosen = []
        for j in range(n_terms):
            cumulative = list(itertools.accumulate(w for _, w in left))
            cdf = [c / cumulative[-1] for c in cumulative]
            term, _ = left.pop(bisect.bisect_right(cdf, u[1 + j]))
            chosen.append(term)
        queries.append(" ".join((template_tokens + chosen)[: cfg.max_query_tokens]))
    return tuple(queries)


def patch_words(monkeypatch, words):
    """Make every document read ``words`` (one row, repeated per document)."""
    monkeypatch.setattr(
        querygen, "_draw_words", lambda seeds, n: np.tile(np.asarray(words, dtype=np.uint64)[:n], (len(seeds), 1))
    )


class TestSampleFromRawWords:
    @pytest.mark.parametrize("pool", POOLS)
    def test_generate_equals_reference(self, pool):
        model, docs = spread_model([pool], seed=pool)
        for top_k in (1, 3, 5, 8, 12, 20):
            for max_query_tokens in (1, 2, 3, 4, 16):
                cfg = SamplingConfig(k_views=6, top_k=top_k, max_query_tokens=max_query_tokens)
                for seed in range(12):
                    got = generate(model, docs[0], cfg, seed=seed).queries
                    assert got == reference_queries(model, docs[0], cfg, derive_seed(seed, docs[0].doc_id))

    def test_generate_corpus_equals_reference(self):
        # several pool sizes in one corpus, so documents stop drawing terms
        # at different steps
        model, docs = spread_model(POOLS, seed=5)
        for top_k in (1, 3, 5, 8, 12, 20):
            for max_query_tokens in (1, 2, 3, 4, 16):
                for seed in range(12):
                    cfg = SamplingConfig(
                        k_views=5 + seed % 2, top_k=top_k, max_query_tokens=max_query_tokens
                    )
                    got = [qset.queries for qset in generate_corpus(model, docs, cfg, seed=seed)]
                    want = [reference_queries(model, d, cfg, derive_seed(seed, d.doc_id)) for d in docs]
                    assert got == want

    @pytest.mark.parametrize("pool", (1, 5, 7, 8, 12, 16, 20, 129, 300))
    def test_pick_at_every_cdf_boundary(self, monkeypatch, pool):
        # one view per uniform, each at or just below a cumulative weight
        # of the pool: a uniform equal to an entry's cumulative weight
        # passes that entry
        model, docs = spread_model([pool], seed=100 + pool)
        terms, weights = zip(*ranked_pool(model, docs[0], pool))
        cumulative = list(itertools.accumulate(weights))
        cdf = [c / cumulative[-1] for c in cumulative]
        steps = sorted({int(c * 2**53) for c in cdf[:-1]} | {0, 2**53 - 1})
        uniforms = sorted({s * 2.0**-53 for s in steps} | {(s - 1) * 2.0**-53 for s in steps if s})
        assert pool == 1 or set(uniforms) & set(cdf)  # some uniform sits on a boundary
        words = [0] * (4 * len(uniforms))
        words[1::4] = [int(u * 2**53) << 11 for u in uniforms]
        patch_words(monkeypatch, words)
        # template 0 ("what is") leaves a budget of one term
        cfg = SamplingConfig(k_views=len(uniforms), top_k=pool, max_query_tokens=3)
        got = generate(model, docs[0], cfg).queries
        assert got == tuple(f"what is {terms[bisect.bisect_right(cdf, u)]}" for u in uniforms)

    @pytest.mark.parametrize("word", [0, 2**64 - 1])
    def test_extreme_words(self, monkeypatch, word):
        # u = 0 picks the first template and each draw's first term left;
        # u = 1 - 2**-53 the last template and each draw's last term left
        model, docs = spread_model([1, 2, 3, 7], seed=3)
        patch_words(monkeypatch, [word] * 12)
        cfg = SamplingConfig(k_views=3, top_k=5, max_query_tokens=16)
        last = word == 2**64 - 1
        for qset, doc in zip(generate_corpus(model, docs, cfg), docs):
            pool = [t for t, _ in ranked_pool(model, doc, cfg.top_k)]
            terms = pool[::-1] if last else pool
            want = " ".join([TEMPLATES[4 if last else 0]] + terms[:3])
            assert qset.queries == (want,) * 3

    def test_draw_frequencies(self):
        # 20,000 documents with one view each; with a fixed seed the
        # frequencies are fixed, and each sits within 0.01 (about three
        # standard errors of a proportion from 20,000 draws) of its target
        weights = {"alpha": 4.0, "beta": 2.0, "delta": 1.0, "gamma": 1.0}
        salience = {f"d{i}": weights for i in range(20_000)}
        templates = ("t0", "t1", "t2", "t3", "t4", "t5")
        model = QGModel(salience=salience, templates=templates, rng_seed=0)
        docs = [Document(doc_id, "unused by generation") for doc_id in salience]
        cfg = SamplingConfig(k_views=1, top_k=5, max_query_tokens=16)
        firsts = [qset.queries[0].split()[:2] for qset in generate_corpus(model, docs, cfg, seed=7)]
        n = len(firsts)
        for template in templates[:5]:
            assert abs(sum(t == template for t, _ in firsts) / n - 1 / 5) < 0.01
        assert not any(t == "t5" for t, _ in firsts)
        for term, w in weights.items():
            assert abs(sum(f == term for _, f in firsts) / n - w / 8) < 0.01
