import math

import pytest

from mvdr.corpus import Document, tokenize
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
