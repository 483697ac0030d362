import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from mvdr.corpus import Document, GeneratedQuerySet, Query
import mvdr
from mvdr.encoder import EncoderConfig, encode_queries, init_params
from mvdr.evaluation import RankedList, RunEntry
import mvdr.index
from mvdr.index import (
    FlatIndex,
    batch_search,
    build_index,
    load_index,
    save_index,
    search,
    search_corpus,
    search_prefixes,
)
from mvdr.selftest import exhaustive_maxpool, random_index

CFG = EncoderConfig(embed_dim=8, hash_buckets=128, ngram_orders=(1,), max_query_tokens=8, max_doc_tokens=12)


def tiny_generated(docs, k=3):
    return [
        GeneratedQuerySet(d.doc_id, tuple(f"view {j} of {d.doc_id}" for j in range(k)))
        for d in docs
    ]


class TestFlatIndexValidation:
    def test_row_count_must_match(self, rng):
        with pytest.raises(ValueError, match="rows"):
            FlatIndex(
                matrix=rng.normal(size=(3, 4)).astype(np.float32),
                doc_ids=["a", "b"],
                k_views=2,
            )

    def test_duplicate_doc_ids_rejected(self, rng):
        with pytest.raises(ValueError, match="unique"):
            FlatIndex(
                matrix=rng.normal(size=(2, 4)).astype(np.float32),
                doc_ids=["a", "a"],
                k_views=1,
            )

    def test_nonfinite_rejected(self):
        matrix = np.ones((1, 4), dtype=np.float32)
        matrix[0, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            FlatIndex(
                matrix=matrix,
                doc_ids=["a"],
                k_views=1,
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_any_nonfinite_value_rejected(self, rng, bad):
        matrix = rng.normal(size=(6, 3)).astype(np.float32)
        matrix[4, 1] = bad
        with pytest.raises(ValueError, match="index embeddings must be finite"):
            FlatIndex(matrix=matrix, doc_ids=["a", "b", "c"], k_views=2)

    def test_largest_float32_values_accepted(self):
        # their squares overflow float32 but not the float64 sums
        matrix = np.full((4, 3), np.finfo(np.float32).max, dtype=np.float32)
        matrix[1::2] *= -1
        index = FlatIndex(matrix=matrix, doc_ids=["a", "b"], k_views=2)
        assert np.isfinite(index._max_norm)

    def test_finiteness_check_allocates_no_matrix_sized_array(self, rng):
        # np.isfinite(matrix) alone would take one byte per value
        matrix = rng.normal(size=(20_000, 64)).astype(np.float32)
        doc_ids = [f"d{i}" for i in range(1_000)]
        tracemalloc.start()
        try:
            FlatIndex(matrix=matrix, doc_ids=doc_ids, k_views=20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < matrix.size // 2

    @pytest.mark.parametrize("bad", ["a b", "", " a", "a\tb"])
    def test_doc_id_must_be_one_field(self, bad):
        # run files split on whitespace, so such an ID would break a run line
        with pytest.raises(ValueError, match="empty or contains whitespace"):
            FlatIndex(np.eye(2, dtype=np.float32), [bad, "c"], 1)

    def test_zero_width_rejected(self):
        # search sizes its rescore blocks by the row width
        with pytest.raises(ValueError, match="at least one column"):
            FlatIndex(matrix=np.zeros((2, 0), dtype=np.float32), doc_ids=["a", "b"], k_views=1)


class TestBuild:
    def test_single_view_mode(self, tiny_docs):
        params = init_params(CFG, seed=0)
        index = build_index(params, tiny_docs, mode="de")
        assert index.k_views == 1
        assert index.n_rows == len(tiny_docs)
        assert index.doc_ids == [d.doc_id for d in tiny_docs]

    def test_query_informed_mode(self, tiny_docs):
        params = init_params(CFG, seed=0)
        index = build_index(params, tiny_docs, mode="dce", generated=tiny_generated(tiny_docs))
        assert index.k_views == 3
        assert index.n_rows == 3 * len(tiny_docs)
        # rows follow document order, then view order within a document
        np.testing.assert_array_equal(index.row_doc[:6], [0, 0, 0, 1, 1, 1])
        generated = tiny_generated(tiny_docs)
        second_view = build_index(
            params,
            tiny_docs[:1],
            mode="dce",
            generated=[GeneratedQuerySet(generated[0].doc_id, generated[0].queries[1:2])],
        )
        # batched encoding may round float32 differently than one row alone
        np.testing.assert_allclose(index.matrix[1], second_view.matrix[0], rtol=0, atol=1e-6)

    def test_views_required_for_query_informed(self, tiny_docs):
        params = init_params(CFG, seed=0)
        with pytest.raises(ValueError, match="generated"):
            build_index(params, tiny_docs, mode="dce")

    def test_missing_views_for_one_doc(self, tiny_docs):
        params = init_params(CFG, seed=0)
        with pytest.raises(ValueError, match="no generated queries"):
            build_index(params, tiny_docs, mode="dce", generated=tiny_generated(tiny_docs[:2]))

    def test_uneven_views_rejected(self, tiny_docs):
        params = init_params(CFG, seed=0)
        generated = tiny_generated(tiny_docs)
        generated[1] = GeneratedQuerySet(tiny_docs[1].doc_id, ("only one",))
        with pytest.raises(ValueError, match="expected 3"):
            build_index(params, tiny_docs, mode="dce", generated=generated)

    def test_empty_corpus(self):
        params = init_params(CFG, seed=0)
        index = build_index(params, [], mode="de")
        assert index.n_docs == 0
        assert search(index, np.zeros(CFG.embed_dim), top_k_docs=5).results == ()


def truncated(index, k):
    """The first ``k`` views of every document of ``index``."""
    views = index.matrix.reshape(index.n_docs, index.k_views, index.embed_dim)
    return FlatIndex(views[:, :k].reshape(-1, index.embed_dim), index.doc_ids, k)


def assert_prefixes_match_search(index, queries, top_k_docs):
    """search_prefixes equals search over each view prefix, exactly."""
    docs, scores = search_prefixes(index, queries, top_k_docs)
    top = min(top_k_docs, index.n_docs)
    assert docs.shape == scores.shape == (index.k_views, len(queries), top)
    for k in range(1, index.k_views + 1):
        prefix = truncated(index, k)
        for q, query in enumerate(queries):
            want = search(prefix, query, top_k_docs).results
            assert [index.doc_ids[d] for d in docs[k - 1, q]] == [r.doc_id for r in want]
            assert scores[k - 1, q].tolist() == [r.score for r in want]


class TestSearchPrefixes:
    def test_prefix_equals_truncated_build(self, tiny_docs):
        params = init_params(CFG, seed=0)
        generated = tiny_generated(tiny_docs, k=4)
        full = build_index(params, tiny_docs, mode="dce", generated=generated)
        texts = ["solar panels", "court appeal", "view 2", "view 3 of d4"]
        embs = encode_queries(params, texts)
        top_k_docs = len(tiny_docs) + 2
        docs, scores = search_prefixes(full, embs, top_k_docs)
        for k in range(1, 5):
            rebuilt = build_index(
                params, tiny_docs, mode="dce",
                generated=[GeneratedQuerySet(g.doc_id, g.queries[:k]) for g in generated],
            )
            assert rebuilt.doc_ids == full.doc_ids and rebuilt.k_views == k
            np.testing.assert_allclose(truncated(full, k).matrix, rebuilt.matrix, rtol=0, atol=1e-6)
            for q, emb in enumerate(embs):
                want = search(rebuilt, emb, top_k_docs).results
                assert [full.doc_ids[d] for d in docs[k - 1, q]] == [r.doc_id for r in want]
                assert scores[k - 1, q].tolist() == [r.score for r in want]

    def test_matches_search_exactly(self, rng, monkeypatch):
        # small integers make every score exact in any summation order, and
        # give many exact ties; doc_id order differs from row order
        n_docs, k_views, dim = 9, 4, 3
        matrix = rng.integers(-3, 4, size=(n_docs * k_views, dim)).astype(np.float32)
        doc_ids = [f"d{i}" for i in rng.permutation(n_docs)]
        index = FlatIndex(matrix, doc_ids, k_views)
        queries = rng.integers(-3, 4, size=(8, dim)).astype(np.float64)
        # blocks of 3 queries: 8 queries leave a short last block
        monkeypatch.setattr("mvdr.index._BLOCK_QUERIES", 3)
        for top_k_docs in (1, 2, 4, n_docs, n_docs + 3):
            assert_prefixes_match_search(index, queries, top_k_docs)

    @pytest.mark.parametrize("dim", [3, 16, 67])
    def test_matches_search_on_random_floats(self, rng, monkeypatch, dim):
        # float scores round by summation order; doc_id order differs from
        # row order; blocks of 4 queries leave a short last block
        n_docs, k_views = 40, 5
        matrix = rng.normal(size=(n_docs * k_views, dim)).astype(np.float32)
        index = FlatIndex(matrix, [f"d{i:02d}" for i in rng.permutation(n_docs)], k_views)
        queries = rng.normal(size=(10, dim))
        monkeypatch.setattr("mvdr.index._BLOCK_QUERIES", 4)
        for top_k_docs in (1, 3, 10, n_docs):
            assert_prefixes_match_search(index, queries, top_k_docs)

    def test_doc_id_tie_straddles_boundary(self):
        # with view 1 only, b and c tie below a and the top-2 cut splits the
        # tie: the smaller doc_id wins though c comes first in the index;
        # c's view 2 lifts it above b
        matrix = np.array(
            [[2, 0], [3, 0],  # c
             [2, 0], [0, 0],  # b
             [4, 0], [1, 0]],  # a
            dtype=np.float32,
        )
        index = FlatIndex(matrix, ["c", "b", "a"], k_views=2)
        query = np.array([[1.0, 0.0]])
        docs, scores = search_prefixes(index, query, 2)
        assert [index.doc_ids[d] for d in docs[0, 0]] == ["a", "b"]
        assert [index.doc_ids[d] for d in docs[1, 0]] == ["a", "c"]
        assert scores[:, 0].tolist() == [[4.0, 2.0], [4.0, 3.0]]
        assert_prefixes_match_search(index, query, 2)

    def test_best_view_not_first(self):
        # x scores best on view 2; a prefix pools the best of views 1..k, not view k
        matrix = np.array([[1, 0], [5, 0], [2, 0], [3, 0], [3, 0], [4, 0]], dtype=np.float32)
        index = FlatIndex(matrix, ["x", "y"], k_views=3)
        docs, scores = search_prefixes(index, np.array([[1.0, 0.0]]), 2)
        assert scores[:, 0].tolist() == [[3.0, 1.0], [5.0, 3.0], [5.0, 4.0]]
        assert [[index.doc_ids[d] for d in row[0]] for row in docs] == [["y", "x"], ["x", "y"], ["x", "y"]]
        assert_prefixes_match_search(index, np.array([[1.0, 0.0], [0.0, 1.0]]), 2)

    def test_empty_index_and_no_queries(self):
        index = FlatIndex(np.zeros((0, 4), dtype=np.float32), [], k_views=1)
        docs, scores = search_prefixes(index, np.zeros((2, 4)), 5)
        assert docs.shape == scores.shape == (1, 2, 0)
        index = FlatIndex(np.ones((6, 4), dtype=np.float32), ["a", "b", "c"], k_views=2)
        docs, scores = search_prefixes(index, np.zeros((0, 4)), 5)
        assert docs.shape == scores.shape == (2, 0, 3)

    def test_bad_arguments_rejected(self, rng):
        index = random_index(rng, n_docs=5, k_views=2, dim=8)
        with pytest.raises(ValueError, match="top_k_docs"):
            search_prefixes(index, np.zeros((1, 8)), 0)
        for shape in ((8,), (2, 9)):
            with pytest.raises(ValueError, match="shape"):
                search_prefixes(index, np.zeros(shape), 3)
        queries = np.zeros((2, 8))
        queries[1, 3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            search_prefixes(index, queries, 3)


def count_blocks(monkeypatch):
    """The sizes of the query blocks that search screens from now on."""
    blocks = []
    screen = mvdr.index._screen

    def counted(index, block_queries, *args):
        blocks.append(len(block_queries))
        return screen(index, block_queries, *args)

    monkeypatch.setattr("mvdr.index._screen", counted)
    return blocks


class TestBlocks:
    """Ranking a block of queries equals ranking each query alone."""

    def test_search_corpus_equals_search_bit_for_bit(self, rng, monkeypatch):
        words = [f"w{i}" for i in range(30)]
        texts = [" ".join(rng.choice(words, size=10)) for _ in range(30)]
        views = [tuple(" ".join(rng.choice(words, size=3)) for _ in range(3)) for _ in texts]
        # documents 30-39 copy the text and views of documents 13-22: exact
        # ties in different row chunks; doc_id order differs from row order
        texts += texts[13:23]
        views += views[13:23]
        doc_ids = [f"d{i:02d}" for i in rng.permutation(len(texts))]
        docs = [Document(d, t) for d, t in zip(doc_ids, texts)]
        generated = [GeneratedQuerySet(d, v) for d, v in zip(doc_ids, views)]
        params = init_params(CFG, seed=0)
        index = build_index(params, docs, mode="dce", generated=generated)
        queries = [Query(f"q{i}", " ".join(rng.choice(words, size=3))) for i in range(11)]
        # blocks of 4 queries leave a short last block of 3; a full block's
        # products cover 5 documents each
        monkeypatch.setattr("mvdr.index._BLOCK_QUERIES", 4)
        monkeypatch.setattr("mvdr.index._BLOCK_BYTES", 4 * 4 * index.k_views * 5)
        blocks = count_blocks(monkeypatch)
        embs = encode_queries(params, [q.text for q in queries])
        for top_k_docs in (1, 7, 15, len(docs)):
            blocks.clear()
            ranked = search_corpus(params, index, queries, top_k_docs)
            assert blocks == [4, 4, 3]
            for got, query, emb in zip(ranked, queries, embs):
                want = search(index, emb, top_k_docs, query_id=query.query_id)
                assert got.query_id == want.query_id
                assert [(r.doc_id, r.rank) for r in got.results] == [(r.doc_id, r.rank) for r in want.results]
                got_scores = np.array([r.score for r in got.results])
                assert got_scores.tobytes() == np.array([r.score for r in want.results]).tobytes()

    def test_ties_at_block_and_chunk_boundaries_and_late_entries(self, monkeypatch):
        # query (1, 0) scores each view by its first value. On view 1, a, b
        # and d tie at 3 in three different row chunks of two documents;
        # f's first two views are the worst of all, and its third the best
        views = np.array(
            [[[5, 1], [0, 2], [0, 0]],  # e
             [[3, 0], [3, 1], [3, 2]],  # b
             [[3, 2], [1, 0], [1, 1]],  # a
             [[-9, 0], [-9, 0], [9, 0]],  # f
             [[3, 1], [0, 0], [0, 2]],  # d
             [[1, 0], [4, 1], [0, 0]]],  # c
            dtype=np.float32,
        )
        index = FlatIndex(views.reshape(-1, 2), ["e", "b", "a", "f", "d", "c"], k_views=3)
        # the same query ends the first block and starts the second; 7
        # queries in blocks of 3 leave a short last block
        queries = np.array([[0, 1], [1, 1], [1, 0], [1, 0], [2, 0], [1, -1], [1, 0]], dtype=np.float64)
        monkeypatch.setattr("mvdr.index._BLOCK_QUERIES", 3)
        monkeypatch.setattr("mvdr.index._BLOCK_BYTES", 4 * 3 * index.k_views * 2)
        blocks = count_blocks(monkeypatch)
        docs, scores = search_prefixes(index, queries, 3)
        assert blocks == [3, 3, 1]
        for q in (2, 3, 6):
            assert [[index.doc_ids[d] for d in row] for row in docs[:, q]] == [
                ["e", "a", "b"], ["e", "c", "a"], ["f", "e", "c"]
            ]
            assert scores[:, q].tolist() == [[5, 3, 3], [5, 4, 3], [9, 5, 4]]
        assert_prefixes_match_search(index, queries, 3)
        assert_prefixes_match_search(index, queries, 1)

    def test_overflow_and_zero_queries_inside_a_block(self, rng, monkeypatch):
        # one query without a float32 bound makes its whole block rescore
        # every document; the block's other queries rank as they do alone
        index = random_index(rng, n_docs=12, k_views=3, dim=8)
        queries = rng.normal(size=(6, 8))
        queries[1] *= 1e39
        queries[4] = 0
        monkeypatch.setattr("mvdr.index._BLOCK_QUERIES", 4)
        blocks = count_blocks(monkeypatch)
        docs, scores = search_prefixes(index, queries, 5)
        assert blocks == [4, 2]
        assert_prefixes_match_search(index, queries, 5)
        row_doc_ids = [index.doc_ids[i] for i in index.row_doc]
        for q, query in enumerate(queries):
            want = exhaustive_maxpool(index.matrix, row_doc_ids, query)[:5]
            assert [index.doc_ids[d] for d in docs[-1, q]] == [d for d, _ in want]
            np.testing.assert_allclose(scores[-1, q], [s for _, s in want], rtol=1e-12)

    def test_sweep_shaped_search_stays_within_its_block_budget(self, rng):
        # the analysis sweep's shape: 1,000 documents of 10 views of 16
        # values and 2,000 float32 query embeddings. Besides its outputs,
        # ranking holds one block at a time: its float64 queries, its screen
        # (13 bytes per query and document, 1.6 budgets here) with one
        # product's scores (a budget), then a rescore chunk (a budget) and
        # the order grid with its argsort (16 bytes per prefix, query and
        # candidate; random views leave about 95 candidates per query)
        index = random_index(rng, n_docs=1_000, k_views=10, dim=16)
        queries = rng.normal(size=(2_000, 16)).astype(np.float32)
        tracemalloc.start()
        try:
            docs, scores = search_prefixes(index, queries, 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= docs.nbytes + scores.nbytes + 6 * mvdr.index._BLOCK_BYTES


class TestSearch:
    def test_matches_exhaustive_pooling(self, rng):
        index = random_index(rng, n_docs=60, k_views=4, dim=16)
        for _ in range(20):
            q = rng.normal(size=16)
            expected = exhaustive_maxpool(
                index.matrix, [index.doc_ids[i] for i in index.row_doc], q
            )[:10]
            got = search(index, q, top_k_docs=10)
            assert [r.doc_id for r in got.results] == [d for d, _ in expected]
            np.testing.assert_allclose(
                [r.score for r in got.results], [s for _, s in expected], atol=1e-9
            )

    def test_results_are_run_entries_ranked_from_1(self, rng):
        index = random_index(rng, n_docs=12, k_views=3, dim=8)
        got = search(index, rng.normal(size=8), top_k_docs=5, query_id="q")
        assert isinstance(got, RankedList) and got.query_id == "q"
        assert all(isinstance(r, RunEntry) for r in got.results)
        assert [r.rank for r in got.results] == [1, 2, 3, 4, 5]
        assert mvdr.RankedList is mvdr.index.RankedList is RankedList

    def test_partition_boundary_ties_survive(self):
        # two docs tie exactly at the candidate cutoff; both must pool correctly
        dim = 4
        matrix = np.zeros((6, dim), dtype=np.float32)
        matrix[0, 0] = 2.0  # doc a, view 0
        matrix[1, 0] = 1.0  # doc a, view 1
        matrix[2, 0] = 1.0  # doc b, view 0
        matrix[3, 0] = 1.0  # doc b, view 1
        matrix[4, 0] = 1.0  # doc c, view 0
        matrix[5, 0] = 0.5  # doc c, view 1
        index = FlatIndex(matrix=matrix, doc_ids=["a", "b", "c"], k_views=2)
        q = np.array([1.0, 0.0, 0.0, 0.0])
        got = search(index, q, top_k_docs=1)
        assert got.results[0].doc_id == "a"
        # the cut falls inside the b/c tie: the smaller doc_id wins
        got = search(index, q, top_k_docs=2)
        assert [r.doc_id for r in got.results] == ["a", "b"]
        got = search(index, q, top_k_docs=3)
        # b and c tie at 1.0 and must break by doc_id
        assert [r.doc_id for r in got.results] == ["a", "b", "c"]
        assert got.results[1].score == got.results[2].score == 1.0

    def test_certified_screen_at_the_boundary(self, rng):
        # Every float64 score is exact in any summation order (a sum of 32
        # products of 12-bit and 30-bit integers at one scale, 2**-42), while
        # float32 rounds both the query and the products. Coordinates 1-6
        # form three pairs that the query weighs equally; each row moves a
        # pair by +s and -s, which leaves its exact score unchanged but not
        # its float32 one. Two thirds of the documents then differ only in
        # coordinate 0, which the query weighs 3 * 2**-30: their scores lie
        # 1e-9 apart, far inside the float32 bound, and many tie exactly.
        # doc_id order differs from row order.
        dim, n_docs, k_views = 32, 300, 3
        q_int = rng.integers(2**29, 2**30, size=dim) * rng.choice([-1, 1], size=dim)
        q_int[0] = 3
        q_int[2:8:2] = q_int[1:7:2]
        rows = np.tile(np.sign(q_int) * rng.integers(1024, 2048, size=dim), (n_docs * k_views, 1))
        rows[:, 0] = rng.integers(-600, 600, size=len(rows))
        shift = rng.integers(-1000, 1000, size=(len(rows), 3))
        rows[:, 1:7:2] += shift
        rows[:, 2:8:2] -= shift
        views = rows.reshape(n_docs, k_views, dim)
        far = rng.permutation(n_docs)[: n_docs // 3]
        views[far, :, 7] -= np.sign(q_int[7]) * 512  # clearly below on every view
        views[1::7] = views[0]  # exact ties with document 0
        exact = (views @ q_int).max(axis=1)  # integers below 2**47
        doc_ids = [f"d{i:03d}" for i in rng.permutation(n_docs)]
        index = FlatIndex((rows / 4096).astype(np.float32), doc_ids, k_views)
        order = sorted(range(n_docs), key=lambda i: (-exact[i], index.doc_ids[i]))
        q = q_int / 2**30
        for top_k_docs in (1, 5, 10, 40, 199, n_docs):
            got = search(index, q, top_k_docs)
            want = order[:top_k_docs]
            assert [r.doc_id for r in got.results] == [index.doc_ids[i] for i in want]
            assert [r.score for r in got.results] == [exact[i] / 2**42 for i in want]

    def test_float32_overflow_and_zero_query_rank_every_document(self, rng, monkeypatch):
        # a query that overflows float32 gives no bound, and a zero query ties
        # every document: both rescore all documents, three (query, document)
        # pairs per rescore chunk here
        monkeypatch.setattr("mvdr.index._BLOCK_BYTES", 3 * 12 * 2 * 8)
        index = random_index(rng, n_docs=10, k_views=2, dim=8)
        row_doc_ids = [index.doc_ids[i] for i in index.row_doc]
        for query in (rng.normal(size=8) * 1e39, np.zeros(8)):
            want = exhaustive_maxpool(index.matrix, row_doc_ids, query)
            got = search(index, query, top_k_docs=10).results
            assert [r.doc_id for r in got] == [d for d, _ in want]
            np.testing.assert_allclose([r.score for r in got], [s for _, s in want], rtol=1e-12)

    @pytest.mark.parametrize("kernel", ["search", "search_prefixes"])
    def test_one_search_allocates_less_than_a_float64_matrix(self, rng, kernel):
        index = random_index(rng, n_docs=2_000, k_views=10, dim=64)
        queries = rng.normal(size=(8, 64))
        call = {
            "search": lambda: search(index, queries[0], 10),
            "search_prefixes": lambda: search_prefixes(index, queries, 10),
        }[kernel]
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < index.matrix.size * 8

    def test_top_k_larger_than_corpus(self, rng):
        index = random_index(rng, n_docs=5, k_views=2, dim=8)
        got = search(index, rng.normal(size=8), top_k_docs=50)
        assert len(got.results) == 5

    def test_rejects_bad_inputs(self, rng):
        index = random_index(rng, n_docs=5, k_views=2, dim=8)
        with pytest.raises(ValueError, match="top_k_docs"):
            search(index, np.zeros(8), top_k_docs=0)
        with pytest.raises(ValueError, match="shape"):
            search(index, np.zeros(9), top_k_docs=3)
        for bad in (np.nan, np.inf, -np.inf):
            query = np.zeros(8)
            query[3] = bad
            with pytest.raises(ValueError, match="finite"):
                search(index, query, top_k_docs=3)

    def test_batch_matches_sequential(self, rng):
        index = random_index(rng, n_docs=40, k_views=3, dim=8)
        queries = [(f"q{i}", rng.normal(size=8)) for i in range(12)]
        sequential = [search(index, emb, 7, query_id=qid) for qid, emb in queries]
        assert batch_search(index, queries, 7) == sequential

    def test_search_corpus_encodes_queries(self, tiny_docs):
        params = init_params(CFG, seed=0)
        index = build_index(params, tiny_docs, mode="de")
        queries = [Query("q1", "solar panels"), Query("q2", "court appeal")]
        ranked = search_corpus(params, index, queries, top_k_docs=2)
        assert [r.query_id for r in ranked] == ["q1", "q2"]
        direct = search(index, encode_queries(params, ["solar panels"])[0], 2, query_id="q1")
        # batched query encoding may round float32 differently than one-at-a-time
        assert [r.doc_id for r in ranked[0].results] == [r.doc_id for r in direct.results]
        np.testing.assert_allclose(
            [r.score for r in ranked[0].results],
            [r.score for r in direct.results],
            atol=1e-6,
        )


class TestIndexIO:
    def test_roundtrip(self, tmp_path, tiny_docs):
        params = init_params(CFG, seed=0)
        dce = build_index(params, tiny_docs, mode="dce", generated=tiny_generated(tiny_docs))
        empty = build_index(params, [], mode="de")
        for index in (dce, empty):
            path = tmp_path / "index.bin"
            save_index(index, path)
            loaded = load_index(path)
            assert loaded.doc_ids == index.doc_ids
            assert loaded.k_views == index.k_views
            assert loaded.matrix.dtype == np.float32
            np.testing.assert_array_equal(loaded.matrix, index.matrix)
            np.testing.assert_array_equal(loaded.row_doc, index.row_doc)

    def test_save_is_deterministic(self, tmp_path, tiny_docs):
        params = init_params(CFG, seed=0)
        index = build_index(params, tiny_docs, mode="de")
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        save_index(index, a)
        save_index(index, b)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "index.bin"
        # the earlier row-table format has no second reader
        for magic in (b"WRONG", b"MVIXT1"):
            path.write_bytes(magic + b"\x00" * 32)
            with pytest.raises(ValueError, match="bad magic"):
                load_index(path)

    def test_corruption_detected(self, tmp_path, rng):
        index = random_index(rng, n_docs=4, k_views=2, dim=4)
        path = tmp_path / "index.bin"
        save_index(index, path)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="checksum mismatch"):
            load_index(path)

    def test_header_claiming_extra_doc_is_truncated(self, tmp_path, rng):
        # a checksum-valid file whose header promises one more document than
        # the payload holds must fail as truncated, not load as another index
        index = random_index(rng, n_docs=4, k_views=2, dim=4)
        path = tmp_path / "index.bin"
        save_index(index, path)
        payload = bytearray(path.read_bytes()[:-4])
        struct.pack_into("<I", payload, 6, index.n_docs + 1)
        path.write_bytes(bytes(payload) + struct.pack("<I", zlib.crc32(payload)))
        with pytest.raises(ValueError, match="truncated"):
            load_index(path)

    def test_truncation_detected(self, tmp_path, rng):
        index = random_index(rng, n_docs=4, k_views=2, dim=4)
        path = tmp_path / "index.bin"
        save_index(index, path)
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(ValueError, match="checksum mismatch|truncated"):
            load_index(path)

    def test_appended_bytes_are_rejected(self, tmp_path, rng):
        # a checksum-valid file with bytes after the matrix is not an index
        index = random_index(rng, n_docs=4, k_views=2, dim=4)
        path = tmp_path / "index.bin"
        save_index(index, path)
        payload = path.read_bytes()[:-4] + b"\x00" * 4
        path.write_bytes(payload + struct.pack("<I", zlib.crc32(payload)))
        with pytest.raises(ValueError, match="trailing bytes"):
            load_index(path)

    def test_doc_id_with_whitespace_rejected(self, tmp_path):
        # a checksum-valid file whose first doc_id is the given one
        def write(first: bytes):
            ids = b"".join(struct.pack("<I", len(raw)) + raw for raw in (first, b"c"))
            header = b"MVIXT2" + struct.pack("<III", 2, 1, 2)
            payload = header + ids + np.eye(2, dtype="<f4").tobytes()
            path.write_bytes(payload + struct.pack("<I", zlib.crc32(payload)))

        path = tmp_path / "index.bin"
        write(b"ab")
        assert load_index(path).doc_ids == ["ab", "c"]
        for bad in (b"a b", b"", b" a"):
            write(bad)
            with pytest.raises(ValueError, match="empty or contains whitespace"):
                load_index(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_embedding_rejected(self, tmp_path, rng, bad):
        # a checksum-valid file whose matrix holds a non-finite value
        index = random_index(rng, n_docs=4, k_views=2, dim=4)
        path = tmp_path / "index.bin"
        save_index(index, path)
        payload = bytearray(path.read_bytes()[:-4])
        struct.pack_into("<f", payload, len(payload) - 4 * 6, bad)
        path.write_bytes(bytes(payload) + struct.pack("<I", zlib.crc32(payload)))
        with pytest.raises(ValueError, match="index embeddings must be finite"):
            load_index(path)

    def test_loaded_matrix_is_aligned_and_read_only(self, tmp_path, rng):
        # doc_ids of 6 bytes each put the float block at offset 18 + 6 * 10,
        # 2 mod 4: a view of the file's bytes would be unaligned
        index = random_index(rng, n_docs=6, k_views=3, dim=4)
        path = tmp_path / "index.bin"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.matrix.flags.aligned and loaded.matrix.flags.c_contiguous
        assert loaded.matrix.flags.owndata and not loaded.matrix.flags.writeable
        with pytest.raises(ValueError):
            loaded.matrix[0, 0] = 1.0
        query = rng.normal(size=4)
        assert search(loaded, query, 3) == search(index, query, 3)
        queries = rng.normal(size=(5, 4))
        for got, want in zip(search_prefixes(loaded, queries, 3), search_prefixes(index, queries, 3)):
            np.testing.assert_array_equal(got, want)
        resaved = tmp_path / "resaved.bin"
        save_index(loaded, resaved)
        assert resaved.read_bytes() == path.read_bytes()
