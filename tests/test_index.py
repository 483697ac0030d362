import struct
import zlib

import numpy as np
import pytest

from mvdr.corpus import GeneratedQuerySet, Query
from mvdr.encoder import EncoderConfig, encode_query, init_params
from mvdr.index import (
    FlatIndex,
    batch_search,
    build_index,
    first_views,
    load_index,
    save_index,
    search,
    search_corpus,
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

    def test_threads_do_not_change_bytes(self, tiny_docs):
        params = init_params(CFG, seed=0)
        generated = tiny_generated(tiny_docs)
        one = build_index(params, tiny_docs, mode="dce", generated=generated, threads=1)
        four = build_index(params, tiny_docs, mode="dce", generated=generated, threads=4)
        np.testing.assert_array_equal(one.matrix, four.matrix)

    def test_empty_corpus(self):
        params = init_params(CFG, seed=0)
        index = build_index(params, [], mode="de")
        assert index.n_docs == 0
        assert search(index, np.zeros(CFG.embed_dim), top_k_docs=5).results == ()


class TestFirstViews:
    def test_prefix_equals_truncated_build(self, tiny_docs):
        params = init_params(CFG, seed=0)
        generated = tiny_generated(tiny_docs, k=4)
        full = build_index(params, tiny_docs, mode="dce", generated=generated)
        queries = [Query("q1", "solar panels"), Query("q2", "court appeal"), Query("q3", "view 2")]
        for k in range(1, 5):
            truncated = [GeneratedQuerySet(g.doc_id, g.queries[:k]) for g in generated]
            rebuilt = build_index(params, tiny_docs, mode="dce", generated=truncated)
            prefix = first_views(full, k)
            assert prefix.doc_ids == rebuilt.doc_ids
            assert prefix.k_views == rebuilt.k_views == k
            np.testing.assert_array_equal(prefix.row_doc, rebuilt.row_doc)
            np.testing.assert_allclose(prefix.matrix, rebuilt.matrix, rtol=0, atol=1e-6)
            got = search_corpus(params, prefix, queries, top_k_docs=len(tiny_docs))
            want = search_corpus(params, rebuilt, queries, top_k_docs=len(tiny_docs))
            assert [[r.doc_id for r in rl.results] for rl in got] == [
                [r.doc_id for r in rl.results] for rl in want
            ]

    def test_k_out_of_range(self, tiny_docs):
        params = init_params(CFG, seed=0)
        full = build_index(params, tiny_docs, mode="dce", generated=tiny_generated(tiny_docs))
        for k in (0, 4):
            with pytest.raises(ValueError, match="k must lie"):
                first_views(full, k)


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

    def test_batch_matches_sequential(self, rng):
        index = random_index(rng, n_docs=40, k_views=3, dim=8)
        queries = [(f"q{i}", rng.normal(size=8)) for i in range(12)]
        sequential = [search(index, emb, 7, query_id=qid) for qid, emb in queries]
        for threads in (None, 1, 4):
            assert batch_search(index, queries, 7, threads=threads) == sequential

    def test_search_corpus_encodes_queries(self, tiny_docs):
        params = init_params(CFG, seed=0)
        index = build_index(params, tiny_docs, mode="de")
        queries = [Query("q1", "solar panels"), Query("q2", "court appeal")]
        ranked = search_corpus(params, index, queries, top_k_docs=2)
        assert [r.query_id for r in ranked] == ["q1", "q2"]
        direct = search(index, encode_query(params, "solar panels"), 2, query_id="q1")
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
