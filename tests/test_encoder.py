import os
import re
import struct
import subprocess
import sys
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvdr.corpus import tokenize
from mvdr import encoder
from mvdr.encoder import (
    SEP_TOKEN,
    EncoderConfig,
    FeatureTable,
    RowGrad,
    candidate_feature_buckets,
    doc_feature_buckets,
    encode_candidates,
    encode_queries,
    forward_tower,
    init_params,
    joint_feature_buckets,
    load_params,
    query_feature_buckets,
    save_params,
)
from mvdr.hashing import stable_hash64, write_framed
from mvdr.trainer import AdamState, adam_step, zero_grads

CFG = EncoderConfig(embed_dim=8, hash_buckets=256, ngram_orders=(1, 2), max_query_tokens=4, max_doc_tokens=6)
BIGRAM_CFG = EncoderConfig(embed_dim=4, hash_buckets=64, ngram_orders=(2,))

def traced_peak(fn):
    """``fn()`` and the peak bytes that tracemalloc saw while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def tensor_bytes(params):
    return sum(arr.nbytes for arr in params.tower.tensors().values())


token_strategy = st.text(alphabet="abcdefgh", min_size=1, max_size=3)
text_strategy = st.lists(token_strategy, min_size=1, max_size=8).map(" ".join)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"embed_dim": 0},
            {"hash_buckets": 1},
            {"ngram_orders": ()},
            {"ngram_orders": (0, 1)},
            {"ngram_orders": (1, 1)},
            {"max_query_tokens": 0},
            {"max_doc_tokens": 0},
            # past what the checkpoint header stores (u32, u64, u8 fields)
            {"embed_dim": 2**32},
            {"hash_buckets": 2**64},
            {"ngram_orders": (1, 300)},
            {"max_query_tokens": 2**32},
            {"max_doc_tokens": 2**32},
            # queries and documents share one tower
            {"tie_params": False},
            {"tie_params": 1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            EncoderConfig(**kwargs)


class TestFeatureHashing:
    def test_separator_gets_reserved_bucket(self):
        buckets = joint_feature_buckets(FeatureTable(CFG), "alpha", "beta gamma")
        assert np.count_nonzero(buckets == CFG.hash_buckets - 1) == 1

    def test_plain_segments_avoid_reserved_bucket(self):
        table = FeatureTable(CFG)
        for text in ("alpha beta gamma", "one", "x y z w v u t"):
            assert CFG.hash_buckets - 1 not in query_feature_buckets(table, text)
            assert CFG.hash_buckets - 1 not in doc_feature_buckets(table, text)

    @given(text_strategy, text_strategy)
    @settings(max_examples=60)
    def test_joint_matches_full_sequence_hash(self, query_text, doc_text):
        fast = joint_feature_buckets(FeatureTable(CFG), query_text, doc_text).tolist()
        assert fast == scratch_buckets(CFG, query_text, doc_text)

    def test_query_cap_applies(self):
        table = FeatureTable(CFG)
        short = query_feature_buckets(table, "a b c d")
        long = query_feature_buckets(table, "a b c d ignored extra")
        assert short.tolist() == long.tolist()

    def test_doc_cap_applies(self):
        table = FeatureTable(CFG)
        short = doc_feature_buckets(table, "a b c d e f")
        long = doc_feature_buckets(table, "a b c d e f tail tail")
        assert short.tolist() == long.tolist()

    def test_unigram_count(self):
        cfg = EncoderConfig(embed_dim=4, hash_buckets=64, ngram_orders=(1,))
        assert len(doc_feature_buckets(FeatureTable(cfg), "one two three")) == 3

    def test_empty_text_rejected(self):
        # a table must not turn a rejected text into a kept result
        table = FeatureTable(CFG)
        for featurize in (query_feature_buckets, doc_feature_buckets):
            for _ in range(2):
                with pytest.raises(ValueError, match="no tokens"):
                    featurize(table, "  ... ")

    @pytest.mark.parametrize("featurize", [query_feature_buckets, doc_feature_buckets])
    def test_memoized_arrays_are_read_only(self, featurize):
        table = FeatureTable(CFG)
        first = featurize(table, "alpha beta gamma")
        before = first.tolist()
        assert not first.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            first[0] = 0
        assert featurize(table, "alpha beta gamma").tolist() == before

    def test_short_query_rejected(self):
        message = r"query 'who' is shorter than every n-gram order \(2,\)"
        table = FeatureTable(BIGRAM_CFG)
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                query_feature_buckets(table, "who")
        with pytest.raises(ValueError, match=message):
            encode_queries(init_params(BIGRAM_CFG, seed=0), ["who"])

    def test_short_document_rejected(self):
        message = r"document 'who' is shorter than every n-gram order \(2,\)"
        with pytest.raises(ValueError, match=message):
            doc_feature_buckets(FeatureTable(BIGRAM_CFG), "who")
        params = init_params(BIGRAM_CFG, seed=0)
        with pytest.raises(ValueError, match=message):
            encode_candidates(params, [(None, "who")], FeatureTable(BIGRAM_CFG))

    def test_short_joint_input_rejected(self):
        # one token on each side: bigrams still cross the separator, 4-grams never fit
        assert len(joint_feature_buckets(FeatureTable(BIGRAM_CFG), "who", "what")) == 2
        cfg = EncoderConfig(embed_dim=4, hash_buckets=64, ngram_orders=(4,))
        with pytest.raises(ValueError, match=r"query 'who' with document 'what' .*\(4,\)"):
            joint_feature_buckets(FeatureTable(cfg), "who", "what")


MASK64 = 2**64 - 1


def fmix64(x):
    """MurmurHash3's 64-bit finalizer, in plain Python integers."""
    x ^= x >> 33
    x = x * 0xFF51AFD7ED558CCD & MASK64
    x ^= x >> 33
    x = x * 0xC4CEB9FE1A85EC53 & MASK64
    return x ^ x >> 33


def gram_hash(gram):
    """An n-gram's 64-bit hash: its first token's hash, then for each further
    token h = fmix64(h * 0x9E3779B97F4A7C15 + token hash) mod 2**64."""
    h = stable_hash64(gram[0])
    for token in gram[1:]:
        h = fmix64((h * 0x9E3779B97F4A7C15 + stable_hash64(token)) & MASK64)
    return h


def scratch_buckets(cfg, query_text=None, doc_text=None):
    """Every n-gram of the capped query, document or ``query <SEP> document``
    hashed from scratch, in the encoder's layout: the query's own n-grams,
    those that overlap the separator, then the document's, each part by
    order and position."""
    seq, sep = (), None
    if query_text is not None:
        seq = tuple(tokenize(query_text)[: cfg.max_query_tokens])
    if doc_text is not None:
        doc = tuple(tokenize(doc_text)[: cfg.max_doc_tokens])
        if query_text is not None:
            sep = len(seq)
            seq += (SEP_TOKEN,)
        seq += doc
    grams = []
    for rank, n in enumerate(cfg.ngram_orders):
        for i in range(len(seq) - n + 1):
            gram = seq[i : i + n]
            if gram == (SEP_TOKEN,):
                bucket = cfg.hash_buckets - 1
            else:
                bucket = gram_hash(gram) % (cfg.hash_buckets - 1)
            part = 0 if sep is None or i + n <= sep else 2 if i > sep else 1
            grams.append((part, rank, i, bucket))
    return [bucket for *_, bucket in sorted(grams)]


# short caps on both sides; orders longer than many texts
TABLE_CFGS = [
    CFG,
    EncoderConfig(embed_dim=4, hash_buckets=97, ngram_orders=(2, 3), max_query_tokens=3, max_doc_tokens=5),
    EncoderConfig(embed_dim=4, hash_buckets=2**16, ngram_orders=(3, 1), max_query_tokens=5, max_doc_tokens=4),
    EncoderConfig(embed_dim=4, hash_buckets=2**16, ngram_orders=(4, 2), max_query_tokens=4, max_doc_tokens=3),
]
# few distinct tokens, so n-grams repeat within and across texts
repeat_text = st.lists(st.sampled_from("ab ab cd e".split()), min_size=0, max_size=9).map(" ".join)


def featurize_request(table, query_text, doc_text):
    if doc_text is None:
        return query_feature_buckets(table, query_text)
    return candidate_feature_buckets(table, (query_text, doc_text))


def featurize_or_error(featurize, *args):
    try:
        return featurize(*args).tolist()
    except ValueError as err:
        return "no tokens" if "no tokens" in str(err) else "too short"


def scratch_or_error(cfg, query_text=None, doc_text=None):
    for text, cap in ((query_text, cfg.max_query_tokens), (doc_text, cfg.max_doc_tokens)):
        if text is not None and not tokenize(text)[:cap]:
            return "no tokens"
    return scratch_buckets(cfg, query_text, doc_text) or "too short"


class TestFeatureTable:
    @given(repeat_text, repeat_text)
    @settings(max_examples=150, deadline=None)
    def test_each_text_matches_scratch_hashing(self, query_text, doc_text):
        for cfg in TABLE_CFGS:
            want = scratch_or_error(cfg, query_text=query_text)
            assert featurize_or_error(query_feature_buckets, FeatureTable(cfg), query_text) == want
            want = scratch_or_error(cfg, doc_text=doc_text)
            assert featurize_or_error(doc_feature_buckets, FeatureTable(cfg), doc_text) == want
            want = scratch_or_error(cfg, query_text, doc_text)
            got = featurize_or_error(joint_feature_buckets, FeatureTable(cfg), query_text, doc_text)
            assert got == want

    @pytest.mark.parametrize("queued", [False, True])
    @pytest.mark.parametrize("cfg", TABLE_CFGS)
    def test_one_table_across_shuffled_texts(self, cfg, queued):
        rng = np.random.default_rng(7)
        words = "ab cd e fg ab cd".split()
        texts = [" ".join(rng.choice(words, size=rng.integers(1, 9))) for _ in range(30)]
        # each document's views in a row, as an index build reads them, then
        # everything again in shuffled order, as training epochs read them
        pairs = [(q, d) for d in texts[:10] for q in texts[10:14]] + [(None, d) for d in texts]
        order = rng.permutation(len(pairs))
        pairs += [pairs[i] for i in order]
        table = FeatureTable(cfg)
        # queued: one pass over everything, as training featurizes a stage;
        # else a pass per request, each replacing what the table keeps
        if queued:
            table.queue([*pairs, *((q, None) for q, _ in pairs if q is not None)])
        for query_text, doc_text in pairs:
            want = scratch_or_error(cfg, query_text, doc_text)
            got = featurize_or_error(candidate_feature_buckets, table, (query_text, doc_text))
            assert got == want
            if query_text is not None:
                assert featurize_or_error(query_feature_buckets, table, query_text) == (
                    scratch_or_error(cfg, query_text=query_text)
                )

    def test_caps_cut_both_sides(self):
        query_text, doc_text = "q1 q2 q3 q4 q5 q6", "d1 d2 d3 d4 d5 d6 d7 d8"
        table = FeatureTable(CFG)
        got = joint_feature_buckets(table, query_text, doc_text).tolist()
        assert got == scratch_buckets(CFG, "q1 q2 q3 q4", "d1 d2 d3 d4 d5 d6")
        assert len(got) == (4 + 1 + 6) + (3 + 2 + 5)

    def test_each_distinct_token_hashed_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(encoder, "stable_hash64", lambda key: calls.append(key) or stable_hash64(key))
        table = FeatureTable(CFG)
        for text in ("ab ab ab", "ab ab", "ab cd ab"):
            query_feature_buckets(table, text)
        table.queue([("cd ef", "ab gh"), (None, "gh ab")])
        joint_feature_buckets(table, "cd ef", "ab gh")
        doc_feature_buckets(table, "gh ab")
        assert sorted(calls) == ["ab", "cd", "ef", "gh"]

    @pytest.mark.parametrize("hash_buckets", [2, 97, 2**18])
    def test_unigram_buckets_are_token_hashes(self, monkeypatch, hash_buckets):
        # a unigram-only table never mixes: every bucket is a token's hash,
        # and the separator's is the reserved last bucket
        def no_mix(x):
            raise AssertionError("a unigram-only table called the mixer")

        monkeypatch.setattr(encoder, "_mix", no_mix)
        cfg = EncoderConfig(embed_dim=4, hash_buckets=hash_buckets, ngram_orders=(1,))
        table = FeatureTable(cfg)
        query, doc = "how does the solar panel work", "the solar panel turns light into power"
        want_q = [stable_hash64(t) % (hash_buckets - 1) for t in tokenize(query)]
        want_d = [stable_hash64(t) % (hash_buckets - 1) for t in tokenize(doc)]
        table.queue([(query, doc), (None, doc), (query, None)])
        assert joint_feature_buckets(table, query, doc).tolist() == want_q + [hash_buckets - 1] + want_d
        assert doc_feature_buckets(table, doc).tolist() == want_d
        assert query_feature_buckets(table, query).tolist() == want_q
        params = init_params(cfg, seed=0)
        encode_candidates(params, [(query, doc), (None, doc)], table)
        encode_queries(params, [query])

    @pytest.mark.parametrize("overlap", [False, True])
    @pytest.mark.parametrize("cfg", TABLE_CFGS)
    def test_queued_pass_equals_one_pass_per_request(self, cfg, overlap):
        # one pass over many requests, with repeats, texts without tokens and
        # texts shorter than an order, gives each request what it gets alone;
        # with overlap, a second pass repeats half of the first one's requests
        texts = ["ab cd", "e", " ... ", "ab cd e fg h", "fg fg fg", "cd"]
        requests = [(q, d) for q in texts + [None] for d in texts + [None] if (q, d) != (None, None)]
        requests += requests[:9]
        third = len(requests) // 3
        passes = [requests[: 2 * third], requests[third:]] if overlap else [requests]
        table = FeatureTable(cfg)
        for queued in passes:
            table.queue(queued)
            for request in queued:
                got = featurize_or_error(featurize_request, table, *request)
                assert got == featurize_or_error(featurize_request, FeatureTable(cfg), *request)
                assert got == scratch_or_error(cfg, *request)

    @pytest.mark.parametrize("cfg", TABLE_CFGS)
    def test_views_across_passes_equal_a_fresh_table(self, cfg, monkeypatch):
        # one document's views straddle two encode_candidates chunks of one
        # table, and the second chunk repeats a request of the first: each
        # chunk runs one pass, and every row gets a fresh table's buckets
        featurize, one_pass = encoder.candidate_feature_buckets, FeatureTable._featurize
        rows, passes = [], []

        def recorded(table, pair):
            buckets = featurize(table, pair)
            rows.append((pair, buckets.tolist()))
            return buckets

        def counted(table, requests):
            passes.append(requests)
            one_pass(table, requests)

        monkeypatch.setattr(encoder, "candidate_feature_buckets", recorded)
        monkeypatch.setattr(FeatureTable, "_featurize", counted)
        doc, other = "ab cd e fg h", "fg e ab cd"
        chunks = [
            [("ab cd", doc), ("e fg", doc), (None, other)],
            [("e fg", doc), ("cd ab e", doc), ("ab cd", other)],
        ]
        params, table = init_params(cfg, seed=0), FeatureTable(cfg)
        for chunk in chunks:
            encode_candidates(params, chunk, table)
        assert len(passes) == len(chunks)
        assert [pair for pair, _ in rows] == chunks[0] + chunks[1]
        fresh = [featurize(FeatureTable(cfg), pair).tolist() for pair, _ in rows]
        assert [got for _, got in rows] == fresh

    @pytest.mark.parametrize("cfg", TABLE_CFGS)
    def test_unqueued_request_joins_the_queued_pass(self, cfg, monkeypatch):
        # a request asked for before the queued ones joins their pass: the
        # queue and it are featurized together, once
        one_pass, passes = FeatureTable._featurize, []

        def counted(table, requests):
            passes.append(list(requests))
            one_pass(table, requests)

        monkeypatch.setattr(FeatureTable, "_featurize", counted)
        a, b, c = ("ab cd", "ab cd e fg h"), (None, "fg e ab cd"), ("e fg", "cd ab e")
        table = FeatureTable(cfg)
        table.queue([a, b])
        got = [featurize_or_error(featurize_request, table, *request) for request in (c, a, b)]
        assert passes == [[a, b, c]]
        fresh = [featurize_or_error(featurize_request, FeatureTable(cfg), *r) for r in (c, a, b)]
        assert got == fresh

    def test_encodings_through_a_table_equal_throwaway_ones(self):
        params = init_params(CFG, seed=3)
        pairs = [("alpha beta", "gamma delta eps"), (None, "gamma delta eps"), ("beta", "zeta")]
        table = FeatureTable(CFG)
        throwaway = encode_candidates(params, pairs, FeatureTable(CFG))
        np.testing.assert_array_equal(encode_candidates(params, pairs, table), throwaway)
        reversed_ = encode_candidates(params, pairs[::-1], table)
        np.testing.assert_array_equal(reversed_, throwaway[::-1])


class TestInit:
    def test_deterministic(self):
        a = init_params(CFG, seed=5)
        b = init_params(CFG, seed=5)
        for name, arr in a.tower.tensors().items():
            np.testing.assert_array_equal(arr, b.tower.tensors()[name])

    def test_seed_changes_weights(self):
        a = init_params(CFG, seed=5)
        b = init_params(CFG, seed=6)
        assert not np.array_equal(a.tower.w_hidden, b.tower.w_hidden)

    def test_tied_towers_share_storage(self):
        # queries and documents go through the one tower: a text embeds to
        # the same vector as a query and as a document
        params = init_params(CFG, seed=0)
        text = "alpha beta gamma"
        as_doc = encode_candidates(params, [(None, text)], FeatureTable(CFG))
        np.testing.assert_array_equal(encode_queries(params, [text]), as_doc)

    def test_copy_preserves_tying(self):
        params = init_params(CFG, seed=0)
        clone = params.copy()
        assert clone.config == params.config
        clone.tower.b_out += 1.0
        assert not np.array_equal(clone.tower.b_out, params.tower.b_out)

    def test_dtype(self):
        assert init_params(CFG, seed=0).tower.w_out.dtype == np.float32
        assert init_params(CFG, seed=0, dtype=np.float64).tower.w_out.dtype == np.float64

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_block_draw_equals_one_shot_draw(self, dtype):
        # hash_buckets is not a multiple of the row block: the last block is partial
        dim = 16
        rows_per_block = encoder._BLOCK_BYTES // (8 * dim)
        cfg = EncoderConfig(embed_dim=dim, hash_buckets=2 * rows_per_block + 37)
        rng = np.random.Generator(np.random.PCG64(11))
        bound = 1.0 / np.sqrt(dim)
        want = {
            "token_table": rng.uniform(-bound, bound, size=(cfg.hash_buckets, dim)),
            "w_hidden": np.eye(dim) + rng.uniform(-0.01, 0.01, size=(dim, dim)),
            "b_hidden": np.zeros(dim),
            "w_out": np.eye(dim) + rng.uniform(-0.01, 0.01, size=(dim, dim)),
            "b_out": np.zeros(dim),
        }
        for name, arr in init_params(cfg, seed=11, dtype=dtype).tower.tensors().items():
            assert arr.dtype == dtype
            assert arr.tobytes() == want[name].astype(dtype).tobytes(), name

    def test_peak_memory_near_tensor_bytes(self):
        cfg = EncoderConfig(embed_dim=32, hash_buckets=100_003)
        params, peak = traced_peak(lambda: init_params(cfg, seed=0))
        assert peak <= 1.25 * tensor_bytes(params)


class TestEncoding:
    def test_shapes_and_dtype(self):
        params = init_params(CFG, seed=1)
        emb = encode_queries(params, ["what is this"])[0]
        assert emb.shape == (CFG.embed_dim,)
        assert emb.dtype == np.float32
        batch = encode_queries(params, ["one", "two", "three"])
        assert batch.shape == (3, CFG.embed_dim)

    def test_batch_matches_single(self):
        params = init_params(CFG, seed=1)
        texts = ["solar panels", "court ruling", "apple harvest"]
        batch = encode_queries(params, texts)
        table = FeatureTable(CFG)
        buckets = [query_feature_buckets(table, t) for t in texts]
        _, cache = forward_tower(params.tower, buckets)
        for i, (row, text) in enumerate(zip(batch, texts)):
            # pooling is exact in any batch; the MLP's product for one row
            # (GEMV) sums in another order than for a block (GEMM)
            _, alone = forward_tower(params.tower, buckets[i : i + 1])
            assert cache.pooled[i].tobytes() == alone.pooled[0].tobytes()
            np.testing.assert_allclose(row, encode_queries(params, [text])[0], rtol=0, atol=1e-6)

    def test_empty_batch(self):
        # runs under the suite's RuntimeWarning-as-error filter
        for dtype in (np.float32, np.float64):
            params = init_params(CFG, seed=1, dtype=dtype)
            table = FeatureTable(CFG)
            for out in (encode_queries(params, []), encode_candidates(params, [], table)):
                assert out.shape == (0, CFG.embed_dim)
                assert out.dtype == dtype

    def test_mean_pool_ignores_repetition(self):
        # under unigram features a repeated token leaves the bag mean unchanged
        cfg = EncoderConfig(embed_dim=4, hash_buckets=32, ngram_orders=(1,))
        params = init_params(cfg, seed=2)
        pairs = [(None, "beacon"), (None, "beacon beacon beacon")]
        once, thrice = encode_candidates(params, pairs, FeatureTable(cfg))
        np.testing.assert_allclose(once, thrice, atol=1e-6)

    def test_view_differs_from_plain_doc(self):
        params = init_params(CFG, seed=1)
        pairs = [(None, "the reactor design"), ("reactor safety", "the reactor design")]
        plain, view = encode_candidates(params, pairs, FeatureTable(CFG))
        assert not np.allclose(plain, view)

    def test_candidates_route_by_prefix(self):
        params = init_params(CFG, seed=1)
        pairs = [(None, "the reactor design"), ("reactor safety", "the reactor design")]
        table = FeatureTable(CFG)
        batch = encode_candidates(params, pairs, table)
        for row, pair in zip(batch, pairs):
            np.testing.assert_allclose(row, encode_candidates(params, [pair], table)[0], atol=1e-6)
        buckets = [candidate_feature_buckets(table, p) for p in pairs]
        _, cache = forward_tower(params.tower, buckets)
        alone = [doc_feature_buckets(table, pairs[0][1]), joint_feature_buckets(table, *pairs[1])]
        for i, b in enumerate(alone):
            _, single = forward_tower(params.tower, [b])
            assert cache.pooled[i].tobytes() == single.pooled[0].tobytes()


class TestPooling:
    @pytest.mark.parametrize("small_blocks", [False, True], ids=["default-blocks", "small-blocks"])
    @pytest.mark.parametrize("dim", [1, 3, 16, 128])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_pooled_rows_equal_per_row_mean(self, rng, monkeypatch, dtype, dim, small_blocks):
        tower = init_params(EncoderConfig(embed_dim=dim, hash_buckets=300), seed=3, dtype=dtype).tower
        table = tower.token_table
        if small_blocks:
            # the six rows of 129 features gather in blocks of 4 and 2
            monkeypatch.setattr(encoder, "_BLOCK_BYTES", 4 * 129 * dim * table.itemsize)
        # every length from 1 to 140, some several times, shuffled so that
        # equal lengths are neither adjacent nor in length order
        lengths = np.concatenate([np.arange(1, 141), np.full(6, 3), np.full(5, 129), [1, 1]])
        rng.shuffle(lengths)
        buckets = [rng.integers(0, 300, size=n) for n in lengths]
        buckets.append(np.array([7, 7, 7, 7]))  # one bucket repeated within a row
        buckets.insert(0, buckets[5])  # one bucket array twice in a batch
        _, cache = forward_tower(tower, buckets)
        want = np.stack([table[b].mean(axis=0) for b in buckets])
        assert cache.pooled.dtype == dtype
        assert cache.pooled.tobytes() == want.tobytes()
        assert cache.lengths.tolist() == [len(b) for b in buckets]

    def test_serve_shaped_forward_peak_memory(self):
        # one index-build chunk of the default encoder: 512 rows of about
        # 56 buckets; each length's rows need more than one gather block
        tower = init_params(EncoderConfig(embed_dim=128, hash_buckets=4096), seed=0).tower
        rng = np.random.default_rng(7)
        buckets = [rng.integers(0, 4095, size=n) for n in rng.integers(54, 59, size=512)]
        (out, _), peak = traced_peak(lambda: forward_tower(tower, buckets))
        assert peak <= out.nbytes + 1.25 * encoder._BLOCK_BYTES

    def test_forward_leaves_numpy_ma_unimported(self):
        # np.unique imports numpy.ma, which adds about 1.35 MiB of RSS
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from mvdr.encoder import EncoderConfig, forward_tower, init_params\n"
            "tower = init_params(EncoderConfig(embed_dim=4, hash_buckets=16), seed=0).tower\n"
            "forward_tower(tower, [np.array([1, 2]), np.array([3]), np.array([4, 5])])\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(encoder.__file__).parents[1])}
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120, check=True
        )
        assert result.stdout.strip() == "False"


class TestRowGrad:
    @given(
        st.sampled_from([np.float32, np.float64]),
        st.lists(st.lists(st.integers(0, 11), max_size=20), min_size=1, max_size=5),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_accumulate_equals_dense_scatter(self, dtype, calls, seed):
        # successive calls, rows repeated within and across calls
        rng = np.random.default_rng(seed)
        dense = np.zeros((12, 3), dtype=dtype)
        grad = RowGrad.empty(dense)
        for rows in calls:
            flat = np.asarray(rows, dtype=np.int64)
            contributions = rng.normal(scale=10.0, size=(len(flat), 3)).astype(dtype)
            grad.accumulate(flat, contributions)
            np.add.at(dense, flat, contributions)
            assert grad.rows.tolist() == sorted(set(grad.rows.tolist()))
            assert grad.values.dtype == np.dtype(dtype)
            assert grad.to_dense(12).tobytes() == dense.tobytes()


class TestCheckpointIO:
    def test_roundtrip_tied(self, tmp_path):
        params = init_params(CFG, seed=3)
        path = tmp_path / "model.bin"
        save_params(params, path)
        loaded = load_params(path)
        assert loaded.config == CFG
        for name, arr in params.tower.tensors().items():
            np.testing.assert_array_equal(arr, loaded.tower.tensors()[name])

    @pytest.mark.parametrize("tied, towers", [(0, 2), (2, 1)], ids=["untied", "byte-2"])
    def test_tied_byte_other_than_one_is_rejected(self, tmp_path, tied, towers):
        # CRC-valid files in the MVDR3 layout; byte 0 is what an older build
        # wrote for separate query and document towers, followed by both
        cfg = EncoderConfig(embed_dim=4, hash_buckets=32, ngram_orders=(1,))
        params = init_params(cfg, seed=3)
        tensors = [arr.astype("<f4") for arr in params.tower.tensors().values()]

        def write(path, tied, towers):
            header = [
                struct.pack("<IQB", cfg.embed_dim, cfg.hash_buckets, 1),
                struct.pack("<B", 1),
                struct.pack("<BII", tied, cfg.max_query_tokens, cfg.max_doc_tokens),
            ]
            write_framed(path, encoder._MAGIC, header + tensors * towers)
            return path.read_bytes()

        # with byte 1 and one tower, the file built here is save_params's
        save_params(params, tmp_path / "saved.bin")
        assert write(tmp_path / "one.bin", 1, 1) == (tmp_path / "saved.bin").read_bytes()
        path = tmp_path / "model.bin"
        write(path, tied, towers)
        message = f"{path}: checkpoint tied byte is {tied}, expected 1"
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            load_params(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes(b"NOPE!" + b"\x00" * 64)
        with pytest.raises(ValueError, match="bad magic"):
            load_params(path)

    def test_mvdr1_checkpoint_rejected_by_name(self, tmp_path):
        # a checkpoint from before bigram buckets came from token hashes, or
        # from before tensors were padded to 64-byte offsets, has no second
        # reader: the current layout under an old magic, with a valid
        # checksum, fails like any other magic
        path = tmp_path / "model.bin"
        for old in (b"MVDR1", b"MVDR2"):
            save_params(init_params(CFG, seed=3), path)
            self._rewrite_payload(path, lambda p: p.__setitem__(slice(0, 5), old))
            with pytest.raises(ValueError, match=rf"bad magic {old!r}, expected b'MVDR3'"):
                load_params(path)

    def test_header_rejected_by_config_names_the_file(self, tmp_path):
        # a CRC-valid checkpoint whose header says embed_dim = 0
        path = tmp_path / "model.bin"
        header = [struct.pack("<IQBB", 0, 32, 1, 1), struct.pack("<BII", 1, 8, 8)]
        write_framed(path, encoder._MAGIC, header)
        message = f"{path}: embed_dim must lie in [1, 2**32), got 0"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            load_params(path)

    def test_corruption_detected(self, tmp_path):
        params = init_params(CFG, seed=3)
        path = tmp_path / "model.bin"
        save_params(params, path)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="checksum mismatch"):
            load_params(path)

    def test_truncation_detected(self, tmp_path):
        params = init_params(CFG, seed=3)
        path = tmp_path / "model.bin"
        save_params(params, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError, match="checksum mismatch|truncated"):
            load_params(path)

    def test_hard_truncation(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes(b"MVdr")
        with pytest.raises(ValueError, match="truncated"):
            load_params(path)

    @staticmethod
    def _rewrite_payload(path, edit):
        # damage that keeps a valid checksum: edit the payload, recompute the footer
        payload = bytearray(path.read_bytes()[:-4])
        edit(payload)
        path.write_bytes(bytes(payload) + struct.pack("<I", zlib.crc32(payload)))

    def test_header_claiming_more_rows_is_truncated(self, tmp_path):
        params = init_params(CFG, seed=3)
        path = tmp_path / "model.bin"
        save_params(params, path)
        # hash_buckets (u64 after the magic and embed_dim) promises one more table row
        self._rewrite_payload(
            path, lambda p: struct.pack_into("<Q", p, 9, CFG.hash_buckets + 1)
        )
        with pytest.raises(ValueError, match=r"truncated checkpoint while reading \w+"):
            load_params(path)

    def test_header_claiming_huge_table(self, tmp_path):
        # 2**40 rows would need 32 TiB: the claim is checked against the file
        # size before anything is allocated, and a damaged header is still
        # reported as a checksum mismatch
        params = init_params(CFG, seed=3)
        path = tmp_path / "model.bin"
        save_params(params, path)
        data = bytearray(path.read_bytes())
        struct.pack_into("<Q", data, 9, 2**40)
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="checksum mismatch"):
            load_params(path)
        self._rewrite_payload(path, lambda p: None)
        with pytest.raises(ValueError, match="truncated checkpoint while reading token_table"):
            load_params(path)

    def test_load_peak_memory_near_tensor_bytes(self, tmp_path):
        path = tmp_path / "model.bin"
        save_params(init_params(EncoderConfig(embed_dim=32, hash_buckets=100_003), seed=0), path)
        params, peak = traced_peak(lambda: load_params(path))
        assert peak <= 1.25 * tensor_bytes(params)

    def test_appended_bytes_are_rejected(self, tmp_path):
        params = init_params(CFG, seed=3)
        path = tmp_path / "model.bin"
        save_params(params, path)
        self._rewrite_payload(path, lambda p: p.extend(b"\x00" * 4))
        with pytest.raises(ValueError, match="trailing bytes"):
            load_params(path)

    def test_writes_to_loaded_tensors_leave_the_file(self, tmp_path):
        # the tensors are copy-on-write views of the file: a write copies
        # the page it touches, and the file and a second load keep the
        # saved values
        params = init_params(CFG, seed=3)
        path = tmp_path / "model.bin"
        save_params(params, path)
        saved = path.read_bytes()
        loaded = load_params(path)
        for arr in loaded.tower.tensors().values():
            assert not arr.flags.owndata
            arr += 1.0
        assert path.read_bytes() == saved
        for name, arr in load_params(path).tower.tensors().items():
            np.testing.assert_array_equal(arr, params.tower.tensors()[name])
            np.testing.assert_array_equal(loaded.tower.tensors()[name], arr + 1.0)

    def test_save_over_loaded_path_keeps_loaded_tensors(self, tmp_path):
        path = tmp_path / "model.bin"
        save_params(init_params(CFG, seed=3), path)
        loaded = load_params(path)
        before = loaded.copy()
        save_params(init_params(CFG, seed=4), path)
        for name, arr in loaded.tower.tensors().items():
            np.testing.assert_array_equal(arr, before.tower.tensors()[name])
        assert not np.array_equal(load_params(path).tower.token_table, loaded.tower.token_table)

    def test_loaded_tensors_are_writable_and_train(self, tmp_path):
        cfg = EncoderConfig(embed_dim=4, hash_buckets=32)
        path = tmp_path / "model.bin"
        save_params(init_params(cfg, seed=3), path)
        loaded = load_params(path)
        for arr in loaded.tower.tensors().values():
            assert arr.flags.writeable and arr.flags.aligned and arr.flags.c_contiguous
        grads = zero_grads(loaded)
        grads.token_table.accumulate(np.array([2, 7]), np.ones((2, 4), dtype=np.float32))
        grads.b_out[:] = 1.0
        before = loaded.copy()
        adam_step(loaded, grads, AdamState.for_params(loaded), lr=0.1)
        tower, old = loaded.tower, before.tower
        assert not np.array_equal(tower.token_table[[2, 7]], old.token_table[[2, 7]])
        assert not np.array_equal(tower.b_out, old.b_out)
