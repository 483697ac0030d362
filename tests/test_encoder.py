import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvdr.corpus import tokenize
from mvdr.encoder import (
    SEP_TOKEN,
    EncoderConfig,
    doc_feature_buckets,
    encode_candidates,
    encode_document,
    encode_document_view,
    encode_queries,
    encode_query,
    init_params,
    joint_feature_buckets,
    load_params,
    query_feature_buckets,
    save_params,
    score,
)
from mvdr.hashing import stable_hash64

CFG = EncoderConfig(embed_dim=8, hash_buckets=256, ngram_orders=(1, 2), max_query_tokens=4, max_doc_tokens=6)
BIGRAM_CFG = EncoderConfig(embed_dim=4, hash_buckets=64, ngram_orders=(2,))

token_strategy = st.text(alphabet="abcdefgh", min_size=1, max_size=3)
text_strategy = st.lists(token_strategy, min_size=1, max_size=8).map(" ".join)


def naive_joint_buckets(cfg, query_text, doc_text):
    """Hash the full joined token sequence without the segment shortcut."""
    q = tuple(tokenize(query_text)[: cfg.max_query_tokens])
    d = tuple(tokenize(doc_text)[: cfg.max_doc_tokens])
    seq = q + (SEP_TOKEN,) + d
    space = cfg.hash_buckets - 1
    out = []
    for n in cfg.ngram_orders:
        for i in range(len(seq) - n + 1):
            gram = seq[i : i + n]
            if n == 1 and gram[0] == SEP_TOKEN:
                out.append(cfg.hash_buckets - 1)
            else:
                out.append(stable_hash64("\x1f".join(gram)) % space)
    return sorted(out)


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
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            EncoderConfig(**kwargs)


class TestFeatureHashing:
    def test_separator_gets_reserved_bucket(self):
        buckets = joint_feature_buckets(CFG, "alpha", "beta gamma")
        assert np.count_nonzero(buckets == CFG.hash_buckets - 1) == 1

    def test_plain_segments_avoid_reserved_bucket(self):
        for text in ("alpha beta gamma", "one", "x y z w v u t"):
            assert CFG.hash_buckets - 1 not in query_feature_buckets(CFG, text)
            assert CFG.hash_buckets - 1 not in doc_feature_buckets(CFG, text)

    @given(text_strategy, text_strategy)
    @settings(max_examples=60)
    def test_joint_matches_full_sequence_hash(self, query_text, doc_text):
        fast = sorted(joint_feature_buckets(CFG, query_text, doc_text).tolist())
        assert fast == naive_joint_buckets(CFG, query_text, doc_text)

    def test_query_cap_applies(self):
        short = query_feature_buckets(CFG, "a b c d")
        long = query_feature_buckets(CFG, "a b c d ignored extra")
        assert short.tolist() == long.tolist()

    def test_doc_cap_applies(self):
        short = doc_feature_buckets(CFG, "a b c d e f")
        long = doc_feature_buckets(CFG, "a b c d e f tail tail")
        assert short.tolist() == long.tolist()

    def test_unigram_count(self):
        cfg = EncoderConfig(embed_dim=4, hash_buckets=64, ngram_orders=(1,))
        assert len(doc_feature_buckets(cfg, "one two three")) == 3

    def test_empty_text_rejected(self):
        # the memo must not turn a rejected text into a cached result
        for featurize in (query_feature_buckets, doc_feature_buckets):
            for _ in range(2):
                with pytest.raises(ValueError, match="no tokens"):
                    featurize(CFG, "  ... ")

    @pytest.mark.parametrize("featurize", [query_feature_buckets, doc_feature_buckets])
    def test_memoized_arrays_are_read_only(self, featurize):
        first = featurize(CFG, "alpha beta gamma")
        before = first.tolist()
        assert not first.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            first[0] = 0
        assert featurize(CFG, "alpha beta gamma").tolist() == before

    def test_short_query_rejected(self):
        message = r"query 'who' is shorter than every n-gram order \(2,\)"
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                query_feature_buckets(BIGRAM_CFG, "who")
        with pytest.raises(ValueError, match=message):
            encode_queries(init_params(BIGRAM_CFG, seed=0), ["who"])

    def test_short_document_rejected(self):
        message = r"document 'who' is shorter than every n-gram order \(2,\)"
        with pytest.raises(ValueError, match=message):
            doc_feature_buckets(BIGRAM_CFG, "who")
        with pytest.raises(ValueError, match=message):
            encode_document(init_params(BIGRAM_CFG, seed=0), "who")

    def test_short_joint_input_rejected(self):
        # one token on each side: bigrams still cross the separator, 4-grams never fit
        assert len(joint_feature_buckets(BIGRAM_CFG, "who", "what")) == 2
        cfg = EncoderConfig(embed_dim=4, hash_buckets=64, ngram_orders=(4,))
        with pytest.raises(ValueError, match=r"query 'who' with document 'what' .*\(4,\)"):
            joint_feature_buckets(cfg, "who", "what")


class TestInit:
    def test_deterministic(self):
        a = init_params(CFG, seed=5)
        b = init_params(CFG, seed=5)
        for name, arr in a.query_tower.tensors().items():
            np.testing.assert_array_equal(arr, b.query_tower.tensors()[name])

    def test_seed_changes_weights(self):
        a = init_params(CFG, seed=5)
        b = init_params(CFG, seed=6)
        assert not np.array_equal(a.query_tower.w_hidden, b.query_tower.w_hidden)

    def test_tied_towers_share_storage(self):
        params = init_params(CFG, seed=0)
        assert params.tied
        assert params.query_tower is params.doc_tower
        assert list(params.towers()) == ["query"]

    def test_untied_towers_differ(self):
        cfg = EncoderConfig(embed_dim=4, hash_buckets=32, tie_params=False)
        params = init_params(cfg, seed=0)
        assert not params.tied
        assert list(params.towers()) == ["query", "doc"]
        assert not np.array_equal(params.query_tower.w_hidden, params.doc_tower.w_hidden)

    def test_copy_preserves_tying(self):
        params = init_params(CFG, seed=0)
        clone = params.copy()
        assert clone.tied
        clone.query_tower.b_out += 1.0
        assert not np.array_equal(clone.doc_tower.b_out, params.doc_tower.b_out)
        np.testing.assert_array_equal(clone.query_tower.b_out, clone.doc_tower.b_out)

    def test_dtype(self):
        assert init_params(CFG, seed=0).query_tower.w_out.dtype == np.float32
        assert init_params(CFG, seed=0, dtype=np.float64).query_tower.w_out.dtype == np.float64


class TestEncoding:
    def test_shapes_and_dtype(self):
        params = init_params(CFG, seed=1)
        emb = encode_query(params, "what is this")
        assert emb.shape == (CFG.embed_dim,)
        assert emb.dtype == np.float32
        batch = encode_queries(params, ["one", "two", "three"])
        assert batch.shape == (3, CFG.embed_dim)

    def test_batch_matches_single(self):
        params = init_params(CFG, seed=1)
        texts = ["solar panels", "court ruling", "apple harvest"]
        batch = encode_queries(params, texts)
        for row, text in zip(batch, texts):
            np.testing.assert_allclose(row, encode_query(params, text), rtol=0, atol=1e-6)

    def test_empty_batch(self):
        params = init_params(CFG, seed=1)
        assert encode_queries(params, []).shape == (0, CFG.embed_dim)
        assert encode_candidates(params, []).shape == (0, CFG.embed_dim)

    def test_mean_pool_ignores_repetition(self):
        # under unigram features a repeated token leaves the bag mean unchanged
        cfg = EncoderConfig(embed_dim=4, hash_buckets=32, ngram_orders=(1,))
        params = init_params(cfg, seed=2)
        np.testing.assert_allclose(
            encode_document(params, "beacon"),
            encode_document(params, "beacon beacon beacon"),
            atol=1e-6,
        )

    def test_view_differs_from_plain_doc(self):
        params = init_params(CFG, seed=1)
        plain = encode_document(params, "the reactor design")
        view = encode_document_view(params, "reactor safety", "the reactor design")
        assert not np.allclose(plain, view)

    def test_candidates_route_by_prefix(self):
        params = init_params(CFG, seed=1)
        pairs = [(None, "the reactor design"), ("reactor safety", "the reactor design")]
        batch = encode_candidates(params, pairs)
        np.testing.assert_allclose(batch[0], encode_document(params, pairs[0][1]), atol=1e-6)
        np.testing.assert_allclose(batch[1], encode_document_view(params, *pairs[1]), atol=1e-6)

    def test_score_is_dot_product(self, rng):
        a = rng.normal(size=8).astype(np.float32)
        b = rng.normal(size=8).astype(np.float32)
        assert score(a, b) == pytest.approx(float(np.dot(a.astype(np.float64), b.astype(np.float64))))

    def test_score_shape_mismatch(self):
        with pytest.raises(ValueError, match="shapes differ"):
            score(np.zeros(3), np.zeros(4))


class TestCheckpointIO:
    def test_roundtrip_tied(self, tmp_path):
        params = init_params(CFG, seed=3)
        path = tmp_path / "model.bin"
        save_params(params, path)
        loaded = load_params(path)
        assert loaded.config == CFG
        assert loaded.tied
        for name, arr in params.query_tower.tensors().items():
            np.testing.assert_array_equal(arr, loaded.query_tower.tensors()[name])

    def test_roundtrip_untied(self, tmp_path):
        cfg = EncoderConfig(embed_dim=4, hash_buckets=32, tie_params=False)
        params = init_params(cfg, seed=3)
        path = tmp_path / "model.bin"
        save_params(params, path)
        loaded = load_params(path)
        assert not loaded.tied
        np.testing.assert_array_equal(params.doc_tower.w_out, loaded.doc_tower.w_out)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes(b"NOPE!" + b"\x00" * 64)
        with pytest.raises(ValueError, match="bad magic"):
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
