import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvdr import analysis
from mvdr.analysis import (
    N_DIVERSITY_LEVELS,
    DiversityRecord,
    GeneratedQuerySet,
    SweepPoint,
    assign_levels,
    diversity_records,
    doc_metric_from_queries,
    level_summaries,
    max_rouge_l,
    pearson,
    quality_records,
    rouge_l,
    self_bleu_4,
    sweep_views,
    write_diversity_csv,
    write_level_csv,
    write_quality_csv,
    write_sweep_csv,
    _bit_masks,
    _lcs_bits,
    _self_bleu_block,
)
from mvdr.corpus import tokenize
from mvdr.selftest import (
    lcs_dp_reference,
    lcs_reference,
    pearson_reference,
    random_token_list,
    rouge_l_reference,
    self_bleu4_reference,
)

texts = st.lists(st.sampled_from("abcdefgh".split() or list("abcdefgh")), min_size=1, max_size=8).map(" ".join)


class TestRougeL:
    def test_partial_overlap(self):
        # lcs "the cat" (2): precision 2/3, recall 2/2, F1 = 0.8
        assert rouge_l("the cat sat", "the cat") == pytest.approx(0.8)

    def test_identical_is_one(self):
        assert rouge_l("alpha beta gamma", "alpha beta gamma") == 1.0

    def test_disjoint_is_zero(self):
        assert rouge_l("alpha beta", "gamma delta") == 0.0

    def test_order_matters(self):
        # reversed tokens share only a length-1 subsequence
        assert rouge_l("a b c", "c b a") == pytest.approx(1 / 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no tokens"):
            rouge_l("...", "ok")

    @given(texts, texts)
    @settings(max_examples=60)
    def test_symmetric_and_bounded(self, a, b):
        value = rouge_l(a, b)
        assert 0.0 <= value <= 1.0
        assert rouge_l(b, a) == pytest.approx(value)

    def test_matches_reference(self):
        rng = np.random.default_rng(5150)
        for _ in range(40):
            cand = random_token_list(rng)
            ref = random_token_list(rng)
            assert rouge_l(" ".join(cand), " ".join(ref)) == pytest.approx(
                rouge_l_reference(cand, ref), abs=1e-12
            )


def bit_lcs(a, b):
    return _lcs_bits(_bit_masks(b), len(b), a)


# few distinct tokens, so the lists repeat tokens and share long subsequences
lcs_tokens = st.lists(st.sampled_from("abcd"), max_size=150)
short_tokens = st.lists(st.sampled_from("abcd"), max_size=8)


class TestBitParallelLcs:
    @given(lcs_tokens, lcs_tokens)
    @settings(max_examples=200, deadline=None)
    @example(list("ab" * 32), list("ba" * 32))  # one full 64-bit word
    @example(list("abcd" * 33), list("dcba" * 32)[:129])  # past two words
    @example(list("abcab" * 30), list("cabcd" * 30))  # 150 tokens each
    @example([], list("abc"))
    def test_equals_dynamic_program(self, a, b):
        assert bit_lcs(a, b) == lcs_dp_reference(a, b)

    @given(short_tokens, short_tokens)
    @settings(max_examples=200, deadline=None)
    def test_short_lists_equal_brute_force(self, a, b):
        assert bit_lcs(a, b) == lcs_dp_reference(a, b) == lcs_reference(a, b)

    @pytest.mark.parametrize("length", [63, 64, 65, 127, 128, 129, 150])
    def test_word_boundaries(self, length):
        rng = np.random.default_rng(length)
        for _ in range(5):
            a = list(rng.choice(list("abc"), size=length))
            b = list(rng.choice(list("abc"), size=int(rng.integers(0, 151))))
            assert bit_lcs(a, b) == lcs_dp_reference(a, b)
            assert bit_lcs(b, a) == lcs_dp_reference(b, a)

    def test_long_pairs_match_dynamic_program_rouge(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            cand = random_token_list(rng, max_len=80)
            ref = random_token_list(rng, max_len=80)
            want = rouge_l_reference(cand, ref, lcs_dp_reference)
            assert rouge_l(" ".join(cand), " ".join(ref)) == want


class TestMaxRougeL:
    def test_exact_match_present(self):
        candidates = ["river sediment flow", "delta formation"]
        assert max_rouge_l(candidates, ["delta formation", "other gold"]) == 1.0

    def test_takes_best_pair(self):
        assert max_rouge_l(["a b", "c d"], ["c d e"]) == pytest.approx(rouge_l("c d", "c d e"))

    def test_empty_sides_rejected(self):
        with pytest.raises(ValueError):
            max_rouge_l([], ["x"])
        with pytest.raises(ValueError):
            max_rouge_l(["x"], [])

    def test_errors_keep_their_text(self):
        cases = [
            (lambda: rouge_l("...", "ok"), "candidate has no tokens: '...'"),
            (lambda: rouge_l("ok", "!!"), "reference has no tokens: '!!'"),
            (lambda: max_rouge_l(["a", "?"], ["a"]), "candidate has no tokens: '?'"),
            (lambda: max_rouge_l(["a"], ["a", "-"]), "reference has no tokens: '-'"),
            (lambda: max_rouge_l([], ["a"]), "no candidate queries"),
            (lambda: max_rouge_l(["a"], []), "no reference queries"),
        ]
        for call, message in cases:
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == message


def pairwise_bleu4(hypothesis, references):
    """BLEU-4 of one hypothesis against its references, recounting every
    reference's n-grams: the formula self_bleu_4 must reproduce exactly."""
    h_len = len(hypothesis)
    log_precisions = []
    for n in range(1, 5):
        h_counts = Counter(tuple(hypothesis[i : i + n]) for i in range(h_len - n + 1))
        total = sum(h_counts.values())
        if total == 0:
            log_precisions.append(math.log(1e-9))
            continue
        max_ref = Counter()
        for ref in references:
            for gram, count in Counter(tuple(ref[i : i + n]) for i in range(len(ref) - n + 1)).items():
                if count > max_ref[gram]:
                    max_ref[gram] = count
        clipped = sum(min(count, max_ref[gram]) for gram, count in h_counts.items())
        precision = clipped / total if clipped > 0 else 1e-9
        log_precisions.append(math.log(precision))
    geo_mean = math.exp(sum(log_precisions) / 4)
    closest_ref_len = min((abs(len(r) - h_len), len(r)) for r in references)[1]
    if h_len >= closest_ref_len:
        bp = 1.0
    elif h_len == 0:
        bp = 0.0
    else:
        bp = math.exp(1.0 - closest_ref_len / h_len)
    return bp * geo_mean


def pairwise_self_bleu(queries):
    token_lists = [tokenize(q) for q in queries]
    scores = [
        pairwise_bleu4(hyp, token_lists[:i] + token_lists[i + 1 :])
        for i, hyp in enumerate(token_lists)
    ]
    return float(sum(scores) / len(scores))


# few distinct tokens, so queries share, repeat and tie on n-grams
bleu_query = st.lists(st.sampled_from("abc"), min_size=1, max_size=7).map(" ".join)


class TestSelfBleu:
    @given(
        st.lists(bleu_query, min_size=1, max_size=4).flatmap(
            # repeat some queries so that two queries tie for a gram's top count
            lambda qs: st.lists(st.sampled_from(qs), min_size=2, max_size=6)
        )
    )
    @settings(max_examples=300)
    @example(["a b a", "a b a", "b"])  # duplicates tie for the top count
    @example(["a b c", "a b", "a"])  # grams only the first query has
    @example(["a", "b", "a"])  # one-token queries have no higher orders
    def test_equals_pairwise_formula(self, queries):
        assert self_bleu_4(queries) == pairwise_self_bleu(queries)

    def test_frozen_value(self):
        queries = ["a b c d e", "a b c d f", "a b c g h"]
        assert self_bleu_4(queries) == pytest.approx(0.4468809625376708, abs=1e-12)

    def test_identical_queries_score_one(self):
        assert self_bleu_4(["same text here okay", "same text here okay"]) == pytest.approx(1.0)

    def test_disjoint_queries_score_low(self):
        assert self_bleu_4(["a b c d", "e f g h", "i j k l"]) < 0.01

    def test_needs_two(self):
        with pytest.raises(ValueError, match="at least 2"):
            self_bleu_4(["only one"])

    def test_matches_reference(self):
        rng = np.random.default_rng(6021)
        for _ in range(40):
            token_lists = [random_token_list(rng) for _ in range(int(rng.integers(2, 5)))]
            got = self_bleu_4([" ".join(t) for t in token_lists])
            assert got == pytest.approx(self_bleu4_reference(token_lists), abs=1e-12)


# many small sets; each draws from few queries, so sets repeat queries and
# tie for a gram's top count, and one-token queries have no higher orders
bleu_sets = st.lists(
    st.lists(bleu_query, min_size=1, max_size=3).flatmap(
        lambda qs: st.lists(st.sampled_from(qs), min_size=2, max_size=5)
    ),
    min_size=1,
    max_size=12,
)


class TestSelfBleuBlock:
    @given(bleu_sets)
    @settings(max_examples=200, deadline=None)
    @example([["a", "b", "a"], ["a b", "a b"], ["a a b", "a a c", "b"], ["c", "c"]])
    def test_block_equals_each_set_alone(self, sets):
        got = _self_bleu_block(sets)
        assert got == [self_bleu_4(queries) for queries in sets]
        assert got == [pairwise_self_bleu(queries) for queries in sets]

    def test_diversity_records_cross_block_boundaries(self, monkeypatch):
        rng = np.random.default_rng(12)
        generated = [
            GeneratedQuerySet(f"d{i}", tuple(" ".join(random_token_list(rng, 5)) for _ in range(3)))
            for i in range(8)
        ]
        want = diversity_records(generated)
        monkeypatch.setattr(analysis, "_BLEU_BLOCK_DOCS", 3)
        assert diversity_records(generated) == want
        assert [r.self_bleu for r in want] == [self_bleu_4(qset.queries) for qset in generated]
        assert [r.level for r in want] == assign_levels([r.self_bleu for r in want])

    def test_errors_keep_their_text(self, monkeypatch):
        monkeypatch.setattr(analysis, "_BLEU_BLOCK_DOCS", 2)
        cases = [
            (lambda: self_bleu_4(["only one"]), "self-BLEU needs at least 2 queries, got 1"),
            (lambda: self_bleu_4(["a b", "...", "c"]), "query 1 has no tokens: '...'"),
            (
                # the first bad set of a later block raises
                lambda: diversity_records([
                    GeneratedQuerySet("d1", ("a", "b")),
                    GeneratedQuerySet("d2", ("a", "b")),
                    GeneratedQuerySet("d3", ("a", "!!")),
                    GeneratedQuerySet("d4", ("a",)),
                ]),
                "query 1 has no tokens: '!!'",
            ),
            (
                lambda: diversity_records([GeneratedQuerySet("d1", ("a", "b")), GeneratedQuerySet("d2", ("a",))]),
                "self-BLEU needs at least 2 queries, got 1",
            ),
        ]
        for call, message in cases:
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == message


def test_scoring_leaves_numpy_ma_unimported():
    # np.unique and np.isin import numpy.ma, which adds about 1.4 MiB of RSS
    code = (
        "import sys\n"
        "from mvdr.analysis import GeneratedQuerySet, diversity_records, quality_records\n"
        "from mvdr.corpus import Qrels\n"
        "from mvdr.evaluation import Run, RunEntry, mrr_at_k, ndcg_at_k, recall_at_k\n"
        "sets = [GeneratedQuerySet('d1', ('a b c', 'a c d')), GeneratedQuerySet('d2', ('b c', 'c d e'))]\n"
        "quality_records(sets, {'d1': ['a b d'], 'd2': ['c d']})\n"
        "diversity_records(sets)\n"
        "run = Run({'q1': [RunEntry('d1', 1, 2.0), RunEntry('d2', 2, 1.0)]})\n"
        "qrels = Qrels({('q1', 'd2'): 1, ('q1', 'd3'): 2, ('q2', 'd1'): 1})\n"
        "for metric in (mrr_at_k, recall_at_k, ndcg_at_k):\n"
        "    metric(run, qrels, k=10)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(analysis.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120, check=True
    )
    assert result.stdout.strip() == "False"


class TestPearson:
    def test_perfect_correlation(self):
        assert pearson([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError, match="zero-variance"):
            pearson([1, 1, 1], [1, 2, 3])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            pearson([1, 2], [1, 2, 3])

    def test_too_short(self):
        with pytest.raises(ValueError, match="at least 2"):
            pearson([1.0], [2.0])

    def test_matches_reference(self, rng):
        for _ in range(20):
            xs = rng.normal(size=8).tolist()
            ys = rng.normal(size=8).tolist()
            assert pearson(xs, ys) == pytest.approx(pearson_reference(xs, ys), abs=1e-12)


class TestLevels:
    def test_empty(self):
        assert assign_levels([]) == []

    def test_degenerate_range_all_top(self):
        assert assign_levels([0.7, 0.7, 0.7]) == [N_DIVERSITY_LEVELS] * 3

    def test_extremes_and_width(self):
        levels = assign_levels([0.0, 0.19, 0.21, 0.99, 1.0])
        assert levels[0] == 1
        assert levels[-1] == N_DIVERSITY_LEVELS
        assert levels == [1, 1, 2, 5, 5]

    def test_level_count_bounded(self, rng):
        values = rng.uniform(size=200).tolist()
        levels = assign_levels(values)
        assert set(levels) <= set(range(1, N_DIVERSITY_LEVELS + 1))


class TestRecords:
    GENERATED = [
        GeneratedQuerySet("d1", ("alpha beta gamma delta", "alpha beta gamma delta")),
        GeneratedQuerySet("d2", ("epsilon zeta eta theta", "iota kappa mu nu")),
    ]

    def test_quality_skips_docs_without_gold(self):
        records = quality_records(self.GENERATED, {"d1": ["alpha beta gamma delta"]})
        assert [r.doc_id for r in records] == ["d1"]
        assert records[0].view_rouge_l == (1.0, 1.0)
        assert records[0].max_rouge_l == 1.0

    def test_diversity_levels_follow_self_bleu(self):
        records = diversity_records(self.GENERATED)
        by_doc = {r.doc_id: r for r in records}
        # identical views are maximally redundant, so d1 lands in the top level
        assert by_doc["d1"].self_bleu == pytest.approx(1.0)
        assert by_doc["d1"].level == N_DIVERSITY_LEVELS
        assert by_doc["d2"].level == 1

    def test_level_summaries_omit_empty_levels(self):
        records = diversity_records(self.GENERATED)
        summaries = level_summaries(records, metric_by_doc={"d1": 0.5}, quality_by_doc={})
        assert [s.level for s in summaries] == [1, N_DIVERSITY_LEVELS]
        top = summaries[-1]
        assert top.n_docs == 1
        assert top.mean_metric == pytest.approx(0.5)
        assert top.mean_quality is None

    def test_doc_metric_rollup(self):
        per_query = {"q1": 1.0, "q2": 0.0, "q3": 0.5}
        positives = {"q1": ["d1"], "q2": ["d1"], "q3": ["d2"], "q9": ["d9"]}
        rolled = doc_metric_from_queries(per_query, positives)
        assert rolled == {"d1": 0.5, "d2": 0.5}


class TestSweep:
    GENERATED = [
        GeneratedQuerySet("d1", ("alpha beta", "gold query", "noise one")),
        GeneratedQuerySet("d2", ("other text", "more words", "gold two")),
    ]
    GOLD = {"d1": ["gold query"], "d2": ["gold two"]}

    def test_quality_never_decreases_with_more_views(self):
        points = sweep_views([1, 2, 3], self.GENERATED, self.GOLD)
        values = [p.mean_max_rouge_l for p in points]
        assert values == sorted(values)
        assert points[2].mean_max_rouge_l == 1.0

    def test_retrieval_values_follow_k(self):
        points = sweep_views([1, 3], self.GENERATED, self.GOLD, retrieval=[0.25, 0.75])
        assert [p.retrieval_metric for p in points] == [0.25, 0.75]
        with pytest.raises(ValueError, match="1 retrieval values for 2"):
            sweep_views([1, 3], self.GENERATED, self.GOLD, retrieval=[0.25])

    def test_points_equal_quality_of_truncated_sets(self):
        generated = self.GENERATED + [
            GeneratedQuerySet("d3", ("no gold here", "at all", "none")),
            GeneratedQuerySet("d4", ("gold", "query gold two", "two gold query words")),
        ]
        gold = {**self.GOLD, "d4": ["gold query", "two words"]}
        for point in sweep_views([1, 2, 3], generated, gold):
            truncated = [GeneratedQuerySet(q.doc_id, q.queries[: point.k]) for q in generated]
            records = quality_records(truncated, gold)
            assert point.quality == tuple(records)
            assert point.mean_max_rouge_l == float(np.mean([r.max_rouge_l for r in records]))

    def test_k_out_of_range(self):
        with pytest.raises(ValueError, match="only 3 views"):
            sweep_views([4], self.GENERATED, self.GOLD)
        with pytest.raises(ValueError, match="cannot sweep"):
            sweep_views([0], self.GENERATED, self.GOLD)

    def test_empty_generated(self):
        with pytest.raises(ValueError, match="no generated"):
            sweep_views([1], [], self.GOLD)

    def test_no_gold_overlap(self):
        with pytest.raises(ValueError, match="gold"):
            sweep_views([1], self.GENERATED, {"zzz": ["x"]})


class TestCsvWriters:
    def test_quality(self, tmp_path):
        path = tmp_path / "q.csv"
        gold = {"d1": ["alpha beta gamma delta"]}
        write_quality_csv(quality_records(TestRecords.GENERATED, gold), path)
        assert path.read_text() == "doc_id,max_rouge_l\nd1,1.000000\n"

    def test_diversity(self, tmp_path):
        path = tmp_path / "d.csv"
        write_diversity_csv([DiversityRecord("d1", 0.25, 2)], path)
        assert path.read_text() == "doc_id,self_bleu_4,level\nd1,0.250000,2\n"

    def test_levels(self, tmp_path):
        path = tmp_path / "l.csv"
        summaries = level_summaries(diversity_records(TestRecords.GENERATED))
        write_level_csv(summaries, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "level,lo,hi,n_docs,mean_metric,mean_quality"
        assert len(lines) == 3

    def test_sweep(self, tmp_path):
        path = tmp_path / "s.csv"
        write_sweep_csv([SweepPoint(1, 0.5, None, ()), SweepPoint(2, 0.75, 0.3, ())], path)
        assert path.read_text() == (
            "k,mean_max_rouge_l,retrieval_metric\n1,0.500000,\n2,0.750000,0.300000\n"
        )
