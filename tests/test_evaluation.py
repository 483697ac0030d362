import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvdr.corpus import Qrels
from mvdr.evaluation import (
    MetricReport,
    RankedList,
    Run,
    RunEntry,
    compute_metric,
    load_run,
    mrr_at_k,
    ndcg_at_k,
    parse_metric_spec,
    recall_at_k,
    run_from_ranked_lists,
    write_metrics_csv,
    write_run,
)
from mvdr.selftest import (
    mrr_reference,
    ndcg_reference,
    random_ranking_instance,
    recall_reference,
)


def make_run(by_query):
    """Build a Run from {query_id: [doc_id, ...]} with descending scores."""
    return Run(
        {
            q: [RunEntry(d, i, float(len(docs) - i)) for i, d in enumerate(docs, 1)]
            for q, docs in by_query.items()
        }
    )


def ranking_of(run, query_id):
    """A query's (doc_id, rank, score) triples, read through ``Run.ranking``."""
    docs, scores = run.ranking(query_id)
    pairs = zip(docs.tolist(), scores.tolist())
    return [(run.doc_ids[d], rank, s) for rank, (d, s) in enumerate(pairs, 1)]


class TestRunValidation:
    def test_ranks_must_be_contiguous(self):
        with pytest.raises(ValueError, match="not contiguous"):
            Run({"q": [RunEntry("d1", 1, 2.0), RunEntry("d2", 3, 1.0)]})

    def test_duplicate_doc_rejected(self):
        with pytest.raises(ValueError, match="duplicate doc"):
            Run({"q": [RunEntry("d1", 1, 2.0), RunEntry("d1", 2, 1.0)]})

    def test_increasing_score_rejected(self):
        with pytest.raises(ValueError, match="score increases"):
            Run({"q": [RunEntry("d1", 1, 1.0), RunEntry("d2", 2, 2.0)]})

    def test_entries_sorted_by_rank(self):
        run = Run({"q": [RunEntry("d2", 2, 1.0), RunEntry("d1", 1, 2.0)]})
        assert ranking_of(run, "q") == [("d1", 1, 2.0), ("d2", 2, 1.0)]

    def test_unknown_query_is_empty(self):
        docs, scores = make_run({"q": ["d1"]}).ranking("other")
        assert docs.shape == scores.shape == (0,)

    def test_from_ranked_lists(self):
        ranked = [
            RankedList("q1", (RunEntry("d2", 1, 3.0), RunEntry("d1", 2, 1.0))),
            RankedList("q2", ()),
        ]
        run = run_from_ranked_lists(ranked, tag="test")
        assert run.tag == "test"
        assert ranking_of(run, "q1") == [("d2", 1, 3.0), ("d1", 2, 1.0)]
        assert ranking_of(run, "q2") == []

    def test_from_ranked_lists_rejects_rank_gap(self):
        ranked = [RankedList("q1", (RunEntry("d2", 1, 3.0), RunEntry("d1", 3, 1.0)))]
        with pytest.raises(ValueError, match="not contiguous"):
            run_from_ranked_lists(ranked)

    def test_from_ranked_lists_rejects_duplicates(self):
        ranked = [RankedList("q1", ()), RankedList("q1", ())]
        with pytest.raises(ValueError, match="duplicate ranked list"):
            run_from_ranked_lists(ranked)


def entry_run(rows, doc_ids, tag="t"):
    """Run({query_id: RunEntry list}) of {query_id: [(doc index, score), ...]}."""
    return Run(
        {
            q: [RunEntry(doc_ids[d], rank, s) for rank, (d, s) in enumerate(row, 1)]
            for q, row in rows.items()
        },
        tag=tag,
    )


def array_run(rows, doc_ids, tag="t"):
    """Run.from_arrays of the same rows, which must share one length."""
    n = len(next(iter(rows.values()), []))
    docs = np.array([[d for d, _ in row] for row in rows.values()], dtype=np.int32).reshape(len(rows), n)
    scores = np.array([[s for _, s in row] for row in rows.values()]).reshape(len(rows), n)
    return Run.from_arrays(doc_ids, list(rows), docs, scores, tag=tag)


class TestRunChecksOnBothPaths:
    """Each check rejects the same input, with the same text, whether the
    run is built from entries or from arrays."""

    @pytest.mark.parametrize("build", [entry_run, array_run])
    @pytest.mark.parametrize(
        "rows, doc_ids, tag, message",
        [
            ({"q": [(0, 2.0), (1, 1.0), (0, 0.5)]}, ["d1", "d2"], "t", "query 'q': duplicate doc 'd1'"),
            (
                {"q1": [(0, 2.0), (1, 1.0)], "q2": [(0, 1.0), (1, 2.0)]}, ["d1", "d2"], "t",
                "query 'q2': score increases with rank at doc 'd2'",
            ),
            ({"q": [(0, 2.0), (1, math.nan)]}, ["d1", "d2"], "t", "query 'q': non-finite score at doc 'd2'"),
            ({"q": [(0, math.inf)]}, ["d1"], "t", "query 'q': non-finite score at doc 'd1'"),
            ({"q": [(0, 1.0)]}, ["d 1"], "t", "doc_id 'd 1' is empty or contains whitespace"),
            ({"q": [(0, 1.0)]}, [""], "t", "doc_id '' is empty or contains whitespace"),
            ({"": [(0, 1.0)]}, ["d1"], "t", "query_id '' is empty or contains whitespace"),
            ({"q\t1": [(0, 1.0)]}, ["d1"], "t", "query_id 'q\\t1' is empty or contains whitespace"),
            ({"q": [(0, 1.0)]}, ["d1"], "my run", "tag 'my run' is empty or contains whitespace"),
            ({"q": [(0, 1.0)]}, ["d1"], "", "tag '' is empty or contains whitespace"),
        ],
    )
    def test_rejects(self, build, rows, doc_ids, tag, message):
        with pytest.raises(ValueError) as err:
            build(rows, doc_ids, tag)
        assert str(err.value) == message

    def test_duplicate_query_id(self):
        ranked = [RankedList("q", (RunEntry("d1", 1, 1.0),)), RankedList("q", ())]
        with pytest.raises(ValueError) as entries:
            run_from_ranked_lists(ranked)
        with pytest.raises(ValueError) as arrays:
            Run.from_arrays(["d1"], ["q", "q"], np.zeros((2, 1), dtype=int), np.ones((2, 1)))
        assert str(arrays.value) == str(entries.value) == "duplicate ranked list for query 'q'"

    @pytest.mark.parametrize("bad", [-1, 2])
    def test_doc_index_out_of_range(self, bad):
        with pytest.raises(ValueError, match=f"query 'q2': doc index {bad} out of range for 2 doc_ids"):
            Run.from_arrays(["d1", "d2"], ["q1", "q2"], np.array([[0, 1], [bad, 0]]), np.ones((2, 2)))

    @pytest.mark.parametrize("docs_shape, scores_shape", [((2, 3), (2, 2)), ((3,), (3,)), ((1, 1, 1), (1, 1, 1))])
    def test_mismatched_shapes(self, docs_shape, scores_shape):
        with pytest.raises(ValueError, match="must be one \\(n_queries, n\\) shape"):
            Run.from_arrays(["d1", "d2", "d3"], ["q1", "q2"], np.zeros(docs_shape, int), np.zeros(scores_shape))

    def test_query_count_must_match_rows(self):
        with pytest.raises(ValueError, match="1 query ids for 2 ranked rows"):
            Run.from_arrays(["d1"], ["q"], np.zeros((2, 1), int), np.zeros((2, 1)))

    def test_doc_indices_must_be_integers(self):
        with pytest.raises(ValueError, match="doc indices must be integers"):
            Run.from_arrays(["d1"], ["q"], np.zeros((1, 1)), np.zeros((1, 1)))

    def test_doc_ids_must_be_unique(self):
        with pytest.raises(ValueError, match="doc_ids must be unique"):
            Run.from_arrays(["d1", "d1"], ["q"], np.array([[0, 1]]), np.zeros((1, 2)))

    def test_arrays_are_copied_and_read_only(self):
        docs, scores = np.array([[1, 0]]), np.array([[2.0, 1.0]])
        run = Run.from_arrays(["d1", "d2"], ["q"], docs, scores)
        docs[0, 0], scores[0, 0] = 0, 9.0
        got_docs, got_scores = run.ranking("q")
        assert got_docs.tolist() == [1, 0] and got_scores.tolist() == [2.0, 1.0]
        with pytest.raises(ValueError):
            got_scores[0] = 0.0
        assert ranking_of(run, "q") == [("d2", 1, 2.0), ("d1", 2, 1.0)]
        assert len(run) == 2


@st.composite
def ranked_rows(draw):
    """Rows of one length over a shuffled doc table: each a ranking without
    repeats, scores non-increasing with many ties; zero length gives empty
    rankings."""
    n_docs = draw(st.integers(0, 8))
    doc_ids = [f"d{i}" for i in draw(st.permutations(range(n_docs)))]
    n = draw(st.integers(0, n_docs))
    query_ids = draw(st.lists(st.sampled_from(["q1", "q2", "q3", "q4", "q5"]), unique=True, max_size=4))
    score = st.one_of(
        st.sampled_from([-1.5, 0.0, 0.25, 1.0, 3.0]),
        st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    )
    rows = {}
    for q in query_ids:
        docs = draw(st.permutations(range(n_docs)))[:n]
        scores = sorted(draw(st.lists(score, min_size=n, max_size=n)), reverse=True)
        rows[q] = list(zip(docs, scores))
    grades = draw(st.dictionaries(
        st.tuples(st.sampled_from(["q1", "q2", "q3", "q4", "q5"]), st.sampled_from(["d0", "d1", "d2", "d3", "d9"])),
        st.integers(0, 3),
        max_size=12,
    ))
    return rows, doc_ids, Qrels(grades), draw(st.integers(1, 10))


class TestEntryAndArrayRunsAgree:
    @settings(max_examples=200, deadline=None)
    @given(ranked_rows())
    def test_metrics_file_and_round_trip(self, tmp_path_factory, case):
        rows, doc_ids, qrels, k = case
        entries, arrays = entry_run(rows, doc_ids, "sys"), array_run(rows, doc_ids, "sys")
        for metric in (mrr_at_k, recall_at_k):
            assert metric(arrays, qrels, k=k, rel_threshold=1) == metric(entries, qrels, k=k, rel_threshold=1)
        assert ndcg_at_k(arrays, qrels, k=k) == ndcg_at_k(entries, qrels, k=k)

        path = tmp_path_factory.mktemp("runs")
        write_run(entries, path / "entries.trec")
        write_run(arrays, path / "arrays.trec")
        assert (path / "entries.trec").read_bytes() == (path / "arrays.trec").read_bytes()

        loaded = load_run(path / "arrays.trec")
        assert loaded.query_ids() == [q for q in rows if rows[q]]
        for q in loaded.query_ids():
            want = [(doc_ids[d], rank, float(f"{s:.6f}")) for rank, (d, s) in enumerate(rows[q], 1)]
            assert ranking_of(loaded, q) == want


class TestRunIO:
    def test_roundtrip(self, tmp_path):
        run = make_run({"q1": ["d1", "d2"], "q2": ["d3"]})
        path = tmp_path / "run.txt"
        write_run(run, path)
        loaded = load_run(path)
        assert loaded.query_ids() == run.query_ids()
        for q in run.query_ids():
            assert ranking_of(loaded, q) == ranking_of(run, q)

    def test_exact_format(self, tmp_path):
        run = Run({"q1": [RunEntry("d9", 1, 0.5)]}, tag="sys")
        path = tmp_path / "run.txt"
        write_run(run, path)
        assert path.read_text() == "q1 Q0 d9 1 0.500000 sys\n"

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("q1 Q0 d9 1 0.5\n")
        with pytest.raises(ValueError, match="expected 6"):
            load_run(path)

    def test_bad_rank(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("q1 Q0 d9 first 0.5 tag\n")
        with pytest.raises(ValueError, match="bad rank or score"):
            load_run(path)

    def test_non_finite_score(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("q1 Q0 d9 1 nan tag\n")
        with pytest.raises(ValueError, match="non-finite"):
            load_run(path)

    def test_mixed_tags(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("q1 Q0 d9 1 0.5 runA\nq1 Q0 d8 2 0.4 runB\n")
        with pytest.raises(ValueError, match=r"run\.txt:2: run tag 'runB' differs from the first line's 'runA'"):
            load_run(path)


class TestMrr:
    def test_first_relevant_at_rank_two(self):
        run = make_run({"q1": ["d3", "d1"], "q2": ["d2"]})
        qrels = Qrels({("q1", "d1"): 2, ("q1", "d3"): 0, ("q2", "d2"): 1})
        report = mrr_at_k(run, qrels, k=10)
        assert report.per_query == {"q1": 0.5, "q2": 1.0}
        assert report.aggregate == pytest.approx(0.75)

    def test_absent_query_scores_zero(self):
        run = make_run({"q1": ["d1"]})
        qrels = Qrels({("q1", "d1"): 1, ("q2", "d2"): 1})
        report = mrr_at_k(run, qrels, k=10)
        assert report.per_query["q2"] == 0.0
        assert report.aggregate == pytest.approx(0.5)

    def test_cutoff_excludes_deep_hits(self):
        run = make_run({"q1": ["d2", "d3", "d1"]})
        qrels = Qrels({("q1", "d1"): 1})
        assert mrr_at_k(run, qrels, k=2).aggregate == 0.0
        assert mrr_at_k(run, qrels, k=3).aggregate == pytest.approx(1 / 3)

    def test_respects_threshold(self):
        run = make_run({"q1": ["d1", "d2"]})
        qrels = Qrels({("q1", "d1"): 1, ("q1", "d2"): 2})
        assert mrr_at_k(run, qrels, k=10, rel_threshold=2).aggregate == pytest.approx(0.5)


class TestRecall:
    def test_partial_recall(self):
        run = make_run({"q1": ["d1", "d4"]})
        qrels = Qrels({("q1", "d1"): 1, ("q1", "d2"): 1, ("q1", "d3"): 1})
        assert recall_at_k(run, qrels, k=10).aggregate == pytest.approx(1 / 3)

    def test_skips_queries_without_relevant_docs(self):
        run = make_run({"q1": ["d1"], "q2": ["d2"]})
        qrels = Qrels({("q1", "d1"): 1, ("q2", "d9"): 0})
        report = recall_at_k(run, qrels, k=10)
        assert list(report.per_query) == ["q1"]
        assert report.aggregate == 1.0


class TestNdcg:
    def test_hand_computed(self):
        run = make_run({"q1": ["d2", "d1"]})
        qrels = Qrels({("q1", "d1"): 3, ("q1", "d2"): 1})
        dcg = (2**1 - 1) / math.log2(2) + (2**3 - 1) / math.log2(3)
        idcg = (2**3 - 1) / math.log2(2) + (2**1 - 1) / math.log2(3)
        assert ndcg_at_k(run, qrels, k=10).aggregate == pytest.approx(dcg / idcg, abs=1e-12)

    def test_perfect_ranking_scores_one(self):
        run = make_run({"q1": ["d1", "d2", "d3"]})
        qrels = Qrels({("q1", "d1"): 3, ("q1", "d2"): 2, ("q1", "d3"): 1})
        assert ndcg_at_k(run, qrels, k=10).aggregate == pytest.approx(1.0)

    def test_zero_ideal_gain_scores_zero(self):
        run = make_run({"q1": ["d1"]})
        qrels = Qrels({("q1", "d1"): 0})
        assert ndcg_at_k(run, qrels, k=10).aggregate == 0.0

    def test_grade_64_gains_like_any_other(self):
        # an int64 gain 1 << 64 wraps to 1, and its gain 2^64 - 1 to -1
        ranked, grades = {"q1": ["a", "b"]}, {"q1": {"a": 1, "b": 64}}
        report = ndcg_at_k(make_run(ranked), Qrels({("q1", "a"): 1, ("q1", "b"): 64}), k=10)
        assert report.aggregate == pytest.approx(ndcg_reference(ranked, grades, 10), abs=1e-12)
        assert report.aggregate == pytest.approx(0.631, abs=5e-4)

    def test_grades_to_100_match_reference(self):
        rng = np.random.default_rng(100)
        for _ in range(50):
            ranked, judged = random_ranking_instance(rng)
            grades = {q: {d: int(rng.integers(0, 101)) for d in dg} for q, dg in judged.items()}
            qrels = Qrels({(q, d): g for q, dg in grades.items() for d, g in dg.items()})
            k = int(rng.integers(1, 12))
            assert ndcg_at_k(make_run(ranked), qrels, k=k).aggregate == pytest.approx(
                ndcg_reference(ranked, grades, k), abs=1e-12
            )

    @pytest.mark.parametrize("grades", [(1, 1024), (1023, 1023, 1023)], ids=["1024", "3x1023"])
    def test_overflowing_gains_rejected(self, grades):
        qrels = Qrels({("q1", "d1"): 1, **{("q2", f"d{i}"): g for i, g in enumerate(grades)}})
        run = make_run({"q1": ["d1"], "q2": ["d0", "d1", "d2"]})
        with pytest.raises(ValueError, match=rf"query 'q2': .* up to {max(grades)}, overflow float64"):
            ndcg_at_k(run, qrels, k=10)

    def test_largest_grades_that_fit(self):
        run = make_run({"q1": ["d1", "d2"], "q2": ["d1", "d2"]})
        qrels = Qrels({("q1", "d1"): 1023, ("q1", "d2"): 1, ("q2", "d1"): 1022, ("q2", "d2"): 1022})
        assert ndcg_at_k(run, qrels, k=10).per_query == {"q1": 1.0, "q2": 1.0}


# The per-query loops the metrics ran before they read a grade matrix:
# the exact oracle for the block computation.


def grades_of(qrels, query_id):
    return {d: g for (q, d), g in qrels.items() if q == query_id}


def top_doc_ids(run, query_id, k):
    return [run.doc_ids[d] for d in run.ranking(query_id)[0][:k].tolist()]


def loop_mrr(run, qrels, k, rel_threshold):
    per_query = {}
    for query_id in qrels.query_ids():
        grades = grades_of(qrels, query_id)
        value = 0.0
        for rank, doc_id in enumerate(top_doc_ids(run, query_id, k), 1):
            if grades.get(doc_id, 0) >= rel_threshold:
                value = 1.0 / rank
                break
        per_query[query_id] = value
    return per_query


def loop_recall(run, qrels, k, rel_threshold):
    per_query = {}
    for query_id in qrels.query_ids():
        relevant = set(qrels.relevant_docs(query_id, threshold=rel_threshold))
        if not relevant:
            continue
        retrieved = set(top_doc_ids(run, query_id, k))
        per_query[query_id] = len(relevant & retrieved) / len(relevant)
    return per_query


def loop_ndcg(run, qrels, k):
    per_query = {}
    for query_id in qrels.query_ids():
        grades = grades_of(qrels, query_id)
        dcg = 0.0
        for rank, doc_id in enumerate(top_doc_ids(run, query_id, k), 1):
            gain = 2 ** grades.get(doc_id, 0) - 1
            dcg += gain / math.log2(rank + 1)
        ideal = sorted(grades.values(), reverse=True)[:k]
        idcg = sum((2**g - 1) / math.log2(i + 1) for i, g in enumerate(ideal, 1))
        per_query[query_id] = dcg / idcg if idcg > 0 else 0.0
    return per_query


QUERY_POOL = ["q1", "q2", "q3", "q4", "q5", "q6"]


@st.composite
def judged_runs(draw):
    """A run over a shuffled table of up to 8 doc_ids (d0..d7), its rows of
    one depth or of several, and qrels over q1..q6 and d0..d9: judged
    queries the run lacks, ranked queries the qrels lack, grade-0
    judgments and judged docs outside the run's doc_ids (d8, d9)."""
    n_docs = draw(st.integers(0, 8))
    doc_ids = [f"d{i}" for i in draw(st.permutations(range(n_docs)))]
    query_ids = draw(st.lists(st.sampled_from(QUERY_POOL), unique=True, max_size=5))
    one_depth = draw(st.booleans())
    depth = draw(st.integers(0, n_docs))
    rows = {}
    for q in query_ids:
        n = depth if one_depth else draw(st.integers(0, n_docs))
        docs = draw(st.permutations(range(n_docs)))[:n]
        rows[q] = [(d, float(n - i)) for i, d in enumerate(docs)]
    grades = draw(st.dictionaries(
        st.tuples(st.sampled_from(QUERY_POOL), st.sampled_from([f"d{i}" for i in range(10)])),
        st.integers(0, 3),
        max_size=20,
    ))
    return rows, doc_ids, one_depth, Qrels(grades), draw(st.integers(1, 10)), draw(st.integers(0, 3))


class TestBlockMetricsMatchLoops:
    @settings(max_examples=300, deadline=None)
    @given(judged_runs())
    def test_per_query_and_aggregate_equal(self, case):
        rows, doc_ids, one_depth, qrels, k, threshold = case
        runs = [entry_run(rows, doc_ids)] + ([array_run(rows, doc_ids)] if one_depth else [])
        for run in runs:
            for metric, loop in ((mrr_at_k, loop_mrr), (recall_at_k, loop_recall)):
                report = metric(run, qrels, k=k, rel_threshold=threshold)
                want = loop(run, qrels, k, threshold)
                assert list(report.per_query.items()) == list(want.items())
                assert report.aggregate == (sum(want.values()) / len(want) if want else 0.0)
            report = ndcg_at_k(run, qrels, k=k)
            want = loop_ndcg(run, qrels, k)
            assert list(report.per_query.items()) == list(want.items())
            assert report.aggregate == (sum(want.values()) / len(want) if want else 0.0)

    def test_recall_counts_relevant_docs_outside_the_run(self):
        # d9 is relevant but in no ranking and not in the run's doc_ids
        run = make_run({"q1": ["d1", "d2"]})
        qrels = Qrels({("q1", "d1"): 2, ("q1", "d9"): 2, ("q1", "d2"): 1})
        assert recall_at_k(run, qrels, k=10, rel_threshold=2).per_query == {"q1": 0.5}
        assert ndcg_at_k(run, qrels, k=1).per_query == {"q1": 1.0}

    def test_threshold_zero_counts_unjudged_docs_for_mrr_only(self):
        run = make_run({"q1": ["d5", "d1"], "q2": []})
        qrels = Qrels({("q1", "d1"): 0, ("q2", "d1"): 1})
        assert mrr_at_k(run, qrels, k=10, rel_threshold=0).per_query == {"q1": 1.0, "q2": 0.0}
        assert recall_at_k(run, qrels, k=10, rel_threshold=0).per_query == {"q1": 1.0, "q2": 0.0}

    @pytest.mark.parametrize("metric", [mrr_at_k, recall_at_k, ndcg_at_k])
    def test_k_must_be_positive(self, metric):
        with pytest.raises(ValueError, match="k must be >= 1"):
            metric(make_run({"q1": ["d1"]}), Qrels({("q1", "d1"): 1}), k=0)

    def test_no_judgments(self):
        run = make_run({"q1": ["d1"]})
        for metric in (mrr_at_k, recall_at_k, ndcg_at_k):
            report = metric(run, Qrels({}), k=10)
            assert report.per_query == {} and report.aggregate == 0.0


def test_metrics_match_brute_force_references():
    rng = np.random.default_rng(424242)
    for _ in range(25):
        ranked, grades = random_ranking_instance(rng)
        qrels = Qrels({(q, d): g for q, dg in grades.items() for d, g in dg.items()})
        run = make_run(ranked)
        k = int(rng.integers(1, 12))
        assert mrr_at_k(run, qrels, k=k).aggregate == pytest.approx(
            mrr_reference(ranked, grades, k), abs=1e-9
        )
        assert ndcg_at_k(run, qrels, k=k).aggregate == pytest.approx(
            ndcg_reference(ranked, grades, k), abs=1e-9
        )
        if any(max(dg.values(), default=0) >= 1 for dg in grades.values()):
            assert recall_at_k(run, qrels, k=k).aggregate == pytest.approx(
                recall_reference(ranked, grades, k), abs=1e-9
            )


class TestMetricSpec:
    def test_parses(self):
        assert parse_metric_spec("mrr@10") == ("mrr", 10)
        assert parse_metric_spec("Recall@1000") == ("recall", 1000)
        assert parse_metric_spec(" ndcg@5") == ("ndcg", 5)

    @pytest.mark.parametrize("spec", ["mrr", "map@10", "mrr@ten", "mrr@0"])
    def test_rejects(self, spec):
        with pytest.raises(ValueError, match="bad metric spec"):
            parse_metric_spec(spec)

    def test_compute_dispatches(self):
        run = make_run({"q1": ["d1"]})
        qrels = Qrels({("q1", "d1"): 1})
        assert compute_metric("mrr@10", run, qrels).aggregate == 1.0
        assert compute_metric("recall@10", run, qrels).aggregate == 1.0
        assert compute_metric("ndcg@10", run, qrels).aggregate == 1.0


def test_metrics_csv(tmp_path):
    reports = [
        MetricReport("mrr@10", 0.5, {"q": 0.5}),
        MetricReport("recall@1000", 0.25, {"q": 0.25}),
    ]
    path = tmp_path / "metrics.csv"
    write_metrics_csv(reports, path)
    assert path.read_text() == "metric,value\nmrr@10,0.500000\nrecall@1000,0.250000\n"
