import math

import numpy as np
import pytest

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
        assert [e.doc_id for e in run.entries("q")] == ["d1", "d2"]

    def test_unknown_query_is_empty(self):
        assert make_run({"q": ["d1"]}).entries("other") == ()

    def test_from_ranked_lists(self):
        ranked = [
            RankedList("q1", (RunEntry("d2", 1, 3.0), RunEntry("d1", 2, 1.0))),
            RankedList("q2", ()),
        ]
        run = run_from_ranked_lists(ranked, tag="test")
        assert run.tag == "test"
        assert [e.rank for e in run.entries("q1")] == [1, 2]
        assert run.entries("q2") == ()

    def test_from_ranked_lists_rejects_rank_gap(self):
        ranked = [RankedList("q1", (RunEntry("d2", 1, 3.0), RunEntry("d1", 3, 1.0)))]
        with pytest.raises(ValueError, match="not contiguous"):
            run_from_ranked_lists(ranked)

    def test_from_ranked_lists_rejects_duplicates(self):
        ranked = [RankedList("q1", ()), RankedList("q1", ())]
        with pytest.raises(ValueError, match="duplicate ranked list"):
            run_from_ranked_lists(ranked)


class TestRunIO:
    def test_roundtrip(self, tmp_path):
        run = make_run({"q1": ["d1", "d2"], "q2": ["d3"]})
        path = tmp_path / "run.txt"
        write_run(run, path)
        loaded = load_run(path)
        assert loaded.query_ids() == run.query_ids()
        for q in run.query_ids():
            assert loaded.entries(q) == run.entries(q)

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
