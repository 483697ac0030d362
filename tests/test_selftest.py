import numpy as np
import pytest

from mvdr import selftest
from mvdr.analysis import pearson
from mvdr.cli import main
from mvdr.selftest import (
    PEARSON_FIXTURE_EXPECTED,
    PEARSON_FIXTURE_PAIRS,
    PEARSON_FIXTURE_TOL,
    SelftestResult,
    lcs_reference,
    random_index,
    random_ranking_instance,
    random_token_list,
    run_selftest,
)


def test_every_suite_passes():
    results = run_selftest()
    assert len(results) == 7
    failed = [r for r in results if not r.passed]
    assert not failed, "failed suites: " + ", ".join(f"{r.name} ({r.detail})" for r in failed)


@pytest.fixture
def two_broken_suites(monkeypatch):
    """The gradient suite raises and the metrics suite fails."""

    def _check_gradients():
        raise RuntimeError("boom")

    def _check_metrics():
        return SelftestResult("ranking-metrics", False, "max deviation 1.000e+00")

    monkeypatch.setattr(selftest, "_check_gradients", _check_gradients)
    monkeypatch.setattr(selftest, "_check_metrics", _check_metrics)


def test_a_raised_or_failed_suite_does_not_stop_the_rest(two_broken_suites):
    results = run_selftest()
    assert len(results) == 7
    failed = {r.name: r.detail for r in results if not r.passed}
    assert failed == {
        "_check_gradients": "raised RuntimeError('boom')",
        "ranking-metrics": "max deviation 1.000e+00",
    }


def test_selftest_command_reports_failed_suites(two_broken_suites, capsys):
    assert main(["selftest"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 8
    assert [line for line in lines if line.startswith("FAIL")] == [
        "FAIL _check_gradients: raised RuntimeError('boom')",
        "FAIL ranking-metrics: max deviation 1.000e+00",
    ]
    assert sum(line.startswith("ok   ") for line in lines) == 5
    assert lines[-1] == "2 of 7 suites failed"


def test_pearson_fixture_value():
    xs = [p[0] for p in PEARSON_FIXTURE_PAIRS]
    ys = [p[1] for p in PEARSON_FIXTURE_PAIRS]
    assert len(PEARSON_FIXTURE_PAIRS) == 10
    assert pearson(xs, ys) == pytest.approx(PEARSON_FIXTURE_EXPECTED, abs=PEARSON_FIXTURE_TOL)


class TestReferenceHelpers:
    def test_lcs_reference(self):
        assert lcs_reference("a b c d".split(), "b d".split()) == 2
        assert lcs_reference(["x"], ["y"]) == 0
        assert lcs_reference("a b c".split(), "a b c".split()) == 3

    def test_random_token_list_bounds(self, rng):
        for _ in range(50):
            tokens = random_token_list(rng)
            assert 1 <= len(tokens) <= 8
            assert all(t in set("abcdefgh") for t in tokens)

    def test_random_index_shape(self, rng):
        index = random_index(rng, n_docs=7, k_views=3, dim=5)
        assert index.n_docs == 7
        assert index.k_views == 3
        assert index.n_rows == 21
        assert index.embed_dim == 5

    def test_random_ranking_instance_judges_every_query(self, rng):
        for _ in range(20):
            ranked, grades = random_ranking_instance(rng)
            assert grades
            assert set(ranked) <= set(grades)
