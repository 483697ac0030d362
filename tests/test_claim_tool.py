"""``tools/claim.py`` runs the acceptance matrix of criteria 07-09 as the
fixture does, so its numbers on other seeds compare with the gate's."""

import argparse
import importlib.util
from pathlib import Path

import numpy as np
import pytest
from conftest import MATRIX
from test_acceptance import matrix  # noqa: F401  the criteria's own fixture

CLAIM = Path(__file__).resolve().parents[1] / "tools" / "claim.py"


@pytest.fixture(scope="module")
def claim():
    spec = importlib.util.spec_from_file_location("claim", CLAIM)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def gate_matrix(request):
    """The matrix the acceptance tests received in this pytest run, or a new one."""
    if MATRIX in request.config.stash:
        return request.config.stash[MATRIX]
    return request.getfixturevalue("matrix")


def test_gate_seeds_reproduce_criteria_07_and_09(claim, gate_matrix):
    matrix = gate_matrix
    runs = claim.gate_runs(range(5))
    for arm in claim.ARMS:
        assert tuple(row[arm] for row in runs.values()) == getattr(matrix, arm)
    means = claim.summary(runs)
    # the means as criteria 07 and 09 print them
    for arm in ("dce", "de", "dce_fine_only"):
        assert f"{means[arm]:.3f}" == f"{np.mean(getattr(matrix, arm)):.3f}"
    assert means["positive"] == sum(d > s for d, s in zip(matrix.dce, matrix.de))


@pytest.mark.parametrize("text, want", [("3", range(3, 4)), ("100-119", range(100, 120))])
def test_seed_range(claim, text, want):
    assert claim.seed_range(text) == want


@pytest.mark.parametrize("text", ["5-2", "a-b", "1-", "1-2-3"])
def test_seed_range_rejects(claim, text):
    with pytest.raises(argparse.ArgumentTypeError, match="expected"):
        claim.seed_range(text)
