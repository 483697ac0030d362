import numpy as np
import pytest

from mvdr.corpus import Document, Qrels, Query, TrainingTriple

# the acceptance matrix of criteria 07-09, once a test has received it
MATRIX = pytest.StashKey()


def pytest_runtest_call(item):
    # keeps the matrix for tests in later modules, which would build it again
    if "matrix" in getattr(item, "funcargs", {}):
        item.config.stash[MATRIX] = item.funcargs["matrix"]


@pytest.fixture
def tiny_docs():
    return [
        Document("d1", "solar panels convert sunlight into electricity"),
        Document("d2", "the court ruled on the appeal last spring"),
        Document("d3", "rivers carry sediment toward the delta"),
        Document("d4", "a vaccine primes the immune system"),
    ]


@pytest.fixture
def tiny_queries():
    return [
        Query("q1", "how do solar panels work"),
        Query("q2", "court appeal ruling"),
    ]


@pytest.fixture
def tiny_qrels():
    return Qrels({("q1", "d1"): 2, ("q1", "d3"): 0, ("q2", "d2"): 1})


@pytest.fixture
def tiny_triples(tiny_docs):
    by_id = {d.doc_id: d for d in tiny_docs}
    return [
        TrainingTriple(
            Query("q1", "how do solar panels work"),
            by_id["d1"],
            (by_id["d2"], by_id["d3"]),
        ),
        TrainingTriple(
            Query("q2", "court appeal ruling"),
            by_id["d2"],
            (by_id["d1"], by_id["d4"]),
        ),
    ]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
