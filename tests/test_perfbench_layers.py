"""Every package function that the benchmark's tracer wraps still exists,
and ``index.search`` is still called once per query.

``perfbench/tracing.py`` wraps functions by (module, name) from outside the
package. A renamed or deleted function would otherwise only fail a
``--trace 1`` benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

import mvdr.index
from mvdr.selftest import random_index

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _layers() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_function_resolves():
    layers = _layers()
    assert layers
    missing = [
        f"{module_name}.{function}"
        for module_name, entries in layers.items()
        for function, *_ in entries
        if not callable(getattr(importlib.import_module(module_name), function, None))
    ]
    assert missing == []


def test_search_is_called_once_per_query(monkeypatch):
    # the tracer counts index.search_calls by wrapping mvdr.index.search, so
    # batch_search must call it once per query and search_prefixes never
    calls = []
    search = mvdr.index.search

    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(mvdr.index, "search", counted)
    rng = np.random.default_rng(7)
    index = random_index(rng, n_docs=30, k_views=4, dim=8)
    queries = rng.normal(size=(7, 8))
    mvdr.index.search_prefixes(index, queries, 5)
    assert calls == []
    ranked = mvdr.index.batch_search(index, [(f"q{i}", q) for i, q in enumerate(queries)], 5)
    assert len(calls) == len(ranked) == 7
