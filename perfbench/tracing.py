"""In-memory span tracing of the package's layers, from outside the package.

:func:`install` wraps each layer's public functions and rebinds every
module attribute that refers to the original, so calls from sibling
modules (``mvdr.trainer.forward_tower``, ``mvdr.cli.build_index``, ...) are
traced as well as calls through the defining module. Each call records a
span: name, start, end, parent and optional work counts.

A span started on a worker thread with nothing open on that thread takes
the innermost span open on the main thread as its parent: the package
starts its thread pools from inside a traced call and waits for them.

Self time is a span's duration minus the union of the intervals its
children cover; with concurrent children a layer's self times can add up
to more than the wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from pathlib import Path


def _batch_rows(args, kwargs, result):
    return len(args[1]) if len(args) > 1 else len(kwargs["buckets"])


def _queries(args, kwargs, result):
    return sum(len(qset.queries) for qset in result)


def _batch_size(args, kwargs, result):
    batch = args[1] if len(args) > 1 else kwargs["batch"]
    return len(batch.query_texts)


def _one(args, kwargs, result):
    return 1


def _rows(args, kwargs, result):
    return result.n_rows


def _saved_bytes(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return Path(path).stat().st_size


def _data_mb(args, kwargs, result):
    return len(args[0]) / 2**20


# module -> [(function, span name, count name or None, count function)]
LAYERS: dict[str, list[tuple[str, str, str | None, object]]] = {
    "mvdr.corpus": [
        (fn, "corpus.load", None, None)
        for fn in (
            "load_corpus",
            "load_queries",
            "load_qrels",
            "load_triples",
            "load_generated_queries",
        )
    ],
    "mvdr.querygen": [
        ("fit_qg", "querygen.fit", None, None),
        ("generate_corpus", "querygen.generate", "queries", _queries),
    ],
    "mvdr.encoder": [
        # candidate_feature_buckets dispatches to the doc or joint function,
        # so only the three leaves count texts
        ("candidate_feature_buckets", "encoder.featurize", None, None),
        ("query_feature_buckets", "encoder.featurize", "featurize_texts", _one),
        ("doc_feature_buckets", "encoder.featurize", "featurize_texts", _one),
        ("joint_feature_buckets", "encoder.featurize", "featurize_texts", _one),
        ("forward_tower", "encoder.forward", "forward_rows", _batch_rows),
        ("backprop_tower", "encoder.backward", None, None),
        ("save_params", "encoder.ckpt_save", None, None),
        ("load_params", "encoder.ckpt_load", None, None),
    ],
    "mvdr.trainer": [
        ("train", "trainer.train", None, None),
        ("loss_and_grads", "trainer.loss", "examples", _batch_size),
        ("adam_step", "trainer.adam", "steps", _one),
    ],
    "mvdr.index": [
        ("build_index", "index.build", "rows", _rows),
        ("search", "index.search", "search_calls", _one),
        ("batch_search", "index.search", None, None),
        ("search_corpus", "index.search", None, None),
        ("save_index", "index.save", "bytes", _saved_bytes),
        ("load_index", "index.load", None, None),
    ],
    "mvdr.hashing": [
        ("crc64", "hashing.crc64", "crc64_mb", _data_mb),
    ],
    "mvdr.evaluation": [
        (fn, "evaluation.metric", None, None)
        for fn in ("compute_metric", "mrr_at_k", "recall_at_k", "ndcg_at_k")
    ]
    + [
        (fn, "evaluation.run_io", None, None)
        for fn in ("run_from_ranked_lists", "write_run", "load_run")
    ],
    "mvdr.analysis": [
        ("quality_records", "analysis.quality", None, None),
        ("diversity_records", "analysis.diversity", None, None),
        ("level_summaries", "analysis.diversity", None, None),
        ("sweep_views", "analysis.sweep", None, None),
    ],
}

# per-layer metric -> (span name, "self" for summed self time or a count name)
LAYER_METRICS: dict[str, tuple[str, str]] = {
    "corpus.load_s": ("corpus.load", "self"),
    "querygen.fit_s": ("querygen.fit", "self"),
    "querygen.generate_s": ("querygen.generate", "self"),
    "querygen.queries": ("querygen.generate", "queries"),
    "encoder.featurize_s": ("encoder.featurize", "self"),
    "encoder.featurize_texts": ("encoder.featurize", "featurize_texts"),
    "encoder.forward_s": ("encoder.forward", "self"),
    "encoder.forward_rows": ("encoder.forward", "forward_rows"),
    "encoder.backward_s": ("encoder.backward", "self"),
    "encoder.ckpt_save_s": ("encoder.ckpt_save", "self"),
    "encoder.ckpt_load_s": ("encoder.ckpt_load", "self"),
    "trainer.loss_s": ("trainer.loss", "self"),
    "trainer.adam_s": ("trainer.adam", "self"),
    "trainer.steps": ("trainer.adam", "steps"),
    "trainer.examples": ("trainer.loss", "examples"),
    "trainer.loop_s": ("trainer.train", "self"),
    "index.build_s": ("index.build", "self"),
    "index.rows": ("index.build", "rows"),
    "index.search_s": ("index.search", "self"),
    "index.search_calls": ("index.search", "search_calls"),
    "index.save_s": ("index.save", "self"),
    "index.load_s": ("index.load", "self"),
    "index.bytes": ("index.save", "bytes"),
    "hashing.crc64_s": ("hashing.crc64", "self"),
    "hashing.crc64_mb": ("hashing.crc64", "crc64_mb"),
    "evaluation.metric_s": ("evaluation.metric", "self"),
    "evaluation.run_io_s": ("evaluation.run_io", "self"),
    "analysis.quality_s": ("analysis.quality", "self"),
    "analysis.diversity_s": ("analysis.diversity", "self"),
    "analysis.sweep_s": ("analysis.sweep", "self"),
    # time inside the benchmark's own root spans that no layer span covers
    "bench.uncovered_s": ("bench", "self"),
}


class Tracer:
    """Records spans as ``[name, start, end, parent, count name, count]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._main_stack: list[list] = []

    def _stack(self) -> list[list]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, count_name=None, count=None):
        """Call ``fn()`` inside a span; returns its result."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main else None
        record = [name, time.perf_counter(), 0.0, parent, count_name, None]
        self.spans.append(record)
        stack.append(record)
        try:
            result = fn()
        finally:
            record[2] = time.perf_counter()
            stack.pop()
        if count is not None:
            record[5] = count(result)
        return result

    def wrap(self, fn, name: str, count_name, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(
                name,
                lambda: fn(*args, **kwargs),
                count_name,
                None if count is None else lambda result: count(args, kwargs, result),
            )

        return traced


def install(tracer: Tracer) -> None:
    """Wrap every function in :data:`LAYERS` wherever the package binds it."""
    importlib.import_module("mvdr.cli")  # binds every layer's functions
    replacements = {}
    for module_name, entries in LAYERS.items():
        module = importlib.import_module(module_name)
        for fn_name, span_name, count_name, count in entries:
            original = getattr(module, fn_name)
            replacements[id(original)] = tracer.wrap(original, span_name, count_name, count)
    for name, module in list(sys.modules.items()):
        if name != "mvdr" and not name.startswith("mvdr."):
            continue
        for attr, value in list(vars(module).items()):
            wrapper = replacements.get(id(value))
            if wrapper is not None:
                setattr(module, attr, wrapper)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        lo = max(lo, end)
        if hi > lo:
            total += hi - lo
            end = hi
    return total


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer self times and counts, keyed as in :data:`LAYER_METRICS`."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        parent = span[3]
        if parent is not None:
            lo, hi = max(span[1], parent[1]), min(span[2], parent[2])
            children.setdefault(id(parent), []).append((lo, hi))
    self_time: dict[str, float] = {}
    counts: dict[tuple[str, str], float] = {}
    for span in spans:
        name = span[0]
        layer = "bench" if name.startswith("bench.") else name
        covered = _union_length(children.get(id(span), []))
        self_time[layer] = self_time.get(layer, 0.0) + (span[2] - span[1]) - covered
        if span[4] is not None:
            key = (name, span[4])
            counts[key] = counts.get(key, 0) + span[5]
    out = {}
    for metric, (name, what) in LAYER_METRICS.items():
        out[metric] = self_time.get(name, 0.0) if what == "self" else counts.get((name, what), 0)
    return out


def write_spans(spans: list[list], path: Path) -> None:
    """One JSON array per line: name, start, end, parent line (or -1), counts."""
    line_of = {id(span): i for i, span in enumerate(spans)}
    with open(path, "w", encoding="utf-8") as handle:
        for name, start, end, parent, count_name, count in spans:
            parent_line = -1 if parent is None else line_of[id(parent)]
            counts = {} if count_name is None else {count_name: count}
            handle.write(json.dumps([name, start, end, parent_line, counts]) + "\n")
