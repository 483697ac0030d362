"""Every package function that the benchmark's tracer wraps still exists,
``index.search`` is still called once per query, and the featurization
functions once per row, so ``encoder.featurize_texts`` counts texts.

``perfbench/tracing.py`` wraps functions by (module, name) from outside the
package. A renamed or deleted function would otherwise only fail a
``--trace 1`` benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

import mvdr.encoder
import mvdr.index
import mvdr.trainer
from mvdr.corpus import Document, GeneratedQuerySet, Query, TrainingTriple
from mvdr.encoder import EncoderConfig, FeatureTable, init_params
from mvdr.selftest import random_index
from mvdr.trainer import TrainConfig, build_batch, finetune_examples

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


def _count_calls(monkeypatch, module, name) -> list:
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args[1:])
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


CFG = EncoderConfig(embed_dim=4, hash_buckets=64)
# more (document, view) rows than one 512-row encoding chunk
DOCS = [Document(f"d{i}", f"document {i} about topic {i % 3} and more words") for i in range(200)]
VIEWS = ("topic words", "more about", "topic words")


def test_index_build_featurizes_once_per_row(monkeypatch):
    # the tracer counts encoder.featurize_texts by wrapping the leaf
    # functions, so an index build must ask for each (document, view) row once
    calls = _count_calls(monkeypatch, mvdr.encoder, "joint_feature_buckets")
    generated = [GeneratedQuerySet(d.doc_id, VIEWS) for d in DOCS]
    index = mvdr.index.build_index(init_params(CFG, seed=0), DOCS, "dce", generated)
    assert calls == [(view, doc.text) for doc in DOCS for view in VIEWS]
    assert len(calls) == len(index.matrix)


def test_loss_featurizes_once_per_query_and_candidate(monkeypatch):
    queries = _count_calls(monkeypatch, mvdr.trainer, "query_feature_buckets")
    candidates = _count_calls(monkeypatch, mvdr.trainer, "candidate_feature_buckets")
    triples = [
        TrainingTriple(Query(f"q{i}", f"topic {i % 3}"), DOCS[i], (DOCS[i + 1], DOCS[i + 2]))
        for i in range(4)
    ]
    batch = build_batch(finetune_examples(triples, TrainConfig(negatives_per_positive=2)))
    mvdr.trainer.loss_and_grads(init_params(CFG, seed=0), batch, FeatureTable(CFG))
    assert queries == [(text,) for text in batch.query_texts]
    assert candidates == [(pair,) for pair in batch.candidates]
