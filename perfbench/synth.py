"""Seeded, linear-time synthetic collection for the benchmark.

The design follows the package's test collection (two intents per
document, a hidden second topic, disjoint training and evaluation query
terms) but builds every triple in O(1) expected time, so a 5,000-document
collection takes well under a second:

* every document covers two topics, each expressed through six
  document-specific content terms;
* the first topic fills the first ``DOC_TOKEN_CAP`` tokens together with
  the entity name and filler words; the second topic sits entirely beyond
  that window, so a document encoder capped there never sees it;
* per topic, one two-term training query and one three-term evaluation
  query over disjoint term picks; the sixth term occurs in no query;
* hard negatives are the entity's other documents, topped up with random
  documents of other entities (drawn by rejection, not from a list of all
  other documents).

Only numpy and the standard library are used; nothing here imports the
package under test, so inputs are made outside the measured process.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

STEMS = (
    "harbor", "ledger", "turbine", "orchard", "granite", "lantern",
    "furnace", "paddock", "quarry", "saddle", "timber", "vessel",
    "anchor", "barrel", "copper", "dagger", "ember", "falcon",
    "garnet", "hammer", "ingot", "jetty", "kettle", "lattice",
)
FILLER = ("records", "notes", "describe", "general", "background", "material")
DOC_TOKEN_CAP = 16
DOCS_PER_ENTITY = 4
NEGATIVES = 7
_TERMS_PER_TOPIC = 6


@dataclass(frozen=True)
class Collection:
    docs: list[tuple[str, str]]  # (doc_id, text)
    queries: list[tuple[str, str]]  # evaluation (query_id, text)
    qrels: dict[str, str]  # evaluation query_id -> its one relevant doc_id
    triples: list[dict]  # records in the triples JSONL format
    gold_by_doc: dict[str, list[str]]  # evaluation query texts per doc_id


def _entity_name(i: int) -> str:
    first = ("zan", "bel", "cor", "dus", "fen", "gil", "hob", "jar", "kel", "lum")
    second = ("ara", "enta", "iris", "osta", "umbra", "yxa", "ephor", "aldo", "inea", "ovak")
    return f"{first[i % 10]}{second[(i // 10) % 10]}{i}"


def _topic_terms(ordinal: int, topic: int, rng: np.random.Generator) -> list[str]:
    start = int(rng.integers(0, len(STEMS)))
    return [
        f"{STEMS[(start + s) % len(STEMS)]}{ordinal}x{topic * _TERMS_PER_TOPIC + s}"
        for s in range(_TERMS_PER_TOPIC)
    ]


def build(n_docs: int, seed: int, eval_queries: int | None = None) -> Collection:
    """Build ``n_docs`` documents (a multiple of 4) from ``seed``.

    ``eval_queries`` keeps a seeded sample of that many evaluation queries
    (with their judgments); ``None`` keeps all ``2 * n_docs``.
    """
    if n_docs % DOCS_PER_ENTITY or n_docs < 2 * DOCS_PER_ENTITY:
        raise ValueError(f"n_docs must be a multiple of {DOCS_PER_ENTITY}, at least 8")
    rng = np.random.default_rng(seed)
    n_entities = n_docs // DOCS_PER_ENTITY
    docs: list[tuple[str, str]] = []
    queries: list[tuple[str, str]] = []
    qrels: dict[str, str] = {}
    train_items: list[tuple[str, str, int]] = []  # (query_id, text, doc ordinal)
    for e in range(n_entities):
        entity = _entity_name(e)
        for j in range(DOCS_PER_ENTITY):
            ordinal = len(docs)
            doc_id = f"e{e:04d}d{j}"
            topics = [_topic_terms(ordinal, t, rng) for t in (0, 1)]
            shown = [rng.permutation(terms).tolist() for terms in topics]
            visible = [entity] + shown[0]
            while len(visible) < DOC_TOKEN_CAP:
                visible.append(FILLER[int(rng.integers(0, len(FILLER)))])
            docs.append((doc_id, " ".join(visible + shown[1] + [entity])))
            for topic_idx, terms in enumerate(topics):
                picked = rng.permutation(len(terms))
                suffix = "v" if topic_idx == 0 else "h"
                train_items.append(
                    (f"t{e:04d}{j}{suffix}", f"{terms[picked[0]]} {terms[picked[1]]}", ordinal)
                )
                eval_id = f"q{e:04d}{j}{suffix}"
                queries.append(
                    (eval_id, " ".join(terms[int(p)] for p in picked[2:5]))
                )
                qrels[eval_id] = doc_id

    triples = []
    for query_id, text, ordinal in train_items:
        base = ordinal - ordinal % DOCS_PER_ENTITY
        neg = [base + j for j in range(DOCS_PER_ENTITY) if base + j != ordinal]
        while len(neg) < NEGATIVES:
            pick = int(rng.integers(0, n_docs))
            if pick // DOCS_PER_ENTITY != ordinal // DOCS_PER_ENTITY and pick not in neg:
                neg.append(pick)
        triples.append(
            {
                "query_id": query_id,
                "query": text,
                "positive_doc_id": docs[ordinal][0],
                "positive": docs[ordinal][1],
                "negative_doc_ids": [docs[n][0] for n in neg],
                "negatives": [docs[n][1] for n in neg],
            }
        )

    if eval_queries is not None and eval_queries < len(queries):
        keep = np.sort(rng.choice(len(queries), size=eval_queries, replace=False))
        queries = [queries[int(i)] for i in keep]
        qrels = {qid: qrels[qid] for qid, _ in queries}
    gold_by_doc: dict[str, list[str]] = {}
    for query_id, text in queries:
        gold_by_doc.setdefault(qrels[query_id], []).append(text)
    return Collection(docs, queries, qrels, triples, gold_by_doc)


def write(coll: Collection, out_dir: Path) -> dict[str, Path]:
    """Write the collection in the package's file formats; returns the paths."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "corpus": out_dir / "corpus.tsv",
        "queries": out_dir / "queries.tsv",
        "qrels": out_dir / "qrels.txt",
        "triples": out_dir / "triples.jsonl",
    }
    with open(paths["corpus"], "w", encoding="utf-8", newline="\n") as handle:
        handle.writelines(f"{doc_id}\t{text}\n" for doc_id, text in coll.docs)
    with open(paths["queries"], "w", encoding="utf-8", newline="\n") as handle:
        handle.writelines(f"{qid}\t{text}\n" for qid, text in coll.queries)
    with open(paths["qrels"], "w", encoding="utf-8", newline="\n") as handle:
        handle.writelines(f"{qid} 0 {coll.qrels[qid]} 1\n" for qid, _ in coll.queries)
    with open(paths["triples"], "w", encoding="utf-8", newline="\n") as handle:
        handle.writelines(json.dumps(t) + "\n" for t in coll.triples)
    return paths
