"""Data model and file I/O for documents, queries, relevance labels, and training triples.

All text is canonicalized on the way in: Unicode NFC, lowercased, with
whitespace runs collapsed to single spaces. Tokenization splits on word
characters, so punctuation separates tokens and never survives into them.
Parsers are strict: any malformed line fails fast with its line number
rather than being silently skipped.
"""

from __future__ import annotations

import json
import logging
import re
import unicodedata
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

log = logging.getLogger(__name__)

_WORD_RE = re.compile(r"\w+", re.UNICODE)


def normalize_text(text: str) -> str:
    """Canonicalize text: NFC, lowercase, whitespace runs collapsed."""
    return " ".join(unicodedata.normalize("NFC", text).lower().split())


def tokenize(text: str) -> list[str]:
    """Split canonicalized text into word tokens."""
    return _WORD_RE.findall(normalize_text(text))


@dataclass(frozen=True)
class Document:
    """One retrievable unit; ``text`` is stored in canonical form."""

    doc_id: str
    text: str


@dataclass(frozen=True)
class Query:
    query_id: str
    text: str


@dataclass(frozen=True)
class GeneratedQuerySet:
    """The pseudo-queries produced for one document, in generation order."""

    doc_id: str
    queries: tuple[str, ...]


@dataclass(frozen=True)
class TrainingTriple:
    """A query with one positive document and its hard negatives."""

    query: Query
    positive: Document
    negatives: tuple[Document, ...]


class Qrels:
    """Graded relevance labels keyed by (query_id, doc_id).

    Grade 0 rows are retained: they mark judged-but-irrelevant pairs and
    matter for threshold-sensitive metrics.
    """

    def __init__(self, entries: Mapping[tuple[str, str], int]):
        for (query_id, doc_id), grade in entries.items():
            if grade < 0:
                raise ValueError(
                    f"negative relevance grade {grade} for ({query_id!r}, {doc_id!r})"
                )
        self._entries = dict(entries)
        by_query: dict[str, dict[str, int]] = {}
        for (query_id, doc_id), grade in self._entries.items():
            by_query.setdefault(query_id, {})[doc_id] = grade
        self._by_query = by_query

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, pair: tuple[str, str]) -> bool:
        return pair in self._entries

    def grade(self, query_id: str, doc_id: str) -> int:
        """Grade for a pair; unjudged pairs count as 0."""
        return self._entries.get((query_id, doc_id), 0)

    def query_ids(self) -> list[str]:
        """Judged query ids in first-seen order."""
        return list(self._by_query)

    def grades_for(self, query_id: str) -> dict[str, int]:
        return dict(self._by_query.get(query_id, {}))

    def relevant_docs(self, query_id: str, threshold: int = 1) -> list[str]:
        grades = self._by_query.get(query_id, {})
        return [d for d, g in grades.items() if g >= threshold]


def _read_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, 1):
            yield line_no, line.rstrip("\n").rstrip("\r")


def _checked_id(value: str, kind: str, path: str | Path, line_no: int) -> str:
    """An ID with surrounding whitespace stripped. Run and qrels files split
    on whitespace, so an empty ID or one with inner whitespace is an error."""
    value = value.strip()
    if not value:
        raise ValueError(f"{path}:{line_no}: empty {kind}")
    if len(value.split()) > 1:
        raise ValueError(f"{path}:{line_no}: {kind} {value!r} contains whitespace")
    return value


def load_corpus(path: str | Path, fmt: str = "tsv") -> list[Document]:
    """Read a document collection from TSV (``doc_id<TAB>text``) or JSONL.

    Raises ValueError naming the offending line for malformed rows, empty
    or whitespace-containing ids, duplicate ids, or text that is empty
    after canonicalization.
    """
    if fmt not in ("tsv", "jsonl"):
        raise ValueError(f"unknown corpus format {fmt!r} (expected 'tsv' or 'jsonl')")
    docs: list[Document] = []
    seen: set[str] = set()
    for line_no, line in _read_lines(path):
        if fmt == "tsv":
            if "\t" not in line:
                raise ValueError(f"{path}:{line_no}: expected 'doc_id<TAB>text'")
            doc_id, text = line.split("\t", 1)
        else:
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{line_no}: invalid JSON: {exc}") from None
            if not isinstance(record, dict) or "doc_id" not in record or "text" not in record:
                raise ValueError(f"{path}:{line_no}: expected object with 'doc_id' and 'text'")
            doc_id, text = str(record["doc_id"]), str(record["text"])
        doc_id = _checked_id(doc_id, "doc_id", path, line_no)
        if doc_id in seen:
            raise ValueError(f"{path}:{line_no}: duplicate doc_id {doc_id!r}")
        text = normalize_text(text)
        if not text:
            raise ValueError(f"{path}:{line_no}: document {doc_id!r} has empty text")
        seen.add(doc_id)
        docs.append(Document(doc_id, text))
    log.info("loaded %d documents from %s", len(docs), path)
    return docs


def write_corpus(docs: Iterable[Document], path: str | Path) -> None:
    """Write documents as canonical TSV (UTF-8, LF line endings)."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for doc in docs:
            handle.write(f"{doc.doc_id}\t{doc.text}\n")


def load_queries(path: str | Path) -> list[Query]:
    """Read queries from TSV (``query_id<TAB>text``)."""
    queries: list[Query] = []
    seen: set[str] = set()
    for line_no, line in _read_lines(path):
        if "\t" not in line:
            raise ValueError(f"{path}:{line_no}: expected 'query_id<TAB>text'")
        query_id, text = line.split("\t", 1)
        query_id = _checked_id(query_id, "query_id", path, line_no)
        if query_id in seen:
            raise ValueError(f"{path}:{line_no}: duplicate query_id {query_id!r}")
        text = normalize_text(text)
        if not text:
            raise ValueError(f"{path}:{line_no}: query {query_id!r} has empty text")
        seen.add(query_id)
        queries.append(Query(query_id, text))
    log.info("loaded %d queries from %s", len(queries), path)
    return queries


def write_queries(queries: Iterable[Query], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for query in queries:
            handle.write(f"{query.query_id}\t{query.text}\n")


def load_qrels(path: str | Path) -> Qrels:
    """Read whitespace-separated relevance rows: ``query_id 0 doc_id grade``.

    The second column is a conventional placeholder and is not interpreted.
    """
    entries: dict[tuple[str, str], int] = {}
    for line_no, line in _read_lines(path):
        parts = line.split()
        if len(parts) != 4:
            raise ValueError(
                f"{path}:{line_no}: expected 4 whitespace-separated fields, got {len(parts)}"
            )
        query_id, _, doc_id, grade_text = parts
        try:
            grade = int(grade_text)
        except ValueError:
            raise ValueError(f"{path}:{line_no}: grade {grade_text!r} is not an integer") from None
        if grade < 0:
            raise ValueError(f"{path}:{line_no}: negative grade {grade}")
        key = (query_id, doc_id)
        if key in entries:
            raise ValueError(f"{path}:{line_no}: duplicate judgment for {key!r}")
        entries[key] = grade
    log.info("loaded %d judgments from %s", len(entries), path)
    return Qrels(entries)


def write_qrels(qrels: Qrels, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for query_id in qrels.query_ids():
            for doc_id, grade in qrels.grades_for(query_id).items():
                handle.write(f"{query_id} 0 {doc_id} {grade}\n")


def load_generated_queries(
    path: str | Path, corpus: Sequence[Document] | None = None
) -> list[GeneratedQuerySet]:
    """Read per-document generated queries from JSONL.

    Every record must carry the same number of queries (views are uniform
    across the collection). When ``corpus`` is given, records must reference
    known documents.
    """
    known = {doc.doc_id for doc in corpus} if corpus is not None else None
    sets: list[GeneratedQuerySet] = []
    seen: set[str] = set()
    k_views: int | None = None
    for line_no, line in _read_lines(path):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{line_no}: invalid JSON: {exc}") from None
        if not isinstance(record, dict) or "doc_id" not in record or "queries" not in record:
            raise ValueError(f"{path}:{line_no}: expected object with 'doc_id' and 'queries'")
        doc_id = _checked_id(str(record["doc_id"]), "doc_id", path, line_no)
        raw_queries = record["queries"]
        if not isinstance(raw_queries, list) or not raw_queries:
            raise ValueError(f"{path}:{line_no}: 'queries' must be a non-empty list")
        queries = []
        for query in raw_queries:
            text = normalize_text(str(query))
            if not text:
                raise ValueError(f"{path}:{line_no}: empty query for doc {doc_id!r}")
            queries.append(text)
        if doc_id in seen:
            raise ValueError(f"{path}:{line_no}: duplicate doc_id {doc_id!r}")
        if known is not None and doc_id not in known:
            raise ValueError(f"{path}:{line_no}: unknown doc_id {doc_id!r}")
        if k_views is None:
            k_views = len(queries)
        elif len(queries) != k_views:
            raise ValueError(
                f"{path}:{line_no}: doc {doc_id!r} has {len(queries)} queries, expected {k_views}"
            )
        seen.add(doc_id)
        sets.append(GeneratedQuerySet(doc_id, tuple(queries)))
    log.info("loaded generated queries for %d documents from %s", len(sets), path)
    return sets


def write_generated_queries(sets: Iterable[GeneratedQuerySet], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for qset in sets:
            record = {"doc_id": qset.doc_id, "queries": list(qset.queries)}
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")


def load_triples(path: str | Path) -> list[TrainingTriple]:
    """Read training triples from JSONL.

    Each record embeds the query and document texts directly so a triples
    file is self-contained:
    ``{"query_id", "query", "positive_doc_id", "positive",
    "negative_doc_ids", "negatives"}``.
    """
    triples: list[TrainingTriple] = []
    for line_no, line in _read_lines(path):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{line_no}: invalid JSON: {exc}") from None
        required = (
            "query_id",
            "query",
            "positive_doc_id",
            "positive",
            "negative_doc_ids",
            "negatives",
        )
        if not isinstance(record, dict) or any(key not in record for key in required):
            missing = [key for key in required if key not in record]
            raise ValueError(f"{path}:{line_no}: missing fields {missing}")
        neg_ids = record["negative_doc_ids"]
        neg_texts = record["negatives"]
        if not isinstance(neg_ids, list) or not isinstance(neg_texts, list):
            raise ValueError(f"{path}:{line_no}: negative fields must be lists")
        if len(neg_ids) != len(neg_texts):
            raise ValueError(
                f"{path}:{line_no}: {len(neg_ids)} negative ids vs {len(neg_texts)} texts"
            )
        if not neg_ids:
            raise ValueError(f"{path}:{line_no}: triple has no negatives")
        query_text = normalize_text(str(record["query"]))
        pos_text = normalize_text(str(record["positive"]))
        if not query_text:
            raise ValueError(f"{path}:{line_no}: empty query text")
        if not pos_text:
            raise ValueError(f"{path}:{line_no}: empty positive text")
        pos_id = str(record["positive_doc_id"])
        negatives = []
        for neg_id, neg_text in zip(neg_ids, neg_texts):
            neg_id = str(neg_id)
            if neg_id == pos_id:
                raise ValueError(
                    f"{path}:{line_no}: negative {neg_id!r} duplicates the positive"
                )
            text = normalize_text(str(neg_text))
            if not text:
                raise ValueError(f"{path}:{line_no}: empty negative text for {neg_id!r}")
            negatives.append(Document(neg_id, text))
        triples.append(
            TrainingTriple(
                query=Query(str(record["query_id"]), query_text),
                positive=Document(pos_id, pos_text),
                negatives=tuple(negatives),
            )
        )
    log.info("loaded %d training triples from %s", len(triples), path)
    return triples


def write_triples(triples: Iterable[TrainingTriple], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for triple in triples:
            record = {
                "query_id": triple.query.query_id,
                "query": triple.query.text,
                "positive_doc_id": triple.positive.doc_id,
                "positive": triple.positive.text,
                "negative_doc_ids": [d.doc_id for d in triple.negatives],
                "negatives": [d.text for d in triple.negatives],
            }
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")
