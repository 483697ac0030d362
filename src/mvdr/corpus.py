"""Data model and file I/O for documents, queries, relevance labels, and training triples.

All text is canonicalized on the way in: Unicode NFC, lowercased, with
whitespace runs collapsed to single spaces. Tokenization splits on word
characters, so punctuation separates tokens and never survives into them.
Parsers are strict: any malformed line fails fast with its line number
rather than being silently skipped. Outputs replace their file whole.
"""

from __future__ import annotations

import json
import logging
import re
import unicodedata
from dataclasses import dataclass
from pathlib import Path
from typing import Container, Hashable, Iterable, Iterator, Mapping, Sequence

from .hashing import open_output

log = logging.getLogger(__name__)

_WORD_RE = re.compile(r"\w+", re.UNICODE)
# Metrics pack grades into int64 arrays.
_MAX_GRADE = 2**63 - 1


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
        by_query: dict[str, dict[str, int]] = {}
        for (query_id, doc_id), grade in entries.items():
            if grade < 0:
                raise ValueError(
                    f"negative relevance grade {grade} for ({query_id!r}, {doc_id!r})"
                )
            if grade > _MAX_GRADE:
                raise ValueError(
                    f"relevance grade {grade} for ({query_id!r}, {doc_id!r}) is above {_MAX_GRADE}"
                )
            by_query.setdefault(query_id, {})[doc_id] = grade
        self._by_query = by_query

    def __len__(self) -> int:
        return sum(map(len, self._by_query.values()))

    def query_ids(self) -> list[str]:
        """Judged query ids in first-seen order."""
        return list(self._by_query)

    def items(self) -> Iterator[tuple[tuple[str, str], int]]:
        """Every ((query_id, doc_id), grade) judgment, query by query."""
        return (((q, d), g) for q, grades in self._by_query.items() for d, g in grades.items())

    def relevant_docs(self, query_id: str, threshold: int = 1) -> list[str]:
        grades = self._by_query.get(query_id, {})
        return [d for d, g in grades.items() if g >= threshold]


# ---------------------------------------------------------------------------
# Text file I/O. Every text input is read by ``_read_lines`` and every text
# output written by ``write_lines``; the checks below are shared by all
# loaders, and ``where`` is the ``path:line`` an error names.


def _read_lines(path: str | Path) -> Iterator[tuple[str, str]]:
    """Each line of a UTF-8 text file, after the ``path:line`` that names
    it; a line that is not UTF-8 is an error that names it. A line ends at
    LF or CRLF, which is dropped; a lone CR is whitespace inside a text
    field, not a line break."""
    with open(path, "rb") as handle:
        for line_no, raw in enumerate(handle, 1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from None
            yield f"{path}:{line_no}", line.rstrip("\n").rstrip("\r")


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Stream lines to ``path`` as UTF-8, each ending in LF. The file is
    replaced whole, or left as it was if ``lines`` raises."""
    with open_output(path) as handle:
        handle.writelines(f"{line}\n".encode("utf-8") for line in lines)


def _fields(line: str, n: int, where: str) -> list[str]:
    """The line's whitespace-separated fields, of which there must be ``n``."""
    parts = line.split()
    if len(parts) != n:
        raise ValueError(f"{where}: expected {n} whitespace-separated fields, got {len(parts)}")
    return parts


def _json_record(line: str, fields: Sequence[str], where: str) -> dict:
    """The line as a JSON object that holds every one of ``fields``."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{where}: invalid JSON: {exc}") from None
    if not isinstance(record, dict):
        raise ValueError(f"{where}: expected a JSON object with fields {list(fields)}")
    missing = [key for key in fields if key not in record]
    if missing:
        raise ValueError(f"{where}: missing fields {missing}")
    return record


def _string(value: object, what: str, where: str) -> str:
    """``value``, which must be a string: a JSON field holding null, a
    boolean, a number, an array or an object is an error, not its ``str()``,
    and so is a string with a lone surrogate (``"\\ud800"``), which no
    output could write."""
    if not isinstance(value, str):
        raise ValueError(f"{where}: {what} must be a JSON string, got {json.dumps(value)}")
    try:
        value.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ValueError(f"{where}: {what} cannot be encoded as UTF-8 ({exc.reason})") from None
    return value


def _checked_id(value: object, kind: str, where: str) -> str:
    """An ID with surrounding whitespace stripped. Run and qrels files split
    on whitespace, so an empty ID or one with inner whitespace is an error."""
    value = _string(value, kind, where).strip()
    if not value:
        raise ValueError(f"{where}: empty {kind}")
    if len(value.split()) > 1:
        raise ValueError(f"{where}: {kind} {value!r} contains whitespace")
    return value


def _checked_text(value: object, what: str, where: str) -> str:
    """``value`` in canonical form, which must not be empty."""
    text = normalize_text(_string(value, what, where))
    if not text:
        raise ValueError(f"{where}: empty {what}")
    return text


def _check_new(key: Hashable, seen: Container, what: str, where: str) -> None:
    if key in seen:
        raise ValueError(f"{where}: duplicate {what} {key!r}")


def _load_texts(path: str | Path, kind: str) -> dict[str, str]:
    """ID -> canonical text in file order. A line whose first non-blank
    character is ``{`` is a JSON object with ``kind`` and ``"text"``; any
    other line is ``id<TAB>text``."""
    texts: dict[str, str] = {}
    for where, line in _read_lines(path):
        if line.lstrip().startswith("{"):
            record = _json_record(line, (kind, "text"), where)
            raw_id, text = record[kind], record["text"]
        else:
            raw_id, tab, text = line.partition("\t")
            if not tab:
                raise ValueError(f"{where}: expected '{kind}<TAB>text'")
        item_id = _checked_id(raw_id, kind, where)
        _check_new(item_id, texts, kind, where)
        texts[item_id] = _checked_text(text, f"text for {kind} {item_id!r}", where)
    return texts


def load_corpus(path: str | Path) -> list[Document]:
    """Read a document collection: each line ``doc_id<TAB>text`` or a JSON
    object ``{"doc_id", "text"}``.

    Raises ValueError naming the offending line for malformed rows, empty
    or whitespace-containing ids, duplicate ids, or text that is empty
    after canonicalization.
    """
    docs = [Document(*item) for item in _load_texts(path, "doc_id").items()]
    log.info("loaded %d documents from %s", len(docs), path)
    return docs


def write_corpus(docs: Iterable[Document], path: str | Path) -> None:
    """Write documents as canonical TSV (UTF-8, LF line endings)."""
    write_lines(path, (f"{doc.doc_id}\t{doc.text}" for doc in docs))


def load_queries(path: str | Path) -> list[Query]:
    """Read queries as :func:`load_corpus` reads documents, keyed by ``query_id``."""
    queries = [Query(*item) for item in _load_texts(path, "query_id").items()]
    log.info("loaded %d queries from %s", len(queries), path)
    return queries


def write_queries(queries: Iterable[Query], path: str | Path) -> None:
    write_lines(path, (f"{query.query_id}\t{query.text}" for query in queries))


def load_qrels(path: str | Path) -> Qrels:
    """Read whitespace-separated relevance rows: ``query_id 0 doc_id grade``.

    The second column is a conventional placeholder and is not interpreted.
    """
    entries: dict[tuple[str, str], int] = {}
    for where, line in _read_lines(path):
        query_id, _, doc_id, grade_text = _fields(line, 4, where)
        try:
            grade = int(grade_text)
        except ValueError:
            raise ValueError(f"{where}: grade {grade_text!r} is not an integer") from None
        if grade < 0:
            raise ValueError(f"{where}: negative grade {grade}")
        if grade > _MAX_GRADE:
            raise ValueError(f"{where}: grade {grade} is above {_MAX_GRADE}, the largest int64")
        _check_new((query_id, doc_id), entries, "judgment for", where)
        entries[query_id, doc_id] = grade
    log.info("loaded %d judgments from %s", len(entries), path)
    return Qrels(entries)


def write_qrels(qrels: Qrels, path: str | Path) -> None:
    write_lines(path, (f"{q} 0 {d} {g}" for (q, d), g in qrels.items()))


def load_generated_queries(
    path: str | Path, corpus: Sequence[Document] | None = None
) -> list[GeneratedQuerySet]:
    """Read per-document generated queries from JSONL.

    Every record must carry the same number of queries (views are uniform
    across the collection). When ``corpus`` is given, records must reference
    known documents.
    """
    known = {doc.doc_id for doc in corpus} if corpus is not None else None
    sets: dict[str, GeneratedQuerySet] = {}
    k_views: int | None = None
    for where, line in _read_lines(path):
        record = _json_record(line, ("doc_id", "queries"), where)
        doc_id = _checked_id(record["doc_id"], "doc_id", where)
        _check_new(doc_id, sets, "doc_id", where)
        if known is not None and doc_id not in known:
            raise ValueError(f"{where}: unknown doc_id {doc_id!r}")
        raw_queries = record["queries"]
        if not isinstance(raw_queries, list) or not raw_queries:
            raise ValueError(f"{where}: 'queries' must be a non-empty list")
        what = f"query for doc {doc_id!r}"
        queries = tuple(_checked_text(query, what, where) for query in raw_queries)
        if k_views is None:
            k_views = len(queries)
        elif len(queries) != k_views:
            raise ValueError(
                f"{where}: doc {doc_id!r} has {len(queries)} queries, expected {k_views}"
            )
        sets[doc_id] = GeneratedQuerySet(doc_id, queries)
    log.info("loaded generated queries for %d documents from %s", len(sets), path)
    return list(sets.values())


def write_generated_queries(sets: Iterable[GeneratedQuerySet], path: str | Path) -> None:
    records = ({"doc_id": qset.doc_id, "queries": list(qset.queries)} for qset in sets)
    write_lines(path, (json.dumps(record, ensure_ascii=False) for record in records))


_TRIPLE_FIELDS = (
    "query_id", "query", "positive_doc_id", "positive", "negative_doc_ids", "negatives"
)


def load_triples(path: str | Path) -> list[TrainingTriple]:
    """Read training triples from JSONL.

    Each record embeds the query and document texts directly so a triples
    file is self-contained:
    ``{"query_id", "query", "positive_doc_id", "positive",
    "negative_doc_ids", "negatives"}``. IDs follow the same rules as in
    every other input file. Triples that name the same document with the
    same canonical text share one :class:`Document`; a doc_id given two
    texts loads as two documents.
    """
    triples: list[TrainingTriple] = []
    docs: dict[Document, Document] = {}  # each distinct document, to itself
    for where, line in _read_lines(path):
        record = _json_record(line, _TRIPLE_FIELDS, where)
        neg_ids = record["negative_doc_ids"]
        neg_texts = record["negatives"]
        if not isinstance(neg_ids, list) or not isinstance(neg_texts, list):
            raise ValueError(f"{where}: negative fields must be lists")
        if len(neg_ids) != len(neg_texts):
            raise ValueError(f"{where}: {len(neg_ids)} negative ids vs {len(neg_texts)} texts")
        if not neg_ids:
            raise ValueError(f"{where}: triple has no negatives")
        query = Query(
            _checked_id(record["query_id"], "query_id", where),
            _checked_text(record["query"], "query text", where),
        )
        positive = Document(
            _checked_id(record["positive_doc_id"], "positive_doc_id", where),
            _checked_text(record["positive"], "positive text", where),
        )
        positive = docs.setdefault(positive, positive)
        negatives = []
        for neg_id, neg_text in zip(neg_ids, neg_texts):
            neg_id = _checked_id(neg_id, "negative doc_id", where)
            if neg_id == positive.doc_id:
                raise ValueError(f"{where}: negative {neg_id!r} duplicates the positive")
            text = _checked_text(neg_text, f"negative text for {neg_id!r}", where)
            negative = Document(neg_id, text)
            negatives.append(docs.setdefault(negative, negative))
        triples.append(TrainingTriple(query, positive, tuple(negatives)))
    log.info("loaded %d training triples from %s", len(triples), path)
    return triples


def write_triples(triples: Iterable[TrainingTriple], path: str | Path) -> None:
    records = (
        {
            "query_id": triple.query.query_id,
            "query": triple.query.text,
            "positive_doc_id": triple.positive.doc_id,
            "positive": triple.positive.text,
            "negative_doc_ids": [d.doc_id for d in triple.negatives],
            "negatives": [d.text for d in triple.negatives],
        }
        for triple in triples
    )
    write_lines(path, (json.dumps(record, ensure_ascii=False) for record in records))
