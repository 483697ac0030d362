import json
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mvdr.corpus import (
    Document,
    GeneratedQuerySet,
    Qrels,
    Query,
    TrainingTriple,
    load_corpus,
    load_generated_queries,
    load_qrels,
    load_queries,
    load_triples,
    normalize_text,
    tokenize,
    write_corpus,
    write_generated_queries,
    write_lines,
    write_qrels,
    write_queries,
    write_triples,
)
from mvdr.cli import parse_config
from mvdr.evaluation import Run, RunEntry, load_run, mrr_at_k, ndcg_at_k, recall_at_k


class TestNormalization:
    def test_lowercase_and_collapse(self):
        assert normalize_text("  Solar\tPanels \n work ") == "solar panels work"

    def test_unicode_composition(self):
        # decomposed e + combining acute must equal the precomposed form
        assert normalize_text("café") == normalize_text("café")

    def test_empty(self):
        assert normalize_text("   ") == ""

    def test_tokenize(self):
        assert tokenize("who founded acme, inc. in 1999?") == [
            "who", "founded", "acme", "inc", "in", "1999",
        ]

    @given(st.text(max_size=80))
    def test_normalize_idempotent(self, text):
        once = normalize_text(text)
        assert normalize_text(once) == once


class TestCorpusIO:
    def test_tsv_roundtrip(self, tmp_path, tiny_docs):
        path = tmp_path / "corpus.tsv"
        write_corpus(tiny_docs, path)
        assert load_corpus(path) == tiny_docs

    def test_jsonl(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        rows = [
            {"doc_id": "a", "text": "Alpha  Beta"},
            {"doc_id": "b", "text": "gamma"},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        docs = load_corpus(path)
        assert docs == [Document("a", "alpha beta"), Document("b", "gamma")]

    def test_each_line_is_json_when_it_starts_with_a_brace(self, tmp_path):
        # blanks before the brace are allowed, and TSV and JSON lines may mix
        path = tmp_path / "mixed.txt"
        path.write_text('a\tAlpha\n \t {"doc_id": "b", "text": "Beta"}\n')
        assert load_corpus(path) == [Document("a", "alpha"), Document("b", "beta")]

    @pytest.mark.parametrize(
        "text, error",
        [
            ("d1\tok\n{d2\ttext\n", "invalid JSON: "),
            ('{"doc_id": "a", "text": "x"}\n\n', "expected 'doc_id<TAB>text'$"),
        ],
        ids=["tsv-id-starting-with-a-brace", "blank-line-among-json"],
    )
    def test_line_read_in_the_format_of_its_first_character(self, tmp_path, text, error):
        path = tmp_path / "corpus.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=rf"corpus\.txt:2: {error}"):
            load_corpus(path)

    def test_missing_tab_names_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("d1\tok\nno tab here\n")
        with pytest.raises(ValueError, match=r"bad\.tsv:2"):
            load_corpus(path)

    def test_duplicate_doc_id(self, tmp_path):
        path = tmp_path / "dup.tsv"
        path.write_text("d1\tone\nd1\ttwo\n")
        with pytest.raises(ValueError, match="duplicate doc_id"):
            load_corpus(path)

    def test_empty_text_rejected(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("d1\t   \n")
        with pytest.raises(ValueError, match="empty text"):
            load_corpus(path)

    def test_whitespace_in_tsv_doc_id_rejected(self, tmp_path):
        path = tmp_path / "ws.tsv"
        path.write_text("d1\tone\nd 2\ttwo\n")
        with pytest.raises(ValueError, match=r"ws\.tsv:2: doc_id 'd 2' contains whitespace"):
            load_corpus(path)

    def test_crlf_ends_a_line_and_a_lone_cr_is_whitespace(self, tmp_path):
        path = tmp_path / "cr.tsv"
        path.write_bytes(b"d1\tsolar\rpanels\r\nd2\tcourt\n")
        assert load_corpus(path) == [Document("d1", "solar panels"), Document("d2", "court")]

    @pytest.mark.parametrize(
        "record, error",
        [
            ({"doc_id": "d1", "text": None}, "text for doc_id 'd1' must be a JSON string, got null"),
            ({"doc_id": "d1", "text": ["a b"]}, "text for doc_id 'd1' must be a JSON string, got [\"a b\"]"),
            ({"doc_id": "d1", "text": False}, "text for doc_id 'd1' must be a JSON string, got false"),
            ({"doc_id": 7, "text": "seven"}, "doc_id must be a JSON string, got 7"),
            ({"doc_id": {"id": "d1"}, "text": "x"}, 'doc_id must be a JSON string, got {"id": "d1"}'),
        ],
        ids=["null-text", "array-text", "false-text", "number-id", "object-id"],
    )
    def test_non_string_jsonl_field_rejected(self, tmp_path, record, error):
        path = tmp_path / "c.jsonl"
        path.write_text('{"doc_id": "d0", "text": "ok"}\n' + json.dumps(record) + "\n")
        with pytest.raises(ValueError, match=rf"c\.jsonl:2: {re.escape(error)}$"):
            load_corpus(path)

    def test_whitespace_in_jsonl_doc_id_rejected(self, tmp_path):
        path = tmp_path / "ws.jsonl"
        path.write_text('{"doc_id": "a", "text": "x"}\n{"doc_id": "b\\tc", "text": "y"}\n')
        with pytest.raises(ValueError, match=r"ws\.jsonl:2: doc_id 'b\\tc' contains whitespace"):
            load_corpus(path)


class TestQueryIO:
    def test_roundtrip(self, tmp_path, tiny_queries):
        path = tmp_path / "queries.tsv"
        write_queries(tiny_queries, path)
        assert load_queries(path) == tiny_queries

    def test_jsonl(self, tmp_path, tiny_queries):
        # queries share the corpus reader, JSON lines included
        path = tmp_path / "queries.jsonl"
        rows = [{"query_id": q.query_id, "text": q.text.upper()} for q in tiny_queries]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        assert load_queries(path) == tiny_queries

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "q.tsv"
        path.write_text("q1\tfoo\nq1\tbar\n")
        with pytest.raises(ValueError, match="duplicate query_id"):
            load_queries(path)

    def test_whitespace_in_query_id_rejected(self, tmp_path):
        path = tmp_path / "q.tsv"
        path.write_text("q 1\tfoo\n")
        with pytest.raises(ValueError, match=r"q\.tsv:1: query_id 'q 1' contains whitespace"):
            load_queries(path)


class TestQrelsIO:
    def test_roundtrip(self, tmp_path, tiny_qrels):
        path = tmp_path / "qrels.txt"
        write_qrels(tiny_qrels, path)
        loaded = load_qrels(path)
        assert list(loaded.items()) == [(("q1", "d1"), 2), (("q1", "d3"), 0), (("q2", "d2"), 1)]
        assert len(loaded) == len(tiny_qrels)

    def test_second_column_ignored(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 ignored d1 1\n")
        assert list(load_qrels(path).items()) == [(("q1", "d1"), 1)]

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1\n")
        with pytest.raises(ValueError, match="expected 4"):
            load_qrels(path)

    def test_negative_grade(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1 -1\n")
        with pytest.raises(ValueError, match="negative grade"):
            load_qrels(path)

    def test_grade_beyond_int64(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text(f"q1 0 d1 {2**63 - 1}\nq2 0 d1 {2**63}\n")
        with pytest.raises(ValueError, match=rf"qrels.txt:2: grade {2**63} is above {2**63 - 1}"):
            load_qrels(path)

    def test_duplicate_pair(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1 1\nq1 0 d1 2\n")
        with pytest.raises(ValueError, match="duplicate judgment"):
            load_qrels(path)


class TestQrelsObject:
    def test_unjudged_grade_is_zero(self, tiny_qrels):
        # metrics read an unjudged doc exactly as the judged grade-0 d3
        def scores(first: str) -> list[float]:
            run = Run({"q1": [RunEntry(first, 1, 2.0), RunEntry("d1", 2, 1.0)]})
            metrics = (mrr_at_k, ndcg_at_k, recall_at_k)
            return [metric(run, tiny_qrels, k=10).per_query["q1"] for metric in metrics]

        assert scores("nope") == scores("d3")
        assert scores("nope")[0] == 0.5

    def test_relevant_docs_respects_threshold(self, tiny_qrels):
        assert tiny_qrels.relevant_docs("q1") == ["d1"]
        assert tiny_qrels.relevant_docs("q1", threshold=0) == ["d1", "d3"]

    def test_rejects_negative_grades(self):
        with pytest.raises(ValueError):
            Qrels({("q", "d"): -2})

    def test_rejects_grades_beyond_int64(self):
        assert len(Qrels({("q", "d"): 2**63 - 1})) == 1
        with pytest.raises(ValueError, match="above"):
            Qrels({("q", "d"): 2**63})


class TestGeneratedQueryIO:
    def test_roundtrip_with_corpus_check(self, tmp_path, tiny_docs):
        sets = [
            GeneratedQuerySet("d1", ("what is solar power", "solar panel output")),
            GeneratedQuerySet("d2", ("court appeal result", "spring ruling")),
        ]
        path = tmp_path / "gen.jsonl"
        write_generated_queries(sets, path)
        assert load_generated_queries(path, corpus=tiny_docs) == sets

    def test_unknown_doc_rejected(self, tmp_path, tiny_docs):
        path = tmp_path / "gen.jsonl"
        write_generated_queries([GeneratedQuerySet("ghost", ("q",))], path)
        with pytest.raises(ValueError, match="unknown doc_id"):
            load_generated_queries(path, corpus=tiny_docs)

    def test_uneven_view_counts_rejected(self, tmp_path):
        path = tmp_path / "gen.jsonl"
        write_generated_queries(
            [GeneratedQuerySet("a", ("x", "y")), GeneratedQuerySet("b", ("z",))],
            path,
        )
        with pytest.raises(ValueError, match="expected 2"):
            load_generated_queries(path)

    def test_empty_query_rejected(self, tmp_path):
        path = tmp_path / "gen.jsonl"
        path.write_text('{"doc_id": "a", "queries": ["ok", "  "]}\n')
        with pytest.raises(ValueError, match="empty query"):
            load_generated_queries(path)

    @pytest.mark.parametrize(
        "doc_id, error",
        [("", "empty doc_id"), ("d 1", "doc_id 'd 1' contains whitespace")],
        ids=["empty", "whitespace"],
    )
    def test_empty_or_whitespace_doc_id_rejected(self, tmp_path, doc_id, error):
        path = tmp_path / "gen.jsonl"
        path.write_text(json.dumps({"doc_id": doc_id, "queries": ["ok"]}) + "\n")
        with pytest.raises(ValueError, match=rf"gen\.jsonl:1: {error}"):
            load_generated_queries(path)


    @pytest.mark.parametrize(
        "record, error",
        [
            ({"doc_id": "a", "queries": ["ok", False]}, "query for doc 'a' must be a JSON string, got false"),
            ({"doc_id": "a", "queries": [None, "ok"]}, "query for doc 'a' must be a JSON string, got null"),
            ({"doc_id": "a", "queries": ["ok", 1.5]}, "query for doc 'a' must be a JSON string, got 1.5"),
            ({"doc_id": 7, "queries": ["ok", "ok"]}, "doc_id must be a JSON string, got 7"),
        ],
        ids=["false-query", "null-query", "number-query", "number-id"],
    )
    def test_non_string_field_rejected(self, tmp_path, record, error):
        path = tmp_path / "gen.jsonl"
        path.write_text(json.dumps({"doc_id": "z", "queries": ["x", "y"]}) + "\n" + json.dumps(record) + "\n")
        with pytest.raises(ValueError, match=rf"gen\.jsonl:2: {re.escape(error)}$"):
            load_generated_queries(path)


class TestTripleIO:
    RECORD = {
        "query_id": "q1",
        "query": "text",
        "positive_doc_id": "d1",
        "positive": "pos",
        "negative_doc_ids": ["d2"],
        "negatives": ["neg"],
    }

    def test_roundtrip(self, tmp_path, tiny_triples):
        path = tmp_path / "triples.jsonl"
        write_triples(tiny_triples, path)
        assert load_triples(path) == tiny_triples

    def test_triples_share_each_document(self, tmp_path, tiny_triples):
        path = tmp_path / "triples.jsonl"
        write_triples(tiny_triples, path)
        with path.open("a") as handle:
            # d1 again, with text that only canonicalizes to the same
            record = {**self.RECORD, "positive_doc_id": "d1", "negative_doc_ids": ["d2"]}
            record["positive"] = "  Solar PANELS convert sunlight\tinto electricity"
            record["negatives"] = [tiny_triples[0].negatives[0].text]
            handle.write(json.dumps(record) + "\n")
        first, second, third = load_triples(path)
        assert first.positive is second.negatives[0] is third.positive
        assert first.negatives[0] is second.positive is third.negatives[0]
        assert len({id(doc) for t in (first, second, third) for doc in (t.positive, *t.negatives)}) == 4

    def test_one_doc_id_with_two_texts_loads_as_two_documents(self, tmp_path):
        path = tmp_path / "triples.jsonl"
        path.write_text(
            json.dumps(self.RECORD) + "\n"
            + json.dumps({**self.RECORD, "query_id": "q2", "positive": "other pos"}) + "\n"
            + json.dumps({**self.RECORD, "query_id": "q3", "negatives": ["other neg"]}) + "\n"
        )
        first, second, third = load_triples(path)
        assert [t.positive for t in (first, second, third)] == [
            Document("d1", "pos"), Document("d1", "other pos"), Document("d1", "pos"),
        ]
        assert [t.negatives for t in (first, second, third)] == [
            (Document("d2", "neg"),), (Document("d2", "neg"),), (Document("d2", "other neg"),),
        ]
        assert first.positive is third.positive and first.negatives[0] is second.negatives[0]

    def test_positive_among_negatives_rejected(self, tmp_path):
        record = {
            "query_id": "q",
            "query": "text",
            "positive_doc_id": "d1",
            "positive": "pos",
            "negative_doc_ids": ["d1"],
            "negatives": ["neg"],
        }
        path = tmp_path / "triples.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ValueError, match="duplicates the positive"):
            load_triples(path)

    def test_no_negatives_rejected(self, tmp_path):
        record = {
            "query_id": "q",
            "query": "text",
            "positive_doc_id": "d1",
            "positive": "pos",
            "negative_doc_ids": [],
            "negatives": [],
        }
        path = tmp_path / "triples.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ValueError, match="no negatives"):
            load_triples(path)

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "triples.jsonl"
        path.write_text('{"query_id": "q"}\n')
        with pytest.raises(ValueError, match="missing fields"):
            load_triples(path)

    @pytest.mark.parametrize(
        "fields, error",
        [
            ({"query_id": ""}, "empty query_id"),
            ({"query_id": "q 1"}, "query_id 'q 1' contains whitespace"),
            ({"negative_doc_ids": [""]}, "empty negative doc_id"),
            ({"positive_doc_id": "d 1"}, "positive_doc_id 'd 1' contains whitespace"),
            ({"positive_doc_id": "", "negative_doc_ids": [""]}, "empty positive_doc_id"),
        ],
        ids=["empty-query", "space-query", "empty-negative", "space-positive", "empty-both"],
    )
    def test_bad_ids_rejected(self, tmp_path, fields, error):
        path = tmp_path / "triples.jsonl"
        path.write_text(json.dumps(self.RECORD) + "\n" + json.dumps({**self.RECORD, **fields}))
        with pytest.raises(ValueError, match=rf"triples\.jsonl:2: {error}$"):
            load_triples(path)

    @pytest.mark.parametrize(
        "fields, error",
        [
            ({"negatives": [False]}, "negative text for 'd2' must be a JSON string, got false"),
            ({"negatives": [["a b"]]}, "negative text for 'd2' must be a JSON string, got [\"a b\"]"),
            ({"query": None}, "query text must be a JSON string, got null"),
            ({"positive": 3}, "positive text must be a JSON string, got 3"),
            ({"query_id": 7}, "query_id must be a JSON string, got 7"),
            ({"positive_doc_id": True}, "positive_doc_id must be a JSON string, got true"),
            ({"negative_doc_ids": [2]}, "negative doc_id must be a JSON string, got 2"),
        ],
        ids=["false-negative", "array-negative", "null-query", "number-positive",
             "number-query-id", "true-positive-id", "number-negative-id"],
    )
    def test_non_string_field_rejected(self, tmp_path, fields, error):
        path = tmp_path / "triples.jsonl"
        path.write_text(json.dumps(self.RECORD) + "\n" + json.dumps({**self.RECORD, **fields}) + "\n")
        with pytest.raises(ValueError, match=rf"triples\.jsonl:2: {re.escape(error)}$"):
            load_triples(path)

    @pytest.mark.parametrize("line", ["5", "null"])
    def test_non_object_line_rejected(self, tmp_path, line):
        path = tmp_path / "triples.jsonl"
        path.write_text(json.dumps(self.RECORD) + "\n" + line + "\n")
        with pytest.raises(ValueError, match=r"triples\.jsonl:2: expected a JSON object"):
            load_triples(path)


class TestEncoding:
    TRIPLE = json.dumps(TestTripleIO.RECORD).encode() + b"\n"
    # every text reader: a valid first line, then a second with a 0xFF byte
    READERS = {
        "corpus-tsv": (load_corpus, b"d1\tsolar\n", b"d2\tsol\xffar\n"),
        "corpus-jsonl": (
            load_corpus, b'{"doc_id": "d1", "text": "a"}\n', b'{"doc_id": "d2", "text": "\xff"}\n',
        ),
        "queries": (load_queries, b"q1\tsolar\n", b"q2\t\xffsolar\n"),
        "qrels": (load_qrels, b"q1 0 d1 1\n", b"q1 0 d\xff 1\n"),
        "generated-queries": (
            load_generated_queries,
            b'{"doc_id": "d1", "queries": ["a"]}\n', b'{"doc_id": "d2", "queries": ["\xff"]}\n',
        ),
        "triples": (load_triples, TRIPLE, TRIPLE.replace(b'"q1"', b'"q\xff"')),
        "run": (load_run, b"q1 Q0 d1 1 1.0 tag\n", b"q1 Q0 d\xff 2 0.5 tag\n"),
        "config": (parse_config, b"seed = 1\n", b"mode = d\xffe\n"),
    }

    @pytest.mark.parametrize("name", list(READERS))
    def test_undecodable_line_is_named(self, tmp_path, name):
        read, first, second = self.READERS[name]
        path = tmp_path / "input"
        path.write_bytes(first + second)
        with pytest.raises(ValueError, match=r"input:2: 'utf-8' codec can't decode byte 0xff"):
            read(path)

    @pytest.mark.parametrize(
        "read, record, field",
        [
            (load_corpus, {"doc_id": "d\ud800", "text": "x"}, "doc_id"),
            (load_generated_queries, {"doc_id": "d1", "queries": ["ok", "a \udfff"]}, "query for doc 'd1'"),
            (load_triples, {**TestTripleIO.RECORD, "negatives": ["\ud800"]}, "negative text for 'd2'"),
        ],
        ids=["corpus-jsonl", "generated-queries", "triples"],
    )
    def test_lone_surrogate_is_named(self, tmp_path, read, record, field):
        # a JSON escape can hold half a surrogate pair, which no output can write
        path = tmp_path / "input.jsonl"
        path.write_text(json.dumps(record) + "\n")
        error = f"{field} cannot be encoded as UTF-8 (surrogates not allowed)"
        with pytest.raises(ValueError, match=rf"input\.jsonl:1: {re.escape(error)}$"):
            read(path)


class TestWriteLines:
    def test_interrupted_source_leaves_old_file(self, tmp_path):
        path = tmp_path / "out.txt"
        write_lines(path, ["old"])

        def lines():
            # enough to outgrow the write buffer before the failure
            yield from (f"line {i}" for i in range(10_000))
            raise RuntimeError("interrupted")

        with pytest.raises(RuntimeError, match="interrupted"):
            write_lines(path, lines())
        assert path.read_bytes() == b"old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


# loader and writer must agree for any text surviving canonicalization
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=999),
            st.text(
                alphabet=st.characters(whitelist_categories=("Ll", "Nd"), max_codepoint=0x17F),
                min_size=1,
                max_size=20,
            ),
        ),
        min_size=1,
        max_size=8,
        unique_by=lambda t: t[0],
    )
)
def test_corpus_roundtrip_property(tmp_path_factory, rows):
    docs = []
    for i, text in rows:
        canonical = normalize_text(text)
        if not canonical:
            return
        docs.append(Document(f"d{i}", canonical))
    path = tmp_path_factory.mktemp("prop") / "corpus.tsv"
    write_corpus(docs, path)
    assert load_corpus(path) == docs
