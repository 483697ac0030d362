"""Every loader names the file it rejects.

An error in a file's contents starts with that file's path, whether the
loader finds it while reading a line or a field, or a check the loader
hands the contents to finds it: ``Run`` for a run file, ``EncoderConfig``
for a checkpoint header, ``FlatIndex`` for an index.
"""

import struct

import numpy as np
import pytest

from mvdr import encoder, index
from mvdr.cli import parse_config
from mvdr.corpus import load_corpus, load_generated_queries, load_qrels, load_queries, load_triples
from mvdr.encoder import load_params
from mvdr.evaluation import load_run
from mvdr.hashing import write_framed
from mvdr.index import load_index


def _index(*doc_ids: bytes, value: float = 1.0):
    """Writes a checksum-valid index of one 2-d view per doc_id, the first
    view's first entry ``value``."""
    matrix = np.eye(len(doc_ids), 2, dtype="<f4")
    matrix[0, 0] = value
    ids = b"".join(struct.pack("<I", len(raw)) + raw for raw in doc_ids)
    header = struct.pack("<III", len(doc_ids), 1, 2)
    return lambda path: write_framed(path, index._MAGIC, [header, ids, matrix])


def _checkpoint(embed_dim: int = 4, tied: int = 1):
    """Writes a checksum-valid checkpoint of a header with 32 unigram
    buckets and no tensors."""
    header = [struct.pack("<IQBB", embed_dim, 32, 1, 1), struct.pack("<BII", tied, 8, 8)]
    return lambda path: write_framed(path, encoder._MAGIC, header)


def _run(*lines: str) -> bytes:
    return "".join(f"{line} mvdr\n" for line in lines).encode()


TRIPLE = (
    '{"query_id": "q1", "query": "a", "positive_doc_id": "d1", "positive": "b", '
    '"negative_doc_ids": %s, "negatives": %s}\n'
)

# loader, file contents (bytes, or a function that writes the file), and
# what the message says after the path
CASES = {
    "corpus-tsv": (load_corpus, b"d1 no tab\n", ":1: expected 'doc_id<TAB>text'"),
    "corpus-jsonl": (load_corpus, b"{not json\n", ":1: invalid JSON: "),
    "queries": (load_queries, b"q1\t \n", ":1: empty text for query_id 'q1'"),
    "qrels": (load_qrels, b"q1 0 d1 high\n", ":1: grade 'high' is not an integer"),
    "triples-not-lists": (
        load_triples, (TRIPLE % ('"d2"', '["c"]')).encode(), ":1: negative fields must be lists"
    ),
    "triples-lengths": (
        load_triples, (TRIPLE % ('["d2"]', '["c", "e"]')).encode(), ":1: 1 negative ids vs 2 texts"
    ),
    "generated-queries": (
        load_generated_queries,
        b'{"doc_id": "d1", "queries": "not a list"}\n',
        ":1: 'queries' must be a non-empty list",
    ),
    "run-line": (load_run, _run("q1 Q0 d1 one 1.0"), ":1: bad rank or score"),
    "run-duplicate-doc": (
        load_run, _run("q1 Q0 d1 1 2.0", "q1 Q0 d1 2 1.0"), ": query 'q1': duplicate doc 'd1'"
    ),
    "run-rising-score": (
        load_run,
        _run("q1 Q0 d1 1 1.0", "q1 Q0 d2 2 2.0"),
        ": query 'q1': score increases with rank at doc 'd2'",
    ),
    "run-rank-gap": (
        load_run,
        _run("q1 Q0 d1 1 2.0", "q1 Q0 d2 3 1.0"),
        ": query 'q1': ranks not contiguous from 1 (saw 3 at position 2)",
    ),
    "config": (parse_config, b"seed = 1\nbogus = 2\n", ":2: unknown config key 'bogus'"),
    "checkpoint-truncated": (
        load_params, _checkpoint(), ": truncated checkpoint while reading token_table"
    ),
    "checkpoint-tied-byte": (
        load_params, _checkpoint(tied=0), ": checkpoint tied byte is 0, expected 1"
    ),
    "checkpoint-header": (
        load_params, _checkpoint(embed_dim=0), ": embed_dim must lie in [1, 2**32), got 0"
    ),
    "index-duplicate-doc-ids": (load_index, _index(b"a", b"a"), ": doc_ids must be unique"),
    "index-whitespace-doc-id": (
        load_index, _index(b"a b", b"c"), ": doc_id 'a b' is empty or contains whitespace"
    ),
    "index-nan": (load_index, _index(b"a", b"b", value=np.nan), ": index embeddings must be finite"),
    "index-undecodable-doc-id": (
        load_index, _index(b"\xff", b"b"), ": 'utf-8' codec can't decode byte 0xff in position 0"
    ),
    "index-truncated": (
        load_index,
        lambda path: write_framed(path, index._MAGIC, [struct.pack("<III", 1, 1, 2)]),
        ": truncated index while reading doc_id length",
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_error_starts_with_the_files_path(tmp_path, case):
    load, contents, after_path = CASES[case]
    path = tmp_path / "damaged"
    if isinstance(contents, bytes):
        path.write_bytes(contents)
    else:
        contents(path)
    with pytest.raises(ValueError) as raised:
        load(path)
    assert str(raised.value).startswith(f"{path}{after_path}")
