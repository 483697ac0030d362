"""Generated views, a unigram index and an untrained checkpoint stay
byte-identical to pinned files.

Both pins changed when view sampling was redefined on each document's raw
PCG64 words (four words a view; see ``mvdr.querygen``). Until then the
views reproduced, bit for bit, the scalar ``Generator`` calls of commit
5ed6e19. The views file's CRC-32 went from 0x93A7AA70 to 0xE694A857, and
the index, which encodes those views, from a payload CRC-32 of 0x4ED9FE56
to 0xCAF9E1FE.

Both file pins changed again when framed files began to start each
float32 array at a multiple of 64 bytes, after zero bytes (formats
``MVIXT3`` and ``MVDR3``): the index payload CRC-32 went from 0xCAF9E1FE
to 0x079196E8, and the untrained checkpoint from 4,196,512 bytes with a
payload CRC-32 of 0x373C9EC3 to 4,196,548 bytes (36 bytes of padding
before the token table) and 0x2EDBAE32. The pins of the loaded arrays'
bytes, which do not depend on the layout, read the same before and after
that change: 0xABB11960 for the index matrix and 0x77044592 for the
checkpoint's tensors.

The index and checkpoint file pins are the CRC-32 of the file without its
last four bytes. An ``.mvix`` or checkpoint file ends in the
little-endian CRC-32 of everything before it, and the CRC-32 of any data
followed by its own CRC-32 is the constant residue 0x2144DF1C, so a
CRC-32 of the whole file pins nothing.

The checkpoint pin covers the writer's layout: header, tied byte and the
tower's float32 tensors. An untrained checkpoint's values come from
``PCG64`` draws and float conversions only, never from a BLAS product or
``np.tanh``, so they do not depend on the CPU.
"""

import zlib

import pytest
from synthcorpus import DOC_TOKEN_CAP, build_synth

from mvdr.corpus import write_generated_queries
from mvdr.encoder import EncoderConfig, init_params, load_params, save_params
from mvdr.index import FlatIndex, build_index, load_index, save_index
from mvdr.querygen import SamplingConfig, fit_qg, generate_corpus

# the acceptance matrix's encoder: unigram features over the first 16 tokens
UNIGRAM_ENCODER = EncoderConfig(
    embed_dim=16, hash_buckets=65536, ngram_orders=(1,), max_query_tokens=16, max_doc_tokens=DOC_TOKEN_CAP
)
GEN_QUERIES_CRC32 = 0xE694A857
INDEX_PAYLOAD_CRC32 = 0x079196E8
INDEX_MATRIX_CRC32 = 0xABB11960
CHECKPOINT_BYTES = 4_196_548
CHECKPOINT_PAYLOAD_CRC32 = 0x2EDBAE32
CHECKPOINT_TENSORS_CRC32 = 0x77044592
CRC32_RESIDUE = 0x2144DF1C


def payload_crc32(path):
    """The CRC-32 of a framed file without its CRC-32 footer."""
    return zlib.crc32(path.read_bytes()[:-4])


def arrays_crc32(arrays):
    """The CRC-32 of the arrays' bytes, one after another."""
    crc = 0
    for array in arrays:
        crc = zlib.crc32(array.tobytes(), crc)
    return crc


@pytest.fixture(scope="module")
def pinned_index():
    docs = build_synth().docs
    generated = generate_corpus(
        fit_qg(docs, seed=77), docs, SamplingConfig(k_views=10, top_k=12, max_query_tokens=16), seed=77
    )
    index = build_index(init_params(UNIGRAM_ENCODER, seed=0), docs, mode="dce", generated=generated)
    return generated, index


def test_generated_views_and_unigram_index_match_pins(pinned_index, tmp_path):
    generated, index = pinned_index
    write_generated_queries(generated, tmp_path / "gen_queries.jsonl")
    save_index(index, tmp_path / "index.mvix")
    assert zlib.crc32((tmp_path / "gen_queries.jsonl").read_bytes()) == GEN_QUERIES_CRC32
    assert payload_crc32(tmp_path / "index.mvix") == INDEX_PAYLOAD_CRC32


def test_index_pin_sees_one_changed_value(pinned_index, tmp_path):
    _, index = pinned_index
    matrix = index.matrix.copy()
    matrix[0, 0] += 1.0
    save_index(FlatIndex(matrix=matrix, doc_ids=index.doc_ids, k_views=index.k_views), tmp_path / "changed.mvix")
    save_index(index, tmp_path / "index.mvix")
    # a whole-file CRC-32 reads the residue for both files
    for name in ("index.mvix", "changed.mvix"):
        assert zlib.crc32((tmp_path / name).read_bytes()) == CRC32_RESIDUE
    assert payload_crc32(tmp_path / "changed.mvix") != INDEX_PAYLOAD_CRC32


def test_untrained_unigram_checkpoint_matches_pin(tmp_path):
    path = tmp_path / "model.ckpt"
    save_params(init_params(UNIGRAM_ENCODER, seed=0), path)
    assert path.stat().st_size == CHECKPOINT_BYTES
    assert payload_crc32(path) == CHECKPOINT_PAYLOAD_CRC32


def test_loaded_arrays_match_pins_whatever_the_layout(pinned_index, tmp_path):
    _, index = pinned_index
    save_index(index, tmp_path / "index.mvix")
    assert arrays_crc32([load_index(tmp_path / "index.mvix").matrix]) == INDEX_MATRIX_CRC32
    save_params(init_params(UNIGRAM_ENCODER, seed=0), tmp_path / "model.ckpt")
    tensors = load_params(tmp_path / "model.ckpt").tower.tensors().values()
    assert arrays_crc32(tensors) == CHECKPOINT_TENSORS_CRC32
