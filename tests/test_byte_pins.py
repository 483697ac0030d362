"""Generated views and a unigram index stay byte-identical to pinned files.

The CRC-32 values below were computed at commit 5ed6e19, whose generator
made one scalar ``Generator`` call per draw and whose feature table hashed
joined n-gram strings. Generation now replays every document's PCG64
stream in arrays, and a unigram bucket is still its token's hash, so both
files must keep their bytes.
"""

import zlib

from synthcorpus import DOC_TOKEN_CAP, build_synth

from mvdr.corpus import write_generated_queries
from mvdr.encoder import EncoderConfig, init_params
from mvdr.index import build_index, save_index
from mvdr.querygen import SamplingConfig, fit_qg, generate_corpus

# the acceptance matrix's encoder: unigram features over the first 16 tokens
UNIGRAM_ENCODER = EncoderConfig(
    embed_dim=16, hash_buckets=65536, ngram_orders=(1,), max_query_tokens=16, max_doc_tokens=DOC_TOKEN_CAP
)
GEN_QUERIES_CRC32 = 0x93A7AA70
INDEX_CRC32 = 0x2144DF1C


def test_generated_views_and_unigram_index_match_pins(tmp_path):
    docs = build_synth().docs
    generated = generate_corpus(
        fit_qg(docs, seed=77), docs, SamplingConfig(k_views=10, top_k=12, max_query_tokens=16), seed=77
    )
    write_generated_queries(generated, tmp_path / "gen_queries.jsonl")
    index = build_index(init_params(UNIGRAM_ENCODER, seed=0), docs, mode="dce", generated=generated)
    save_index(index, tmp_path / "index.mvix")
    assert zlib.crc32((tmp_path / "gen_queries.jsonl").read_bytes()) == GEN_QUERIES_CRC32
    assert zlib.crc32((tmp_path / "index.mvix").read_bytes()) == INDEX_CRC32
