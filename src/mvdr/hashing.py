"""Stable hashing primitives shared across the package.

Everything here must be deterministic across processes, platforms, and
Python versions: feature bucketing, seed derivation, and file checksums
all feed reproducibility contracts. Checkpoint and index files both end
in a CRC-32 footer (:func:`crc32`).
"""

from __future__ import annotations

import hashlib
import zlib

_MASK64 = 0xFFFFFFFFFFFFFFFF

# CRC-64/XZ (reflected ECMA-182 polynomial). No file format uses it any more;
# it stays only because the benchmark tracer wraps ``crc64`` by name, until
# the tracer's layer list drops it (ROADMAP item 6).
_CRC64_POLY = 0xC96C5795D7870F42


def stable_hash64(key: str) -> int:
    """Map a string to a 64-bit integer, stable across runs and platforms."""
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def derive_seed(seed: int, label: str) -> int:
    """Derive a child seed from a base seed and a label.

    Used to give every pipeline stage (and every document during query
    generation) its own RNG stream while funneling all randomness through
    one configured seed.
    """
    return (seed ^ stable_hash64(label)) & _MASK64


def _build_crc64_tables() -> list[list[int]]:
    base = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = (crc >> 1) ^ _CRC64_POLY if crc & 1 else crc >> 1
        base.append(crc)
    tables = [base]
    for k in range(1, 8):
        prev = tables[k - 1]
        tables.append([base[v & 0xFF] ^ (v >> 8) for v in prev])
    return tables


_CRC64_TABLES = _build_crc64_tables()


def crc64(data: bytes, crc: int = 0) -> int:
    """CRC-64/XZ checksum; pass a previous value to checksum incrementally.

    Slicing-by-8 in pure Python, a few MiB/s: unused by the package's file
    formats, which use :func:`crc32`.
    """
    t0, t1, t2, t3, t4, t5, t6, t7 = _CRC64_TABLES
    crc = ~crc & _MASK64
    view = memoryview(data)
    n8 = len(view) - (len(view) % 8)
    for i in range(0, n8, 8):
        chunk = int.from_bytes(view[i : i + 8], "little")
        crc ^= chunk
        crc = (
            t7[crc & 0xFF]
            ^ t6[(crc >> 8) & 0xFF]
            ^ t5[(crc >> 16) & 0xFF]
            ^ t4[(crc >> 24) & 0xFF]
            ^ t3[(crc >> 32) & 0xFF]
            ^ t2[(crc >> 40) & 0xFF]
            ^ t1[(crc >> 48) & 0xFF]
            ^ t0[(crc >> 56) & 0xFF]
        )
    for b in view[n8:]:
        crc = _CRC64_TABLES[0][(crc ^ b) & 0xFF] ^ (crc >> 8)
    return ~crc & _MASK64


def crc32(data: bytes, crc: int = 0) -> int:
    """CRC-32 via zlib, used for checkpoint and index file footers."""
    return zlib.crc32(data, crc) & 0xFFFFFFFF
