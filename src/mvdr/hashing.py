"""Stable hashing primitives shared across the package.

Everything here must be deterministic across processes, platforms, and
Python versions: feature bucketing, seed derivation, and file checksums
all feed reproducibility contracts. Checkpoint and index files share one
frame: magic bytes, a payload, then a CRC-32 footer (:func:`zlib.crc32`),
written by :func:`write_framed` and read back by :class:`FramedReader`.
Each float32 array in the payload starts at a multiple of 64 bytes, after
zero bytes, and is loaded as a view of the file mapped copy-on-write: one
pass over the file checks the CRC, and no array is copied. The package
never writes into an existing file (every output file is opened by
:func:`open_output`, which replaces its target whole), but another program
that truncates or rewrites a loaded file in place can change the loaded
arrays, or stop the process with ``SIGBUS``, as with
``np.load(mmap_mode=...)``.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import os
import struct
import zlib
# CPython's own BLAKE2b, not hashlib's: ``hashlib.blake2b`` is this class,
# and importing it here does not load OpenSSL's libcrypto as ``hashlib`` does
from _blake2 import blake2b
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF

# A framed file starts every float32 array at a multiple of ALIGN bytes, so
# a view of the mapped file is as aligned as an array numpy allocates.
ALIGN = 64

# CRC-64/XZ (reflected ECMA-182 polynomial). No file format uses it any more;
# it stays only because the benchmark tracer wraps ``crc64`` by name, until
# the benchmark change that drops it from the tracer's ``LAYERS``.
_CRC64_POLY = 0xC96C5795D7870F42


def stable_hash64(key: str) -> int:
    """Map a string to a 64-bit integer, stable across runs and platforms."""
    digest = blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def derive_seed(seed: int, label: str) -> int:
    """Derive a child seed from a base seed and a label.

    Used to give every pipeline stage (and every document during query
    generation) its own RNG stream while funneling all randomness through
    one configured seed.
    """
    return (seed ^ stable_hash64(label)) & _MASK64


def crc64(data: bytes, crc: int = 0) -> int:
    """CRC-64/XZ checksum, bit by bit; pass a previous value to checksum
    incrementally."""
    crc = ~crc & _MASK64
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = (crc >> 1) ^ _CRC64_POLY if crc & 1 else crc >> 1
    return ~crc & _MASK64


@contextlib.contextmanager
def open_output(path: str | Path) -> Iterator[BinaryIO]:
    """Open ``<path>.tmp`` for binary writing and replace ``path`` with it
    when the block succeeds; on any exception the temp file is deleted, so
    ``path`` keeps its old bytes or gets all the new ones, never a part."""
    tmp = f"{os.fspath(path)}.tmp"
    handle = open(tmp, "wb")
    try:
        with handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_framed(path: str | Path, magic: bytes, parts: Iterable) -> int:
    """Write ``magic``, then each bytes-like part, then a CRC-32 footer over
    all of them; returns the file's size in bytes. Zero bytes before each
    numpy array part start it at a multiple of :data:`ALIGN`."""
    crc = 0
    with open_output(path) as handle:
        for part in (magic, *parts):
            pad = bytes(-handle.tell() % ALIGN if isinstance(part, np.ndarray) else 0)
            handle.write(pad)
            handle.write(part)
            crc = zlib.crc32(part, zlib.crc32(pad, crc))
        handle.write(struct.pack("<I", crc))
        return handle.tell()


class FramedReader:
    """A file written by :func:`write_framed`, checked whole, then read
    field by field.

    Construction maps the file copy-on-write and checks its length, its
    magic and the CRC-32 footer over the whole payload before any field is
    parsed, so a damaged file reports ``checksum mismatch`` whatever its
    fields say. Fields are then read in file order, each size checked
    against what the payload holds: a field that runs past it raises
    ``truncated``. :meth:`floats` returns a view of the mapping, not a
    copy. :meth:`finish` rejects trailing bytes and nonzero padding; a
    block that uses the reader as a context manager calls it when it ends
    normally, and puts the path in front of any ``ValueError`` from the block.
    ``kind`` names the file in error messages.
    """

    def __init__(self, path: str | Path, magic: bytes, kind: str) -> None:
        with open(path, "rb") as handle:
            if os.fstat(handle.fileno()).st_size < len(magic) + 4:
                raise ValueError(f"{path}: truncated {kind}")
            data = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_COPY)
        if data[: len(magic)] != magic:
            raise ValueError(f"{path}: bad magic {data[: len(magic)]!r}, expected {magic!r}")
        self._end = len(data) - 4  # where the footer starts
        (stored,) = struct.unpack_from("<I", data, self._end)
        computed = zlib.crc32(memoryview(data)[: self._end])
        if computed != stored:
            raise ValueError(
                f"{path}: checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
            )
        self._data = data
        self.path = path
        self.kind = kind
        self.offset = len(magic)  # bytes parsed
        self._padding: list[tuple[int, int, str]] = []  # checked by finish

    def __enter__(self) -> "FramedReader":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.finish()
        elif issubclass(exc_type, ValueError):
            raise ValueError(f"{self.path}: {exc}") from None

    def _claim(self, n: int, what: str) -> int:
        """Claim the next ``n`` bytes for ``what``; returns where they start."""
        if n > self._end - self.offset:
            raise ValueError(f"truncated {self.kind} while reading {what}")
        self.offset += n
        return self.offset - n

    def take(self, n: int, what: str) -> bytes:
        """The next ``n`` bytes."""
        start = self._claim(n, what)
        return self._data[start : start + n]

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack_from(fmt, self._data, self._claim(struct.calcsize(fmt), what))

    def floats(self, shape: tuple[int, ...], what: str) -> np.ndarray:
        """The next little-endian float32 array, after the zero bytes that
        start it at a multiple of :data:`ALIGN`: a writable view of the
        mapping, whose writes copy the page they touch, never the file."""
        pad = -self.offset % ALIGN
        count = math.prod(shape)
        start = self._claim(pad + 4 * count, what) + pad
        self._padding.append((start - pad, start, what))
        return np.frombuffer(self._data, "<f4", count, start).reshape(shape)

    def finish(self) -> None:
        """Reject trailing bytes, then padding that is not zero; a header
        that claims more rows than the file holds is thus reported as
        ``truncated``, however the fields after it fall."""
        if self.offset != self._end:
            raise ValueError(f"{self.path}: trailing bytes after {self.kind} data")
        for start, end, what in self._padding:
            if any(self._data[start:end]):
                raise ValueError(f"{self.path}: nonzero padding before {what} in {self.kind}")
