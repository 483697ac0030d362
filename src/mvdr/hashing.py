"""Stable hashing primitives shared across the package.

Everything here must be deterministic across processes, platforms, and
Python versions: feature bucketing, seed derivation, and file checksums
all feed reproducibility contracts. Checkpoint and index files share one
frame: magic bytes, a payload, then a CRC-32 footer (:func:`zlib.crc32`),
written by :func:`write_framed` and read back by :class:`FramedReader`.
Every output file of the package is opened by :func:`open_output`.
"""

from __future__ import annotations

import contextlib
import math
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
    all of them; returns the file's size in bytes."""
    crc = 0
    with open_output(path) as handle:
        for part in (magic, *parts):
            handle.write(part)
            crc = zlib.crc32(part, crc)
        handle.write(struct.pack("<I", crc))
        return handle.tell()


class FramedReader:
    """A file written by :func:`write_framed`, read field by field.

    Construction checks the length and the magic. Fields are then read in
    file order from the open file, each into its own buffer, while a running
    CRC-32 covers every byte read. Each size is checked against what the
    file holds before anything is allocated: a field that runs past the
    payload raises ``truncated``. :meth:`finish` rejects trailing bytes and
    then checks the footer. ``kind`` names the file in error messages.

    Use the reader as a context manager: a block that ends normally calls
    :meth:`finish`, and the file is closed either way. When the block
    raises, or :meth:`finish` finds trailing bytes, the rest of the file is
    checksummed first and a file whose CRC does not match reports
    ``checksum mismatch`` instead, so damage is named the same as by a
    reader that checks the CRC before parsing.
    """

    def __init__(self, path: str | Path, magic: bytes, kind: str) -> None:
        handle = open(path, "rb")
        try:
            size = os.fstat(handle.fileno()).st_size
            if size < len(magic) + 4:
                raise ValueError(f"{path}: truncated {kind}")
            head = handle.read(len(magic))
            if head != magic:
                raise ValueError(f"{path}: bad magic {head!r}, expected {magic!r}")
        except BaseException:
            handle.close()
            raise
        self._handle = handle
        self._end = size - 4  # where the footer starts
        self._crc = zlib.crc32(head)
        self.path = path
        self.kind = kind
        self.offset = len(magic)  # bytes read and checksummed

    def __enter__(self) -> "FramedReader":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is None:
                self.finish()
            elif issubclass(exc_type, Exception):
                self._check_rest()
        finally:
            self._handle.close()

    def _claim(self, n: int, what: str) -> None:
        if n > self._end - self.offset:
            raise ValueError(f"{self.path}: truncated {self.kind} while reading {what}")

    def _consumed(self, data, n: int, what: str) -> None:
        if len(data) != n:  # the file shrank after it was opened
            raise ValueError(f"{self.path}: truncated {self.kind} while reading {what}")
        self._crc = zlib.crc32(data, self._crc)
        self.offset += n

    def take(self, n: int, what: str) -> bytes:
        """The next ``n`` bytes."""
        self._claim(n, what)
        data = self._handle.read(n)
        self._consumed(data, n, what)
        return data

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def floats(self, shape: tuple[int, ...], what: str) -> np.ndarray:
        """The next little-endian float32 array, read straight into a new
        aligned, writable array."""
        n = 4 * math.prod(shape)
        self._claim(n, what)
        array = np.empty(shape, dtype="<f4")
        data = memoryview(array.reshape(-1)).cast("B")
        self._consumed(data[: self._handle.readinto(data)], n, what)
        return array

    def _check_footer(self, computed: int) -> None:
        self._handle.seek(self._end)
        footer = self._handle.read(4)
        if len(footer) != 4 or self._handle.read(1):
            raise ValueError(f"{self.path}: {self.kind} changed size while being read")
        (stored,) = struct.unpack("<I", footer)
        if computed != stored:
            raise ValueError(
                f"{self.path}: checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
            )

    def _check_rest(self) -> None:
        """Check the footer against a checksum of the unread payload, then
        go back to where reading stopped."""
        crc = self._crc
        self._handle.seek(self.offset)
        try:
            for start in range(self.offset, self._end, 2**20):
                crc = zlib.crc32(self._handle.read(min(2**20, self._end - start)), crc)
            self._check_footer(crc)
        finally:
            self._handle.seek(self.offset)

    def finish(self) -> None:
        if self.offset != self._end:
            self._check_rest()
            raise ValueError(f"{self.path}: trailing bytes after {self.kind} data")
        self._check_footer(self._crc)
