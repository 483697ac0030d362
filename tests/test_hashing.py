import hashlib
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mvdr.hashing import ALIGN, FramedReader, crc64, derive_seed, stable_hash64, write_framed


class TestStableHash64:
    # frozen snapshots: checkpoint and index formats depend on these
    SNAPSHOTS = {
        "": 13020603013274838756,
        "a": 3405396810240292928,
        "what is": 18313223905901516257,
        "doc-0017": 8415821972639571992,
    }

    def test_snapshots(self):
        for key, expected in self.SNAPSHOTS.items():
            assert stable_hash64(key) == expected

    @given(st.text(max_size=64))
    def test_range(self, key):
        assert 0 <= stable_hash64(key) < 2**64

    def test_distinct_keys_differ(self):
        seen = {stable_hash64(f"tok{i}") for i in range(1000)}
        assert len(seen) == 1000

    @given(st.text(max_size=64))
    def test_equals_hashlib_blake2b(self, key):
        digest = hashlib.blake2b(key.encode(), digest_size=8).digest()
        assert stable_hash64(key) == int.from_bytes(digest, "little")


class TestDeriveSeed:
    def test_is_xor_with_label_hash(self):
        assert derive_seed(123, "init") == 123 ^ stable_hash64("init")

    def test_involution(self):
        s = derive_seed(987654321, "train")
        assert derive_seed(s, "train") == 987654321

    def test_labels_decorrelate(self):
        assert derive_seed(0, "a") != derive_seed(0, "b")

    @given(st.integers(min_value=0, max_value=2**64 - 1), st.text(max_size=32))
    def test_range(self, seed, label):
        assert 0 <= derive_seed(seed, label) < 2**64


class TestCrc64:
    def test_catalog_check_value(self):
        # standard check input for the XZ polynomial
        assert crc64(b"123456789") == 0x995DC9BBDF1939FA

    def test_empty(self):
        assert crc64(b"") == 0

    @given(st.binary(max_size=256), st.integers(min_value=0, max_value=256))
    def test_incremental_equals_one_shot(self, data, cut):
        cut = min(cut, len(data))
        assert crc64(data[cut:], crc64(data[:cut])) == crc64(data)

    def test_detects_single_bit_flip(self):
        data = bytearray(b"multi view index payload")
        reference = crc64(bytes(data))
        data[5] ^= 0x20
        assert crc64(bytes(data)) != reference

    LONG = bytes(range(256)) * 3

    def test_long_input(self):
        # every byte value, three times over: past the 9-byte check input
        assert crc64(self.LONG) == 0xDED362895C7B84D9

    @pytest.mark.parametrize("cut", [1, 7, 8, 9, 767])
    def test_long_input_incremental(self, cut):
        assert crc64(self.LONG[cut:], crc64(self.LONG[:cut])) == 0xDED362895C7B84D9


class TestFramedFile:
    def test_layout_and_fields(self, tmp_path):
        path = tmp_path / "framed.bin"
        floats = np.arange(6, dtype=np.float32).reshape(2, 3)
        size = write_framed(path, b"MAG", [struct.pack("<I", 7), b"id", floats])
        # the array starts at offset 64, after 55 zero bytes
        payload = b"MAG" + struct.pack("<I", 7) + b"id" + bytes(55) + floats.tobytes()
        assert path.read_bytes() == payload + struct.pack("<I", zlib.crc32(payload))
        assert size == len(payload) + 4
        with FramedReader(path, b"MAG", "test file") as reader:
            assert reader.unpack("<I", "count") == (7,)
            assert reader.take(2, "id") == b"id"
            array = reader.floats((2, 3), "floats")
        np.testing.assert_array_equal(array, floats)
        # a view of the mapped file, not a copy, starting at a multiple of 64
        assert not array.flags.owndata and array.flags.writeable
        assert array.flags.aligned and array.ctypes.data % ALIGN == 0
        array[0, 0] = 9.0
        assert path.read_bytes() == payload + struct.pack("<I", zlib.crc32(payload))

    def test_aligned_part_gets_no_padding(self, tmp_path):
        path = tmp_path / "framed.bin"
        floats = np.arange(3, dtype=np.float32)
        write_framed(path, b"MAG", [bytes(61), floats, floats])
        assert path.read_bytes()[:-4] == b"MAG" + bytes(61) + floats.tobytes() + bytes(52) + floats.tobytes()

    def test_nonzero_padding_is_rejected(self, tmp_path):
        path = tmp_path / "framed.bin"
        write_framed(path, b"MAG", [b"abcd", np.ones(2, dtype=np.float32)])
        # a CRC-valid file with one padding byte set
        payload = bytearray(path.read_bytes()[:-4])
        payload[40] = 1
        path.write_bytes(bytes(payload) + struct.pack("<I", zlib.crc32(payload)))
        with pytest.raises(ValueError, match="nonzero padding before floats in test file"):
            with FramedReader(path, b"MAG", "test file") as reader:
                reader.take(4, "head")
                reader.floats((2,), "floats")

    @pytest.mark.parametrize("rows", [3, 2**40])
    def test_padding_is_claimed_with_its_field(self, tmp_path, rows):
        # a claim past the payload is truncation of the field, whether its
        # padding fits or not
        path = tmp_path / "framed.bin"
        write_framed(path, b"MAG", [b"abcd", np.ones(2, dtype=np.float32)])
        with pytest.raises(ValueError, match="truncated test file while reading floats"):
            with FramedReader(path, b"MAG", "test file") as reader:
                reader.take(4, "head")
                reader.floats((rows,), "floats")
        # a payload that ends inside the padding
        write_framed(path, b"MAG", [b"abcd", bytes(10)])
        with pytest.raises(ValueError, match="truncated test file while reading floats"):
            with FramedReader(path, b"MAG", "test file") as reader:
                reader.take(4, "head")
                reader.floats((rows,), "floats")

    def test_short_and_long_payloads(self, tmp_path):
        path = tmp_path / "framed.bin"
        write_framed(path, b"MAG", [b"abcd"])
        with FramedReader(path, b"MAG", "test file") as reader:
            with pytest.raises(ValueError, match="truncated test file while reading tail"):
                reader.take(5, "tail")
            with pytest.raises(ValueError, match="trailing bytes after test file"):
                reader.finish()
            reader.take(4, "tail")
            reader.finish()

    def test_block_error_reports_damage_first(self, tmp_path):
        # an error raised while parsing is reported as a checksum mismatch
        # when the file is damaged, and as itself when it is not
        path = tmp_path / "framed.bin"
        write_framed(path, b"MAG", [b"abcd", b"x" * 3_000_000])
        for damaged in (False, True):
            if damaged:
                data = bytearray(path.read_bytes())
                data[-10] ^= 0x01
                path.write_bytes(bytes(data))
            with pytest.raises(ValueError, match="checksum mismatch" if damaged else "bad field"):
                with FramedReader(path, b"MAG", "test file") as reader:
                    reader.take(4, "head")
                    raise ValueError("bad field")
            # a block that stops early finds trailing bytes
            trailing = "checksum mismatch" if damaged else "trailing bytes"
            with pytest.raises(ValueError, match=trailing):
                with FramedReader(path, b"MAG", "test file") as reader:
                    reader.take(4, "head")

    def test_claimed_size_checked_before_allocating(self, tmp_path):
        path = tmp_path / "framed.bin"
        write_framed(path, b"MAG", [b"abcd"])
        with pytest.raises(ValueError, match="truncated test file while reading huge"):
            with FramedReader(path, b"MAG", "test file") as reader:
                reader.floats((2**40, 128), "huge")

    def test_file_closed_after_block(self, tmp_path):
        # the reader keeps no file open: the mapping alone holds the loaded
        # arrays' bytes, which outlive the reader and the file's name
        path = tmp_path / "framed.bin"
        write_framed(path, b"MAG", [b"abcd", np.arange(4, dtype=np.float32)])
        with FramedReader(path, b"MAG", "test file") as reader:
            reader.take(4, "head")
            array = reader.floats((4,), "floats")
        del reader
        path.unlink()
        np.testing.assert_array_equal(array, np.arange(4))
        write_framed(path, b"MAG", [b"abcd"])
        with pytest.raises(ValueError, match="trailing bytes"):
            with FramedReader(path, b"MAG", "test file"):
                pass

    def test_failed_part_leaves_old_file(self, tmp_path):
        path = tmp_path / "framed.bin"
        write_framed(path, b"MAG", [b"old"])
        before = path.read_bytes()
        # the first part outgrows the write buffer, so a direct write would
        # already have put bytes on disk when the second part fails
        with pytest.raises(TypeError):
            write_framed(path, b"MAG", [b"x" * 100_000, "not bytes"])
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["framed.bin"]


@pytest.mark.parametrize("bad", [b"12345678", b"1234567890"])
def test_catalog_value_is_input_specific(bad):
    assert crc64(bad) != 0x995DC9BBDF1939FA
