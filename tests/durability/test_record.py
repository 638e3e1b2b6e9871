"""Record framing: CRC32C, frame round-trips, damage classification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durability.record import (_BLOCK, _SLICE, MAGIC, crc32c, frame,
                                     frame_all, read_frames, scan_frames)
from repro.errors import CorruptionError
from tests.durability.reference_crc32c import crc32c as byte_loop_crc32c


class TestCrc32c:
    def test_standard_check_value(self):
        # The canonical CRC-32C test vector (RFC 3720 appendix B.4).
        assert crc32c(b"123456789") == 0xE3069283

    def test_empty_is_zero(self):
        assert crc32c(b"") == 0

    def test_incremental_matches_whole(self):
        whole = crc32c(b"hello world")
        assert crc32c(b"world", crc32c(b"hello ")) == whole


    @pytest.mark.parametrize("length", [
        0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 5 * _BLOCK + 7,
        _SLICE, _SLICE + _BLOCK + 3, 1 << 20])
    def test_matches_the_byte_loop_at_block_edges(self, length):
        data = np.random.default_rng(length).bytes(length)
        expected = byte_loop_crc32c(data)
        assert crc32c(data) == expected
        assert crc32c(bytearray(data)) == expected
        assert crc32c(memoryview(data)) == expected

    @given(data=st.binary(max_size=3 * _BLOCK),
           cuts=st.lists(st.integers(0, 3 * _BLOCK), max_size=4),
           start=st.integers(0, 0xFFFFFFFF))
    @settings(max_examples=60, deadline=None)
    def test_chained_calls_match_the_byte_loop(self, data, cuts, start):
        expected = byte_loop_crc32c(data, start)
        assert crc32c(data, start) == expected
        crc = start
        edges = [0, *sorted(min(cut, len(data)) for cut in cuts), len(data)]
        for lo, hi in zip(edges, edges[1:]):
            crc = crc32c(data[lo:hi], crc)
        assert crc == expected


class TestFraming:
    def test_roundtrip(self):
        payloads = [b"", b"a", b"x" * 10_000]
        assert read_frames(frame_all(payloads)) == payloads

    def test_scan_clean(self):
        blob = frame(b"one") + frame(b"two")
        records, valid, problem = scan_frames(blob)
        assert (records, valid, problem) == ([b"one", b"two"],
                                             len(blob), None)

    def test_torn_tail_is_distinguished_from_corruption(self):
        blob = frame(b"one") + frame(b"two")
        torn = blob[:-3]    # incomplete final frame: a torn write
        records, valid, problem = scan_frames(torn)
        assert problem == "torn-frame"
        assert records == [b"one"]
        assert torn[:valid] == frame(b"one")

    def test_flipped_payload_byte_is_bad_crc(self):
        blob = bytearray(frame(b"one") + frame(b"two"))
        blob[-1] ^= 0x40    # inside the second payload
        records, _valid, problem = scan_frames(bytes(blob))
        assert (records, problem) == ([b"one"], "bad-crc")

    def test_flipped_magic_byte_is_bad_magic(self):
        blob = bytearray(frame(b"one"))
        blob[0] ^= 0x01
        assert scan_frames(bytes(blob))[2] == "bad-magic"

    @pytest.mark.parametrize("offset", range(12))
    def test_every_header_byte_is_load_bearing(self, offset):
        # A flip anywhere in the 12-byte header must be detected.
        blob = bytearray(frame(b"payload"))
        blob[offset] ^= 0x10
        assert scan_frames(bytes(blob))[2] is not None

    def test_read_frames_attributes_the_record(self):
        blob = bytearray(frame(b"one") + frame(b"two"))
        blob[-1] ^= 0x40
        with pytest.raises(CorruptionError) as info:
            read_frames(bytes(blob), source="seg0.rec")
        assert info.value.file == "seg0.rec"
        assert info.value.record == 1

    def test_magic_is_stable(self):
        # The on-disk format marker must never drift silently.
        assert MAGIC == b"RPR1"
        assert frame(b"")[:4] == b"RPR1"
