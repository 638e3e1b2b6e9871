"""Checksummed record framing: the byte-level unit of the durable store.

Every durable file this library writes — segment files, manifests, the
write-ahead log — is a sequence of *framed records*:

::

    +------+----------+-----------+=========+
    | RPR1 | length   | CRC32C    | payload |  (repeated)
    | 4 B  | u32 LE   | u32 LE    | length B|
    +------+----------+-----------+=========+

The CRC is CRC-32C (Castagnoli), the polynomial used by ext4 metadata
checksums, iSCSI, and RocksDB's log format, computed over the payload.
Any single flipped byte anywhere in a frame — magic, length, checksum,
or payload — is detectable: a damaged magic fails the marker check, a
damaged length either desynchronizes into a bad magic or runs past EOF,
and a damaged checksum or payload fails verification.

Two read modes:

* :func:`read_frames` — strict: any damage raises
  :class:`~repro.errors.CorruptionError` with file/record attribution;
* :func:`scan_frames` — tolerant: returns the valid prefix plus *what*
  stopped the scan and *where*, which is how WAL recovery
  distinguishes a torn tail (incomplete frame at EOF — truncate and
  continue) from mid-file corruption (a complete frame that fails its
  checksum — refuse and surface).

>>> blob = frame(b"hello") + frame(b"world")
>>> read_frames(blob)
[b'hello', b'world']
>>> records, valid_bytes, problem = scan_frames(blob + b"RPR1\\x99")
>>> (records, problem)
([b'hello', b'world'], 'torn-frame')
>>> blob[:valid_bytes] == blob
True
"""

from __future__ import annotations

import functools
import struct
import typing as t

import numpy as np

from repro.errors import CorruptionError

#: Frame marker: repro record format, version 1.
MAGIC = b"RPR1"
HEADER = struct.Struct("<4sII")   # magic, payload length, payload CRC32C

#: Largest payload a frame may carry (guards against reading a wild
#: length as an allocation size).
MAX_PAYLOAD = 1 << 31

_CASTAGNOLI = 0x82F63B78


def _make_table() -> list[int]:
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = (crc >> 1) ^ _CASTAGNOLI if crc & 1 else crc >> 1
        table.append(crc)
    return table


_TABLE = _make_table()


#: Bytes folded per vectorised step, and input bytes gathered at a time
#: (the gather's scratch is ~12x the slice, so ~0.8 MiB).
_BLOCK = 1024
_SLICE = 64 * _BLOCK


@functools.cache
def _fold_tables() -> tuple[np.ndarray, np.ndarray, list[list[int]]]:
    """The tables that fold a whole ``_BLOCK`` into the register at once.

    CRC is linear over GF(2), so the register a block leaves behind is
    the XOR of what each byte alone would leave: ``table[i, v]`` for
    byte *v* at offset *i* of an otherwise-zero block (1 MiB, built on
    first use) — one gather and one reduction instead of a byte loop.
    Returned flat, with each offset's base index, plus rows 0-3 as
    lists: a register carried past ``_BLOCK`` zero bytes is the XOR of
    its own four bytes' entries.
    """
    step = np.array(_TABLE, dtype=np.uint32)
    table = np.empty((_BLOCK, 256), dtype=np.uint32)
    table[-1] = step
    for offset in range(_BLOCK - 2, -1, -1):      # one more zero byte
        table[offset] = (table[offset + 1] >> 8) ^ step[
            table[offset + 1] & 0xFF]
    bases = np.arange(_BLOCK, dtype=np.intp) * 256
    return table.reshape(-1), bases, table[:4].tolist()


def crc32c(data: bytes, crc: int = 0) -> int:
    """CRC-32C (Castagnoli) of *data*; *crc* chains a previous call.

    >>> hex(crc32c(b"123456789"))   # the standard check value
    '0xe3069283'
    >>> crc32c(b"6789", crc32c(b"12345")) == crc32c(b"123456789")
    True
    """
    crc ^= 0xFFFFFFFF
    whole = len(data) - len(data) % _BLOCK
    if whole:
        table, bases, (adv0, adv1, adv2, adv3) = _fold_tables()
        for start in range(0, whole, _SLICE):
            blocks = np.frombuffer(
                data, dtype=np.uint8, offset=start,
                count=min(_SLICE, whole - start)).reshape(-1, _BLOCK)
            folded = np.bitwise_xor.reduce(table[blocks + bases], axis=1)
            for block_crc in folded.tolist():
                crc = (adv0[crc & 0xFF] ^ adv1[(crc >> 8) & 0xFF]
                       ^ adv2[(crc >> 16) & 0xFF] ^ adv3[crc >> 24]
                       ^ block_crc)
    for byte in memoryview(data)[whole:]:
        crc = (crc >> 8) ^ _TABLE[(crc ^ byte) & 0xFF]
    return crc ^ 0xFFFFFFFF


def frame(payload: bytes) -> bytes:
    """One framed record: header (magic, length, CRC32C) + payload."""
    if len(payload) >= MAX_PAYLOAD:
        raise CorruptionError(
            f"payload too large to frame: {len(payload)} bytes")
    return HEADER.pack(MAGIC, len(payload), crc32c(payload)) + payload


def frame_all(payloads: t.Iterable[bytes]) -> bytes:
    """Concatenated frames of *payloads* — one durable file's bytes."""
    return b"".join(frame(payload) for payload in payloads)


def scan_frames(data: bytes) -> tuple[list[bytes], int, str | None]:
    """Tolerantly parse frames from *data*.

    Returns ``(records, valid_bytes, problem)``: the records of the
    longest valid prefix, how many bytes it spans, and why the scan
    stopped — ``None`` (clean EOF), ``"torn-frame"`` (an incomplete
    frame runs into EOF: a torn write, safely truncatable), or
    ``"bad-magic"`` / ``"bad-crc"`` (a *complete* frame is damaged:
    real corruption, not truncatable).
    """
    records: list[bytes] = []
    position = 0
    while position < len(data):
        header = data[position:position + HEADER.size]
        if len(header) < HEADER.size:
            return records, position, "torn-frame"
        magic, length, crc = HEADER.unpack(header)
        if magic != MAGIC:
            return records, position, "bad-magic"
        if length >= MAX_PAYLOAD:
            return records, position, "bad-magic"
        payload = data[position + HEADER.size:
                       position + HEADER.size + length]
        if len(payload) < length:
            return records, position, "torn-frame"
        if crc32c(payload) != crc:
            return records, position, "bad-crc"
        records.append(payload)
        position += HEADER.size + length
    return records, position, None


def read_frames(data: bytes, *, source: str = "<bytes>") -> list[bytes]:
    """Strictly parse frames; any damage raises CorruptionError.

    The error is attributed: ``file`` is *source* and ``record`` the
    index of the first damaged record.
    """
    records, valid_bytes, problem = scan_frames(data)
    if problem is not None:
        raise CorruptionError(
            f"{source}: {problem} at record {len(records)} "
            f"(byte offset {valid_bytes})",
            file=source, record=len(records))
    return records
