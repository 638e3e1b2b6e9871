"""The seed's CRC-32C, one table step per byte, kept as the oracle.

``tests/durability/test_record.py`` holds the vectorised
``repro.durability.record.crc32c`` to it and
``benchmarks/bench_kernels.py`` times the two side by side.
"""

from repro.durability.record import _TABLE


def crc32c(data: bytes, crc: int = 0) -> int:
    crc ^= 0xFFFFFFFF
    for byte in data:
        crc = (crc >> 8) ^ _TABLE[(crc ^ byte) & 0xFF]
    return crc ^ 0xFFFFFFFF
