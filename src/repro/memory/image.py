"""Flat functional memory image.

Timing (caches, buses) and function (what bytes live where) are
deliberately split, as in most trace-driven architecture simulators:
the caches in this package model *latency only*, while every byte of
host DRAM, QSpace and the quantum controller cache segments lives in a
sparse :class:`MemoryImage`.  That keeps the functional model trivially
coherent — there is exactly one copy of the data — while the timing
model layers hit/miss behaviour on top.
"""

from __future__ import annotations

from typing import Dict, List


class MemoryImage:
    """Sparse byte-addressable storage (dict of 8-byte words)."""

    WORD_BYTES = 8

    def __init__(self, name: str = "mem") -> None:
        self.name = name
        self._words: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # byte access
    # ------------------------------------------------------------------
    # Byte ranges move as whole covering words: each word touched is
    # read or written once, rather than once per byte.
    def read_bytes(self, addr: int, length: int) -> bytes:
        self._check(addr)
        if length < 0:
            raise ValueError(f"negative length {length}")
        if length == 0:
            return b""
        first = addr - addr % self.WORD_BYTES
        words = self._words
        span = b"".join(
            words.get(word_addr, 0).to_bytes(self.WORD_BYTES, "little")
            for word_addr in range(first, addr + length, self.WORD_BYTES)
        )
        return span[addr - first:addr - first + length]

    def write_bytes(self, addr: int, data: bytes) -> None:
        self._check(addr)
        if not data:
            return
        size = self.WORD_BYTES
        end = addr + len(data)
        first = addr - addr % size
        last = (end - 1) - (end - 1) % size  # address of the last word
        words = self._words
        span = bytearray(last + size - first)
        # Partially covered boundary words keep their other bytes.
        if addr != first:
            span[:size] = words.get(first, 0).to_bytes(size, "little")
        if end != last + size:
            span[-size:] = words.get(last, 0).to_bytes(size, "little")
        span[addr - first:end - first] = data
        for offset in range(0, len(span), size):
            words[first + offset] = int.from_bytes(span[offset:offset + size], "little")

    # ------------------------------------------------------------------
    # typed helpers
    # ------------------------------------------------------------------
    def read_u64(self, addr: int) -> int:
        return int.from_bytes(self.read_bytes(addr, 8), "little")

    def write_u64(self, addr: int, value: int) -> None:
        self.write_bytes(addr, (value & 0xFFFF_FFFF_FFFF_FFFF).to_bytes(8, "little"))

    def read_u64_array(self, addr: int, count: int) -> List[int]:
        return [self.read_u64(addr + 8 * i) for i in range(count)]

    # ------------------------------------------------------------------
    def clear(self) -> None:
        self._words.clear()

    @staticmethod
    def _check(addr: int) -> None:
        if addr < 0:
            raise ValueError(f"negative address {addr:#x}")
