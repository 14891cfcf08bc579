"""Set-associative cache timing model.

Models the host L1/L2 caches of Table 4 (16 KB 4-way L1, 512 KB
8-banked 4-way L2).  The model is timing-only: an access returns a
latency; data lives in the flat :class:`~repro.memory.image.MemoryImage`.

LRU replacement, write-back/write-allocate.  A miss recursively
charges the next level (another cache or DRAM), plus a write-back of
the victim when dirty.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Protocol

from repro.sim.stats import StatGroup


class MemoryLevel(Protocol):
    """Anything that can serve an access and report a latency (ps)."""

    def access(self, addr: int, size: int, is_write: bool, now_ps: int) -> int:
        """Return the latency (ps) of the access."""


@dataclass(frozen=True)
class CacheGeometry:
    """Size/shape parameters of one cache level."""

    size_bytes: int
    ways: int
    line_bytes: int = 64
    banks: int = 1

    def __post_init__(self) -> None:
        if self.size_bytes % (self.ways * self.line_bytes):
            raise ValueError(
                f"size {self.size_bytes} not divisible by ways*line "
                f"({self.ways}*{self.line_bytes})"
            )
        if self.n_sets & (self.n_sets - 1):
            raise ValueError(f"set count {self.n_sets} must be a power of two")

    @property
    def n_sets(self) -> int:
        return self.size_bytes // (self.ways * self.line_bytes)


class Cache:
    """One level of a write-back, write-allocate, LRU cache."""

    def __init__(
        self,
        name: str,
        geometry: CacheGeometry,
        hit_latency_ps: int,
        next_level: MemoryLevel,
    ) -> None:
        self.name = name
        self.geometry = geometry
        self.hit_latency_ps = hit_latency_ps
        self.next_level = next_level
        # sets[index] maps tag -> dirty flag; OrderedDict gives LRU order.
        self._sets: Dict[int, "OrderedDict[int, bool]"] = {}
        self.stats = StatGroup(name)
        self._hits = self.stats.counter("hits")
        self._misses = self.stats.counter("misses")
        self._writebacks = self.stats.counter("writebacks")

    # ------------------------------------------------------------------
    def _locate(self, addr: int) -> tuple[int, int]:
        line = addr // self.geometry.line_bytes
        index = line % self.geometry.n_sets
        tag = line // self.geometry.n_sets
        return index, tag

    def access(self, addr: int, size: int, is_write: bool, now_ps: int) -> int:
        """Access ``size`` bytes at ``addr``; multi-line accesses charge
        each line once (streaming, as a DMA engine or wide load would)."""
        if size <= 0:
            raise ValueError(f"access size must be positive, got {size}")
        first_line = addr // self.geometry.line_bytes
        last_line = (addr + size - 1) // self.geometry.line_bytes
        latency = 0
        for line in range(first_line, last_line + 1):
            latency += self._access_line(line * self.geometry.line_bytes, is_write, now_ps)
        return latency

    def _access_line(self, line_addr: int, is_write: bool, now_ps: int) -> int:
        index, tag = self._locate(line_addr)
        entries = self._sets.setdefault(index, OrderedDict())
        if tag in entries:
            self._hits.increment()
            entries.move_to_end(tag)
            if is_write:
                entries[tag] = True
            return self.hit_latency_ps
        # Miss: fetch from below, maybe evicting a dirty victim.
        self._misses.increment()
        latency = self.hit_latency_ps
        latency += self.next_level.access(line_addr, self.geometry.line_bytes, False, now_ps)
        if len(entries) >= self.geometry.ways:
            victim_tag, dirty = entries.popitem(last=False)
            if dirty:
                self._writebacks.increment()
                victim_addr = (
                    (victim_tag * self.geometry.n_sets + index) * self.geometry.line_bytes
                )
                latency += self.next_level.access(
                    victim_addr, self.geometry.line_bytes, True, now_ps
                )
        entries[tag] = is_write
        return latency

    # ------------------------------------------------------------------
    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
