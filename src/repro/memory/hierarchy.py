"""Host memory hierarchy composition (Table 4).

Builds the Rocket/Boom memory system: 16 KB 4-way L1 I/D caches, a
512 KB 8-banked 4-way L2, and 16 GB DDR3 behind it, plus the flat
functional :class:`~repro.memory.image.MemoryImage` all data lives in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.memory.cache import Cache, CacheGeometry
from repro.memory.dram import Dram, DramConfig
from repro.memory.image import MemoryImage
from repro.memory.tilelink import TileLinkBus
from repro.sim.clock import HOST_CLOCK, ns


@dataclass(frozen=True)
class HierarchyConfig:
    """Cache/DRAM shape parameters, defaulting to the paper's Table 4."""

    l1_size: int = 16 << 10
    l1_ways: int = 4
    l1_hit_ps: int = ns(1)      # 1 cycle @ 1 GHz
    l2_size: int = 512 << 10
    l2_ways: int = 4
    l2_banks: int = 8
    l2_hit_ps: int = ns(10)     # ~10 cycles
    line_bytes: int = 64


class MemoryHierarchy:
    """L1 I/D + L2 + DRAM timing stack over one functional image."""

    def __init__(
        self,
        config: Optional[HierarchyConfig] = None,
        dram_config: Optional[DramConfig] = None,
    ) -> None:
        self.config = config or HierarchyConfig()
        self.image = MemoryImage("host-dram")
        self.dram = Dram(dram_config or DramConfig())
        cfg = self.config
        self.l2 = Cache(
            "l2",
            CacheGeometry(cfg.l2_size, cfg.l2_ways, cfg.line_bytes, cfg.l2_banks),
            cfg.l2_hit_ps,
            self.dram,
        )
        self.l1d = Cache(
            "l1d", CacheGeometry(cfg.l1_size, cfg.l1_ways, cfg.line_bytes), cfg.l1_hit_ps, self.l2
        )
        self.l1i = Cache(
            "l1i", CacheGeometry(cfg.l1_size, cfg.l1_ways, cfg.line_bytes), cfg.l1_hit_ps, self.l2
        )
        self.bus = TileLinkBus(HOST_CLOCK)

    # ------------------------------------------------------------------
    # host-side (through L1D)
    # ------------------------------------------------------------------
    def host_write(self, addr: int, size: int, now_ps: int) -> int:
        """Latency of a host data write."""
        return self.l1d.access(addr, size, is_write=True, now_ps=now_ps)

    # ------------------------------------------------------------------
    # device-side (quantum controller enters at L2 via TileLink)
    # ------------------------------------------------------------------
    def l2_access_latency(self, addr: int, size: int, is_write: bool, now_ps: int) -> int:
        """Service latency seen by a bus transaction that lands in L2."""
        return self.l2.access(addr, size, is_write, now_ps)

    def stats_dict(self) -> dict:
        out = {}
        for cache in (self.l1i, self.l1d, self.l2):
            out.update(cache.stats.as_dict())
        out.update(self.dram.stats.as_dict())
        out.update(self.bus.stats.as_dict())
        return out
