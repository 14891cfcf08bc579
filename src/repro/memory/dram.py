"""DRAM timing model.

Table 4 configures a 16 GB DDR3 module across four banks.  The model
charges a fixed row-access latency per request plus bank-conflict
queueing: each bank can serve one request per ``bank_busy_ps`` window,
so streams that hammer one bank serialise while interleaved streams
overlap — enough fidelity for the paper's workloads, whose memory
traffic is dominated by the quantum controller's QSpace spills and the
host's post-processing reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.sim.clock import ns
from repro.sim.stats import StatGroup


@dataclass
class DramConfig:
    capacity_bytes: int = 16 << 30
    banks: int = 4
    access_latency_ps: int = ns(60)  # typical DDR3 row miss
    bank_busy_ps: int = ns(15)
    bandwidth_bytes_per_ns: float = 12.8  # DDR3-1600 single channel


class Dram:
    """Banked main-memory latency model."""

    def __init__(self, config: DramConfig = None, name: str = "dram") -> None:
        self.config = config or DramConfig()
        self.name = name
        self._bank_free_at: List[int] = [0] * self.config.banks
        self.stats = StatGroup(name)
        self._requests = self.stats.counter("requests")
        self._conflicts = self.stats.counter("bank_conflicts")

    def _bank_of(self, addr: int) -> int:
        # Interleave on 4 KiB rows.
        return (addr >> 12) % self.config.banks

    def access(self, addr: int, size: int, is_write: bool, now_ps: int) -> int:
        """Latency of a ``size``-byte access beginning at ``now_ps``."""
        if size <= 0:
            raise ValueError(f"access size must be positive, got {size}")
        if addr + size > self.config.capacity_bytes:
            raise ValueError(
                f"access [{addr:#x}, +{size}) exceeds {self.config.capacity_bytes} B DRAM"
            )
        self._requests.increment()
        bank = self._bank_of(addr)
        queue_delay = max(0, self._bank_free_at[bank] - now_ps)
        if queue_delay:
            self._conflicts.increment()
        transfer = int(size / self.config.bandwidth_bytes_per_ns * 1000)
        latency = queue_delay + self.config.access_latency_ps + transfer
        self._bank_free_at[bank] = now_ps + queue_delay + self.config.bank_busy_ps
        return latency

    def reset(self) -> None:
        self._bank_free_at = [0] * self.config.banks
        self.stats.reset()
