"""Pulse output path: SRAM → parallel buffers → SerDes → DACs (§5.2).

The ``.pulse`` segment feeds the quantum chip through data path ❹.
Each qubit needs two 16-bit 2 GHz DACs, i.e. 64 bits/ns (8 GB/s) of
sustained pulse data.  The 200 MHz QCC SRAM can only produce one
640-bit entry per 5 ns cycle, so each entry is fanned out into ten
parallel 64-bit buffers and a SerDes serialises them at the 2 GHz DAC
rate — 640 bits per 5 ns window on both sides, making the path
rate-balanced by construction.

:class:`PulseOutputPath` models that arithmetic and produces drain
schedules; its consistency checks are what the §5.2 bandwidth tests
assert.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.sim.clock import DAC_CLOCK, QCC_SRAM_CLOCK, Clock


@dataclass(frozen=True)
class PulseOutputConfig:
    """Fixed parameters of the analog front end (paper §5.2)."""

    pulse_entry_bits: int = 640
    parallel_buffers: int = 10
    buffer_bits: int = 64
    dacs_per_qubit: int = 2
    dac_bits: int = 16
    sram_clock: Clock = QCC_SRAM_CLOCK
    dac_clock: Clock = DAC_CLOCK

    def __post_init__(self) -> None:
        if self.parallel_buffers * self.buffer_bits != self.pulse_entry_bits:
            raise ValueError(
                f"{self.parallel_buffers} x {self.buffer_bits}-bit buffers "
                f"do not cover a {self.pulse_entry_bits}-bit entry"
            )


class PulseOutputPath:
    """Rate matching between the QCC SRAM and the per-qubit DACs."""

    def __init__(self, config: PulseOutputConfig = PulseOutputConfig()) -> None:
        self.config = config

    # ------------------------------------------------------------------
    # bandwidth arithmetic
    # ------------------------------------------------------------------
    @property
    def required_bits_per_ns(self) -> float:
        """DAC demand per qubit: 16 b x 2 DACs x 2 GHz = 64 bits/ns."""
        cfg = self.config
        return cfg.dac_bits * cfg.dacs_per_qubit * cfg.dac_clock.freq_hz / 1e9

    @property
    def sram_bits_per_ns(self) -> float:
        """SRAM supply per qubit: one 640-bit entry per SRAM cycle."""
        cfg = self.config
        return cfg.pulse_entry_bits * cfg.sram_clock.freq_hz / 1e9

    @property
    def is_rate_balanced(self) -> bool:
        """The design requirement: supply must meet demand exactly
        (the paper sizes the 640-bit entry for this)."""
        return self.sram_bits_per_ns >= self.required_bits_per_ns

    # ------------------------------------------------------------------
    # drain scheduling
    # ------------------------------------------------------------------
    def entry_drain_ps(self) -> int:
        """Time the SerDes takes to stream one 640-bit entry at the DAC
        rate (64 bits per DAC cycle across the two DACs)."""
        cfg = self.config
        bits_per_dac_cycle = cfg.dac_bits * cfg.dacs_per_qubit
        cycles = -(-cfg.pulse_entry_bits // bits_per_dac_cycle)
        return cfg.dac_clock.cycles_to_ps(cycles)

    def stream_schedule(self, n_entries: int, start_ps: int = 0) -> List[Tuple[int, int]]:
        """(fetch, drained) timestamps for ``n_entries`` back-to-back
        pulse entries: fetches align to SRAM edges, drains proceed at
        the DAC rate, and the pipeline never starves when the path is
        rate-balanced."""
        if n_entries <= 0:
            raise ValueError(f"need at least one entry, got {n_entries}")
        schedule: List[Tuple[int, int]] = []
        sram_period = self.config.sram_clock.period_ps
        drain = self.entry_drain_ps()
        fetch = self.config.sram_clock.next_edge(start_ps)
        drained = fetch
        for _ in range(n_entries):
            begin = max(fetch, drained)
            drained = begin + drain
            schedule.append((fetch, drained))
            fetch += sram_period
        return schedule
