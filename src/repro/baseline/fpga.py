"""FPGA controller model for the decoupled baseline.

The baseline's FPGA (paper §7.1) is considered "under optimal
conditions and focused solely on pulse generation, set to a fixed
latency of 1000 ns per pulse", with a 100 ns Analog-Digital Interface
latency per direction.  No pulse reuse exists — every compiled gate is
regenerated on every program upload (this is precisely what Qtenon's
SLT removes).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.clock import ns
from repro.sim.stats import StatGroup


@dataclass(frozen=True)
class FpgaConfig:
    pulse_latency_ps: int = ns(1000)  #: per pulse (§7.1)
    adi_latency_ps: int = ns(100)     #: per direction (§7.1)
    parallel_pgus: int = 1            #: baseline generates sequentially


class FpgaController:
    """Pulse generation + ADI timing of the baseline controller."""

    def __init__(self, config: FpgaConfig = FpgaConfig()) -> None:
        self.config = config
        self.stats = StatGroup("fpga")
        self._pulses = self.stats.counter("pulses_generated")

    def pulse_generation_ps(self, n_pulses: int) -> int:
        """Time to generate pulses for ``n_pulses`` gates (no reuse)."""
        if n_pulses < 0:
            raise ValueError(f"negative pulse count {n_pulses}")
        self._pulses.increment(n_pulses)
        lanes = self.config.parallel_pgus
        serial = -(-n_pulses // lanes)
        return serial * self.config.pulse_latency_ps

    def adi_round_trip_ps(self) -> int:
        """ADI crossing in both directions (control out, readout in)."""
        return 2 * self.config.adi_latency_ps

    @property
    def pulses_generated(self) -> int:
        return self._pulses.value
