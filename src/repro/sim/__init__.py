"""Timing substrate: picosecond units, clock domains, stat primitives."""

from repro.sim.clock import (
    DAC_CLOCK,
    HOST_CLOCK,
    PS_PER_MS,
    PS_PER_NS,
    PS_PER_S,
    PS_PER_US,
    QCC_SRAM_CLOCK,
    Clock,
    ms,
    ns,
    to_ms,
    to_ns,
    to_us,
    us,
)
from repro.sim.stats import Accumulator, Counter, StatGroup

__all__ = [
    "Clock",
    "HOST_CLOCK",
    "QCC_SRAM_CLOCK",
    "DAC_CLOCK",
    "ns",
    "us",
    "ms",
    "to_ns",
    "to_us",
    "to_ms",
    "PS_PER_NS",
    "PS_PER_US",
    "PS_PER_MS",
    "PS_PER_S",
    "Counter",
    "Accumulator",
    "StatGroup",
]
