"""Picosecond timebase and clock-domain helpers.

Times are integers in **picoseconds** throughout the reproduction;
integer time avoids the floating-point drift that ns-float models
accumulate over long campaigns.  The unit helpers below convert to and
from ns/us/ms.

Qtenon's models span three clock domains (paper §5.2 and Table 4): the
1 GHz host/RoCC domain, the 200 MHz quantum-controller SRAM domain, and
the 2 GHz DAC/SerDes output domain.  A :class:`Clock` converts between
cycles and the picosecond timebase so component code can speak in
cycles while every timeline stays in one unit.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Conversion constants (picoseconds per unit).
PS_PER_NS = 1_000
PS_PER_US = 1_000_000
PS_PER_MS = 1_000_000_000
PS_PER_S = 1_000_000_000_000


def ns(value: float) -> int:
    """Convert nanoseconds to integer picoseconds."""
    return int(round(value * PS_PER_NS))


def us(value: float) -> int:
    """Convert microseconds to integer picoseconds."""
    return int(round(value * PS_PER_US))


def ms(value: float) -> int:
    """Convert milliseconds to integer picoseconds."""
    return int(round(value * PS_PER_MS))


def to_ns(ps: int) -> float:
    """Convert picoseconds to (float) nanoseconds."""
    return ps / PS_PER_NS


def to_us(ps: int) -> float:
    """Convert picoseconds to (float) microseconds."""
    return ps / PS_PER_US


def to_ms(ps: int) -> float:
    """Convert picoseconds to (float) milliseconds."""
    return ps / PS_PER_MS


@dataclass(frozen=True)
class Clock:
    """A fixed-frequency clock domain.

    Parameters
    ----------
    freq_hz:
        Frequency in hertz.  Must divide evenly into an integer
        picosecond period (true for every frequency used here).
    name:
        Label used in reports.
    """

    freq_hz: int
    name: str = "clock"

    def __post_init__(self) -> None:
        if self.freq_hz <= 0:
            raise ValueError(f"clock frequency must be positive, got {self.freq_hz}")
        if PS_PER_S % self.freq_hz != 0:
            raise ValueError(
                f"{self.freq_hz} Hz does not have an integer picosecond period"
            )

    @property
    def period_ps(self) -> int:
        """One cycle, in picoseconds."""
        return PS_PER_S // self.freq_hz

    def cycles_to_ps(self, cycles: int) -> int:
        """Duration of ``cycles`` cycles in picoseconds."""
        if cycles < 0:
            raise ValueError(f"negative cycle count {cycles}")
        return cycles * self.period_ps

    def next_edge(self, now_ps: int) -> int:
        """Timestamp of the first rising edge at or after ``now_ps``."""
        period = self.period_ps
        remainder = now_ps % period
        if remainder == 0:
            return now_ps
        return now_ps + (period - remainder)


#: The clock domains used across the Qtenon models (paper Table 4/§5.2).
HOST_CLOCK = Clock(1_000_000_000, "host-1GHz")
QCC_SRAM_CLOCK = Clock(200_000_000, "qcc-sram-200MHz")
DAC_CLOCK = Clock(2_000_000_000, "dac-2GHz")
