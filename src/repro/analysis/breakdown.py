"""Execution reports and time breakdowns.

Both platforms (Qtenon and the decoupled baseline) produce an
:class:`ExecutionReport` with the paper's four-way time breakdown
(Fig. 1b / Fig. 13): quantum execution, pulse generation, host
computation, and quantum-host communication.  Breakdown entries are
*exposed* (critical-path) times, so they sum to the end-to-end time
even when phases overlap — matching how the paper's percentage plots
are constructed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.sim.clock import to_ms, to_us

#: Canonical breakdown categories, in the paper's legend order.
CATEGORIES = ("quantum", "pulse_gen", "host_compute", "comm")


@dataclass
class TimeBreakdown:
    """Exposed time per category (picoseconds)."""

    quantum_ps: int = 0
    pulse_gen_ps: int = 0
    host_compute_ps: int = 0
    comm_ps: int = 0

    def add(self, category: str, duration_ps: int) -> None:
        if duration_ps < 0:
            raise ValueError(f"negative duration for {category!r}: {duration_ps}")
        if category == "quantum":
            self.quantum_ps += duration_ps
        elif category == "pulse_gen":
            self.pulse_gen_ps += duration_ps
        elif category == "host_compute":
            self.host_compute_ps += duration_ps
        elif category == "comm":
            self.comm_ps += duration_ps
        else:
            raise KeyError(f"unknown category {category!r}; expected one of {CATEGORIES}")

    def get(self, category: str) -> int:
        return {
            "quantum": self.quantum_ps,
            "pulse_gen": self.pulse_gen_ps,
            "host_compute": self.host_compute_ps,
            "comm": self.comm_ps,
        }[category]

    @property
    def total_ps(self) -> int:
        return self.quantum_ps + self.pulse_gen_ps + self.host_compute_ps + self.comm_ps

    @property
    def classical_ps(self) -> int:
        """Everything that is not quantum execution."""
        return self.total_ps - self.quantum_ps

    def fraction(self, category: str) -> float:
        total = self.total_ps
        return self.get(category) / total if total else 0.0

    def percentages(self) -> Dict[str, float]:
        return {category: 100.0 * self.fraction(category) for category in CATEGORIES}

    def merged(self, other: "TimeBreakdown") -> "TimeBreakdown":
        return TimeBreakdown(
            quantum_ps=self.quantum_ps + other.quantum_ps,
            pulse_gen_ps=self.pulse_gen_ps + other.pulse_gen_ps,
            host_compute_ps=self.host_compute_ps + other.host_compute_ps,
            comm_ps=self.comm_ps + other.comm_ps,
        )

    def as_dict(self) -> Dict[str, int]:
        return {category: self.get(category) for category in CATEGORIES}

    def __str__(self) -> str:
        parts = ", ".join(
            f"{category}={to_ms(self.get(category)):.3f}ms" for category in CATEGORIES
        )
        return f"TimeBreakdown({parts})"


@dataclass
class ExecutionReport:
    """Everything one hybrid-algorithm run produced."""

    platform: str
    #: exposed (critical-path) times — sums to ``end_to_end_ps``.
    breakdown: TimeBreakdown = field(default_factory=TimeBreakdown)
    #: busy times — how long each engine actually worked, regardless of
    #: overlap.  On the sequential baseline busy == exposed; on Qtenon
    #: host/comm busy time can be hidden behind quantum execution.  The
    #: paper's classical-time, host-time and pulse-generation figures
    #: (Fig. 11a/12a/15, Table 5) are busy-time metrics; its breakdown
    #: percentages (Fig. 1b/13) and communication times (Fig. 14) are
    #: exposed-time metrics.
    busy: TimeBreakdown = field(default_factory=TimeBreakdown)
    end_to_end_ps: int = 0
    iterations: int = 0
    evaluations: int = 0
    total_shots: int = 0
    #: q_set / q_update / q_acquire communication split (Fig. 14b/d)
    comm_by_instruction: Dict[str, int] = field(
        default_factory=lambda: {"q_set": 0, "q_update": 0, "q_acquire": 0}
    )
    instruction_counts: Dict[str, int] = field(default_factory=dict)
    pulses_generated: int = 0
    pulse_entries_processed: int = 0
    slt_hits: int = 0
    energies: List[float] = field(default_factory=list)
    extra: Dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def classical_ps(self) -> int:
        """Exposed classical time (what end-to-end savings come from)."""
        return self.breakdown.classical_ps

    @property
    def classical_busy_ps(self) -> int:
        """Busy classical time (the paper's 'classical execution time')."""
        return self.busy.classical_ps

    @property
    def host_busy_ps(self) -> int:
        return self.busy.host_compute_ps

    @property
    def pulse_gen_busy_ps(self) -> int:
        return self.busy.pulse_gen_ps

    @property
    def quantum_fraction(self) -> float:
        return self.breakdown.fraction("quantum")

    @property
    def total_instructions(self) -> int:
        return sum(self.instruction_counts.values())

    @property
    def compute_reduction(self) -> float:
        """Fraction of pulse computations skipped (Table 5)."""
        if self.pulse_entries_processed == 0:
            return 0.0
        return 1.0 - self.pulses_generated / self.pulse_entries_processed

    def speedup_over(self, other: "ExecutionReport") -> float:
        """End-to-end speedup of *this* report relative to ``other``."""
        if self.end_to_end_ps == 0:
            raise ZeroDivisionError("report has zero end-to-end time")
        return other.end_to_end_ps / self.end_to_end_ps

    def classical_speedup_over(self, other: "ExecutionReport") -> float:
        """Busy-classical-time speedup (the Fig. 11a/12a metric)."""
        if self.classical_busy_ps == 0:
            raise ZeroDivisionError("report has zero classical busy time")
        return other.classical_busy_ps / self.classical_busy_ps

    def summary(self) -> str:
        pct = self.breakdown.percentages()
        lines = [
            f"[{self.platform}] end-to-end {to_ms(self.end_to_end_ps):.3f} ms "
            f"({self.iterations} iterations, {self.evaluations} evaluations)",
            "  breakdown: "
            + ", ".join(f"{k} {v:.1f}%" for k, v in pct.items()),
            f"  comm: "
            + ", ".join(
                f"{k} {to_us(v):.2f}us" for k, v in self.comm_by_instruction.items()
            ),
            f"  pulses: {self.pulses_generated}/{self.pulse_entries_processed} "
            f"generated (reduction {100 * self.compute_reduction:.1f}%)",
        ]
        if "eval_cache.hits" in self.extra:
            lines.append(
                f"  eval cache: {self.extra['eval_cache.hits']:.0f} hits / "
                f"{self.extra['eval_cache.misses']:.0f} misses / "
                f"{self.extra.get('eval_cache.evictions', 0.0):.0f} evictions "
                f"({self.extra.get('eval_cache.hit_rate', 0.0):.1%} hit rate)"
            )
        return "\n".join(lines)
