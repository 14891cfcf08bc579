"""Statistics primitives shared by all timing models.

Every architectural component in the reproduction reports through these
two primitives:

* :class:`Counter` — monotonically increasing event counts (cache hits,
  PUT requests issued, SLT evictions, ...).
* :class:`Accumulator` — sums of sampled values with min/max/mean
  (queue depths, batch sizes, ...).

A :class:`StatGroup` namespaces them per component and renders a flat
``dict`` for reports and tests.  Time breakdowns live in
:class:`repro.analysis.breakdown.TimeBreakdown`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Dict, Iterator, Optional


@dataclass
class Counter:
    """A named monotonically increasing counter."""

    name: str
    value: int = 0

    def increment(self, by: int = 1) -> None:
        # An exact int (the hot path) skips the numbers.Integral ABC
        # check.  bool is a subclass of int, so increment(True) would
        # count as 1 silently; reject it along with floats and other
        # non-integrals.
        if type(by) is not int:
            if isinstance(by, bool) or not isinstance(by, numbers.Integral):
                raise TypeError(
                    f"counter {self.name!r} increment must be an integral count, "
                    f"got {by!r} ({type(by).__name__})"
                )
            by = int(by)
        if by < 0:
            raise ValueError("counters only move forward; use Accumulator for signed data")
        self.value += by

    def reset(self) -> None:
        self.value = 0


@dataclass
class Accumulator:
    """Running sum / count / min / max of observed samples."""

    name: str
    total: float = 0.0
    count: int = 0
    minimum: Optional[float] = None
    maximum: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        if not math.isfinite(value):
            # One NaN poisons total/mean forever; ±inf pins min/max.
            raise ValueError(
                f"accumulator {self.name!r} rejects non-finite sample {value!r}"
            )
        self.total += value
        self.count += 1
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def reset(self) -> None:
        self.total = 0.0
        self.count = 0
        self.minimum = None
        self.maximum = None


class StatGroup:
    """A namespace of counters and accumulators for one component."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._counters: Dict[str, Counter] = {}
        self._accumulators: Dict[str, Accumulator] = {}

    def counter(self, name: str) -> Counter:
        """Get-or-create a counter."""
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def accumulator(self, name: str) -> Accumulator:
        """Get-or-create an accumulator."""
        if name not in self._accumulators:
            self._accumulators[name] = Accumulator(name)
        return self._accumulators[name]

    def counters(self) -> Iterator[Counter]:
        return iter(self._counters.values())

    def as_dict(self) -> Dict[str, float]:
        """Flatten to ``{"component.stat": value}`` for reports."""
        out: Dict[str, float] = {}
        for counter in self._counters.values():
            out[f"{self.name}.{counter.name}"] = counter.value
        for acc in self._accumulators.values():
            out[f"{self.name}.{acc.name}.mean"] = acc.mean
            out[f"{self.name}.{acc.name}.count"] = acc.count
        return out

    def reset(self) -> None:
        for counter in self._counters.values():
            counter.reset()
        for acc in self._accumulators.values():
            acc.reset()
