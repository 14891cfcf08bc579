"""Process-wide metrics registry: counters, gauges, histograms.

The paper's whole evaluation is observability — per-phase latency
breakdowns (Fig. 13), cache and PGU occupancy counters, end-to-end
timelines — and production hybrid platforms expose exactly this kind
of cross-layer telemetry (Karalekas et al. 2020).  Subsystems count
into ``sim.stats.StatGroup`` silos and service snapshots; timelines
are spans of :mod:`repro.telemetry.tracing`.  :class:`MetricsRegistry`
is the single namespace the counts publish into, with histograms,
under stable dotted names:

* :class:`Counter` — monotonically increasing integer counts;
* :class:`Gauge` — last-write-wins floats (backlog depth, hit rate);
* :class:`Histogram` — deterministic fixed-bucket distribution that
  also keeps the raw samples, so p50/p95/p99 are *exact* (ceil-based
  nearest rank), not bucket-interpolated.

Names are validated against :data:`METRIC_NAME_RE` and unique per
kind: asking for an existing name with the same kind returns the same
instrument; asking with a different kind (or different histogram
buckets) raises — which is what keeps dashboards stable across PRs.

Existing :class:`~repro.sim.stats.StatGroup` instrumentation joins the
registry pull-style through :mod:`repro.telemetry.bridge` collectors,
so the hot paths pay nothing for telemetry until an export is taken.
"""

from __future__ import annotations

import math
import numbers
import re
import threading
from bisect import bisect_left
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

#: Stable dotted metric names: lowercase segments of [a-z0-9_].
METRIC_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)*$")

#: Default latency buckets (seconds) — service job latencies.
DEFAULT_LATENCY_BUCKETS_S = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0,
)

#: Default modelled-time buckets (picoseconds): 1 us .. 1 s, decades.
DEFAULT_TIME_BUCKETS_PS = tuple(10 ** exponent for exponent in range(6, 13))


def nearest_rank_quantile(sorted_values: Sequence[float], q: float) -> float:
    """Ceil-based nearest-rank quantile of an *ascending* sequence.

    ``rank = ceil(q * n)`` (1-based), the textbook nearest-rank
    definition.  Python's ``round`` uses banker's rounding, so the old
    ``round(q * n) - 1`` rank was biased low on half-ranks (p50 of
    five samples picked the 2nd, not the 3rd).  Returns 0.0 when empty.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    n = len(sorted_values)
    if n == 0:
        return 0.0
    index = min(n - 1, max(0, math.ceil(q * n) - 1))
    return float(sorted_values[index])


def _integral(by: object, what: str) -> int:
    """Validate an integral count — mirrors ``repro.sim.stats.Counter``:
    numpy integers pass, ``bool`` (a subclass of ``int``) and floats do
    not, so ``increment(True)`` can't silently count as 1."""
    if isinstance(by, bool) or not isinstance(by, numbers.Integral):
        raise TypeError(
            f"{what} must be an integral count, got {by!r} ({type(by).__name__})"
        )
    return int(by)


def _finite(value: object, what: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{what} rejects non-finite sample {value!r}")
    return value


class Counter:
    """Monotonically increasing integer counter."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0

    def inc(self, by: int = 1) -> None:
        by = _integral(by, f"counter {self.name!r} increment")
        if by < 0:
            raise ValueError(f"counter {self.name!r} only moves forward, got {by}")
        self.value += by


class Gauge:
    """Last-write-wins float value."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = _finite(value, f"gauge {self.name!r}")

    def inc(self, by: float = 1.0) -> None:
        self.value += _finite(by, f"gauge {self.name!r}")


class Histogram:
    """Fixed-bucket histogram with exact quantiles.

    Bucket bounds are upper edges (Prometheus ``le`` semantics) plus an
    implicit ``+Inf`` bucket.  The raw samples are retained so
    :meth:`quantile` is exact (ceil-based nearest rank) rather than
    interpolated from bucket edges; bucket counts exist for the text
    exposition and for cheap shape comparisons.
    """

    kind = "histogram"

    def __init__(
        self, name: str, buckets: Sequence[float], help: str = ""
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError(f"histogram {name!r} needs at least one bucket bound")
        if any(not math.isfinite(b) for b in bounds):
            raise ValueError(f"histogram {name!r} bucket bounds must be finite")
        if any(b >= c for b, c in zip(bounds, bounds[1:])):
            raise ValueError(
                f"histogram {name!r} bucket bounds must strictly ascend: {bounds}"
            )
        self.name = name
        self.help = help
        self.bounds = bounds
        #: per-bucket (non-cumulative) counts; last entry is +Inf.
        self.bucket_counts: List[int] = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0
        self._samples: List[float] = []
        self._sorted = True

    def observe(self, value: float) -> None:
        value = _finite(value, f"histogram {self.name!r}")
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1
        self._samples.append(value)
        self._sorted = False

    def cumulative_counts(self) -> List[int]:
        """Cumulative counts per bound (Prometheus bucket semantics)."""
        out: List[int] = []
        running = 0
        for count in self.bucket_counts:
            running += count
            out.append(running)
        return out

    def quantile(self, q: float) -> float:
        if not self._sorted:
            self._samples.sort()
            self._sorted = True
        return nearest_rank_quantile(self._samples, q)

    def percentiles(self) -> Dict[str, float]:
        return {
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class MetricsRegistry:
    """One namespace of uniquely named instruments + pull collectors.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: the same
    name with the same kind returns the same instrument (so components
    created per job aggregate naturally); the same name with a
    different kind — or a histogram with different buckets — raises.
    Collectors registered via :meth:`register_collector` contribute
    read-only values at collection time (exported as gauges), which is
    how the existing :class:`~repro.sim.stats.StatGroup` silos publish
    without any hot-path cost.
    """

    def __init__(self, namespace: str = "repro") -> None:
        if not METRIC_NAME_RE.match(namespace):
            raise ValueError(f"invalid metrics namespace {namespace!r}")
        self.namespace = namespace
        self._instruments: Dict[str, object] = {}
        self._collectors: List[Callable[[], Mapping[str, float]]] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _get_or_create(self, name: str, factory: Callable[[], object]):
        if not METRIC_NAME_RE.match(name):
            raise ValueError(
                f"invalid metric name {name!r}; want dotted lowercase "
                "segments of [a-z0-9_]"
            )
        with self._lock:
            existing = self._instruments.get(name)
            if existing is None:
                instrument = factory()
                self._instruments[name] = instrument
                return instrument
            return existing

    def counter(self, name: str, help: str = "") -> Counter:
        instrument = self._get_or_create(name, lambda: Counter(name, help))
        if not isinstance(instrument, Counter):
            raise TypeError(
                f"metric {name!r} already registered as {instrument.kind}"
            )
        return instrument

    def gauge(self, name: str, help: str = "") -> Gauge:
        instrument = self._get_or_create(name, lambda: Gauge(name, help))
        if not isinstance(instrument, Gauge):
            raise TypeError(
                f"metric {name!r} already registered as {instrument.kind}"
            )
        return instrument

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_S,
        help: str = "",
    ) -> Histogram:
        instrument = self._get_or_create(name, lambda: Histogram(name, buckets, help))
        if not isinstance(instrument, Histogram):
            raise TypeError(
                f"metric {name!r} already registered as {instrument.kind}"
            )
        if instrument.bounds != tuple(float(b) for b in buckets):
            raise ValueError(
                f"histogram {name!r} already registered with buckets "
                f"{instrument.bounds}, asked for {tuple(buckets)}"
            )
        return instrument

    # ------------------------------------------------------------------
    def register_collector(
        self, collect: Callable[[], Mapping[str, float]]
    ) -> None:
        """Add a pull source; called once per :meth:`collect_external`."""
        with self._lock:
            self._collectors.append(collect)

    def collect_external(self) -> Dict[str, float]:
        """Merged collector output (duplicate names sum, like counters
        of identically named components aggregating across instances)."""
        merged: Dict[str, float] = {}
        with self._lock:
            collectors = list(self._collectors)
        for collect in collectors:
            for name, value in collect().items():
                merged[name] = merged.get(name, 0.0) + float(value)
        return merged

    def instruments(self) -> List[Tuple[str, object]]:
        with self._lock:
            return sorted(self._instruments.items())

    def names(self) -> List[str]:
        """Every exported metric name (instruments + collector output)."""
        with self._lock:
            names = set(self._instruments)
        names.update(self.collect_external())
        return sorted(names)

    def snapshot(self) -> Dict[str, object]:
        """Deterministic JSON-able view of every metric, sorted by name."""
        out: Dict[str, object] = {}
        for name, instrument in self.instruments():
            if isinstance(instrument, Counter):
                out[name] = {"type": "counter", "value": instrument.value}
            elif isinstance(instrument, Gauge):
                out[name] = {"type": "gauge", "value": instrument.value}
            else:
                assert isinstance(instrument, Histogram)
                out[name] = {
                    "type": "histogram",
                    "count": instrument.count,
                    "sum": instrument.sum,
                    "buckets": dict(
                        zip(
                            [str(b) for b in instrument.bounds] + ["+Inf"],
                            instrument.cumulative_counts(),
                        )
                    ),
                    **instrument.percentiles(),
                }
        for name, value in sorted(self.collect_external().items()):
            if name in out:
                raise ValueError(
                    f"collector output collides with instrument {name!r}"
                )
            out[name] = {"type": "gauge", "value": value}
        return out


class StepClock:
    """Deterministic monotonic clock: each call advances a fixed step.

    Drop-in for ``time.monotonic`` wherever a clock is injectable
    (:class:`~repro.service.service.JobService`,
    :class:`~repro.runtime.breaker.CircuitBreaker`), so seeded telemetry
    runs export byte-identical Prometheus text and merged traces — the
    property the determinism tests and the CI smoke job pin.
    """

    def __init__(self, step_s: float = 0.001) -> None:
        if step_s <= 0:
            raise ValueError(f"step_s must be positive, got {step_s}")
        self.step_s = step_s
        self._now = 0.0

    def __call__(self) -> float:
        self._now += self.step_s
        return self._now
