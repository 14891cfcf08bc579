"""repro.telemetry — unified metrics, tracing, and export layer.

One registry for every subsystem's counters/gauges/histograms
(:mod:`repro.telemetry.metrics`), span-based tracing that threads a
``job_id → evaluation → sim phase`` chain across the service, runtime
and sim layers (:mod:`repro.telemetry.tracing`), and deterministic
exporters — Prometheus text exposition, merged Chrome/Perfetto trace,
JSONL event log (:mod:`repro.telemetry.export`).  The
:mod:`repro.telemetry.bridge` collectors pull the pre-existing
:class:`~repro.sim.stats.StatGroup` silos into the registry with zero
hot-path overhead (gated < 5% by ``benchmarks/bench_telemetry.py``).

Quick start::

    from repro.telemetry import MetricsRegistry, to_prometheus_text

    registry = MetricsRegistry()
    api = ServiceAPI(config, telemetry=registry)
    api.run_batch(submissions)
    print(to_prometheus_text(registry))

or from the CLI: ``python -m repro telemetry --prom out.txt
--trace trace.json --events events.jsonl``.
"""

from repro.telemetry.bridge import (
    metric_key,
    register_engine,
    register_eval_cache,
    register_health,
    register_planner,
    register_service,
    register_stat_group,
)
from repro.telemetry.export import (
    EventLog,
    parse_prometheus_text,
    prometheus_name,
    to_prometheus_text,
)
from repro.telemetry.metrics import (
    DEFAULT_LATENCY_BUCKETS_S,
    DEFAULT_TIME_BUCKETS_PS,
    METRIC_NAME_RE,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    StepClock,
    nearest_rank_quantile,
)
from repro.telemetry.tracing import (
    TraceGroup,
    TraceSpan,
    Tracer,
    make_trace_id,
    merged_chrome_trace,
)

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS_S",
    "DEFAULT_TIME_BUCKETS_PS",
    "EventLog",
    "Gauge",
    "Histogram",
    "METRIC_NAME_RE",
    "MetricsRegistry",
    "StepClock",
    "TraceGroup",
    "TraceSpan",
    "Tracer",
    "make_trace_id",
    "merged_chrome_trace",
    "metric_key",
    "nearest_rank_quantile",
    "parse_prometheus_text",
    "prometheus_name",
    "register_engine",
    "register_eval_cache",
    "register_health",
    "register_planner",
    "register_service",
    "register_stat_group",
    "to_prometheus_text",
]
