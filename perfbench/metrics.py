"""End-to-end and per-layer metrics of one benchmark run."""

from __future__ import annotations

import math
import resource
import statistics
from typing import Dict, Sequence, Tuple

from perfbench.spans import CALLS, INCL_NS, LAYERS, OUTCOMES, PARENT, SELF_NS, UNITS, WORKER

Metric = Tuple[float, str]

#: Layers whose time falls between ops rather than inside one: a
#: streaming client's optimizer runs while no request is outstanding.
BETWEEN_OPS = {"stream-vqe6": ("optimizer",), "grad-vqe12": ("optimizer",)}


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest reaped child
    (a pool worker); one invocation runs one workload."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(run) -> Dict[str, Metric]:
    """Metrics a user of the client path sees, from untraced rounds."""
    return {
        "latency_p50_ms": (1e3 * _median(run.latencies), "ms"),
        "latency_p90_ms": (1e3 * quantile(run.latencies, 0.9), "ms"),
        "throughput_per_s": (
            len(run.latencies) / run.window_s if run.window_s else 0.0, "1/s"
        ),
        "setup_s": (_median(run.setup), "s"),
        "teardown_s": (_median(run.teardown), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def attributed_seconds(run) -> float:
    """Parent-side self time of every layer inside ops, plus queue waits,
    over the traced rounds' timed windows."""
    between = BETWEEN_OPS.get(run.name, ())
    spans_ns = sum(
        run.layers.get(layer, SELF_NS, PARENT)
        for layer in LAYERS
        if layer != "client" and layer not in between
    )
    return 1e-9 * spans_ns + sum(run.layers.waits)


def per_layer(run) -> Dict[str, Metric]:
    """Per-op layer metrics from the traced rounds."""
    layers = run.layers
    ops = len(run.traced_latencies)
    per = 1.0 / ops if ops else 0.0

    def ms(*names: str, region=None) -> Metric:
        total = sum(layers.get(name, SELF_NS, region) for name in names)
        return (1e-6 * per * total, "ms")

    def count(name: str, which: int) -> Metric:
        return (per * layers.get(name, which), "count")

    def ratio(name: str) -> Metric:
        calls = layers.get(name, CALLS)
        return (layers.get(name, OUTCOMES) / calls if calls else 0.0, "ratio")

    busy = sum(run.traced_latencies)
    untraced = _median(run.latencies)
    waits_ms = [1e3 * wait for wait in layers.waits]
    return {
        "kernel.ms_per_op": ms("kernel"),
        "kernel.rows_per_op": count("kernel", UNITS),
        "sample.ms_per_op": ms("sample"),
        "sample.calls_per_op": count("sample", CALLS),
        "expect.ms_per_op": ms("expect"),
        "adjoint.ms_per_op": ms("adjoint"),
        "adjoint.rows_per_op": count("adjoint", UNITS),
        "timing_replay.ms_per_op": ms("timing_replay", "replay_plan", "controller"),
        "timing_replay.calls_per_op": count("timing_replay", CALLS),
        "timing_replay.controller_ms_per_op": ms("controller"),
        "dispatch.wait_ms_per_op": ms("dispatch", region=PARENT),
        "dispatch.worker_busy_ms_per_op": (
            1e-6 * per * layers.get("engine", INCL_NS, WORKER), "ms"
        ),
        "engine.ms_per_op": ms("engine", region=PARENT),
        "spec.ms_per_op": ms("spec"),
        "transpile.ms_per_op": ms("transpile"),
        "compile.ms_per_op": ms("compile"),
        "lower.ms_per_op": ms("lower"),
        "cache.eval_hit_ratio": ratio("cache_eval"),
        "cache.program_hit_ratio": ratio("cache_program"),
        "cache.ms_per_op": ms("cache_eval", "cache_put", "cache_program"),
        "coalesce.follower_ratio": ratio("coalesce"),
        "admit.rejected_ratio": ratio("admit"),
        "queue.wait_p50_ms": (quantile(waits_ms, 0.5), "ms"),
        "queue.wait_p90_ms": (quantile(waits_ms, 0.9), "ms"),
        "queue.depth_max": (float(layers.depth_max), "count"),
        "session.ms_per_op": ms("session"),
        "wire.ms_per_op": ms("wire"),
        "wire.bytes_per_op": (per * layers.get("wire", UNITS), "bytes"),
        "optimizer.ms_per_op": ms("optimizer"),
        "settle.ms_per_op": ms("settle"),
        "generator.late_p90_ms": (1e3 * quantile(run.late, 0.9), "ms"),
        "unattributed_share": (
            1.0 - attributed_seconds(run) / busy if busy else 0.0, "ratio"
        ),
        "trace_overhead": (
            _median(run.traced_latencies) / untraced - 1.0 if untraced else 0.0, "ratio"
        ),
        "failed_share": (run.failed / run.attempted if run.attempted else 0.0, "ratio"),
    }
