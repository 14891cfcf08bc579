"""Pull-based collectors joining the old instrumentation silos to the
registry.

:class:`~repro.sim.stats.StatGroup` (and everything built on it — the
sim components, the runtime engine/cache/breaker, the service
scheduler/admission/coalescer, the fault injector) predates
:mod:`repro.telemetry`.  Rather than rewrite every increment site,
these helpers register *collectors*: zero hot-path cost, and the
registry reads the live objects only when an export is taken.  Dotted
names come straight from ``StatGroup.as_dict()`` (already
``component.stat`` shaped), sanitised to the registry grammar.

Identically named groups (e.g. the per-job ``runtime`` StatGroups the
service creates) sum at collection time, which is exactly the
aggregate a fleet-level exporter wants.
"""

from __future__ import annotations

import re
import weakref
from typing import Dict

from repro.telemetry.metrics import MetricsRegistry

_INVALID = re.compile(r"[^a-z0-9_.]")

#: Registries that already carry the process-wide planner/stabilizer
#: collectors — both ``register_engine`` and ``register_service`` pull
#: them in, and a registry serving both must not sum the same global
#: counters twice.
_PLANNER_REGISTRIES: "weakref.WeakSet" = weakref.WeakSet()


def metric_key(raw: str, prefix: str = "") -> str:
    """Sanitise an arbitrary stat name to the registry grammar."""
    key = _INVALID.sub("_", str(raw).lower())
    key = re.sub(r"\.+", ".", key).strip(".")
    if prefix:
        key = f"{prefix}.{key}"
    if not key or not key[0].isalpha():
        key = f"m_{key}" if key else "m_unnamed"
    return key


def register_stat_group(
    registry: MetricsRegistry, group, prefix: str = ""
) -> None:
    """Publish a live :class:`StatGroup` into ``registry`` (pull-style)."""

    def collect() -> Dict[str, float]:
        return {
            metric_key(name, prefix): float(value)
            for name, value in group.as_dict().items()
        }

    registry.register_collector(collect)


def register_eval_cache(
    registry: MetricsRegistry, cache, prefix: str = ""
) -> None:
    """Publish an :class:`~repro.runtime.cache.EvalCache`: counters
    plus the derived hit rate."""
    register_stat_group(registry, cache.stats, prefix)

    def collect() -> Dict[str, float]:
        return {metric_key("eval_cache.hit_rate", prefix): cache.hit_rate}

    registry.register_collector(collect)


def register_kernels(registry: MetricsRegistry, prefix: str = "") -> None:
    """Publish the process-wide vectorized-kernel counters: gate
    applies/fusions, diagonal fast-path hits, and the compiled-program
    replay cache (:data:`repro.quantum.kernels.PROGRAM_CACHE`)."""
    from repro.quantum.adjoint import ADJOINT_STATS
    from repro.quantum.kernels import KERNEL_STATS, PROGRAM_CACHE

    register_stat_group(registry, KERNEL_STATS, prefix)
    register_stat_group(registry, PROGRAM_CACHE.stats, prefix)
    register_stat_group(registry, ADJOINT_STATS, prefix)

    def collect() -> Dict[str, float]:
        return {
            metric_key("replay_cache.programs", prefix): float(
                len(PROGRAM_CACHE)
            ),
        }

    registry.register_collector(collect)


def register_planner(registry: MetricsRegistry, prefix: str = "") -> None:
    """Publish the process-wide execution-planner decision counters and
    the stabilizer backend's tableau/sampling counters.  Idempotent per
    registry: the underlying StatGroups are global, so a registry that
    hosts both an engine and a service must not count them twice."""
    if registry in _PLANNER_REGISTRIES:
        return
    _PLANNER_REGISTRIES.add(registry)
    from repro.planner import PLANNER_STATS
    from repro.quantum.stabilizer import STABILIZER_STATS

    register_stat_group(registry, PLANNER_STATS, prefix)
    register_stat_group(registry, STABILIZER_STATS, prefix)


def register_engine(registry: MetricsRegistry, engine, prefix: str = "") -> None:
    """Publish an :class:`~repro.runtime.engine.EvaluationEngine` and
    every resilience component hanging off it, plus the kernel-layer
    counters its evaluations drive.

    The persistent pool's worker-side counters (kernel stats and the
    workers' own replay-cache hit/miss/eviction numbers, summed across
    workers) ride along: workers piggyback a snapshot on every batch
    reply, and the collector reads the engine's latest snapshot — valid
    even after the pool is torn down."""
    register_stat_group(registry, engine.stats, prefix)
    register_stat_group(registry, engine.breaker.stats, prefix)
    register_kernels(registry, prefix)
    register_planner(registry, prefix)
    if engine.cache is not None:
        register_eval_cache(registry, engine.cache, prefix)
    if engine.fault_injector is not None:
        register_stat_group(registry, engine.fault_injector.stats, prefix)

    def collect_workers() -> Dict[str, float]:
        pool = getattr(engine, "_pool", None)
        if pool is not None and not pool.closed:
            snapshot = pool.worker_stats()
        else:
            snapshot = getattr(engine, "_worker_stat_snapshot", {})
        return {
            metric_key(name, prefix): float(value)
            for name, value in snapshot.items()
        }

    registry.register_collector(collect_workers)


def register_health(
    registry: MetricsRegistry, health, prefix: str = "service.backend"
) -> None:
    """Publish a :class:`~repro.service.health.HealthRegistry` as
    numeric gauges (``healthy`` as 0/1)."""

    def collect() -> Dict[str, float]:
        out: Dict[str, float] = {}
        for name, snapshot in health.snapshot().items():
            for key, value in snapshot.items():
                if isinstance(value, bool):
                    value = 1.0 if value else 0.0
                if not isinstance(value, (int, float)):
                    continue  # last_error and friends stay out of metrics
                out[metric_key(f"{name}.{key}", prefix)] = float(value)
        return out

    registry.register_collector(collect)


def register_service(
    registry: MetricsRegistry, service, prefix: str = ""
) -> None:
    """Publish every silo of a :class:`~repro.service.service.JobService`."""
    register_stat_group(registry, service.stats, prefix)
    register_stat_group(registry, service.admission.stats, prefix)
    register_stat_group(registry, service.coalescer.stats, prefix)
    register_stat_group(registry, service.sessions.stats, prefix)
    register_planner(registry, prefix)
    if service.cache is not None:
        register_eval_cache(registry, service.cache, prefix)
    register_health(registry, service.health, metric_key("service.backend", prefix))

    def collect_scheduler() -> Dict[str, float]:
        from repro.service.drr import jain_index

        served = service.scheduler.fairness_snapshot()
        out = {
            metric_key("service.scheduler.backlog", prefix): float(
                len(service.scheduler)
            ),
            metric_key("service.scheduler.fairness_jain", prefix): jain_index(
                list(served.values())
            ),
        }
        for tenant, cost in served.items():
            out[metric_key(f"service.scheduler.served_cost.{tenant}", prefix)] = (
                float(cost)
            )
        return out

    registry.register_collector(collect_scheduler)

    def collect_sessions() -> Dict[str, float]:
        from repro.quantum.kernels import PROGRAM_CACHE

        return {
            metric_key("sessions.open", prefix): float(
                service.sessions.open_sessions
            ),
            metric_key("sessions.pinned_programs", prefix): float(
                PROGRAM_CACHE.pinned
            ),
        }

    registry.register_collector(collect_sessions)
