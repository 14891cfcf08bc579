"""Telemetry-overhead benchmark: the observability layer must be ~free.

The unified telemetry layer (repro.telemetry) publishes the runtime's
StatGroup silos *pull-style* — collectors read live objects only when
an export is taken — and the sim-time tracer records one span per
evaluation batch.  The claim this bench gates is that turning all of
it on costs **under 5% wall-clock** on the bench_runtime workload
(16-parameter GD VQE sweep, statevector backend).

Two sections:

* **overhead** — the same seeded sweep with telemetry off vs on
  (registry + engine collectors + tracer + an export at the end),
  min-of-``repeats`` timings; gate: ``overhead_ratio <= 1.05``.  The
  plain and instrumented runs alternate (ABBA order), so drift in a
  shared host's load hits both sides alike, and each timed region
  lasts about a second (one full sweep, or 20 smoke sweeps), long
  enough that scheduler noise stays a small share of it.
* **determinism** — two identical seeded service runs under a step
  clock must export byte-identical Prometheus text, merged Chrome
  trace and JSONL event log; gate: all three identical.

Usage::

    python benchmarks/bench_telemetry.py            # full run, writes BENCH_telemetry.json
    python benchmarks/bench_telemetry.py --smoke    # quick CI gate
"""

from __future__ import annotations

from typing import Dict, List

import harness
from harness import Gate

from repro import EvaluationEngine, HybridRunner, QtenonSystem
from repro.service.api import ServiceAPI
from repro.service.jobs import JobSpec
from repro.service.service import JobService, ServiceConfig
from repro.telemetry import (
    EventLog,
    MetricsRegistry,
    StepClock,
    Tracer,
    make_trace_id,
    parse_prometheus_text,
    to_prometheus_text,
)
from repro.vqa import make_optimizer
from repro.vqa.ansatz import hardware_efficient_ansatz
from repro.vqa.hamiltonians import molecular_hamiltonian

#: Telemetry may cost at most 5% wall-clock on the runtime workload.
MAX_OVERHEAD_RATIO = 1.05

#: ``inner`` sweeps per timed run: a smoke sweep lasts ~0.05 s, so 20
#: of them make a region of about a second, as one full sweep is.  The
#: smoke run takes 15 ABBA rounds: a shared host's slow spells last
#: several seconds, and with 5 rounds one side sometimes never saw a
#: quiet one (readings from -19.5% to +7.3% with nothing changed).
FULL = dict(qubits=8, shots=20_000, iterations=6, repeats=7, inner=1, service_jobs=4)
SMOKE = dict(qubits=8, shots=4_000, iterations=1, repeats=15, inner=20, service_jobs=4)

SEED = 7


def _workload():
    ansatz, parameters = hardware_efficient_ansatz(8, n_layers=1, rotations=("ry",))
    observable = molecular_hamiltonian(8, seed=0)
    return ansatz, parameters, observable


def _sweep(clock, config: Dict[str, int], telemetry: bool) -> List[float]:
    """One seeded GD sweep; returns its cost history.

    With ``telemetry`` on, the engine publishes into a registry
    (pull collectors), records evaluation spans into a tracer, and the
    run ends with a full Prometheus export — the complete instrumented
    path a service job pays.
    """
    ansatz, parameters, observable = _workload()
    platform = QtenonSystem(config["qubits"], seed=SEED)
    engine = EvaluationEngine(platform, max_workers=1, seed=SEED)
    registry = None
    if telemetry:
        registry = MetricsRegistry()
        engine.attach_telemetry(registry)
        engine.tracer = Tracer(make_trace_id("bench"))
    runner = HybridRunner(
        engine,
        ansatz,
        parameters,
        observable,
        make_optimizer("gd"),
        shots=config["shots"],
        iterations=config["iterations"],
    )
    with clock:
        result = runner.run(seed=SEED)
        if registry is not None:
            parse_prometheus_text(to_prometheus_text(registry))
    engine.close()
    return result.cost_history


def _service_exports(config: Dict[str, int]) -> Dict[str, str]:
    """One deterministic seeded service run; returns its export bytes."""
    registry = MetricsRegistry()
    events = EventLog(sample_every=2)
    service = JobService(
        ServiceConfig(workers=1, sim_trace=True, timing_only=True),
        clock=StepClock(),
        telemetry=registry,
        events=events,
    )
    api = ServiceAPI(service=service)
    submissions = [
        (
            f"tenant{index % 2}",
            JobSpec(
                workload="qaoa",
                n_qubits=config["qubits"],
                shots=config["shots"],
                iterations=config["iterations"],
                seed=SEED + index // 2,
            ),
        )
        for index in range(config["service_jobs"])
    ]
    batch = api.run_batch(submissions)
    if batch.accepted != config["service_jobs"]:
        raise AssertionError(f"expected all jobs accepted, got {batch.accepted}")
    return {
        "prometheus": to_prometheus_text(registry),
        "trace": service.merged_chrome_trace(),
        "events": events.to_jsonl(),
    }


def run_bench(config: Dict[str, int]) -> Dict[str, object]:
    timed = harness.best_of(
        {
            "plain": lambda clock: _sweep(clock, config, telemetry=False),
            "telemetry": lambda clock: _sweep(clock, config, telemetry=True),
        },
        config["repeats"],
        config["inner"],
    )
    histories = {tuple(h) for run in timed.values() for h in run.outputs}
    if len(histories) != 1:
        raise AssertionError(
            "seeded sweeps diverged (telemetry changed the computation "
            "or a repeat was not reproducible)"
        )
    plain_s, telemetry_s = timed["plain"].seconds, timed["telemetry"].seconds

    first = _service_exports(config)
    second = _service_exports(config)
    determinism = {
        "prometheus_identical": first["prometheus"] == second["prometheus"],
        "trace_identical": first["trace"] == second["trace"],
        "events_identical": first["events"] == second["events"],
    }
    return {
        "config": {**config, "seed": SEED},
        "overhead": {
            "plain_s": plain_s,
            "telemetry_s": telemetry_s,
            "overhead_ratio": telemetry_s / plain_s,
        },
        "determinism": determinism,
    }


def gates(host, smoke: bool) -> List[Gate]:
    return [Gate("overhead.overhead_ratio", "<=", MAX_OVERHEAD_RATIO)] + [
        Gate(f"determinism.{name}", "==", True)
        for name in ("prometheus_identical", "trace_identical", "events_identical")
    ]


def _print_report(mode: str, result: Dict[str, object]) -> None:
    overhead = result["overhead"]
    determinism = result["determinism"]
    print(f"[bench_telemetry/{mode}] 16-param GD VQE sweep, statevector backend")
    print(
        f"  plain {overhead['plain_s']:.3f}s | telemetry "
        f"{overhead['telemetry_s']:.3f}s | overhead "
        f"{(overhead['overhead_ratio'] - 1.0) * 100.0:+.2f}% "
        f"(gate < {(MAX_OVERHEAD_RATIO - 1.0) * 100.0:.0f}%)"
    )
    print(
        "  seeded exports byte-identical: prometheus="
        f"{determinism['prometheus_identical']} "
        f"trace={determinism['trace_identical']} "
        f"events={determinism['events_identical']}"
    )


if __name__ == "__main__":
    raise SystemExit(harness.main(__file__, run_bench, _print_report, gates, FULL, SMOKE))
