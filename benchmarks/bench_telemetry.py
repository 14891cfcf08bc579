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
  shared host's load hits both sides alike, and a full-run sweep lasts
  about a second, long enough that scheduler noise stays a small share
  of it.
* **determinism** — two identical seeded service runs under a step
  clock must export byte-identical Prometheus text, merged Chrome
  trace and JSONL event log; gate: all three identical.

Results persist to ``BENCH_telemetry.json`` at the repo root.
``--smoke`` runs a reduced configuration and fails on a gate
violation (the gates are absolute, so smoke needs no recorded
baseline).

Usage::

    python benchmarks/bench_telemetry.py            # full run, update JSON
    python benchmarks/bench_telemetry.py --smoke    # quick CI gate
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from typing import Dict, List, Optional, Tuple

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro import EvaluationEngine, HybridRunner, QtenonSystem  # noqa: E402
from repro.service.api import ServiceAPI  # noqa: E402
from repro.service.jobs import JobSpec  # noqa: E402
from repro.service.service import JobService, ServiceConfig  # noqa: E402
from repro.telemetry import (  # noqa: E402
    EventLog,
    MetricsRegistry,
    StepClock,
    Tracer,
    make_trace_id,
    parse_prometheus_text,
    to_prometheus_text,
)
from repro.vqa import make_optimizer  # noqa: E402
from repro.vqa.ansatz import hardware_efficient_ansatz  # noqa: E402
from repro.vqa.hamiltonians import molecular_hamiltonian  # noqa: E402

RESULT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_telemetry.json",
)

#: Telemetry may cost at most 5% wall-clock on the runtime workload.
MAX_OVERHEAD_RATIO = 1.05

FULL = dict(qubits=8, shots=20_000, iterations=6, repeats=7, service_jobs=4)
SMOKE = dict(qubits=8, shots=4_000, iterations=1, repeats=3, service_jobs=4)

SEED = 7


def _workload():
    ansatz, parameters = hardware_efficient_ansatz(8, n_layers=1, rotations=("ry",))
    observable = molecular_hamiltonian(8, seed=0)
    return ansatz, parameters, observable


def _timed_sweep(config: Dict[str, int], telemetry: bool) -> Tuple[float, List[float]]:
    """One seeded GD sweep; returns its wall-clock and cost history.

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
    start = time.perf_counter()
    result = runner.run(seed=SEED)
    if registry is not None:
        parse_prometheus_text(to_prometheus_text(registry))
    elapsed = time.perf_counter() - start
    engine.close()
    return elapsed, result.cost_history


def _timed_sweeps(config: Dict[str, int]) -> Dict[str, float]:
    """Best-of-``repeats`` wall-clock of the plain and the instrumented
    sweep, run interleaved in ABBA order after one untimed warm-up."""
    _timed_sweep(config, telemetry=False)  # warm-up: imports, program cache
    best = {False: float("inf"), True: float("inf")}
    histories = set()
    for repeat in range(config["repeats"]):
        order = (False, True) if repeat % 2 == 0 else (True, False)
        for telemetry in order:
            gc.collect()  # no sweep pays for its predecessor's garbage
            elapsed, history = _timed_sweep(config, telemetry)
            best[telemetry] = min(best[telemetry], elapsed)
            histories.add(tuple(history))
    if len(histories) != 1:
        raise AssertionError(
            "seeded sweeps diverged (telemetry changed the computation "
            "or a repeat was not reproducible)"
        )
    return {"plain_s": best[False], "telemetry_s": best[True]}


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
    timings = _timed_sweeps(config)
    overhead = (
        timings["telemetry_s"] / timings["plain_s"]
        if timings["plain_s"]
        else float("inf")
    )

    first = _service_exports(config)
    second = _service_exports(config)
    determinism = {
        "prometheus_identical": first["prometheus"] == second["prometheus"],
        "trace_identical": first["trace"] == second["trace"],
        "events_identical": first["events"] == second["events"],
    }
    return {
        "config": {
            **config,
            "usable_cpus": len(os.sched_getaffinity(0)),
            "seed": SEED,
        },
        "overhead": {
            **timings,
            "overhead_ratio": overhead,
            "max_ratio": MAX_OVERHEAD_RATIO,
        },
        "determinism": determinism,
    }


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


def _check_gates(result: Dict[str, object]) -> int:
    failures = []
    if result["overhead"]["overhead_ratio"] > MAX_OVERHEAD_RATIO:
        failures.append(
            f"overhead_ratio {result['overhead']['overhead_ratio']:.3f} "
            f"> {MAX_OVERHEAD_RATIO}"
        )
    for name, identical in result["determinism"].items():
        if not identical:
            failures.append(f"determinism.{name}")
    if failures:
        print(f"telemetry gate FAILED: {', '.join(failures)}")
        return 1
    print("telemetry gate passed")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced configuration (gates are absolute — no baseline needed)",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="write the measured results into BENCH_telemetry.json",
    )
    args = parser.parse_args(argv)

    mode = "smoke" if args.smoke else "full"
    result = run_bench(SMOKE if args.smoke else FULL)
    _print_report(mode, result)

    status = _check_gates(result)
    if status == 0 and (args.update or not args.smoke):
        recorded = {}
        if os.path.exists(RESULT_PATH):
            with open(RESULT_PATH) as handle:
                recorded = json.load(handle)
        recorded[mode] = result
        with open(RESULT_PATH, "w") as handle:
            json.dump(recorded, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"recorded -> {RESULT_PATH}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
