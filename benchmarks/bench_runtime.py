"""Runtime-subsystem benchmark: serial vs parallel vs cached wall-clock.

Unlike the ``bench_fig*`` harnesses (which reproduce the paper's
*modelled* timings), this bench measures the reproduction's own
wall-clock — the quantity the ``repro.runtime`` subsystem exists to
shrink.  Three configurations run the same 16-parameter VQE
gradient-descent sweep (statevector backend) and must produce
bit-identical cost histories:

* **serial** — ``EvaluationEngine(max_workers=1)``, no cache (the
  batched ``execute_batch`` replay path);
* **parallel** — 4 persistent shared-memory workers, no cache (the
  qHiPSTER-style fix: workers forked once, float vectors in / floats
  out; only wins on multicore hosts — the recorded ``usable_cpus``
  qualifies the number);
* **runtime** — 4 workers + the content-addressed ``EvalCache``
  across repeated trajectories (the Karalekas-style reuse; wins
  even on one core).

Two more scenarios: a fixed parameter batch replayed to measure the
steady-state cache hit rate, and a cross-probe comparison of the
batched replay (one ``evaluate_spec_batch`` call over all probes)
against a per-probe loop of K=1 calls — the batched path must win even
serially.

Results persist to ``BENCH_runtime.json`` at the repo root so the
perf trajectory is tracked across PRs; ``--smoke`` re-measures a
reduced configuration and fails on a >20% regression of the recorded
speedup/hit-rate ratios (ratios, not absolute seconds, so the gate is
portable across machines).  The parallel-speedup gate is judged
against the *measured* host parallelism: it skips with an explicit
notice when fewer than 2 usable cores are visible (a 1-core number is
meaningless), expects >1.2x on 2-3 cores and >2x on 4 or more.

Usage::

    python benchmarks/bench_runtime.py            # full run, update JSON
    python benchmarks/bench_runtime.py --smoke    # quick regression gate
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional

import numpy as np

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro import EvalCache, EvaluationEngine, HybridRunner, QtenonSystem  # noqa: E402
from repro.runtime import build_spec, evaluate_spec_batch  # noqa: E402
from repro.runtime.cache import evaluation_keys  # noqa: E402
from repro.vqa import make_optimizer  # noqa: E402
from repro.vqa.ansatz import hardware_efficient_ansatz  # noqa: E402
from repro.vqa.hamiltonians import molecular_hamiltonian  # noqa: E402


def usable_cpus() -> int:
    """CPUs this process may actually run on.

    ``os.cpu_count()`` reports the machine, not the cgroup/affinity
    mask — the old bench recorded ``cpu_count: 1`` style nonsense next
    to a 4-worker measurement.  Affinity is the honest number."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-linux
        return os.cpu_count() or 1

RESULT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCH_runtime.json"
)

#: >20% regression against the recorded ratios fails the smoke gate.
REGRESSION_TOLERANCE = 0.20

#: Gate floors never exceed these acceptance-level targets.  The
#: repeated-sweep speedup in particular jitters run-to-run (its cached
#: path is a sub-second measurement), so gating at 80% of a lucky
#: recorded baseline would flake; capping keeps the gate at "still
#: clearly faster than serial" while a broken cache (~1x) still fails.
GATE_CAPS = {
    "gd_sweep.speedup": 1.7,
    "repeated_sweep.speedup": 5.0,
    "repeated_sweep.hit_rate": 1.0,
    "batched_replay.speedup": 1.3,
}

#: Parallel-speedup floors by usable-core count.  One visible core
#: makes the number meaningless (the gate skips with a notice); with
#: 2-3 cores perfect scaling is capped at 2-3x so the floor relaxes.
PARALLEL_FLOOR_MANY_CORES = 2.0
PARALLEL_FLOOR_FEW_CORES = 1.2

#: The smoke config keeps the FULL shot count: the per-evaluation
#: timing replay (~5 ms, shot-independent) is latency-hidden behind the
#: workers' functional computation, so the parallel speedup only
#: clears its 2x floor once the functional work (shot-scaled) is the
#: larger of the two.  Smoke trims repeats, not shots.
FULL = dict(qubits=8, shots=50_000, iterations=1, repeats=4, sweep_repeats=20)
SMOKE = dict(qubits=8, shots=50_000, iterations=1, repeats=2, sweep_repeats=10)

WORKERS = 4
CACHE_ENTRIES = 4096
SEED = 7

#: The batched-replay scenario isolates per-probe *replay* overhead,
#: which is shot-independent; at the sweep's 50k shots the sampling
#: work (identical on both paths) drowns the contrast and the ratio
#: gate would sit within noise of its floor.  Cap the scenario's shots
#: so the measured quantity is the one the gate protects.
REPLAY_SHOTS = 10_000


def _workload():
    """16-parameter VQE instance (8 qubits, RY layers + CZ ladder)."""
    ansatz, parameters = hardware_efficient_ansatz(8, n_layers=1, rotations=("ry",))
    observable = molecular_hamiltonian(8, seed=0)
    assert len(parameters) == 16
    return ansatz, parameters, observable


def _run_sweep(
    max_workers: int,
    cache: Optional[EvalCache],
    config: Dict[str, int],
) -> Dict[str, object]:
    """Run ``repeats`` identical GD trajectories; return time + history."""
    ansatz, parameters, observable = _workload()
    platform = QtenonSystem(config["qubits"], seed=SEED)
    engine = EvaluationEngine(
        platform, max_workers=max_workers, cache=cache, seed=SEED
    )
    histories: List[List[float]] = []
    start = time.perf_counter()
    for _ in range(config["repeats"]):
        runner = HybridRunner(
            engine,
            ansatz,
            parameters,
            observable,
            make_optimizer("gd"),
            shots=config["shots"],
            iterations=config["iterations"],
        )
        histories.append(runner.run(seed=SEED).cost_history)
    elapsed = time.perf_counter() - start
    engine.close()
    return {"seconds": elapsed, "histories": histories}


def _run_repeated_sweep(config: Dict[str, int]) -> Dict[str, float]:
    """Steady-state cache behaviour: one fixed batch replayed R times."""
    ansatz, parameters, observable = _workload()
    rng = np.random.default_rng(SEED)
    batch = [
        dict(zip(parameters, rng.uniform(-0.5, 0.5, size=len(parameters))))
        for _ in range(16)
    ]

    def timed(cache: Optional[EvalCache]) -> float:
        platform = QtenonSystem(config["qubits"], seed=SEED)
        engine = EvaluationEngine(platform, max_workers=1, cache=cache, seed=SEED)
        engine.prepare(ansatz, observable)
        start = time.perf_counter()
        for _ in range(config["sweep_repeats"]):
            engine.evaluate_many(batch, config["shots"])
        elapsed = time.perf_counter() - start
        engine.close()
        return elapsed

    serial_s = timed(None)
    cache = EvalCache(CACHE_ENTRIES)
    cached_s = timed(cache)
    return {
        "serial_s": serial_s,
        "cached_s": cached_s,
        "speedup": serial_s / cached_s if cached_s else float("inf"),
        "hit_rate": cache.hit_rate,
        "hits": cache.hits,
        "misses": cache.misses,
    }


def _run_batched_replay(config: Dict[str, int]) -> Dict[str, float]:
    """Cross-probe batching vs per-probe replay, same probes.

    One gradient step's 2P+1 probe batch, evaluated (a) probe by probe
    as K=1 ``evaluate_spec_batch`` calls — program re-traversed per
    probe — and
    (b) in one ``evaluate_spec_batch`` pass over the stacked ``(K,
    2**n)`` state array.  Values must match bit for bit; the batched
    pass must be faster even on one core.
    """
    ansatz, parameters, observable = _workload()
    spec = build_spec(ansatz, observable, parameters=parameters)
    shots = min(config["shots"], REPLAY_SHOTS)
    rng = np.random.default_rng(SEED)
    vectors = [
        rng.uniform(-0.5, 0.5, size=len(parameters))
        for _ in range(2 * len(parameters) + 1)
    ]
    seeds = [
        key.sampler_seed
        for key in evaluation_keys(
            spec.structure_hash, vectors, shots, SEED, spec.backend_id
        )
    ]

    rounds = config["repeats"]
    start = time.perf_counter()
    for _ in range(rounds):
        per_probe = [
            evaluate_spec_batch(spec, [vector], shots, [seed])[0]
            for vector, seed in zip(vectors, seeds)
        ]
    per_probe_s = time.perf_counter() - start

    start = time.perf_counter()
    for _ in range(rounds):
        batched = evaluate_spec_batch(spec, vectors, shots, seeds)
    batched_s = time.perf_counter() - start

    if batched != per_probe:
        raise AssertionError("batched replay diverges from per-probe replay")
    return {
        "per_probe_s": per_probe_s,
        "batched_s": batched_s,
        "speedup": per_probe_s / batched_s if batched_s else float("inf"),
        "identical_values": True,
    }


def run_bench(config: Dict[str, int]) -> Dict[str, object]:
    serial = _run_sweep(1, None, config)
    parallel = _run_sweep(WORKERS, None, config)
    runtime = _run_sweep(WORKERS, EvalCache(CACHE_ENTRIES), config)
    if not (serial["histories"] == parallel["histories"] == runtime["histories"]):
        raise AssertionError("parallel/cached cost histories diverge from serial")

    repeated = _run_repeated_sweep(config)
    batched = _run_batched_replay(config)
    return {
        "config": {
            **config,
            "workers": WORKERS,
            "cache_entries": CACHE_ENTRIES,
            "cpu_count": os.cpu_count(),
            "usable_cpus": usable_cpus(),
            "params": 16,
        },
        "gd_sweep": {
            "serial_s": serial["seconds"],
            "parallel_s": parallel["seconds"],
            "runtime_s": runtime["seconds"],
            "parallel_speedup": serial["seconds"] / parallel["seconds"],
            "speedup": serial["seconds"] / runtime["seconds"],
            "identical_histories": True,
        },
        "repeated_sweep": repeated,
        "batched_replay": batched,
    }


def _print_report(mode: str, result: Dict[str, object]) -> None:
    sweep = result["gd_sweep"]
    repeated = result["repeated_sweep"]
    batched = result["batched_replay"]
    cores = result["config"]["usable_cpus"]
    print(
        f"[bench_runtime/{mode}] 16-param GD VQE sweep, statevector "
        f"backend, {cores} usable core(s)"
    )
    print(
        f"  serial {sweep['serial_s']:.2f}s | parallel({WORKERS}w) "
        f"{sweep['parallel_s']:.2f}s ({sweep['parallel_speedup']:.2f}x) | "
        f"runtime(workers+cache) {sweep['runtime_s']:.2f}s "
        f"({sweep['speedup']:.2f}x)"
    )
    print(
        f"  repeated-parameter sweep: {repeated['speedup']:.2f}x, "
        f"hit rate {repeated['hit_rate']:.1%} "
        f"({repeated['hits']:.0f}/{repeated['hits'] + repeated['misses']:.0f})"
    )
    print(
        f"  batched replay vs per-probe: {batched['speedup']:.2f}x "
        f"({batched['per_probe_s']:.2f}s -> {batched['batched_s']:.2f}s)"
    )
    print(f"  cost histories bit-identical across all schedules: "
          f"{sweep['identical_histories']}")


def _load_recorded() -> Dict[str, object]:
    if not os.path.exists(RESULT_PATH):
        return {}
    with open(RESULT_PATH) as handle:
        return json.load(handle)


def _check_parallel_gate(current: Dict[str, object]) -> int:
    """Gate the parallel speedup against the *measured* host, not a
    baseline recorded on different hardware."""
    cores = current["config"]["usable_cpus"]
    sweep = current["gd_sweep"]
    if not sweep["identical_histories"]:
        print("parallel gate FAILED: schedules diverged (identical_histories false)")
        return 1
    if cores < 2:
        print(
            f"  parallel-speedup gate SKIPPED: only {cores} usable core(s) "
            f"visible (os.sched_getaffinity) — a {WORKERS}-worker speedup "
            f"is not measurable here"
        )
        return 0
    floor = (
        PARALLEL_FLOOR_MANY_CORES
        if cores >= WORKERS
        else PARALLEL_FLOOR_FEW_CORES
    )
    measured = sweep["parallel_speedup"]
    if cores < WORKERS:
        print(
            f"  parallel-speedup floor relaxed to {floor:.1f}x: "
            f"{cores} usable cores < {WORKERS} workers"
        )
    status = "ok" if measured > floor else "REGRESSION"
    print(
        f"  gd_sweep.parallel_speedup: {measured:.3f} "
        f"(floor {floor:.3f}, {cores} cores) {status}"
    )
    if measured <= floor:
        print("parallel gate FAILED: gd_sweep.parallel_speedup")
        return 1
    return 0


def _check_regression(recorded: Dict[str, object], current: Dict[str, object]) -> int:
    """Compare ratio metrics against the recorded baseline."""
    failures = []
    checks = [
        ("gd_sweep.speedup", recorded["gd_sweep"]["speedup"],
         current["gd_sweep"]["speedup"]),
        ("repeated_sweep.speedup", recorded["repeated_sweep"]["speedup"],
         current["repeated_sweep"]["speedup"]),
        ("repeated_sweep.hit_rate", recorded["repeated_sweep"]["hit_rate"],
         current["repeated_sweep"]["hit_rate"]),
        ("batched_replay.speedup",
         recorded.get("batched_replay", {}).get("speedup",
                                                current["batched_replay"]["speedup"]),
         current["batched_replay"]["speedup"]),
    ]
    for name, baseline, measured in checks:
        floor = min(baseline, GATE_CAPS[name]) * (1.0 - REGRESSION_TOLERANCE)
        status = "ok" if measured >= floor else "REGRESSION"
        print(f"  {name}: {measured:.3f} vs recorded {baseline:.3f} "
              f"(floor {floor:.3f}) {status}")
        if measured < floor:
            failures.append(name)
    if _check_parallel_gate(current):
        failures.append("gd_sweep.parallel_speedup")
    if failures:
        print(f"regression gate FAILED: {', '.join(failures)}")
        return 1
    print("regression gate passed")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced configuration + regression gate against BENCH_runtime.json",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="write the measured results into BENCH_runtime.json",
    )
    args = parser.parse_args(argv)

    mode = "smoke" if args.smoke else "full"
    result = run_bench(SMOKE if args.smoke else FULL)
    _print_report(mode, result)

    recorded = _load_recorded()
    if args.update or not args.smoke or mode not in recorded:
        # full runs (and first smoke runs) re-record the baseline;
        # subsequent --smoke runs only gate against it.  The
        # cores-aware parallel gate still judges the fresh numbers.
        recorded[mode] = result
        with open(RESULT_PATH, "w") as handle:
            json.dump(recorded, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"recorded -> {RESULT_PATH}")
        return _check_parallel_gate(result)
    return _check_regression(recorded[mode], result)


if __name__ == "__main__":
    raise SystemExit(main())
