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
  out; only wins on multicore hosts — the artifact's host qualifies
  the number);
* **runtime** — 4 workers + the content-addressed ``EvalCache``
  across repeated trajectories (the Karalekas-style reuse; wins
  even on one core).

Two more scenarios: a fixed parameter batch replayed to measure the
steady-state cache hit rate, and a cross-probe comparison of the
batched replay (one ``evaluate_spec_batch`` call over all probes)
against a per-probe loop of K=1 calls — the batched path must win even
serially.

The ratio gates are constant floors, portable across machines.  The
parallel-speedup gate is judged against the measured host: skipped
below 2 usable CPUs (a 1-core number is meaningless), >1.2x on 2-3
and >2x on 4 or more.

Usage::

    python benchmarks/bench_runtime.py            # full run, writes BENCH_runtime.json
    python benchmarks/bench_runtime.py --smoke    # quick gate run
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

import harness
from harness import Gate

from repro import EvalCache, EvaluationEngine, HybridRunner, QtenonSystem
from repro.runtime import build_spec, evaluate_spec_batch
from repro.runtime.cache import evaluation_keys
from repro.vqa import make_optimizer
from repro.vqa.ansatz import hardware_efficient_ansatz
from repro.vqa.hamiltonians import molecular_hamiltonian

#: The smoke config keeps the FULL shot count: the per-evaluation
#: timing replay (~5 ms, shot-independent) is latency-hidden behind the
#: workers' functional computation, so the parallel speedup only
#: clears its floor once the functional work (shot-scaled) is the
#: larger of the two.  Smoke trims repeats, not shots; ``inner`` sweeps
#: per timed run bring each smoke region to about a second.
FULL = dict(qubits=8, shots=50_000, iterations=1, repeats=4, sweep_repeats=20,
            rounds=3, inner=1)
SMOKE = dict(qubits=8, shots=50_000, iterations=1, repeats=2, sweep_repeats=10,
             rounds=3, inner=2)

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


def _sweep(clock, max_workers: int, cached: bool, config) -> List[List[float]]:
    """``repeats`` identical GD trajectories on one engine (a fresh
    cache when ``cached``); returns their cost histories."""
    ansatz, parameters, observable = _workload()
    platform = QtenonSystem(config["qubits"], seed=SEED)
    cache = EvalCache(CACHE_ENTRIES) if cached else None
    engine = EvaluationEngine(platform, max_workers=max_workers, cache=cache, seed=SEED)
    histories: List[List[float]] = []
    with clock:
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
    engine.close()
    return histories


def _run_gd_sweep(config) -> Dict[str, object]:
    timed = harness.best_of(
        {
            "serial": lambda clock: _sweep(clock, 1, False, config),
            "parallel": lambda clock: _sweep(clock, WORKERS, False, config),
            "runtime": lambda clock: _sweep(clock, WORKERS, True, config),
        },
        config["rounds"],
        config["inner"],
    )
    histories = [h for run in timed.values() for h in run.outputs]
    if any(h != histories[0] for h in histories):
        raise AssertionError("parallel/cached cost histories diverge from serial")
    serial, parallel, runtime = (timed[k].seconds for k in ("serial", "parallel", "runtime"))
    return {
        "serial_s": serial,
        "parallel_s": parallel,
        "runtime_s": runtime,
        "parallel_speedup": serial / parallel,
        "speedup": serial / runtime,
        "identical_histories": True,
    }


def _run_repeated_sweep(config) -> Dict[str, float]:
    """Steady-state cache behaviour: one fixed batch replayed R times."""
    ansatz, parameters, observable = _workload()
    rng = np.random.default_rng(SEED)
    batch = [
        dict(zip(parameters, rng.uniform(-0.5, 0.5, size=len(parameters))))
        for _ in range(16)
    ]

    def replay(clock, cache: Optional[EvalCache]):
        platform = QtenonSystem(config["qubits"], seed=SEED)
        engine = EvaluationEngine(platform, max_workers=1, cache=cache, seed=SEED)
        engine.prepare(ansatz, observable)
        with clock:
            for _ in range(config["sweep_repeats"]):
                engine.evaluate_many(batch, config["shots"])
        engine.close()
        return cache

    timed = harness.best_of(
        {
            "serial": lambda clock: replay(clock, None),
            "cached": lambda clock: replay(clock, EvalCache(CACHE_ENTRIES)),
        },
        config["rounds"],
    )
    cache = timed["cached"].output
    return {
        "serial_s": timed["serial"].seconds,
        "cached_s": timed["cached"].seconds,
        "speedup": timed["serial"].seconds / timed["cached"].seconds,
        "hit_rate": cache.hit_rate,
        "hits": cache.hits,
        "misses": cache.misses,
    }


def _run_batched_replay(config) -> Dict[str, float]:
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

    def per_probe(clock):
        with clock:
            for _ in range(config["repeats"]):
                values = [
                    evaluate_spec_batch(spec, [vector], shots, [seed])[0]
                    for vector, seed in zip(vectors, seeds)
                ]
        return values

    def batched(clock):
        with clock:
            for _ in range(config["repeats"]):
                values = evaluate_spec_batch(spec, vectors, shots, seeds)
        return values

    timed = harness.best_of({"per_probe": per_probe, "batched": batched}, config["rounds"])
    if timed["batched"].output != timed["per_probe"].output:
        raise AssertionError("batched replay diverges from per-probe replay")
    return {
        "per_probe_s": timed["per_probe"].seconds,
        "batched_s": timed["batched"].seconds,
        "speedup": timed["per_probe"].seconds / timed["batched"].seconds,
        "identical_values": True,
    }


def run_bench(config) -> Dict[str, object]:
    return {
        "config": {**config, "workers": WORKERS, "cache_entries": CACHE_ENTRIES,
                   "params": 16},
        "gd_sweep": _run_gd_sweep(config),
        "repeated_sweep": _run_repeated_sweep(config),
        "batched_replay": _run_batched_replay(config),
    }


def gates(host, smoke: bool) -> List[Gate]:
    cores = host["usable_cpus"]
    if cores < 2:
        parallel = Gate("gd_sweep.parallel_speedup", ">", 1.2,
                        skipped=f"{cores} usable CPU: a {WORKERS}-worker speedup "
                                "is not measurable")
    else:
        parallel = Gate("gd_sweep.parallel_speedup", ">", 2.0 if cores >= WORKERS else 1.2)
    return [
        Gate("gd_sweep.speedup", ">=", 1.36),
        Gate("repeated_sweep.speedup", ">=", 4.0),
        Gate("repeated_sweep.hit_rate", ">=", 0.72),
        Gate("batched_replay.speedup", ">=", 1.04),
        parallel,
    ]


def _print_report(mode: str, result: Dict[str, object]) -> None:
    sweep = result["gd_sweep"]
    repeated = result["repeated_sweep"]
    batched = result["batched_replay"]
    print(f"[bench_runtime/{mode}] 16-param GD VQE sweep, statevector backend")
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


if __name__ == "__main__":
    raise SystemExit(harness.main(__file__, run_bench, _print_report, gates, FULL, SMOKE))
