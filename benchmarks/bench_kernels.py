"""Kernel-layer benchmark: vectorized gate kernels + replay cache.

Measures the reproduction's own evaluation hot path — the quantity the
``repro.quantum.kernels`` module exists to shrink.  Two engines run the
same 12-qubit, 60-parameter VQE gradient-descent loop on the
statevector backend:

* **reference** — the same engine with its functional batch swapped
  for :func:`_reference_batch`, a frozen copy of the pre-kernel
  evaluation path kept here only as this bench's baseline: every probe
  re-binds the group circuits and simulates them by per-gate
  ``tensordot`` contraction;
* **kernel** — the default path: circuit structures compiled once into
  replay programs (slot-resolved parameters, fused single-qubit runs,
  memoized fixed matrices), probes replayed through the in-place
  bit-sliced gate kernels.

The two must produce **bit-identical** energy histories (same
content-derived sampler seeds, value-identical evaluations); the bench
asserts that before reporting any number.  A second scenario times
program compilation against replay to expose the §6.1-style split the
cache exploits: structure work once, parameter work per probe.

Results persist to ``BENCH_kernels.json`` at the repo root;
``--smoke`` runs a reduced configuration and fails unless the kernel
path is at least ``MIN_SPEEDUP``x the reference path (an absolute
floor, portable across machines) with identical histories.

Usage::

    python benchmarks/bench_kernels.py            # full run, update JSON
    python benchmarks/bench_kernels.py --smoke    # quick CI gate
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

from repro import EvaluationEngine, HybridRunner, QtenonSystem  # noqa: E402
from repro.quantum.circuit import QuantumCircuit  # noqa: E402
from repro.quantum.kernels import KERNEL_STATS, PROGRAM_CACHE, compile_circuit  # noqa: E402
from repro.quantum.statevector import Statevector  # noqa: E402
from repro.runtime import engine as engine_module  # noqa: E402
from repro.vqa import make_optimizer  # noqa: E402
from repro.vqa.ansatz import hardware_efficient_ansatz  # noqa: E402
from repro.vqa.hamiltonians import molecular_hamiltonian  # noqa: E402

RESULT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCH_kernels.json"
)

#: The smoke gate's absolute floor: kernels must beat the reference
#: tensor-contraction path by at least this factor end to end.
MIN_SPEEDUP = 2.0

FULL = dict(qubits=12, shots=1_000, iterations=3, replay_rounds=200)
SMOKE = dict(qubits=12, shots=1_000, iterations=1, replay_rounds=50)

SEED = 7


def _workload(qubits: int):
    """60-parameter VQE instance (12 qubits, RY/RZ layers + CZ ladder)."""
    ansatz, parameters = hardware_efficient_ansatz(qubits, n_layers=2)
    observable = molecular_hamiltonian(qubits, seed=0)
    return ansatz, parameters, observable


def _tensordot_state(circuit: QuantumCircuit) -> Statevector:
    """Frozen baseline simulator: contract each gate over its axes.

    The state is viewed as a tensor with axis 0 = qubit ``n-1`` ...
    axis ``n-1`` = qubit 0 (C-order reshape of the little-endian
    vector), so a gate on qubit ``q`` acts on axis ``n - 1 - q``.
    """
    n = circuit.n_qubits
    amplitudes = np.zeros(1 << n, dtype=complex)
    amplitudes[0] = 1.0
    for op in circuit.operations:
        if op.is_measurement:
            continue
        matrix = op.spec.matrix(*(float(p) for p in op.params))
        k = len(op.qubits)
        axes = [n - 1 - q for q in op.qubits]
        gate = matrix.reshape((2,) * (2 * k))
        moved = np.tensordot(
            gate, amplitudes.reshape((2,) * n), axes=(list(range(k, 2 * k)), axes)
        )
        tensor = np.moveaxis(moved, list(range(k)), axes)
        amplitudes = np.ascontiguousarray(tensor).reshape(-1)
    return Statevector(amplitudes, n)


def _reference_batch(spec, vectors, shots, seeds) -> List[float]:
    """Frozen baseline for ``evaluate_spec_batch`` (sampled rows only).

    Per probe: bind every group circuit, simulate it with
    :func:`_tensordot_state`, then sample from the probe's own
    ``default_rng(seed)`` (shot draw, then readout corruption) — the
    draw order of the production path, so histories can be compared
    bit for bit.
    """
    out = []
    for vector, seed in zip(vectors, seeds):
        rng = np.random.default_rng(seed)
        values = {p: float(v) for p, v in zip(spec.parameters, vector)}
        value = spec.constant
        for group, circuit in zip(spec.groups, spec.group_circuits):
            bound = circuit.bind(values)
            measured = bound.measured_qubits() or list(range(bound.n_qubits))
            counts = _tensordot_state(bound).sample_counts(shots, rng, qubits=measured)
            noise = spec.readout_noise
            if noise is not None and not noise.is_ideal:
                counts = noise.apply_to_counts(counts, len(set(measured)), rng)
            if group.members:
                value += group.expectation_from_counts(counts)
        out.append(float(value))
    return out


def _run_vqe(reference: bool, config: Dict[str, int]) -> Dict[str, object]:
    """One GD trajectory; returns wall-clock + the energy history.

    ``reference=True`` swaps the engine's functional batch for the
    frozen :func:`_reference_batch` for the duration of the run.
    """
    ansatz, parameters, observable = _workload(config["qubits"])
    platform = QtenonSystem(config["qubits"], seed=SEED)
    engine = EvaluationEngine(platform, max_workers=1, seed=SEED)
    runner = HybridRunner(
        engine,
        ansatz,
        parameters,
        observable,
        make_optimizer("gd"),
        shots=config["shots"],
        iterations=config["iterations"],
    )
    production = engine_module.evaluate_spec_batch
    if reference:
        engine_module.evaluate_spec_batch = _reference_batch
    try:
        start = time.perf_counter()
        result = runner.run(seed=SEED)
        elapsed = time.perf_counter() - start
    finally:
        engine_module.evaluate_spec_batch = production
        engine.close()
    evals = (2 * len(parameters) + 1) * config["iterations"]
    return {
        "seconds": elapsed,
        "history": result.cost_history,
        "evaluations": evals,
        "ms_per_eval": 1_000.0 * elapsed / evals,
    }


def _run_replay(config: Dict[str, int]) -> Dict[str, float]:
    """Structure-once vs per-probe cost, across the three regimes:
    recompile every probe, content-addressed cache lookup per probe
    (pays the structure hash), and direct program replay (what the
    engine's spec does — the hash amortised over the whole run)."""
    ansatz, parameters, _ = _workload(config["qubits"])
    rng = np.random.default_rng(SEED)
    vectors = [
        rng.uniform(-0.5, 0.5, size=len(parameters))
        for _ in range(config["replay_rounds"])
    ]

    start = time.perf_counter()
    for vector in vectors:
        compile_circuit(ansatz, parameters).execute(vector)
    recompile_s = time.perf_counter() - start

    # Content-addressed lookups go through the process-wide
    # PROGRAM_CACHE — the same cache the engine replays through — so
    # the run's `program_cache_hits` counter reflects this scenario.
    # Hit rate comes from the cache's own stats deltas (the cache may
    # already hold this structure from the VQE scenario).
    cache_before = PROGRAM_CACHE.stats.as_dict()
    start = time.perf_counter()
    for vector in vectors:
        PROGRAM_CACHE.get_or_compile(ansatz, parameters).execute(vector)
    cached_s = time.perf_counter() - start
    cache_after = PROGRAM_CACHE.stats.as_dict()
    hits = cache_after["replay_cache.hits"] - cache_before.get(
        "replay_cache.hits", 0
    )
    misses = cache_after["replay_cache.misses"] - cache_before.get(
        "replay_cache.misses", 0
    )

    program = PROGRAM_CACHE.get_or_compile(ansatz, parameters)
    start = time.perf_counter()
    for vector in vectors:
        program.execute(vector)
    replay_s = time.perf_counter() - start

    return {
        "rounds": float(config["replay_rounds"]),
        "recompile_s": recompile_s,
        "cached_s": cached_s,
        "replay_s": replay_s,
        "cached_speedup": recompile_s / cached_s if cached_s else float("inf"),
        "replay_speedup": recompile_s / replay_s if replay_s else float("inf"),
        "cache_hit_rate": hits / max(1, hits + misses),
        "source_gates": float(program.source_gates),
        "program_nodes": float(program.n_nodes),
    }


def run_bench(config: Dict[str, int]) -> Dict[str, object]:
    # The counter window spans BOTH kernel-path scenarios (the VQE loop
    # and the replay study) — the replay scenario is what exercises the
    # process-wide program cache's hit path, so a window around the VQE
    # run alone under-reports `program_cache_hits` as 0.
    before = KERNEL_STATS.as_dict()
    kernel = _run_vqe(False, config)
    replay = _run_replay(config)
    after = KERNEL_STATS.as_dict()
    reference = _run_vqe(True, config)

    if kernel["history"] != reference["history"]:
        raise AssertionError(
            "kernel and reference energy histories diverge:\n"
            f"  kernel    {kernel['history']}\n"
            f"  reference {reference['history']}"
        )

    counters = {
        key.split(".", 1)[1]: after[key] - before.get(key, 0)
        for key in after
    }
    if not counters.get("program_cache_hits", 0) > 0:
        raise AssertionError(
            "program cache never hit during the bench window: "
            f"counters={counters}"
        )
    return {
        "config": {
            **config,
            "params": 60,
            "usable_cpus": len(os.sched_getaffinity(0)),
            "numpy": np.__version__,
        },
        "vqe": {
            "reference_s": reference["seconds"],
            "kernel_s": kernel["seconds"],
            "speedup": reference["seconds"] / kernel["seconds"],
            "reference_ms_per_eval": reference["ms_per_eval"],
            "kernel_ms_per_eval": kernel["ms_per_eval"],
            "evaluations": kernel["evaluations"],
            "identical_histories": True,
        },
        "kernel_counters": counters,
        "replay": replay,
    }


def _print_report(mode: str, result: Dict[str, object]) -> None:
    vqe = result["vqe"]
    replay = result["replay"]
    counters = result["kernel_counters"]
    config = result["config"]
    print(
        f"[bench_kernels/{mode}] {config['qubits']}-qubit, "
        f"{config['params']}-param GD VQE, statevector backend"
    )
    print(
        f"  reference {vqe['reference_s']:.2f}s "
        f"({vqe['reference_ms_per_eval']:.2f} ms/eval) | "
        f"kernel {vqe['kernel_s']:.2f}s "
        f"({vqe['kernel_ms_per_eval']:.2f} ms/eval) | "
        f"{vqe['speedup']:.2f}x over {vqe['evaluations']} evaluations"
    )
    applied = counters.get("gates_applied", 0)
    fused = counters.get("gates_fused", 0)
    print(
        f"  kernel counters: {applied:.0f} applies "
        f"({fused:.0f} gates fused away, "
        f"{counters.get('diag_fast_applies', 0):.0f} diagonal fast-path), "
        f"{counters.get('replays', 0):.0f} replays / "
        f"{counters.get('programs_compiled', 0):.0f} compiles"
    )
    print(
        f"  per-probe vs recompile-every-probe: replay "
        f"{replay['replay_speedup']:.2f}x, content-addressed cache "
        f"{replay['cached_speedup']:.2f}x over {replay['rounds']:.0f} "
        f"rounds ({replay['source_gates']:.0f} gates -> "
        f"{replay['program_nodes']:.0f} program nodes)"
    )
    print(
        f"  energy histories bit-identical to reference: "
        f"{vqe['identical_histories']}"
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help=f"reduced configuration; fail below {MIN_SPEEDUP}x speedup",
    )
    args = parser.parse_args(argv)

    mode = "smoke" if args.smoke else "full"
    result = run_bench(SMOKE if args.smoke else FULL)
    _print_report(mode, result)

    if args.smoke:
        speedup = result["vqe"]["speedup"]
        if speedup < MIN_SPEEDUP:
            print(
                f"kernel gate FAILED: {speedup:.2f}x < {MIN_SPEEDUP}x "
                "required over the reference path"
            )
            return 1
        print(f"kernel gate passed ({speedup:.2f}x >= {MIN_SPEEDUP}x)")
        return 0

    recorded: Dict[str, object] = {}
    if os.path.exists(RESULT_PATH):
        with open(RESULT_PATH) as handle:
            recorded = json.load(handle)
    recorded[mode] = result
    with open(RESULT_PATH, "w") as handle:
        json.dump(recorded, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"recorded -> {RESULT_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
