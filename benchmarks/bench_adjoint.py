"""Adjoint-gradient benchmark: one reverse-mode pass vs 2P+1 shifts.

Measures the optimizer-step cost the adjoint engine exists to shrink.
For each parameter count P the same 12-qubit ansatz runs one
gradient-descent trajectory twice on the exact (``shots=0``)
statevector path:

* **shift** — ``GradientDescent(gradient="shift")``: every step probes
  ``2P + 1`` full circuit evaluations (the textbook parameter-shift
  rule, exact here because each parameter feeds one unit-coefficient
  rotation);
* **adjoint** — ``GradientDescent(gradient="adjoint")``: every step is
  one engine gradient call — a single forward pass plus a reverse
  sweep, ``O(3 * gates)`` state-sized work independent of P.

Before timing anything, the bench pins the numerical contract: at the
largest P the adjoint gradient must match the analytic parameter-shift
gradient entrywise to ``PARITY_TOL``.  Gates: every repeated adjoint
trajectory at the largest P produces a bit-identical energy history;
the speedup-vs-P curve is monotone non-decreasing — the whole point is
that adjoint cost does not scale with P; and the adjoint step is at
least ``MIN_SPEEDUP_SMOKE``x the shift step at the largest P in smoke
runs, ``MIN_SPEEDUP_FULL``x in full runs.

Usage::

    python benchmarks/bench_adjoint.py            # full run, writes BENCH_adjoint.json
    python benchmarks/bench_adjoint.py --smoke    # quick CI gate
"""

from __future__ import annotations

import math
from typing import Dict, List

import numpy as np

import harness
from harness import Gate

from repro import EvaluationEngine, HybridRunner, QtenonSystem
from repro.quantum import QuantumCircuit, compile_circuit, parameter_vector
from repro.quantum.adjoint import adjoint_gradient
from repro.quantum.parameters import Parameter
from repro.vqa.hamiltonians import molecular_hamiltonian
from repro.vqa.optimizers import GradientDescent

#: Absolute per-step floors: adjoint must beat parameter shift by this
#: factor at the largest parameter count (theory predicts ~(2P+1)/3).
MIN_SPEEDUP_FULL = 5.0
MIN_SPEEDUP_SMOKE = 3.0

#: Entrywise adjoint-vs-shift gradient agreement (both analytic).
PARITY_TOL = 1e-10

#: Parameter-count sweep (largest one is the headline 60-param config).
PARAM_SWEEP = (8, 16, 32, 60)

#: ``inner`` trajectories per timed run: an adjoint step lasts only
#: 8-25 ms, so its regions repeat it to a few tenths of a second.
FULL = dict(qubits=12, iterations=3, rounds=3, inner={"shift": 1, "adjoint": 10})
SMOKE = dict(qubits=12, iterations=1, rounds=3, inner={"shift": 2, "adjoint": 20})

SEED = 7


def _ansatz(qubits: int, n_params: int):
    """P-parameter ladder ansatz: RY layers (one parameter per gate,
    unit coefficient — so the pi/2 shift rule is exact per slot)
    interleaved with CZ entangler ladders."""
    circuit = QuantumCircuit(qubits)
    parameters: List[Parameter] = list(parameter_vector("t", n_params))
    for index, parameter in enumerate(parameters):
        circuit.ry(parameter, index % qubits)
        if index % qubits == qubits - 1:
            for q in range(qubits - 1):
                circuit.cz(q, q + 1)
    return circuit, parameters


def _run_gd(clock, gradient: str, n_params: int, config: Dict[str, int]) -> List[float]:
    """One exact-path GD trajectory; returns its energy history."""
    ansatz, parameters = _ansatz(config["qubits"], n_params)
    observable = molecular_hamiltonian(config["qubits"], seed=0)
    engine = EvaluationEngine(
        QtenonSystem(config["qubits"], seed=SEED), max_workers=1, seed=SEED
    )
    try:
        runner = HybridRunner(
            engine,
            ansatz,
            parameters,
            observable,
            GradientDescent(gradient=gradient),
            shots=0,
            iterations=config["iterations"],
        )
        with clock:
            result = runner.run(seed=SEED)
    finally:
        engine.close()
    return list(result.cost_history)


def _check_gradient_parity(n_params: int, config: Dict[str, int]) -> float:
    """Max |adjoint - analytic shift| over every slot at a random point."""
    ansatz, parameters = _ansatz(config["qubits"], n_params)
    observable = molecular_hamiltonian(config["qubits"], seed=0)
    program = compile_circuit(ansatz, parameters)
    rng = np.random.default_rng(SEED)
    vector = rng.uniform(-math.pi, math.pi, size=n_params)

    def energy_at(point: np.ndarray) -> float:
        state = program.execute(point)
        return float(observable.expectation_statevector(state))

    _energy, grad = adjoint_gradient(program, observable, vector)
    worst = 0.0
    for slot in range(n_params):
        plus, minus = np.array(vector), np.array(vector)
        plus[slot] += math.pi / 2
        minus[slot] -= math.pi / 2
        shift = 0.5 * (energy_at(plus) - energy_at(minus))
        worst = max(worst, abs(float(grad[slot]) - shift))
    return worst


def run_bench(config: Dict[str, int]) -> Dict[str, object]:
    headline = PARAM_SWEEP[-1]
    parity_err = _check_gradient_parity(headline, config)
    if parity_err > PARITY_TOL:
        raise AssertionError(
            f"adjoint vs parameter-shift gradients diverge: "
            f"max |delta| = {parity_err:.3e} > {PARITY_TOL:.0e}"
        )

    steps = config["iterations"]
    sweep = []
    for n_params in PARAM_SWEEP:
        timed = harness.best_of(
            {
                gradient: (lambda clock, g=gradient: _run_gd(clock, g, n_params, config))
                for gradient in ("shift", "adjoint")
            },
            config["rounds"],
            config["inner"],
        )
        shift_ms, adjoint_ms = (
            1_000.0 * timed[g].seconds / steps for g in ("shift", "adjoint")
        )
        sweep.append(
            {
                "params": n_params,
                "shift_ms_per_step": shift_ms,
                "adjoint_ms_per_step": adjoint_ms,
                "shift_evaluations": (2 * n_params + 1) * steps,
                "adjoint_evaluations": steps,
                "speedup": shift_ms / adjoint_ms,
            }
        )
    histories = timed["adjoint"].outputs  # every run at the headline P
    speedups = [point["speedup"] for point in sweep]
    return {
        "config": config,
        "gradient_parity": True,
        "gradient_parity_max_err": parity_err,
        "identical_histories": all(h == histories[0] for h in histories),
        "sweep": sweep,
        "headline": {
            "params": headline,
            "speedup": sweep[-1]["speedup"],
            "monotone_speedup": all(b >= a for a, b in zip(speedups, speedups[1:])),
        },
    }


def gates(host, smoke: bool) -> List[Gate]:
    return [
        Gate("headline.speedup", ">=", MIN_SPEEDUP_SMOKE if smoke else MIN_SPEEDUP_FULL),
        Gate("headline.monotone_speedup", "==", True),
        Gate("identical_histories", "==", True),
    ]


def _print_report(mode: str, result: Dict[str, object]) -> None:
    config = result["config"]
    print(
        f"[bench_adjoint/{mode}] {config['qubits']}-qubit GD on the exact "
        f"statevector path, {config['iterations']} iteration(s) per point"
    )
    print(
        f"  gradient parity (adjoint vs analytic shift, P={PARAM_SWEEP[-1]}): "
        f"max err {result['gradient_parity_max_err']:.2e} <= {PARITY_TOL:.0e}"
    )
    for point in result["sweep"]:
        print(
            f"  P={point['params']:>3}: shift {point['shift_ms_per_step']:8.2f} "
            f"ms/step ({point['shift_evaluations']} evals) | adjoint "
            f"{point['adjoint_ms_per_step']:6.2f} ms/step "
            f"({point['adjoint_evaluations']} sweeps) | "
            f"{point['speedup']:.2f}x"
        )
    print(
        "  repeated adjoint histories bit-identical: "
        f"{result['identical_histories']}"
    )


if __name__ == "__main__":
    raise SystemExit(harness.main(__file__, run_bench, _print_report, gates, FULL, SMOKE))
