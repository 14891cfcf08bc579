"""Planner + stabilizer benchmark: exact wide-Clifford execution.

Measures what the execution planner (:mod:`repro.planner`) and the
stabilizer tableau (:mod:`repro.quantum.stabilizer`) buy the
reproduction — the paper's 64-320 qubit circuit widths running
*exactly* instead of through the mean-field product-state
approximation — and gates the three claims the design rests on:

* **exactness** — the GHZ witness ``sum_i Z_i Z_{i+1}`` evaluates to
  exactly ``n - 1`` at every width and every sampler seed (a GHZ
  state has zero shot noise on that observable, so any deviation is a
  simulation bug, not statistics);
* **planning is free** — the census + decision run *once* per job
  (inside ``build_spec``), so their cost is gated against a modest
  ``JOB_EVALS``-evaluation job (far below what any real VQA loop
  runs), and must stay under ``MAX_OVERHEAD_FRACTION`` of it;
* **planned == forced** — the planner routing a small Clifford job and
  the same job with the backend forced (stabilizer *or* statevector)
  produce bit-identical energy histories under shared seeds, the
  invariant that keeps cache keys and replayable runs stable.

Usage::

    python benchmarks/bench_planner.py            # full run, writes BENCH_planner.json
    python benchmarks/bench_planner.py --smoke    # quick CI gate
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

import harness
from harness import Gate

from repro.planner import DEFAULT_PLANNER
from repro.quantum.kernels import gate_census
from repro.quantum.stabilizer import STABILIZER_STATS
from repro.runtime.engine import build_spec, evaluate_spec_batch
from repro.vqa import ghz_circuit, ghz_observable

#: The gate: planning one job must cost less than this fraction
#: of running it (spec build + ``JOB_EVALS`` evaluations).
MAX_OVERHEAD_FRACTION = 0.01

#: Evaluations in the nominal gating job — a 10-iteration SPSA loop
#: (2 probes per iteration); every bench in this repo runs far more.
JOB_EVALS = 20

FULL = dict(
    widths=[64, 128, 256],
    rounds=20,
    shots=500,
    parity_qubits=8,
    parity_rounds=20,
    overhead_rounds=200,
    timer_rounds=3,
)
SMOKE = dict(
    widths=[64],
    rounds=5,
    shots=200,
    parity_qubits=8,
    parity_rounds=5,
    overhead_rounds=50,
    timer_rounds=3,
)

SEED = 11

_EMPTY = np.zeros(0)


def _run_wide_clifford(config: Dict[str, object]) -> List[Dict[str, float]]:
    """GHZ throughput + exactness at each width, via the planned spec."""
    out: List[Dict[str, float]] = []
    for width in config["widths"]:
        spec = build_spec(ghz_circuit(width), ghz_observable(width))
        if spec.backend_id != "stabilizer":
            raise AssertionError(
                f"planner routed ghz_{width} to {spec.backend_id!r}, "
                "expected 'stabilizer'"
            )

        def evaluate(clock):
            wide_before = STABILIZER_STATS.as_dict()["stabilizer.wide_path_samples"]
            with clock:
                values = [
                    evaluate_spec_batch(spec, [_EMPTY], config["shots"], [SEED + i])[0]
                    for i in range(config["rounds"])
                ]
            wide_after = STABILIZER_STATS.as_dict()["stabilizer.wide_path_samples"]
            return values, wide_after - wide_before

        timed = harness.best_of({"ghz": evaluate}, config["timer_rounds"])["ghz"]
        _values, wide_shots = timed.output
        elapsed = timed.seconds
        out.append(
            {
                "qubits": float(width),
                "rounds": float(config["rounds"]),
                "seconds": elapsed,
                "evals_per_s": config["rounds"] / elapsed,
                "shots_per_s": config["rounds"] * config["shots"] / elapsed,
                "exact": all(
                    value == float(width - 1)
                    for values, _ in timed.outputs
                    for value in values
                ),
                "wide_path_shots": wide_shots,
            }
        )
    return out


def _run_overhead(config: Dict[str, object]) -> Dict[str, float]:
    """Per-job planning cost (census + decision, paid once inside
    ``build_spec``) against the job it plans: the spec build plus
    ``JOB_EVALS`` evaluations."""
    width = config["widths"][0]
    circuit, observable = ghz_circuit(width), ghz_observable(width)
    spec = build_spec(circuit, observable)
    censuses = [gate_census(c) for c in spec.group_circuits]
    rounds = config["overhead_rounds"]

    def build(clock):
        with clock:
            build_spec(circuit, observable)

    def plan(clock):
        with clock:
            for _ in range(rounds):
                DEFAULT_PLANNER.decide(
                    n_qubits=width,
                    censuses=[gate_census(c) for c in spec.group_circuits],
                    exact_limit=spec.exact_limit,
                )

    def evaluate(clock):
        with clock:
            for round_index in range(config["rounds"]):
                evaluate_spec_batch(spec, [_EMPTY], config["shots"], [round_index])

    timed = harness.best_of(
        {"build": build, "plan": plan, "evaluate": evaluate}, config["timer_rounds"]
    )
    build_s = timed["build"].seconds
    plan_s = timed["plan"].seconds / rounds
    eval_s = timed["evaluate"].seconds / config["rounds"]
    job_s = build_s + JOB_EVALS * eval_s
    return {
        "qubits": float(width),
        "job_evals": float(JOB_EVALS),
        "census_gates": float(sum(c.n_gates for c in censuses)),
        "plan_us_per_job": 1e6 * plan_s,
        "build_spec_ms": 1e3 * build_s,
        "eval_ms": 1e3 * eval_s,
        "overhead_fraction": plan_s / job_s,
    }


def _run_parity(config: Dict[str, object]) -> Dict[str, object]:
    """Planned vs forced histories on a small Clifford job.

    At ``parity_qubits`` both exact backends are feasible; the planner
    picks one, and forcing *either* must reproduce the same energies
    bit for bit (the stabilizer sampler mirrors the statevector RNG
    consumption exactly)."""
    n = config["parity_qubits"]
    ansatz, observable = ghz_circuit(n), ghz_observable(n)
    auto = build_spec(ansatz, observable)
    forced = {
        name: build_spec(ansatz, observable, force_backend=name)
        for name in ("stabilizer", "statevector")
    }
    histories: Dict[str, List[float]] = {}
    for label, spec in [("planned", auto)] + sorted(forced.items()):
        histories[label] = [
            evaluate_spec_batch(spec, [_EMPTY], config["shots"], [SEED + i])[0]
            for i in range(config["parity_rounds"])
        ]
    identical = (
        histories["planned"] == histories["stabilizer"] == histories["statevector"]
    )
    return {
        "qubits": float(n),
        "rounds": float(config["parity_rounds"]),
        "planned_backend": auto.backend_id,
        "identical_histories": identical,
        "energy_first": histories["planned"][0],
    }


def run_bench(config: Dict[str, object]) -> Dict[str, object]:
    return {
        "config": config,
        "wide_clifford": _run_wide_clifford(config),
        "overhead": _run_overhead(config),
        "parity": _run_parity(config),
    }


def gates(host, smoke: bool) -> List[Gate]:
    widths = (SMOKE if smoke else FULL)["widths"]
    return [Gate(f"wide_clifford.{i}.exact", "==", True) for i in range(len(widths))] + [
        Gate("overhead.overhead_fraction", "<", MAX_OVERHEAD_FRACTION),
        Gate("parity.identical_histories", "==", True),
    ]


def _print_report(mode: str, result: Dict[str, object]) -> None:
    print(f"[bench_planner/{mode}] stabilizer backend + execution planner")
    for row in result["wide_clifford"]:
        print(
            f"  ghz_{row['qubits']:.0f}: {row['evals_per_s']:.1f} evals/s "
            f"({row['shots_per_s']:.0f} shots/s), exact={row['exact']} "
            f"(energy == n-1 every round)"
        )
    overhead = result["overhead"]
    print(
        f"  planning: {overhead['plan_us_per_job']:.0f} us/job over "
        f"{overhead['census_gates']:.0f} census gates vs a "
        f"{overhead['job_evals']:.0f}-eval job "
        f"({overhead['build_spec_ms']:.2f} ms build + "
        f"{overhead['eval_ms']:.2f} ms/eval) -> "
        f"{100 * overhead['overhead_fraction']:.3f}% overhead"
    )
    parity = result["parity"]
    print(
        f"  parity at {parity['qubits']:.0f}q: planner chose "
        f"{parity['planned_backend']}, planned == forced-stabilizer == "
        f"forced-statevector histories: {parity['identical_histories']}"
    )


if __name__ == "__main__":
    raise SystemExit(harness.main(__file__, run_bench, _print_report, gates, FULL, SMOKE))
