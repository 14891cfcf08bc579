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

Results persist to ``BENCH_planner.json`` at the repo root; ``--smoke``
runs a reduced configuration for CI and fails on any violated gate.

Usage::

    python benchmarks/bench_planner.py            # full run, update JSON
    python benchmarks/bench_planner.py --smoke    # quick CI gate
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

from repro.planner import DEFAULT_PLANNER  # noqa: E402
from repro.quantum.kernels import gate_census  # noqa: E402
from repro.quantum.stabilizer import STABILIZER_STATS  # noqa: E402
from repro.runtime.engine import build_spec, evaluate_spec_batch  # noqa: E402
from repro.vqa import ghz_circuit, ghz_observable  # noqa: E402

RESULT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCH_planner.json"
)

#: The smoke gate: planning one job must cost less than this fraction
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
)
SMOKE = dict(
    widths=[64],
    rounds=5,
    shots=200,
    parity_qubits=8,
    parity_rounds=5,
    overhead_rounds=50,
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
        wide_before = STABILIZER_STATS.as_dict()["stabilizer.wide_path_samples"]
        start = time.perf_counter()
        exact = True
        for round_index in range(config["rounds"]):
            (value,) = evaluate_spec_batch(
                spec, [_EMPTY], config["shots"], [SEED + round_index]
            )
            exact = exact and value == float(width - 1)
        elapsed = time.perf_counter() - start
        wide_after = STABILIZER_STATS.as_dict()["stabilizer.wide_path_samples"]
        out.append(
            {
                "qubits": float(width),
                "rounds": float(config["rounds"]),
                "seconds": elapsed,
                "evals_per_s": config["rounds"] / elapsed,
                "shots_per_s": config["rounds"] * config["shots"] / elapsed,
                "exact": exact,
                "wide_path_shots": wide_after - wide_before,
            }
        )
    return out


def _run_overhead(config: Dict[str, object]) -> Dict[str, float]:
    """Per-job planning cost (census + decision, paid once inside
    ``build_spec``) against the job it plans: the spec build plus
    ``JOB_EVALS`` evaluations."""
    width = config["widths"][0]

    start = time.perf_counter()
    spec = build_spec(ghz_circuit(width), ghz_observable(width))
    build_s = time.perf_counter() - start
    censuses = [gate_census(circuit) for circuit in spec.group_circuits]

    rounds = config["overhead_rounds"]
    start = time.perf_counter()
    for _ in range(rounds):
        DEFAULT_PLANNER.decide(
            n_qubits=width,
            censuses=[gate_census(c) for c in spec.group_circuits],
            exact_limit=spec.exact_limit,
        )
    plan_s = (time.perf_counter() - start) / rounds

    start = time.perf_counter()
    for round_index in range(config["rounds"]):
        evaluate_spec_batch(spec, [_EMPTY], config["shots"], [round_index])
    eval_s = (time.perf_counter() - start) / config["rounds"]

    job_s = build_s + JOB_EVALS * eval_s
    return {
        "qubits": float(width),
        "job_evals": float(JOB_EVALS),
        "census_gates": float(sum(c.n_gates for c in censuses)),
        "plan_us_per_job": 1e6 * plan_s,
        "build_spec_ms": 1e3 * build_s,
        "eval_ms": 1e3 * eval_s,
        "overhead_fraction": plan_s / job_s if job_s else float("inf"),
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
        "config": {**config, "cpu_count": os.cpu_count()},
        "wide_clifford": _run_wide_clifford(config),
        "overhead": _run_overhead(config),
        "parity": _run_parity(config),
    }


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


def _gate(result: Dict[str, object]) -> List[str]:
    failures = []
    for row in result["wide_clifford"]:
        if not row["exact"]:
            failures.append(
                f"ghz_{row['qubits']:.0f} energy deviated from the exact "
                "n-1 witness value"
            )
    fraction = result["overhead"]["overhead_fraction"]
    if fraction >= MAX_OVERHEAD_FRACTION:
        failures.append(
            f"planner overhead {100 * fraction:.2f}% >= "
            f"{100 * MAX_OVERHEAD_FRACTION:.0f}% of a "
            f"{JOB_EVALS}-evaluation job"
        )
    if not result["parity"]["identical_histories"]:
        failures.append("planned vs forced energy histories diverge")
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced configuration; fail on any violated gate",
    )
    args = parser.parse_args(argv)

    mode = "smoke" if args.smoke else "full"
    result = run_bench(SMOKE if args.smoke else FULL)
    _print_report(mode, result)

    failures = _gate(result)
    if failures:
        for failure in failures:
            print(f"planner gate FAILED: {failure}")
        return 1
    print("planner gates passed (exact wide Clifford, <1% overhead, parity)")

    if not args.smoke:
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
