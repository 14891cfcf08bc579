"""Fault-injection benchmark: resilience of the stack under chaos.

Runs the :mod:`repro.faults` chaos campaign twice and checks the
properties the fault layer exists to provide:

* **determinism** — both runs of the same ``CampaignConfig`` produce
  bit-identical campaign digests (every fault decision is
  content-addressed to the plan digest, never to wall-clock or thread
  order);
* **masking** — under injected measurement-path faults the Qtenon VQA's
  optimizer trace stays bit-identical to the fault-free run at every
  sweep point (seq + checksum retransmits deliver correct data; only
  the modelled timeline inflates);
* **visibility** — the decoupled baseline's UDP losses are visible
  without resting on one random draw: at every lossy sweep point the
  link retransmits exactly the drops the injector decided, and the
  end-to-end latency exceeds the fault-free point's by exactly the
  recovery time charged; at a point whose plan makes a drop certain
  (``loss_p=1.0``, bounded by ``max_retransmits``) there is at least
  one retransmit;
* **recovery** — the evaluation engine's circuit breaker opens on the
  scripted crash burst and closes again after a half-open probe, and
  the job service keeps availability above the floor despite per-
  dispatch worker crashes.

Results persist to ``BENCH_faults.json`` at the repo root; ``--smoke``
re-measures a reduced configuration and applies the same absolute
gates (resilience properties are pass/fail, not ratios, so there is no
recorded-baseline comparison to go flaky).

Usage::

    python benchmarks/bench_faults.py            # full run, update JSON
    python benchmarks/bench_faults.py --smoke    # quick gate
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.faults.campaign import CampaignConfig, run_campaign  # noqa: E402

RESULT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCH_faults.json"
)

#: Jobs that survive worker crashes via bounded retries; with
#: ``max_attempts=2`` and per-dispatch crash probability 0.3 the
#: expected availability is ~0.91, so 0.75 only catches broken retry.
AVAILABILITY_FLOOR = 0.75

#: ``loss_p=1.0`` is the certain-drop point of the visibility gate.
FULL = dict(qubits=4, shots=128, iterations=3, losses=(0.0, 0.01, 0.05, 1.0),
            crash_p=0.3, jobs=8)
SMOKE = dict(qubits=4, shots=128, iterations=2, losses=(0.0, 0.05, 1.0),
             crash_p=0.3, jobs=6)

SEED = 0


def _campaign_config(config: Dict[str, object]) -> CampaignConfig:
    return CampaignConfig(
        seed=SEED,
        n_qubits=int(config["qubits"]),
        shots=int(config["shots"]),
        iterations=int(config["iterations"]),
        losses=tuple(config["losses"]),
        crash_p=float(config["crash_p"]),
        service_jobs=int(config["jobs"]),
    )


def run_bench(config: Dict[str, object]) -> Dict[str, object]:
    campaign_config = _campaign_config(config)
    first = run_campaign(campaign_config)
    second = run_campaign(campaign_config)
    return {
        "config": dict(config, seed=SEED),
        "digest": first["digest"],
        "deterministic": first["digest"] == second["digest"],
        "campaign": first,
    }


def _check_gates(result: Dict[str, object]) -> List[str]:
    """Absolute pass/fail properties; returns the list of failures."""
    failures: List[str] = []
    campaign = result["campaign"]

    if not result["deterministic"]:
        failures.append("determinism: campaign digests differ between runs")

    sweep = campaign["link_loss_sweep"]
    for point in sweep:
        if not point["qtenon_trace_identical"]:
            failures.append(
                f"masking: qtenon trace diverged at {point['loss_p']:.1%} loss"
            )
    clean = min(sweep, key=lambda p: p["loss_p"])
    if clean["loss_p"] > 0.0:
        failures.append("visibility: the sweep has no fault-free point")
    for point in sweep:
        if point["loss_p"] == 0.0:
            continue
        base = point["baseline"]
        if base["retransmits"] != base["injected_drops"]:
            failures.append(
                f"visibility: {base['retransmits']} baseline retransmits at "
                f"{point['loss_p']:.1%} loss, injector dropped "
                f"{base['injected_drops']}"
            )
        delay = base["end_to_end_ps"] - clean["baseline"]["end_to_end_ps"]
        if delay != base["recovery_ps"]:
            failures.append(
                f"visibility: baseline latency at {point['loss_p']:.1%} loss is "
                f"{delay} ps above fault-free, recovery charged "
                f"{base['recovery_ps']} ps"
            )
    certain = [point for point in sweep if point["loss_p"] >= 1.0]
    if not certain:
        failures.append("visibility: no sweep point makes a drop certain")
    for point in certain:
        if point["baseline"]["retransmits"] <= 0:
            failures.append(
                f"visibility: no baseline retransmits at {point['loss_p']:.1%} loss"
            )

    breaker = campaign["breaker_recovery"]
    if breaker["opens"] < 1 or breaker["recoveries"] < 1:
        failures.append(
            f"recovery: breaker opens={breaker['opens']} "
            f"recoveries={breaker['recoveries']} (want >=1 each)"
        )
    if breaker["final_state"] != "closed":
        failures.append(f"recovery: breaker ended {breaker['final_state']!r}")
    if not breaker["values_identical"]:
        failures.append("recovery: serial-fallback values diverge from pool values")

    service = campaign["service_availability"]
    if service["availability"] < AVAILABILITY_FLOOR:
        failures.append(
            f"availability: {service['availability']:.1%} "
            f"< floor {AVAILABILITY_FLOOR:.0%}"
        )
    return failures


def _print_report(mode: str, result: Dict[str, object]) -> None:
    campaign = result["campaign"]
    sweep = campaign["link_loss_sweep"]
    breaker = campaign["breaker_recovery"]
    service = campaign["service_availability"]
    drift = campaign["readout_drift"]
    print(f"[bench_faults/{mode}] chaos campaign, qaoa/"
          f"{campaign['config']['optimizer']} workload")
    print(f"  digest {result['digest']} "
          f"(deterministic across runs: {result['deterministic']})")
    for point in sweep:
        base = point["baseline"]
        print(
            f"  loss {point['loss_p']:>5.1%}: baseline "
            f"{base['end_to_end_ps'] / 1e9:8.3f} ms "
            f"({base['retransmits']} retransmits), qtenon "
            f"{point['qtenon']['end_to_end_ps'] / 1e9:8.3f} ms "
            f"({point['qtenon']['put_retransmits']} put retransmits), "
            f"trace identical: {point['qtenon_trace_identical']}"
        )
    print(
        f"  breaker: opens={breaker['opens']} probes={breaker['probes']} "
        f"recoveries={breaker['recoveries']} final={breaker['final_state']}"
    )
    print(
        f"  service: availability {service['availability']:.1%} "
        f"({service['done']}/{service['accepted']}, "
        f"{service['recovered']} recovered, "
        f"{service['injected_crashes']} injected crashes)"
    )
    print(
        f"  readout drift: p01 {drift['p01_start']:.4f} -> "
        f"{drift['p01_end']:.4f}, energy shift {drift['energy_shift']:+.4f}"
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced configuration + the same absolute gates",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="write the measured results into BENCH_faults.json",
    )
    args = parser.parse_args(argv)

    mode = "smoke" if args.smoke else "full"
    result = run_bench(SMOKE if args.smoke else FULL)
    _print_report(mode, result)

    failures = _check_gates(result)
    if failures:
        for failure in failures:
            print(f"  GATE FAILED -> {failure}")
        return 1
    print("resilience gates passed")

    if args.update or not args.smoke:
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
