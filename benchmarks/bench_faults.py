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

Usage::

    python benchmarks/bench_faults.py            # full run, writes BENCH_faults.json
    python benchmarks/bench_faults.py --smoke    # quick gate
"""

from __future__ import annotations

from typing import Dict, List

import harness
from harness import Gate

from repro.faults.campaign import CampaignConfig, run_campaign

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
    # Visibility without resting on one draw: at every lossy point the
    # baseline retransmits exactly the drops the injector decided, and
    # its latency exceeds the fault-free point's by exactly the
    # recovery time charged.
    sweep = first["link_loss_sweep"]
    clean = sweep[0]["baseline"]
    visibility = [
        {
            "loss_p": point["loss_p"],
            "unmatched_retransmits": (
                point["baseline"]["retransmits"] - point["baseline"]["injected_drops"]
            ),
            "unexplained_delay_ps": (
                point["baseline"]["end_to_end_ps"] - clean["end_to_end_ps"]
                - point["baseline"]["recovery_ps"]
            ),
        }
        for point in sweep[1:]
    ]
    return {
        "config": dict(config, seed=SEED),
        "digest": first["digest"],
        "deterministic": first["digest"] == second["digest"],
        "visibility": visibility,
        "campaign": first,
    }


def gates(host, smoke: bool) -> List[Gate]:
    losses = (SMOKE if smoke else FULL)["losses"]
    sweep = "campaign.link_loss_sweep"
    return (
        [Gate("deterministic", "==", True)]
        + [Gate(f"{sweep}.{i}.qtenon_trace_identical", "==", True)
           for i in range(len(losses))]
        + [Gate(f"{sweep}.0.loss_p", "==", 0.0)]  # the fault-free reference point
        + [Gate(f"visibility.{i}.{name}", "==", 0)
           for i in range(len(losses) - 1)
           for name in ("unmatched_retransmits", "unexplained_delay_ps")]
        # a point whose plan makes a drop certain must show retransmits
        + [Gate(f"{sweep}.{i}.baseline.retransmits", ">", 0)
           for i, loss in enumerate(losses) if loss >= 1.0]
        + [
            Gate("campaign.breaker_recovery.opens", ">=", 1),
            Gate("campaign.breaker_recovery.recoveries", ">=", 1),
            Gate("campaign.breaker_recovery.final_state", "==", "closed"),
            Gate("campaign.breaker_recovery.values_identical", "==", True),
            Gate("campaign.service_availability.availability", ">=", AVAILABILITY_FLOOR),
        ]
    )


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


if __name__ == "__main__":
    raise SystemExit(harness.main(__file__, run_bench, _print_report, gates, FULL, SMOKE))
