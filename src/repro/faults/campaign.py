"""Chaos campaigns: run the stack under injected faults, measure recovery.

A campaign is a fixed menu of scenarios, each pinning one resilience
mechanism against its fault class:

* **link-loss sweep** — the decoupled baseline's UDP link drops
  datagrams at each sweep point (NACK + retransmit charged in sim
  time) while the Qtenon path absorbs an equivalent measurement-PUT
  fault rate through its sequence/checksum protocol.  The headline
  check: Qtenon's *optimizer trace stays bit-identical* to the
  fault-free run (retransmitted batches deliver correct data; only the
  modelled timeline inflates), the architectural claim the paper's
  "optimal conditions" evaluation never stresses;
* **breaker recovery** — a scripted worker-crash burst opens the
  evaluation engine's circuit breaker, a manual clock elapses the
  cooldown, and a half-open probe restores parallelism — asserted
  through state-machine counters, never sleeps;
* **service availability** — jobs run against a service whose worker
  slots crash with probability ``crash_p``; bounded retries absorb
  single crashes, and availability = done / accepted;
* **readout drift** — assignment errors grow with the evaluation index
  and the energy trace shifts accordingly.

Every fault decision is content-addressed to the plan digest
(:mod:`repro.faults.injector`), so ``run_campaign`` with the same
:class:`CampaignConfig` is bit-identical — pinned by the campaign
digest over the deterministic result subtree (wall-clock measurements
live in a separate ``wall`` subtree that never enters the digest).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.analysis.resilience import campaign_digest
from repro.baseline.system import DecoupledSystem
from repro.core.system import QtenonSystem
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    FaultPlan,
    LinkFaults,
    MeasurementFaults,
    ReadoutDriftFaults,
    WorkerFaults,
)
from repro.quantum.noise import ReadoutNoise
from repro.runtime.breaker import CircuitBreaker
from repro.runtime.engine import EvaluationEngine
from repro.service.jobs import JobSpec, JobState
from repro.service.service import JobService, ServiceConfig
from repro.vqa import make_optimizer, qaoa_workload
from repro.vqa.runner import HybridResult, HybridRunner

#: The scenarios a campaign can run, in execution order.
ALL_SECTIONS = ("link", "breaker", "service", "readout")


@dataclass(frozen=True)
class CampaignConfig:
    """One chaos campaign: workload size + fault intensities."""

    seed: int = 0
    n_qubits: int = 4
    shots: int = 128
    iterations: int = 2
    optimizer: str = "spsa"
    #: link-loss sweep points (probability per message / per PUT).
    losses: Tuple[float, ...] = (0.0, 0.01, 0.05)
    #: per-dispatch crash probability of the service scenario.
    crash_p: float = 0.3
    #: jobs submitted in the service scenario.
    service_jobs: int = 8
    sections: Tuple[str, ...] = ALL_SECTIONS

    def __post_init__(self) -> None:
        if self.n_qubits <= 0:
            raise ValueError(f"n_qubits must be positive, got {self.n_qubits}")
        if self.shots <= 0:
            raise ValueError(f"shots must be positive, got {self.shots}")
        if self.iterations <= 0:
            raise ValueError(f"iterations must be positive, got {self.iterations}")
        if self.service_jobs <= 0:
            raise ValueError(
                f"service_jobs must be positive, got {self.service_jobs}"
            )
        if not 0.0 <= self.crash_p <= 1.0:
            raise ValueError(f"crash_p={self.crash_p} is not a probability")
        for loss in self.losses:
            if not 0.0 <= loss <= 1.0:
                raise ValueError(f"loss={loss} is not a probability")
        unknown = set(self.sections) - set(ALL_SECTIONS)
        if unknown:
            raise ValueError(f"unknown campaign sections: {sorted(unknown)}")

    def as_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "n_qubits": self.n_qubits,
            "shots": self.shots,
            "iterations": self.iterations,
            "optimizer": self.optimizer,
            "losses": list(self.losses),
            "crash_p": self.crash_p,
            "service_jobs": self.service_jobs,
            "sections": list(self.sections),
        }


class ManualClock:
    """Hand-advanced monotonic clock for breaker cooldown scripting."""

    def __init__(self) -> None:
        self._now = 0.0

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"clocks only move forward, got {seconds}")
        self._now += seconds


def run_campaign(config: CampaignConfig) -> Dict[str, object]:
    """Run the configured scenarios; see the module docstring."""
    started = time.perf_counter()
    results: Dict[str, object] = {"config": config.as_dict()}
    if "link" in config.sections:
        results["link_loss_sweep"] = _link_loss_sweep(config)
    if "breaker" in config.sections:
        results["breaker_recovery"] = _breaker_recovery(config)
    if "service" in config.sections:
        results["service_availability"] = _service_availability(config)
    if "readout" in config.sections:
        results["readout_drift"] = _readout_drift(config)
    results["digest"] = campaign_digest(results)
    # Wall-clock goes in after the digest: it must never enter it.
    results["wall"] = {"elapsed_s": time.perf_counter() - started}
    return results


# ----------------------------------------------------------------------
# scenarios
# ----------------------------------------------------------------------
def _run_vqa(platform, config: CampaignConfig) -> HybridResult:
    workload = qaoa_workload(config.n_qubits)
    runner = HybridRunner(
        platform,
        workload.ansatz,
        workload.parameters,
        workload.observable,
        make_optimizer(config.optimizer, seed=config.seed),
        shots=config.shots,
        iterations=config.iterations,
    )
    return runner.run(seed=config.seed)


def _link_loss_sweep(config: CampaignConfig) -> List[Dict[str, object]]:
    reference = _run_vqa(
        QtenonSystem(config.n_qubits, seed=config.seed), config
    )
    points: List[Dict[str, object]] = []
    for loss in config.losses:
        link_plan = FaultPlan(seed=config.seed, link=LinkFaults(loss_p=loss))
        link_injector = FaultInjector(link_plan)
        baseline = DecoupledSystem(
            config.n_qubits,
            seed=config.seed,
            fault_injector=link_injector,
        )
        base_result = _run_vqa(baseline, config)

        # Qtenon has no UDP link — its exposure at the same fault rate
        # is the measurement PUT path, protected by seq + checksum.
        # Corruption takes half the loss rate, capped so the two never
        # exceed certainty (a loss of 1 drops every attempt).
        put_plan = FaultPlan(
            seed=config.seed,
            measurement=MeasurementFaults(
                drop_p=loss, corrupt_p=min(loss / 2, 1.0 - loss)
            ),
        )
        qtenon = QtenonSystem(
            config.n_qubits,
            seed=config.seed,
            fault_injector=FaultInjector(put_plan),
        )
        qt_result = _run_vqa(qtenon, config)

        points.append(
            {
                "loss_p": loss,
                "baseline": {
                    "end_to_end_ps": base_result.report.end_to_end_ps,
                    "retransmits": int(
                        base_result.report.extra.get("link_retransmits", 0)
                    ),
                    "recovery_ps": int(
                        base_result.report.extra.get("link_recovery_ps", 0)
                    ),
                    # What the injector decided, counted at the source:
                    # the link must retransmit exactly these.
                    "injected_drops": link_injector.stats.counter("link_drops").value,
                    "cost_history": base_result.cost_history,
                },
                "qtenon": {
                    "end_to_end_ps": qt_result.report.end_to_end_ps,
                    "put_retransmits": int(
                        qt_result.report.extra.get("put_retransmits", 0)
                    ),
                    "cost_history": qt_result.cost_history,
                },
                # The resilience claim: retransmitted batches deliver
                # correct data, so the optimizer trace cannot move.
                "qtenon_trace_identical": (
                    qt_result.cost_history == reference.cost_history
                ),
            }
        )
    return points


def _breaker_recovery(config: CampaignConfig) -> Dict[str, object]:
    clock = ManualClock()
    breaker = CircuitBreaker(failure_threshold=2, cooldown_s=30.0, clock=clock.now)
    plan = FaultPlan(seed=config.seed, worker=WorkerFaults(crash_burst=2))
    engine = EvaluationEngine(
        QtenonSystem(config.n_qubits, seed=config.seed),
        max_workers=2,
        breaker=breaker,
        fault_injector=FaultInjector(plan),
    )
    workload = qaoa_workload(config.n_qubits)
    engine.prepare(workload.ansatz, workload.observable)
    batch = [
        {p: 0.1 * (i + 1) for p in workload.parameters} for i in range(2)
    ]

    # 1. the burst crashes both dispatch attempts: breaker opens, the
    #    batch still completes through the serial fallback.
    values_during = engine.evaluate_many(batch, config.shots)
    state_after_crash = breaker.state.value
    # 2. while open, dispatches bypass the pool entirely.
    engine.evaluate_many(batch, config.shots)
    # 3. cooldown elapses (manual clock — no sleeps anywhere), the next
    #    batch probes half-open, succeeds, and the breaker closes.
    clock.advance(breaker.cooldown_s)
    values_after = engine.evaluate_many(batch, config.shots)
    state_after_recovery = breaker.state.value
    report = engine.finish()

    return {
        "opens": int(report.extra.get("breaker.opens", 0)),
        "probes": int(report.extra.get("breaker.probes", 0)),
        "recoveries": int(report.extra.get("breaker.recoveries", 0)),
        "injected_crashes": int(report.extra.get("runtime.injected_pool_crashes", 0)),
        "serial_evaluations": int(report.extra.get("runtime.serial_evaluations", 0)),
        "parallel_evaluations": int(
            report.extra.get("runtime.parallel_evaluations", 0)
        ),
        "state_after_crash": state_after_crash,
        "final_state": state_after_recovery,
        # Serial fallback and recovered pool return bit-identical
        # values (content-derived sampler seeds).
        "values_identical": values_during == values_after,
    }


def _service_availability(config: CampaignConfig) -> Dict[str, object]:
    from repro.telemetry.export import parse_prometheus_text, to_prometheus_text
    from repro.telemetry.metrics import MetricsRegistry

    plan = FaultPlan(seed=config.seed, worker=WorkerFaults(crash_p=config.crash_p))
    registry = MetricsRegistry()
    service = JobService(
        ServiceConfig(
            workers=2,
            max_attempts=2,
            retry_backoff_s=0.0,
            retry_backoff_max_s=0.0,
            timing_only=True,
        ),
        fault_injector=FaultInjector(plan),
        telemetry=registry,
    )

    async def submit_and_drain() -> List[str]:
        job_ids: List[str] = []
        for i in range(config.service_jobs):
            spec = JobSpec(
                workload="qaoa",
                n_qubits=config.n_qubits,
                optimizer=config.optimizer,
                shots=config.shots,
                iterations=1,
                seed=config.seed + i,
                platform="qtenon" if i % 2 == 0 else "baseline",
            )
            outcome = service.submit(spec, tenant=f"tenant-{i % 2}")
            if outcome.accepted:
                job_ids.append(outcome.job_id)
        await service.drain()
        return job_ids

    try:
        job_ids = asyncio.run(submit_and_drain())
    finally:
        service.close()

    records = [service.records[job_id] for job_id in job_ids]
    done = sum(1 for r in records if r.state is JobState.DONE)
    recovered = sum(
        1 for r in records if r.state is JobState.DONE and r.attempts > 1
    )
    return {
        "accepted": len(records),
        "done": done,
        "failed": sum(1 for r in records if r.state is JobState.FAILED),
        "recovered": recovered,
        "availability": done / len(records) if records else 0.0,
        "injected_crashes": int(
            service.fault_injector.stats.counter("worker_crashes").value
        ),
        # Only the order-independent health totals: consecutive_failures,
        # healthy and last_error depend on how worker threads interleave
        # completions, which must not leak into the campaign digest.
        "backends": {
            name: {
                key: snapshot[key]
                for key in ("attempts", "successes", "failures", "failure_rate")
            }
            for name, snapshot in service.health.snapshot().items()
        },
        # Only the metric *names* and the parser verdict: values include
        # wall-clock latencies, which must not enter the campaign digest.
        "telemetry": {
            "metric_names": sorted(registry.names()),
            "prom_valid": bool(
                parse_prometheus_text(to_prometheus_text(registry))
            ),
        },
    }


def _readout_drift(config: CampaignConfig) -> Dict[str, object]:
    base = ReadoutNoise(p01=0.01, p10=0.03)
    clean = _run_vqa(
        DecoupledSystem(config.n_qubits, seed=config.seed, readout_noise=base),
        config,
    )
    plan = FaultPlan(
        seed=config.seed, readout=ReadoutDriftFaults(rate_per_evaluation=0.2)
    )
    injector = FaultInjector(plan)
    drifted = _run_vqa(
        DecoupledSystem(
            config.n_qubits,
            seed=config.seed,
            readout_noise=base,
            fault_injector=injector,
        ),
        config,
    )
    evaluations = drifted.report.evaluations
    end_noise = injector.drifted_readout(base, max(0, evaluations - 1))
    return {
        "p01_start": base.p01,
        "p01_end": end_noise.p01,
        "p10_start": base.p10,
        "p10_end": end_noise.p10,
        "evaluations": evaluations,
        "energy_shift": drifted.final_cost - clean.final_cost,
        "clean_final_cost": clean.final_cost,
        "drifted_final_cost": drifted.final_cost,
    }
