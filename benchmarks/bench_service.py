"""Job-service benchmark: naive sequential dispatch vs the service.

Measures the quantity ``repro.service`` exists to improve: end-to-end
throughput and tail latency of a *multi-tenant, duplicate-heavy* job
stream, where many tenants ask for the same evaluations (the parameter
sweeps and restart studies of §7).  Two schedules run the same stream:

* **naive** — one job at a time, straight through a fresh
  ``HybridRunner`` per job (no coalescing, no cache, no overlap);
* **service** — the full stack: admission, deficit-round-robin
  dispatch onto worker slots, request coalescing and the shared
  content-addressed ``EvalCache``.

Both must produce bit-identical cost histories per job.  A second
scenario submits an asymmetric (10x-skewed) all-unique stream and
reports how fairly the scheduler served tenants while they were all
backlogged (Jain index over served cost at the contended prefix).

Gates are constant floors: the duplicate-heavy speedup (coalescing
alone guarantees 2x; the floor sits at 80% of that), and a contended
fairness index that only catches a scheduler which stops interleaving
tenants.

Usage::

    python benchmarks/bench_service.py            # full run, writes BENCH_service.json
    python benchmarks/bench_service.py --smoke    # quick gate run
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Tuple

import harness
from harness import Gate

from repro import EvaluationEngine, HybridRunner, QtenonSystem
from repro.service import JobService, JobSpec, ServiceConfig, jain_index
from repro.service.service import WORKLOADS
from repro.vqa import make_optimizer

FULL = dict(qubits=5, shots=2_000, distinct=4, tenants=6, workers=4,
            hog_jobs=10, mouse_jobs=2, rounds=2, inner=1)
SMOKE = dict(qubits=4, shots=400, distinct=3, tenants=4, workers=2,
             hog_jobs=6, mouse_jobs=2, rounds=3, inner=4)

SEED = 7
CACHE_ENTRIES = 4096


def _spec(config: Dict[str, int], seed: int) -> JobSpec:
    return JobSpec(
        workload="vqe", n_qubits=config["qubits"], optimizer="gd",
        shots=config["shots"], iterations=1, seed=seed, platform="qtenon",
    )


def _direct_run(spec: JobSpec):
    """The service-free reference: one engine, one runner, one job."""
    workload = WORKLOADS[spec.workload](spec.n_qubits)
    engine = EvaluationEngine(
        QtenonSystem(spec.n_qubits, seed=spec.seed),
        max_workers=1,
        seed=spec.seed,
    )
    runner = HybridRunner(
        engine,
        workload.ansatz,
        workload.parameters,
        workload.observable,
        make_optimizer(spec.optimizer, seed=spec.seed),
        shots=spec.shots,
        iterations=spec.iterations,
    )
    result = runner.run(seed=spec.seed)
    engine.close()
    return result


def _run_service(
    clock,
    config: Dict[str, int],
    waves: List[List[Tuple[str, JobSpec]]],
    quantum: float,
) -> JobService:
    """Drive one service through successive submit-then-drain waves.

    Waves matter for what they exercise: duplicates *within* a wave
    coalesce onto an in-flight primary (singleflight), while a job
    resubmitted in a *later* wave starts a fresh flight and re-executes
    — which is exactly what the shared content-addressed ``EvalCache``
    exists to absorb."""
    n_jobs = sum(len(wave) for wave in waves)
    service = JobService(
        ServiceConfig(
            workers=config["workers"],
            cache_entries=CACHE_ENTRIES,
            quantum=quantum,
            tenant_quota=max(64, n_jobs),
            max_open_jobs=max(256, n_jobs),
        )
    )

    async def drive():
        for wave in waves:
            for tenant, spec in wave:
                outcome = service.submit(spec, tenant)
                assert outcome.accepted, outcome.rejection
            await service.drain()

    with clock:
        asyncio.run(drive())
    service.close()
    return service


def _duplicate_heavy(config: Dict[str, int]) -> Dict[str, object]:
    """T tenants each submit the same D distinct jobs, twice.

    The first wave is the concurrent sweep: duplicates coalesce onto
    in-flight primaries, so only D jobs execute.  After it drains, the
    same sweep is submitted again (the §7 restart-study pattern) — no
    primary is open any more, so every wave-2 job *runs*, and its
    evaluations must come from the shared EvalCache rather than
    recomputation.  A benchmark with only the concurrent wave would
    (and, before this scenario was split into waves, did) report
    ``cache_hits: 0`` forever: coalescing consumed every duplicate
    before the cache ever saw a repeated evaluation.
    """
    specs = [_spec(config, seed=SEED + i) for i in range(config["distinct"])]
    wave = [
        (f"tenant{t}", spec)
        for t in range(config["tenants"])
        for spec in specs
    ]
    waves = [wave, wave]
    n_jobs = sum(len(w) for w in waves)

    def naive(clock):
        """Every job executed in full, one at a time."""
        with clock:
            return {spec.digest: _direct_run(spec).cost_history for spec in specs}

    timed = harness.best_of(
        {
            "naive": naive,
            "service": lambda clock: _run_service(clock, config, waves, quantum=16.0),
        },
        config["rounds"],
        config["inner"],
    )
    # The naive schedule runs the distinct jobs; all jobs, without
    # reuse, cost that times the duplication.
    naive_s = timed["naive"].seconds / config["distinct"] * n_jobs
    service_s = timed["service"].seconds
    service = timed["service"].output
    reference = timed["naive"].output
    identical = all(
        record.result is not None
        and record.result.cost_history == reference[record.spec.digest]
        for run in timed["service"].outputs
        for record in run.records.values()
    )
    snapshot = service.metrics_snapshot()
    latency = snapshot["latency_s"]
    cache_hits = snapshot.get("eval_cache", {}).get("eval_cache.hits", 0.0)
    if not cache_hits > 0:
        raise AssertionError(
            "resubmitted sweep produced zero EvalCache hits — the re-run "
            "wave is not reaching the shared evaluation cache"
        )
    return {
        "jobs": n_jobs,
        "distinct": config["distinct"],
        "naive_s": naive_s,
        "service_s": service_s,
        "throughput_naive_jps": n_jobs / naive_s,
        "throughput_service_jps": n_jobs / service_s,
        "speedup": naive_s / service_s,
        "identical_results": identical,
        "coalesced_jobs": snapshot["service"]["service.coalesced"],
        "cache_hits": cache_hits,
        "latency_p50_s": latency["p50"],
        "latency_p95_s": latency["p95"],
        "latency_p99_s": latency["p99"],
        "fairness_jain": snapshot["scheduler"]["fairness_jain"],
    }


def _fairness_while_contended(service: JobService) -> float:
    """Jain over served cost up to the first tenant's drain time.

    While every tenant is still backlogged, DRR should serve them at
    equal cost rates no matter how unequal their total demand is — so
    served cost measured at the moment the *lightest* tenant finishes
    its last job should be near-uniform across tenants.
    """
    drained_at: Dict[str, float] = {}
    for record in service.records.values():
        drained_at[record.tenant] = max(
            drained_at.get(record.tenant, 0.0), record.finished_s
        )
    horizon = min(drained_at.values())
    served: Dict[str, float] = {tenant: 0.0 for tenant in drained_at}
    for record in service.records.values():
        if record.finished_s <= horizon:
            served[record.tenant] += record.spec.cost
    return jain_index(list(served.values()))


def _skewed(config: Dict[str, int]) -> Dict[str, object]:
    """One hog vs three mice, all-unique jobs, 1 worker slot."""
    submissions: List[Tuple[str, JobSpec]] = []
    seed = 100
    for _ in range(config["hog_jobs"]):
        submissions.append(("hog", _spec(config, seed=seed)))
        seed += 1
    for mouse in ("mouse-a", "mouse-b", "mouse-c"):
        for _ in range(config["mouse_jobs"]):
            submissions.append((mouse, _spec(config, seed=seed)))
            seed += 1

    # quantum == one job's cost => round-robin at job granularity; one
    # worker makes the dispatch order the completion order.
    cost = submissions[0][1].cost
    single = dict(config, workers=1)
    clock = harness.Clock()
    service = _run_service(clock, single, [submissions], quantum=cost)
    elapsed = clock.seconds
    completions = sorted(
        service.records.values(), key=lambda record: record.finished_s
    )
    order = [record.tenant for record in completions]
    last_mouse_done = 1 + max(
        len(order) - 1 - order[::-1].index(tenant)
        for tenant in ("mouse-a", "mouse-b", "mouse-c")
    )
    snapshot = service.metrics_snapshot()
    return {
        "jobs": len(submissions),
        "skew": config["hog_jobs"] / config["mouse_jobs"],
        "seconds": elapsed,
        "fairness_contended": _fairness_while_contended(service),
        "fairness_total_jain": snapshot["scheduler"]["fairness_jain"],
        "all_mice_done_by_completion": last_mouse_done,
        "latency_p95_s": snapshot["latency_s"]["p95"],
    }


def run_bench(config: Dict[str, int]) -> Dict[str, object]:
    return {
        "config": {**config, "cache_entries": CACHE_ENTRIES},
        "duplicate_heavy": _duplicate_heavy(config),
        "skewed": _skewed(config),
    }


def gates(host, smoke: bool) -> List[Gate]:
    return [
        Gate("duplicate_heavy.speedup", ">=", 1.6),
        Gate("skewed.fairness_contended", ">=", 0.48),
        Gate("duplicate_heavy.identical_results", "==", True),
    ]


def _print_report(mode: str, result: Dict[str, object]) -> None:
    dup = result["duplicate_heavy"]
    skew = result["skewed"]
    print(f"[bench_service/{mode}] multi-tenant job stream, vqe/gd workload")
    print(
        f"  duplicate-heavy ({dup['jobs']} jobs, {dup['distinct']} distinct): "
        f"naive {dup['naive_s']:.2f}s vs service {dup['service_s']:.2f}s "
        f"({dup['speedup']:.2f}x, {dup['coalesced_jobs']:.0f} coalesced, "
        f"{dup['cache_hits']:.0f} cache hits)"
    )
    print(
        f"  latency p50/p95/p99: {dup['latency_p50_s']:.3f}s / "
        f"{dup['latency_p95_s']:.3f}s / {dup['latency_p99_s']:.3f}s"
    )
    print(
        f"  skewed ({skew['skew']:.0f}x demand): contended fairness "
        f"{skew['fairness_contended']:.3f} (Jain), all mice done by "
        f"completion {skew['all_mice_done_by_completion']}/{skew['jobs']}"
    )
    print(f"  results bit-identical to direct runs: {dup['identical_results']}")


if __name__ == "__main__":
    raise SystemExit(harness.main(__file__, run_bench, _print_report, gates, FULL, SMOKE))
