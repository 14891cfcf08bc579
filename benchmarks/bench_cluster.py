"""Cluster-mode benchmark: zero-loss failover and throughput scaling.

Exercises :mod:`repro.cluster` end to end and gates the properties the
cluster exists to provide:

* **zero-loss chaos** — on the deterministic in-process harness, a
  3-node cluster with one node killed mid-load (plus hang and
  partition variants) settles *every* accepted job with results
  bit-identical to an unfaulted run (fingerprints over the exact
  float bits of each optimisation trace);
* **determinism** — repeating the faulted campaign reproduces the
  same fingerprints and the same failover counter values;
* **durability** — a master "crash" mid-campaign (journal abandoned,
  fresh master replays it) loses no accepted job;
* **scaling** — with real worker subprocesses over the socket
  protocol, 3 nodes drain a seed-disjoint batch at least
  ``SCALING_FLOOR``× faster than 1 node on >= 4 usable CPUs (master +
  3 workers), ``SCALING_FLOOR_FEW_CORES``× on 2-3; below 2 the
  measurement is recorded and the gate skipped.

Usage::

    python benchmarks/bench_cluster.py            # full run, writes BENCH_cluster.json
    python benchmarks/bench_cluster.py --smoke    # quick gate
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from typing import Dict, List, Optional, Tuple

import harness
from harness import Gate

from repro.cluster import ClusterConfig, LocalCluster
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, NodeFaults
from repro.service.jobs import JobSpec

#: 1 -> 3 nodes must scale at least this much on >= 4 usable cores.
SCALING_FLOOR = 1.7
#: relaxed floor when only 2-3 cores are visible (workers share them).
SCALING_FLOOR_FEW_CORES = 1.1

#: ``rounds`` interleaved timed drains per node count; every drain
#: starts its own worker processes, outside the timed region.
FULL = dict(qubits=4, shots=128, iterations=2, chaos_jobs=12, scaling_jobs=12, rounds=2)
SMOKE = dict(qubits=4, shots=64, iterations=1, chaos_jobs=8, scaling_jobs=6, rounds=2)

SEED = 0


def _specs(config: Dict[str, object], count: int) -> List[Tuple[str, JobSpec]]:
    """Seed-disjoint submissions across two tenants (no coalescing or
    cache reuse between jobs — each is real, distinct work)."""
    return [
        (
            f"tenant{index % 2}",
            JobSpec(
                workload="qaoa",
                n_qubits=int(config["qubits"]),
                optimizer="spsa",
                shots=int(config["shots"]),
                iterations=int(config["iterations"]),
                seed=SEED + index,
            ),
        )
        for index in range(count)
    ]


def _fingerprint_digest(fingerprints: Dict[str, str]) -> str:
    payload = "|".join(f"{k}:{v}" for k, v in sorted(fingerprints.items()))
    return hashlib.blake2b(payload.encode(), digest_size=16).hexdigest()


# ----------------------------------------------------------------------
# deterministic chaos campaign (LocalCluster, manual clock)
# ----------------------------------------------------------------------
def _run_local(
    config: Dict[str, object],
    events: Optional[tuple],
    node_capacity: int = 1,
) -> Dict[str, object]:
    injector = None
    if events:
        injector = FaultInjector(FaultPlan(node=NodeFaults(events=events)))
    cluster = LocalCluster(
        n_nodes=3,
        injector=injector,
        node_capacity=node_capacity,
        timing_only=True,
    )
    submissions = _specs(config, int(config["chaos_jobs"]))
    accepted = sum(
        1 for tenant, spec in submissions if cluster.submit(spec, tenant).accepted
    )
    settled = cluster.run(max_rounds=400)
    fingerprints = cluster.fingerprints()
    snapshot = cluster.metrics_snapshot()
    cluster.close()
    return {
        "accepted": accepted,
        "all_settled": settled,
        "done": snapshot["jobs_by_state"].get("done", 0),
        "fingerprints": fingerprints,
        "digest": _fingerprint_digest(fingerprints),
        "counters": snapshot["cluster"],
    }


def run_chaos(config: Dict[str, object]) -> Dict[str, object]:
    clean = _run_local(config, events=None)
    scenarios: Dict[str, object] = {}
    # Capacity 2 for kill/partition so a *queued* dispatch is in flight
    # when the fault fires: the kill then forces a real reassignment,
    # and the healed partition's stale result exercises duplicate
    # settlement — not just jobs that were never routed to the node.
    cases = {
        "kill": ((("kill", "node-1", 1, 0),), 2),
        "hang": ((("hang", "node-0", 1, 0),), 1),
        "partition": ((("partition", "node-2", 1, 5),), 2),
    }
    clean_by_capacity = {1: clean}
    for name, (events, capacity) in cases.items():
        if capacity not in clean_by_capacity:
            clean_by_capacity[capacity] = _run_local(
                config, events=None, node_capacity=capacity
            )
        reference = clean_by_capacity[capacity]
        first = _run_local(config, events=events, node_capacity=capacity)
        second = _run_local(config, events=events, node_capacity=capacity)
        scenarios[name] = {
            "all_settled": first["all_settled"],
            "zero_loss": set(first["fingerprints"]) == set(reference["fingerprints"]),
            "bit_identical": first["fingerprints"] == reference["fingerprints"],
            "deterministic": (
                first["digest"] == second["digest"]
                and first["counters"] == second["counters"]
            ),
            "digest": first["digest"],
            "counters": first["counters"],
        }
    return {
        "clean": {
            "accepted": clean["accepted"],
            "done": clean["done"],
            "digest": clean["digest"],
        },
        "scenarios": scenarios,
    }


# ----------------------------------------------------------------------
# journal recovery (master crash mid-campaign)
# ----------------------------------------------------------------------
def run_recovery(config: Dict[str, object], workdir: str) -> Dict[str, object]:
    path = os.path.join(workdir, "bench_cluster_journal.jsonl")
    if os.path.exists(path):
        os.remove(path)
    submissions = _specs(config, int(config["chaos_jobs"]))

    first = LocalCluster(
        n_nodes=2, timing_only=True, config=ClusterConfig(journal_path=path)
    )
    for tenant, spec in submissions:
        first.submit(spec, tenant)
    first.step()  # partial progress, then the master "crashes"
    pre_crash = first.metrics_snapshot()["jobs_by_state"]
    pre_fingerprints = first.fingerprints()
    del first  # no close(), no drain — the journal is all that survives

    second = LocalCluster(
        n_nodes=2, timing_only=True, config=ClusterConfig(journal_path=path)
    )
    recovery = second.metrics_snapshot().get("recovery", {})
    settled = second.run(max_rounds=400)
    post_fingerprints = second.fingerprints()
    second.close()

    clean = _run_local(config, events=None)
    combined = dict(pre_fingerprints)
    combined.update(post_fingerprints)
    os.remove(path)
    return {
        "pre_crash_jobs": pre_crash,
        "replayed_open": recovery.get("open", 0),
        "all_settled": settled,
        "zero_loss": set(combined) == set(clean["fingerprints"]),
        "bit_identical": combined == clean["fingerprints"],
    }


# ----------------------------------------------------------------------
# throughput scaling (socket protocol, real worker subprocesses)
# ----------------------------------------------------------------------
def _drain_with_workers(
    clock, submissions: List[Tuple[str, JobSpec]], n_nodes: int
) -> Dict[str, object]:
    from repro.cluster import ClusterMaster, MasterServer

    master = ClusterMaster(
        ClusterConfig(lease_timeout_s=10.0, dispatch_timeout_s=300.0)
    )
    server = MasterServer(master, tick_interval_s=0.02).start()
    env = dict(os.environ)
    src = os.path.join(harness.ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    workers = [
        subprocess.Popen(
            [
                sys.executable, "-m", "repro", "cluster", "worker",
                "--port", str(server.port),
                "--node-id", f"node-{index}",
                "--timing-only",
            ],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=env,
        )
        for index in range(n_nodes)
    ]
    try:
        if not server.wait_for_nodes(n_nodes, timeout_s=60.0):
            raise RuntimeError(f"{n_nodes} workers did not join the master")
        with clock:
            for tenant, spec in submissions:
                server.submit(spec, tenant)
            if not server.drain(timeout_s=600.0):
                raise RuntimeError("cluster did not drain")
        fingerprints = master.fingerprints()
        done = sum(
            1 for job in master.jobs.values() if job.state.value == "done"
        )
    finally:
        server.shutdown()
        for worker in workers:
            try:
                worker.wait(timeout=15)
            except subprocess.TimeoutExpired:
                worker.kill()
    return {"done": done, "fingerprints": fingerprints}


def run_scaling(config: Dict[str, object]) -> Dict[str, object]:
    submissions = _specs(config, int(config["scaling_jobs"]))
    timed = harness.best_of(
        {
            "one": lambda clock: _drain_with_workers(clock, submissions, n_nodes=1),
            "three": lambda clock: _drain_with_workers(clock, submissions, n_nodes=3),
        },
        config["rounds"],
    )
    one, three = timed["one"], timed["three"]
    fingerprints = [run["fingerprints"] for t in (one, three) for run in t.outputs]
    return {
        "jobs": len(submissions),
        "one_node_s": one.seconds,
        "three_node_s": three.seconds,
        "speedup": one.seconds / three.seconds,
        "one_node_done": min(run["done"] for run in one.outputs),
        "three_node_done": min(run["done"] for run in three.outputs),
        "transport_bit_identical": all(f == fingerprints[0] for f in fingerprints),
    }


# ----------------------------------------------------------------------
def run_bench(config: Dict[str, object]) -> Dict[str, object]:
    return {
        "config": dict(config, seed=SEED),
        "chaos": run_chaos(config),
        "recovery": run_recovery(config, os.path.dirname(os.path.abspath(__file__))),
        "scaling": run_scaling(config),
    }


def gates(host, smoke: bool) -> List[Gate]:
    cores = host["usable_cpus"]
    if cores < 2:
        scaling = Gate("scaling.speedup", ">=", SCALING_FLOOR_FEW_CORES,
                       skipped=f"{cores} usable CPU: 3 worker processes cannot "
                               "outrun 1")
    else:
        scaling = Gate("scaling.speedup", ">=",
                       SCALING_FLOOR if cores >= 4 else SCALING_FLOOR_FEW_CORES)
    return [
        Gate(f"chaos.scenarios.{name}.{prop}", "==", True)
        for name in ("kill", "hang", "partition")
        for prop in ("all_settled", "zero_loss", "bit_identical", "deterministic")
    ] + [
        # the kill must force a real reassignment, and the healed
        # partition's stale result must exercise duplicate settlement
        Gate("chaos.scenarios.kill.counters.cluster.reassigned", ">=", 1),
        Gate("chaos.scenarios.partition.counters.cluster.duplicate_results", ">=", 1),
    ] + [
        Gate(f"recovery.{prop}", "==", True)
        for prop in ("all_settled", "zero_loss", "bit_identical")
    ] + [
        Gate("recovery.replayed_open", ">=", 1),
        Gate("scaling.transport_bit_identical", "==", True),
        Gate("scaling.three_node_done", "==", (SMOKE if smoke else FULL)["scaling_jobs"]),
        scaling,
    ]


def _print_report(mode: str, result: Dict[str, object]) -> None:
    config = result["config"]
    print(
        f"[bench_cluster/{mode}] 3-node cluster, qaoa/spsa {config['qubits']}q"
    )
    clean = result["chaos"]["clean"]
    print(
        f"  clean run: {clean['done']}/{clean['accepted']} done, "
        f"digest {clean['digest'][:12]}"
    )
    for name, scenario in result["chaos"]["scenarios"].items():
        counters = scenario["counters"]
        print(
            f"  chaos/{name:<9}: zero loss {scenario['zero_loss']}, "
            f"bit identical {scenario['bit_identical']}, deterministic "
            f"{scenario['deterministic']} (redispatches "
            f"{counters.get('cluster.redispatches', 0)}, duplicates "
            f"{counters.get('cluster.duplicate_results', 0)})"
        )
    recovery = result["recovery"]
    print(
        f"  recovery: {recovery['replayed_open']} open jobs replayed after "
        f"crash, zero loss {recovery['zero_loss']}, bit identical "
        f"{recovery['bit_identical']}"
    )
    scaling = result["scaling"]
    print(
        f"  scaling: 1 node {scaling['one_node_s']:.2f}s, 3 nodes "
        f"{scaling['three_node_s']:.2f}s ({scaling['speedup']:.2f}x), "
        f"transport bit identical {scaling['transport_bit_identical']}"
    )


if __name__ == "__main__":
    raise SystemExit(harness.main(__file__, run_bench, _print_report, gates, FULL, SMOKE))
