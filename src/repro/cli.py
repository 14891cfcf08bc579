"""Command-line interface: ``python -m repro``.

Runs one hybrid workload on one or both platforms and prints the
paper-style report — the fastest way to poke at the reproduction
without writing code::

    python -m repro run qaoa --qubits 16 --optimizer spsa --iterations 3
    python -m repro run vqe --qubits 64 --timing-only --compare
    python -m repro submit qaoa --qubits 5 --tenant alice --jobs-file jobs.json
    python -m repro serve --jobs jobs.json --workers 4 --cache-size 4096
    python -m repro telemetry --prom out.txt --trace trace.json
    python -m repro chaos --loss 0.05 --crash-p 0.3 --out campaign.json
    python -m repro info

``submit`` composes (or immediately runs) service job requests;
``serve`` drives the multi-tenant job service over a request file and
prints per-job outcomes plus the JSON metrics snapshot; ``telemetry``
runs a deterministic seeded workload and exports the unified telemetry
(Prometheus text / merged Chrome trace / JSONL events — see
repro.telemetry); ``chaos`` runs a deterministic fault-injection
campaign (see repro.faults).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Tuple

from repro import EvalCache, HybridRunner, __version__
from repro.analysis import format_table
from repro.core import QtenonConfig
from repro.quantum.noise import ReadoutNoise
from repro.service import JobSpec, ServiceAPI, ServiceConfig
from repro.service.platforms import WORKLOADS, build_engine
from repro.vqa import make_optimizer

#: --backend choices; "auto" defers to the execution planner.
BACKEND_CHOICES = ("auto", "statevector", "stabilizer", "product")


# ----------------------------------------------------------------------
# argparse-level validation: bad values must die at the parser with a
# clear message, not deep inside the engine.
# ----------------------------------------------------------------------
def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {value}"
        )
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {value}")
    return value


def _nonnegative_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative number, got {value}"
        )
    return value


def _probability(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"expected a probability in [0, 1], got {value}"
        )
    return value


def _add_spec_arguments(parser: argparse.ArgumentParser) -> None:
    """Job-spec flags shared by ``submit`` (service-side defaults)."""
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--qubits", type=_positive_int, default=5)
    parser.add_argument("--optimizer", choices=("gd", "spsa"), default="spsa")
    parser.add_argument(
        "--shots", type=_nonnegative_int, default=200,
        help="samples per evaluation (0 = exact analytic expectation)",
    )
    parser.add_argument("--iterations", type=_positive_int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--platform", choices=("qtenon", "baseline"), default="qtenon"
    )
    parser.add_argument(
        "--backend", choices=BACKEND_CHOICES, default="auto",
        help="execution backend (auto = cost-model planner)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Qtenon (ISCA '25) reproduction — hybrid quantum-classical "
                    "architecture simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a VQA workload on a platform")
    run.add_argument("workload", choices=sorted(WORKLOADS))
    run.add_argument("--qubits", type=_positive_int, default=8)
    run.add_argument("--optimizer", choices=("gd", "spsa"), default="spsa")
    run.add_argument(
        "--gradient", choices=("shift", "adjoint"), default="shift",
        help="gradient method for --optimizer gd (adjoint needs --shots 0)",
    )
    run.add_argument(
        "--shots", type=_nonnegative_int, default=500,
        help="samples per evaluation (0 = exact analytic expectation)",
    )
    run.add_argument("--iterations", type=_positive_int, default=3)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--core", default="boom-large",
        help="Qtenon host core: rocket | boom-large",
    )
    run.add_argument(
        "--platform", choices=("qtenon", "baseline"), default="qtenon",
    )
    run.add_argument(
        "--backend", choices=BACKEND_CHOICES, default="auto",
        help="execution backend (auto = cost-model planner; stabilizer "
             "runs Clifford circuits exactly at any width)",
    )
    run.add_argument(
        "--compare", action="store_true",
        help="run both platforms and print the speedups",
    )
    run.add_argument(
        "--timing-only", action="store_true",
        help="skip quantum-state simulation (large qubit counts)",
    )
    run.add_argument(
        "--workers", type=_positive_int, default=1,
        help="worker processes for the evaluation runtime (1 = serial)",
    )
    run.add_argument(
        "--cache-size", type=_nonnegative_int, default=0,
        help="entries in the content-addressed result cache (0 = off)",
    )
    run.add_argument(
        "--readout-p01", type=_probability, default=0.0,
        help="readout assignment error P(read 1 | prepared 0)",
    )
    run.add_argument(
        "--readout-p10", type=_probability, default=0.0,
        help="readout assignment error P(read 0 | prepared 1)",
    )

    submit = sub.add_parser(
        "submit",
        help="submit one service job (append to a job file, or run inline)",
    )
    _add_spec_arguments(submit)
    submit.add_argument("--tenant", default="default", help="tenant identity")
    submit.add_argument(
        "--jobs-file", default=None,
        help="append the request to this JSON job file instead of running it",
    )

    serve = sub.add_parser(
        "serve", help="run the multi-tenant job service over a job file"
    )
    serve.add_argument("--jobs", required=True, help="JSON job file (see submit)")
    serve.add_argument(
        "--workers", type=_positive_int, default=2,
        help="platform pool slots executing jobs concurrently",
    )
    serve.add_argument(
        "--cache-size", type=_nonnegative_int, default=4096,
        help="shared eval-cache entries across all tenants (0 = off)",
    )
    serve.add_argument(
        "--quantum", type=_positive_float, default=16.0,
        help="deficit-round-robin service quantum, in evaluation units",
    )
    serve.add_argument(
        "--queue-depth", type=_positive_int, default=256,
        help="global bound on open (queued+running) jobs",
    )
    serve.add_argument(
        "--tenant-quota", type=_positive_int, default=64,
        help="per-tenant bound on open jobs",
    )
    serve.add_argument(
        "--timeout", type=_positive_float, default=None,
        help="per-job deadline in seconds (default: none)",
    )
    serve.add_argument(
        "--max-attempts", type=_positive_int, default=2,
        help="execution attempts per job before it fails",
    )
    serve.add_argument(
        "--backoff", type=_nonnegative_float, default=0.05,
        help="initial retry backoff in seconds (doubles per retry)",
    )
    serve.add_argument(
        "--backoff-max", type=_nonnegative_float, default=1.0,
        help="cap on the (jittered) retry backoff in seconds",
    )
    serve.add_argument(
        "--timing-only", action="store_true",
        help="timing-only platforms (large qubit counts)",
    )
    serve.add_argument("--core", default="boom-large")
    serve.add_argument(
        "--metrics-out", default=None,
        help="write the JSON metrics snapshot to this path",
    )
    serve.add_argument(
        "--trace-out", default=None,
        help="write the merged service + per-job sim Chrome trace to this "
             "path (implies per-job sim tracing)",
    )
    serve.add_argument(
        "--prom-out", default=None,
        help="write the Prometheus text exposition to this path",
    )

    session = sub.add_parser(
        "session",
        help="demo the streamed session tier: open a session over a local "
             "socket, stream the optimisation, verify parity with a "
             "one-shot run",
    )
    _add_spec_arguments(session)
    session.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    telemetry = sub.add_parser(
        "telemetry",
        help="run a deterministic seeded service workload and export "
             "telemetry (Prometheus / merged trace / JSONL events)",
    )
    telemetry.add_argument("--jobs", type=_positive_int, default=6)
    telemetry.add_argument("--qubits", type=_positive_int, default=4)
    telemetry.add_argument("--shots", type=_positive_int, default=128)
    telemetry.add_argument("--iterations", type=_positive_int, default=1)
    telemetry.add_argument("--seed", type=int, default=0)
    telemetry.add_argument(
        "--sample-every", type=_positive_int, default=1,
        help="keep every Nth structured event (deterministic sampling)",
    )
    telemetry.add_argument(
        "--prom", default=None,
        help="write the Prometheus text exposition to this path",
    )
    telemetry.add_argument(
        "--trace", default=None,
        help="write the merged Chrome/Perfetto trace to this path",
    )
    telemetry.add_argument(
        "--events", default=None,
        help="write the JSONL structured event log to this path",
    )

    chaos = sub.add_parser(
        "chaos",
        help="run a deterministic fault-injection campaign",
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--qubits", type=_positive_int, default=4)
    chaos.add_argument("--shots", type=_positive_int, default=128)
    chaos.add_argument("--iterations", type=_positive_int, default=2)
    chaos.add_argument(
        "--optimizer", choices=("gd", "spsa"), default="spsa"
    )
    chaos.add_argument(
        "--loss", type=_probability, action="append", default=None,
        help="link-loss sweep point (repeatable; default 0, 1%%, 5%%)",
    )
    chaos.add_argument(
        "--crash-p", type=_probability, default=0.3,
        help="per-dispatch worker crash probability (service scenario)",
    )
    chaos.add_argument(
        "--jobs", type=_positive_int, default=8,
        help="jobs submitted in the service-availability scenario",
    )
    chaos.add_argument(
        "--sections", default=None,
        help="comma-separated scenario subset: link,breaker,service,readout",
    )
    chaos.add_argument(
        "--out", default=None,
        help="write the full campaign JSON to this path",
    )

    cluster = sub.add_parser(
        "cluster",
        help="fault-tolerant master/worker cluster mode (see DESIGN.md)",
    )
    cluster_sub = cluster.add_subparsers(dest="cluster_command", required=True)

    local = cluster_sub.add_parser(
        "local",
        help="run a deterministic in-process multi-node cluster over a "
             "job file (supports scripted node faults)",
    )
    local.add_argument("--jobs", required=True, help="JSON job file (see submit)")
    local.add_argument(
        "--nodes", type=_positive_int, default=3, help="worker node count"
    )
    local.add_argument(
        "--node-capacity", type=_positive_int, default=1,
        help="concurrent jobs per node",
    )
    local.add_argument(
        "--rounds", type=_positive_int, default=200,
        help="maximum harness rounds before giving up",
    )
    local.add_argument(
        "--journal", default=None,
        help="durable job journal path (replayed if it already exists)",
    )
    local.add_argument("--timing-only", action="store_true")
    local.add_argument("--core", default="boom-large")
    for kind in ("kill", "hang", "partition"):
        local.add_argument(
            f"--{kind}", action="append", default=None, metavar="NODE:AFTER[:ROUNDS]",
            help=f"script a node {kind} after N completions "
                 "(repeatable, e.g. node-1:2)",
        )
    local.add_argument(
        "--metrics-out", default=None,
        help="write the JSON cluster metrics snapshot to this path",
    )

    cm = cluster_sub.add_parser(
        "master",
        help="serve a cluster master on TCP: wait for workers, dispatch a "
             "job file, print outcomes",
    )
    cm.add_argument("--jobs", required=True, help="JSON job file (see submit)")
    cm.add_argument("--host", default="127.0.0.1")
    cm.add_argument(
        "--port", type=_nonnegative_int, default=0,
        help="listen port (0 = ephemeral, printed at startup)",
    )
    cm.add_argument(
        "--nodes", type=_positive_int, default=1,
        help="worker nodes to wait for before dispatching",
    )
    cm.add_argument(
        "--wait-timeout", type=_positive_float, default=60.0,
        help="seconds to wait for workers to join",
    )
    cm.add_argument(
        "--drain-timeout", type=_positive_float, default=600.0,
        help="seconds to wait for all jobs to settle",
    )
    cm.add_argument(
        "--lease-timeout", type=_positive_float, default=3.0,
        help="heartbeat lease in seconds; a silent node loses its jobs",
    )
    cm.add_argument(
        "--dispatch-timeout", type=_positive_float, default=120.0,
        help="seconds a job may sit on a node before it is reaped",
    )
    cm.add_argument("--journal", default=None, help="durable job journal path")
    cm.add_argument("--metrics-out", default=None)

    cw = cluster_sub.add_parser(
        "worker", help="run one worker node against a cluster master"
    )
    cw.add_argument("--host", default="127.0.0.1")
    cw.add_argument("--port", type=_positive_int, required=True)
    cw.add_argument("--node-id", required=True)
    cw.add_argument(
        "--capacity", type=_positive_int, default=1,
        help="concurrent jobs this node advertises",
    )
    cw.add_argument(
        "--engine-workers", type=_positive_int, default=1,
        help="shared-memory pool workers inside each job's engine",
    )
    cw.add_argument(
        "--cache-size", type=_nonnegative_int, default=4096,
        help="node-local eval-cache entries (0 = off)",
    )
    cw.add_argument("--timing-only", action="store_true")
    cw.add_argument("--core", default="boom-large")

    sub.add_parser("info", help="print version and model constants")
    return parser


def _run_one(platform_name: str, workload, args):
    """One ``repro run`` trajectory, always through the evaluation
    engine: its content-derived sampler seeds make the answer the same
    at any ``--workers`` and ``--cache-size``."""
    readout = None
    if args.readout_p01 > 0.0 or args.readout_p10 > 0.0:
        readout = ReadoutNoise(p01=args.readout_p01, p10=args.readout_p10)
    spec = JobSpec(
        workload=args.workload,
        n_qubits=args.qubits,
        optimizer=args.optimizer,
        shots=args.shots,
        iterations=args.iterations,
        seed=args.seed,
        platform=platform_name,
        backend=args.backend,
    )
    engine = build_engine(
        spec,
        core=args.core,
        timing_only=args.timing_only,
        cache=EvalCache(args.cache_size) if args.cache_size > 0 else None,
        engine_workers=args.workers,
        readout_noise=readout,
    )
    runner = HybridRunner(
        engine,
        workload.ansatz,
        workload.parameters,
        workload.observable,
        make_optimizer(args.optimizer, seed=args.seed, gradient=args.gradient),
        shots=args.shots,
        iterations=args.iterations,
    )
    try:
        return runner.run(seed=args.seed)
    finally:
        engine.close()


def cmd_run(args) -> int:
    if args.gradient != "shift" and args.optimizer != "gd":
        print(
            "error: --gradient adjoint requires --optimizer gd",
            file=sys.stderr,
        )
        return 2
    if args.gradient == "adjoint" and args.shots != 0:
        print(
            "note: adjoint gradients are analytic and need --shots 0; "
            f"at {args.shots} shots every step falls back to parameter "
            "shift",
            file=sys.stderr,
        )
    if args.qubits > 20 and not args.timing_only and args.backend != "stabilizer":
        print(
            f"note: {args.qubits} qubits exceeds exact statevector "
            "simulation; Clifford circuits stay exact via the stabilizer "
            "backend, anything else falls back to the product state "
            "(consider --timing-only for sweeps)",
            file=sys.stderr,
        )
    try:
        workload = WORKLOADS[args.workload](args.qubits)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = _run_one(args.platform, workload, args)
    print(result.report.summary())
    print(f"  best cost: {result.best_cost:+.4f}")
    if not args.compare:
        return 0

    other_name = "baseline" if args.platform == "qtenon" else "qtenon"
    other = _run_one(other_name, workload, args)
    print()
    print(other.report.summary())
    qtenon, baseline = (
        (result, other) if args.platform == "qtenon" else (other, result)
    )
    print()
    print(f"end-to-end speedup : {qtenon.report.speedup_over(baseline.report):.1f}x")
    print(
        "classical speedup  : "
        f"{qtenon.report.classical_speedup_over(baseline.report):.1f}x"
    )
    return 0


# ----------------------------------------------------------------------
# service commands
# ----------------------------------------------------------------------
def _spec_from_args(args) -> JobSpec:
    return JobSpec(
        workload=args.workload,
        n_qubits=args.qubits,
        optimizer=args.optimizer,
        shots=args.shots,
        iterations=args.iterations,
        seed=args.seed,
        platform=args.platform,
        backend=args.backend,
    )


def _load_job_file(path: str) -> List[Tuple[str, JobSpec]]:
    with open(path) as handle:
        entries = json.load(handle)
    if not isinstance(entries, list):
        raise ValueError(f"job file {path!r} must hold a JSON array of requests")
    submissions: List[Tuple[str, JobSpec]] = []
    for index, entry in enumerate(entries):
        try:
            if not isinstance(entry, dict):
                raise ValueError(
                    f"expected a JSON object, got {type(entry).__name__}"
                )
            payload = dict(entry)
            tenant = str(payload.pop("tenant", "default"))
            submissions.append((tenant, JobSpec.from_dict(payload)))
        except ValueError as exc:
            raise ValueError(f"job file entry #{index} is invalid: {exc}") from exc
    return submissions


def cmd_submit(args) -> int:
    spec = _spec_from_args(args)
    if args.jobs_file is not None:
        try:
            entries = [
                dict(entry.as_dict(), tenant=tenant)
                for tenant, entry in _load_job_file(args.jobs_file)
            ]
        except FileNotFoundError:
            entries = []
        entries.append(dict(spec.as_dict(), tenant=args.tenant))
        with open(args.jobs_file, "w") as handle:
            json.dump(entries, handle, indent=2)
            handle.write("\n")
        print(
            f"queued request {len(entries)} in {args.jobs_file} "
            f"(tenant {args.tenant}, digest {spec.digest[:8]})"
        )
        return 0

    api = ServiceAPI(ServiceConfig(workers=1))
    batch = api.run_batch([(args.tenant, spec)])
    outcome = batch.outcomes[0]
    if not outcome.accepted:
        print(f"rejected: {outcome.rejection.message}", file=sys.stderr)
        return 1
    status = api.status(outcome.job_id)
    print(f"{outcome.job_id} [{status['state']}] tenant={args.tenant}")
    result = api.result(outcome.job_id)
    if result is not None:
        print(result.report.summary())
        print(f"  best cost: {result.best_cost:+.4f}")
        return 0
    print(f"error: {status['error']}", file=sys.stderr)
    return 1


def cmd_serve(args) -> int:
    try:
        submissions = _load_job_file(args.jobs)
    except FileNotFoundError:
        print(f"error: job file {args.jobs!r} not found", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not submissions:
        print(f"error: job file {args.jobs!r} holds no requests", file=sys.stderr)
        return 1

    config = ServiceConfig(
        workers=args.workers,
        cache_entries=args.cache_size,
        quantum=args.quantum,
        max_open_jobs=args.queue_depth,
        tenant_quota=args.tenant_quota,
        job_timeout_s=args.timeout,
        max_attempts=args.max_attempts,
        retry_backoff_s=args.backoff,
        retry_backoff_max_s=max(args.backoff, args.backoff_max),
        core=args.core,
        timing_only=args.timing_only,
        sim_trace=args.trace_out is not None,
    )
    telemetry = None
    if args.prom_out is not None:
        from repro.telemetry import MetricsRegistry

        telemetry = MetricsRegistry()
    api = ServiceAPI(config, telemetry=telemetry)
    batch = api.run_batch(submissions)

    for (tenant, _spec), outcome in zip(submissions, batch.outcomes):
        if not outcome.accepted:
            rejection = outcome.rejection
            print(f"rejected   tenant={tenant} [{rejection.code}] {rejection.message}")
            continue
        status = api.status(outcome.job_id)
        latency = status["latency_s"]
        cost = status["final_cost"]
        print(
            f"{outcome.job_id} [{status['state']}] tenant={tenant} "
            f"latency={latency:.3f}s"
            + (f" cost={cost:+.4f}" if cost is not None else "")
            + (
                f" (coalesced with {status['coalesced_with']})"
                if status["coalesced_with"]
                else ""
            )
        )

    metrics = batch.metrics
    latency = metrics["latency_s"]
    print(
        f"\n{batch.accepted} accepted / {batch.rejected} rejected; "
        f"latency p50 {latency['p50']:.3f}s p95 {latency['p95']:.3f}s; "
        f"fairness (Jain) {metrics['scheduler']['fairness_jain']:.3f}"
    )
    if "eval_cache" in metrics:
        cache = metrics["eval_cache"]
        print(
            f"eval cache: {cache['eval_cache.hits']:.0f} hits / "
            f"{cache['eval_cache.misses']:.0f} misses / "
            f"{cache['eval_cache.evictions']:.0f} evictions "
            f"({cache['eval_cache.hit_rate']:.1%} hit rate)"
        )
    if args.metrics_out:
        with open(args.metrics_out, "w") as handle:
            json.dump(metrics, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"metrics -> {args.metrics_out}")
    if args.trace_out:
        api.export_trace(args.trace_out)
        print(f"trace -> {args.trace_out}")
    if args.prom_out:
        api.export_prometheus(args.prom_out)
        print(f"prometheus -> {args.prom_out}")
    return 0


def cmd_session(args) -> int:
    """Demo the streamed session tier end to end over a local socket.

    Opens a session (compile once), drives the optimisation by
    streaming raw parameter vectors through the binary protocol, then
    runs the identical spec as a one-shot service job and checks the
    energy histories are bit-identical — the session tier's core
    contract.
    """
    import time

    from repro.service import SessionServer, drive_session
    from repro.service.stream import SessionClient, StreamRemoteError

    spec = _spec_from_args(args)
    requests = 0

    try:
        with SessionServer() as server:
            host, port = server.address
            with SessionClient(host, port) as client:
                handle = client.open(spec.as_dict())

                def evaluate_batch(vectors):
                    nonlocal requests
                    requests += 1
                    return client.evaluate(vectors)

                start = time.perf_counter()
                _params, history = drive_session(
                    spec, int(handle["n_params"]), evaluate_batch
                )
                elapsed = time.perf_counter() - start
                stats = client.close() or {}
    except StreamRemoteError as exc:
        print(f"error: session rejected [{exc.code}] {exc}", file=sys.stderr)
        return 1

    api = ServiceAPI(ServiceConfig(workers=1))
    batch = api.run_batch([("default", spec)])
    outcome = batch.outcomes[0]
    oneshot = api.result(outcome.job_id) if outcome.accepted else None
    identical = (
        oneshot is not None and list(oneshot.cost_history) == list(history)
    )

    rps = requests / elapsed if elapsed > 0 else float("inf")
    if args.json:
        print(
            json.dumps(
                {
                    "session": handle,
                    "stream": {
                        "requests": requests,
                        "vectors": stats.get("vectors"),
                        "elapsed_s": elapsed,
                        "requests_per_s": rps,
                    },
                    "history": list(history),
                    "oneshot_history": (
                        list(oneshot.cost_history) if oneshot else None
                    ),
                    "bit_identical": identical,
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0 if identical else 1

    print(
        f"session {handle['session_id']} "
        f"(structure {str(handle['structure_hash'])[:8]}, "
        f"backend {handle['backend_id']}, {handle['n_params']} params)"
    )
    print(
        f"streamed {requests} requests / {stats.get('vectors', '?')} vectors "
        f"in {elapsed:.3f}s ({rps:.0f} req/s)"
    )
    for index, cost in enumerate(history):
        print(f"  iteration {index + 1}: cost {cost:+.6f}")
    if identical:
        print("parity: session history is bit-identical to the one-shot job")
        return 0
    print(
        "parity: MISMATCH against the one-shot job "
        f"({list(oneshot.cost_history) if oneshot else 'job failed'})",
        file=sys.stderr,
    )
    return 1


def cmd_telemetry(args) -> int:
    """Deterministic telemetry demo/smoke: seeded workload, exports.

    Uses one worker and a step clock so two runs with the same flags
    produce byte-identical Prometheus text, merged trace and event log
    — the property the CI smoke job and the determinism tests pin.
    """
    from repro.service.service import JobService
    from repro.telemetry import (
        EventLog,
        MetricsRegistry,
        StepClock,
        parse_prometheus_text,
        to_prometheus_text,
    )

    registry = MetricsRegistry()
    events = EventLog(sample_every=args.sample_every)
    config = ServiceConfig(workers=1, sim_trace=True)
    service = JobService(
        config, clock=StepClock(), telemetry=registry, events=events
    )
    api = ServiceAPI(service=service)
    submissions = []
    for index in range(args.jobs):
        spec = JobSpec(
            workload="qaoa",
            n_qubits=args.qubits,
            optimizer="spsa",
            shots=args.shots,
            iterations=args.iterations,
            # Pairs share a seed so the coalescer and the shared cache
            # both light up in the exported metrics.
            seed=args.seed + index // 2,
        )
        submissions.append((f"tenant{index % 2}", spec))
    batch = api.run_batch(submissions)

    text = to_prometheus_text(registry)
    families = parse_prometheus_text(text)  # self-check the exposition
    print(
        f"{batch.accepted} accepted / {batch.rejected} rejected; "
        f"{len(families)} metric families; {events.sampled}/{events.seen} "
        "events kept"
    )
    quantiles = service.telemetry.histogram(
        "service.job.latency_s"
    ).percentiles()
    print(
        "latency p50 {p50:.3f}s p95 {p95:.3f}s p99 {p99:.3f}s "
        "(step-clock time)".format(**quantiles)
    )
    if args.prom:
        with open(args.prom, "w") as handle:
            handle.write(text)
        print(f"prometheus -> {args.prom}")
    if args.trace:
        api.export_trace(args.trace)
        print(f"merged trace -> {args.trace}")
    if args.events:
        api.export_events(args.events)
        print(f"events -> {args.events}")
    return 0


def cmd_chaos(args) -> int:
    from repro.analysis.resilience import render_campaign
    from repro.faults.campaign import ALL_SECTIONS, CampaignConfig, run_campaign

    sections = ALL_SECTIONS
    if args.sections is not None:
        sections = tuple(
            part.strip() for part in args.sections.split(",") if part.strip()
        )
    losses = tuple(args.loss) if args.loss else (0.0, 0.01, 0.05)
    try:
        config = CampaignConfig(
            seed=args.seed,
            n_qubits=args.qubits,
            shots=args.shots,
            iterations=args.iterations,
            optimizer=args.optimizer,
            losses=losses,
            crash_p=args.crash_p,
            service_jobs=args.jobs,
            sections=sections,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    results = run_campaign(config)
    print(render_campaign(results))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\ncampaign -> {args.out}")
    return 0


# ----------------------------------------------------------------------
# cluster commands
# ----------------------------------------------------------------------
def _parse_node_events(args) -> Optional[tuple]:
    """--kill/--hang/--partition NODE:AFTER[:ROUNDS] flags -> events."""
    events = []
    for kind in ("kill", "hang", "partition"):
        for text in getattr(args, kind) or ():
            parts = text.split(":")
            if len(parts) not in (2, 3):
                raise ValueError(
                    f"--{kind} expects NODE:AFTER[:ROUNDS], got {text!r}"
                )
            node_id = parts[0]
            try:
                after = int(parts[1])
                duration = int(parts[2]) if len(parts) == 3 else 0
            except ValueError:
                raise ValueError(
                    f"--{kind} expects integer AFTER/ROUNDS, got {text!r}"
                ) from None
            events.append((kind, node_id, after, duration))
    return tuple(events) if events else None


def _print_cluster_outcomes(master, submissions, outcomes) -> None:
    for (tenant, _spec), outcome in zip(submissions, outcomes):
        if not outcome.accepted:
            rejection = outcome.rejection
            print(
                f"rejected   tenant={tenant} [{rejection.code}] "
                f"{rejection.message}"
            )
            continue
        status = master.status(outcome.job_id)
        line = (
            f"{outcome.job_id} [{status['state']}] tenant={tenant} "
            f"node={status['node']} attempts={status['attempts']}"
        )
        if status["error"]:
            line += f" error={status['error']}"
        print(line)


def _print_cluster_summary(snapshot) -> None:
    counters = snapshot["cluster"]
    jobs = snapshot["jobs_by_state"]
    print(
        f"\njobs: {jobs}; dispatched {counters.get('cluster.dispatched', 0)}, "
        f"redispatches {counters.get('cluster.redispatches', 0)}, "
        f"nodes lost {counters.get('cluster.nodes_lost', 0)}, "
        f"duplicate results {counters.get('cluster.duplicate_results', 0)}"
    )


def cmd_cluster(args) -> int:
    from repro.cluster import ClusterConfig, ClusterMaster, LocalCluster, MasterServer
    from repro.cluster import run_worker as run_worker_node

    if args.cluster_command == "worker":
        print(
            f"worker {args.node_id} -> {args.host}:{args.port} "
            f"(capacity {args.capacity})",
            flush=True,
        )
        executed = run_worker_node(
            args.host,
            args.port,
            args.node_id,
            capacity=args.capacity,
            core=args.core,
            timing_only=args.timing_only,
            cache_entries=args.cache_size,
            engine_workers=args.engine_workers,
        )
        print(f"worker {args.node_id} drained after {executed} jobs")
        return 0

    try:
        submissions = _load_job_file(args.jobs)
    except FileNotFoundError:
        print(f"error: job file {args.jobs!r} not found", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not submissions:
        print(f"error: job file {args.jobs!r} holds no requests", file=sys.stderr)
        return 1

    if args.cluster_command == "local":
        from repro.faults.injector import FaultInjector
        from repro.faults.plan import FaultPlan, NodeFaults

        try:
            events = _parse_node_events(args)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        injector = None
        if events:
            injector = FaultInjector(FaultPlan(node=NodeFaults(events=events)))
        cluster = LocalCluster(
            n_nodes=args.nodes,
            injector=injector,
            node_capacity=args.node_capacity,
            core=args.core,
            timing_only=args.timing_only,
            config=None if args.journal is None else ClusterConfig(
                journal_path=args.journal
            ),
        )
        outcomes = [
            cluster.submit(spec, tenant) for tenant, spec in submissions
        ]
        settled = cluster.run(max_rounds=args.rounds)
        _print_cluster_outcomes(cluster.master, submissions, outcomes)
        snapshot = cluster.metrics_snapshot()
        _print_cluster_summary(snapshot)
        if args.metrics_out:
            with open(args.metrics_out, "w") as handle:
                json.dump(snapshot, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"metrics -> {args.metrics_out}")
        cluster.close()
        if not settled:
            print(
                f"error: jobs still open after {args.rounds} rounds",
                file=sys.stderr,
            )
            return 1
        return 0

    # cluster master
    master = ClusterMaster(
        ClusterConfig(
            lease_timeout_s=args.lease_timeout,
            dispatch_timeout_s=args.dispatch_timeout,
            journal_path=args.journal,
        )
    )
    server = MasterServer(master, host=args.host, port=args.port).start()
    # flush: operators (and the scaling bench) scrape this line for the
    # ephemeral port before wiring workers up.
    print(f"master listening on {server.host}:{server.port}", flush=True)
    try:
        if not server.wait_for_nodes(args.nodes, timeout_s=args.wait_timeout):
            print(
                f"error: {args.nodes} workers did not join within "
                f"{args.wait_timeout}s",
                file=sys.stderr,
            )
            return 1
        outcomes = [
            server.submit(spec, tenant) for tenant, spec in submissions
        ]
        drained = server.drain(timeout_s=args.drain_timeout)
        _print_cluster_outcomes(master, submissions, outcomes)
        snapshot = server.metrics_snapshot()
        _print_cluster_summary(snapshot)
        if args.metrics_out:
            with open(args.metrics_out, "w") as handle:
                json.dump(snapshot, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"metrics -> {args.metrics_out}")
        if not drained:
            print(
                f"error: jobs still open after {args.drain_timeout}s",
                file=sys.stderr,
            )
            return 1
        return 0
    finally:
        server.shutdown()


def cmd_info(_args) -> int:
    from repro.quantum.gates import MEASUREMENT_NS, ONE_QUBIT_NS, TWO_QUBIT_NS

    config = QtenonConfig()
    print(f"repro {__version__} — Qtenon (ISCA '25) reproduction")
    print(
        format_table(
            ["constant", "value"],
            [
                ["1q / 2q gate time", f"{ONE_QUBIT_NS:.0f} / {TWO_QUBIT_NS:.0f} ns"],
                ["measurement time", f"{MEASUREMENT_NS:.0f} ns (+processing)"],
                ["PGUs x latency", f"{config.n_pgus} x {config.pgu_latency_cycles} cycles"],
                ["QCC total (64q)", f"{config.total_cache_bytes / 2**20:.2f} MB"],
                ["QSpace per qubit", f"{config.qspace_bytes_per_qubit >> 20} MB"],
                ["bus width / tags", "256 bit / 32"],
            ],
            title="model constants (paper §5, §7.1, Tables 2/4)",
        )
    )
    return 0


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "submit":
        return cmd_submit(args)
    if args.command == "serve":
        return cmd_serve(args)
    if args.command == "session":
        return cmd_session(args)
    if args.command == "telemetry":
        return cmd_telemetry(args)
    if args.command == "chaos":
        return cmd_chaos(args)
    if args.command == "cluster":
        return cmd_cluster(args)
    return cmd_info(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
