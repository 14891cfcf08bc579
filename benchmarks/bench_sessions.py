"""Session-tier benchmark: streamed parameter requests vs the submit path.

Measures the quantity the session tier exists to improve: sustained
request throughput of a *duplicate-structure* parameter stream — the
access pattern of every hybrid optimisation loop, where the circuit
structure and observable never change between requests and only the
parameter vector does (Rigetti QCS's parametric-compilation +
active-reservation model).  The same campaign — ``clients``
independent SPSA optimisations of ``iterations`` steps each — is
driven through both client surfaces:

* **submit** — the session-free client: the whole campaign is one
  heavyweight job request per client (JobSpec -> admission -> DRR ->
  platform build -> run-to-completion -> settle).  The client cannot
  observe or steer anything until the job settles; the request rate
  the service sustains is one request per campaign.
* **stream** — the session client: one ``open_session`` per client
  (compile once, programs pinned), then the optimiser runs *remotely
  steered*: every SPSA step round-trips its parameter vectors as raw
  binary frames (two requests per step — the perturbed pair, then the
  updated point).  Every request passes through the real frame
  encoder/decoder so wire cost is charged, then schedules through the
  same DRR queue as jobs.

Both paths execute identical evaluation work, so the interesting
contrast is request-processing capacity: the streamed tier serves
``2 x iterations`` fine-grained, client-blocking requests per campaign
in (at most) the wall time the submit path needs for one.  That is the
paper's low-latency integration claim in service form — fine-grained
hybrid interaction at no throughput cost.  The wall-time ratio is
gated alongside RPS precisely so the request-rate win can never come
from the streamed path simply being slower.

Parity rides on the same runs: each streamed client's energy history
must be bit-identical to its submit-path job of the same spec (same
content-addressed evaluation keys => same sampler seeds => identical
energies) — the session tier's correctness contract.

Each path's time is the best of ``repeats`` campaigns, the two paths
interleaved in ABBA order after one untimed warm-up of each, so a
single noisy ~0.1 s smoke campaign cannot decide a gate.

Results persist to ``BENCH_sessions.json`` at the repo root;
``--smoke`` re-measures a reduced configuration and fails if streamed
RPS drops below 3x submit RPS (the acceptance floor), the streamed
campaign takes >1.5x the submit wall time, or histories diverge.

Usage::

    python benchmarks/bench_sessions.py            # full run, update JSON
    python benchmarks/bench_sessions.py --smoke    # quick regression gate
"""

from __future__ import annotations

import argparse
import concurrent.futures
import gc
import json
import os
import sys
import time
from typing import Dict, List, Optional

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.service import (  # noqa: E402
    JobSpec,
    ServiceConfig,
    ServiceHost,
    drive_session,
)
from repro.service.stream import (  # noqa: E402
    KIND_EVAL,
    KIND_VALUE,
    StreamDecoder,
    StreamWriter,
    pack_eval,
    pack_values,
    unpack_eval,
    unpack_values,
)

RESULT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_sessions.json",
)

#: >20% regression against the recorded ratio fails the smoke gate.
REGRESSION_TOLERANCE = 0.20

#: Acceptance floors: streamed requests/s must beat submitted jobs/s
#: by at least 3x, and the streamed campaign must not take materially
#: longer than the submit campaign end-to-end.  The wall ceiling is a
#: degenerate-win guard (an RPS ratio earned by simply being slow must
#: fail), with headroom for loop-marshalling jitter at smoke scale.
RPS_RATIO_FLOOR = 3.0
WALL_RATIO_CEILING = 1.5

FULL = dict(workload="vqe", qubits=4, shots=200, clients=4, iterations=4, repeats=5)
SMOKE = dict(workload="vqe", qubits=4, shots=100, clients=2, iterations=3, repeats=7)

SEED = 11


def _campaign_spec(config: Dict[str, int], seed: int) -> JobSpec:
    return JobSpec(
        workload=config["workload"], n_qubits=config["qubits"],
        optimizer="spsa", shots=config["shots"],
        iterations=config["iterations"], seed=seed, platform="qtenon",
    )


def _specs(config: Dict[str, int]) -> List[JobSpec]:
    return [
        _campaign_spec(config, seed=SEED + j) for j in range(config["clients"])
    ]


def _make_host(config: Dict[str, int], n_jobs: int) -> ServiceHost:
    return ServiceHost(
        ServiceConfig(
            workers=1,
            cache_entries=0,  # no result reuse: both paths compute every step
            tenant_quota=max(64, n_jobs),
            max_open_jobs=max(256, n_jobs),
        )
    ).start()  # idempotent: the ``with`` block's __enter__ is a no-op


def _submit_and_settle(host: ServiceHost, spec: JobSpec, tenant: str):
    done: "concurrent.futures.Future" = concurrent.futures.Future()
    outcome = host.call(host.service.submit, spec, tenant, done.set_result)
    if not outcome.accepted:
        raise AssertionError(f"submission rejected: {outcome.rejection}")
    return done


def _submit_path(config: Dict[str, int]) -> Dict[str, object]:
    """One job request per client campaign, all enqueued up front."""
    specs = _specs(config)
    with _make_host(config, len(specs)) as host:
        start = time.perf_counter()
        futures = [
            _submit_and_settle(host, spec, f"tenant{j}")
            for j, spec in enumerate(specs)
        ]
        records = [f.result(timeout=600) for f in futures]
        elapsed = time.perf_counter() - start
    failed = [r.job_id for r in records if r.result is None]
    if failed:
        raise AssertionError(f"submit-path jobs failed: {failed}")
    n_requests = len(specs)
    return {
        "requests": n_requests,
        "steps": n_requests * config["iterations"],
        "seconds": elapsed,
        "rps": n_requests / elapsed,
        "histories": [list(r.result.cost_history) for r in records],
    }


def _wire_evaluate(host: ServiceHost, session_id: str):
    """An evaluate_batch that charges the real wire cost per request:
    the batch goes through the frame encoder + decoder on the way in
    and the values frame on the way out, exactly as a socket client's
    would."""
    tx_writer, tx_decoder = StreamWriter(), StreamDecoder()
    rx_writer, rx_decoder = StreamWriter(), StreamDecoder()

    def evaluate_batch(vectors) -> List[float]:
        frames = tx_decoder.feed(
            tx_writer.encode(KIND_EVAL, pack_eval(vectors, 0))
        )
        (_seq, _kind, body), = frames
        decoded, shots = unpack_eval(body)
        values = host.evaluate(session_id, list(decoded), shots)
        reply, = rx_decoder.feed(rx_writer.encode(KIND_VALUE, pack_values(values)))
        return unpack_values(reply[2])

    return evaluate_batch


def _stream_path(config: Dict[str, int]) -> Dict[str, object]:
    """The same campaigns, remotely steered over sessions.

    Clients run concurrently (each one's own loop is sequential — an
    optimiser's steps are data-dependent — but independent clients
    overlap, matching the submit path's up-front enqueue of all jobs).
    """
    n_clients = config["clients"]
    specs = _specs(config)
    counts = [0] * n_clients
    with _make_host(config, n_clients) as host:

        def drive_client(j: int) -> List[float]:
            spec = specs[j]
            session = host.call(
                host.service.open_session, spec, f"tenant{j}"
            )
            raw_evaluate = _wire_evaluate(host, session.session_id)

            def evaluate_batch(vectors):
                counts[j] += 1
                return raw_evaluate(vectors)

            _params, history = drive_session(
                spec, session.n_params, evaluate_batch
            )
            host.close_session(session.session_id)
            return list(history)

        start = time.perf_counter()
        with concurrent.futures.ThreadPoolExecutor(n_clients) as clients:
            histories = list(clients.map(drive_client, range(n_clients)))
        elapsed = time.perf_counter() - start
        snapshot = host.metrics()
    requests = sum(counts)

    return {
        "clients": n_clients,
        "requests": requests,
        "steps": n_clients * config["iterations"],
        "seconds": elapsed,
        "rps": requests / elapsed,
        "histories": histories,
        "stream_batches": snapshot["sessions"]["sessions"].get(
            "sessions.stream_batches", 0.0
        ),
    }


def _timed_paths(config: Dict[str, int]) -> Dict[str, Dict[str, object]]:
    """Best-of-``repeats`` run of each path, interleaved in ABBA order
    after one untimed warm-up of both.

    A single campaign lasts about 0.1 s at smoke scale, short enough
    for one scheduler hiccup to swing the wall ratio past its ceiling;
    the minimum over interleaved repeats keeps host-load drift from
    landing on one path only.  Every repeat must reproduce the same
    histories (the campaigns are seeded).
    """
    paths = {"submit": _submit_path, "stream": _stream_path}
    for run in paths.values():
        run(config)  # warm-up: imports, program cache, thread pools
    best: Dict[str, Dict[str, object]] = {}
    for repeat in range(config["repeats"]):
        order = ("submit", "stream") if repeat % 2 == 0 else ("stream", "submit")
        for name in order:
            gc.collect()  # no run pays for its predecessor's garbage
            result = paths[name](config)
            if name in best and result["histories"] != best[name]["histories"]:
                raise AssertionError(f"seeded {name} campaigns diverged between repeats")
            if name not in best or result["seconds"] < best[name]["seconds"]:
                best[name] = result
    return best


def run_bench(config: Dict[str, int]) -> Dict[str, object]:
    best = _timed_paths(config)
    submit, stream = best["submit"], best["stream"]
    identical = stream["histories"] == submit["histories"]
    histories = {
        "stream": stream.pop("histories"),
        "oneshot": submit.pop("histories"),
    }
    return {
        "config": {**config, "usable_cpus": len(os.sched_getaffinity(0))},
        "submit": submit,
        "stream": stream,
        "rps_ratio": stream["rps"] / submit["rps"],
        "wall_ratio": stream["seconds"] / submit["seconds"],
        "identical_histories": identical,
        "histories": histories,
    }


def _print_report(mode: str, result: Dict[str, object]) -> None:
    submit, stream = result["submit"], result["stream"]
    config = result["config"]
    print(
        f"[bench_sessions/{mode}] {config['clients']} clients x "
        f"{config['iterations']} SPSA steps, {config['workload']} {config['qubits']}q"
    )
    print(
        f"  submit path: {submit['requests']} job requests "
        f"({submit['steps']} steps) in {submit['seconds']:.2f}s "
        f"({submit['rps']:.1f} req/s)"
    )
    print(
        f"  stream path: {stream['requests']} streamed requests "
        f"({stream['steps']} steps) in {stream['seconds']:.2f}s "
        f"({stream['rps']:.1f} req/s)"
    )
    print(
        f"  streamed/submit RPS ratio: {result['rps_ratio']:.2f}x "
        f"at {result['wall_ratio']:.2f}x the wall time"
    )
    print(
        "  histories bit-identical to one-shot jobs: "
        f"{result['identical_histories']}"
    )


def _load_recorded() -> Dict[str, object]:
    if not os.path.exists(RESULT_PATH):
        return {}
    with open(RESULT_PATH) as handle:
        return json.load(handle)


def _check_regression(recorded: Dict[str, object], current: Dict[str, object]) -> int:
    failures = []
    baseline = recorded["rps_ratio"]
    floor = min(baseline, RPS_RATIO_FLOOR) * (1.0 - REGRESSION_TOLERANCE)
    floor = max(floor, RPS_RATIO_FLOOR)  # never gate below the acceptance 3x
    measured = current["rps_ratio"]
    status = "ok" if measured >= floor else "REGRESSION"
    print(
        f"  rps_ratio: {measured:.2f} vs recorded {baseline:.2f} "
        f"(floor {floor:.2f}) {status}"
    )
    if measured < floor:
        failures.append("rps_ratio")
    if current["wall_ratio"] > WALL_RATIO_CEILING:
        print(
            f"  wall_ratio: {current['wall_ratio']:.2f} exceeds "
            f"ceiling {WALL_RATIO_CEILING:.2f} REGRESSION"
        )
        failures.append("wall_ratio")
    if not current["identical_histories"]:
        failures.append("identical_histories")
    if failures:
        print(f"regression gate FAILED: {', '.join(failures)}")
        return 1
    print("regression gate passed")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced configuration + regression gate against BENCH_sessions.json",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="write the measured results into BENCH_sessions.json",
    )
    args = parser.parse_args(argv)

    mode = "smoke" if args.smoke else "full"
    result = run_bench(SMOKE if args.smoke else FULL)
    _print_report(mode, result)
    if not result["identical_histories"]:
        print("FAILED: streamed histories diverge from one-shot jobs")
        return 1

    recorded = _load_recorded()
    if args.update or not args.smoke or mode not in recorded:
        recorded[mode] = result
        with open(RESULT_PATH, "w") as handle:
            json.dump(recorded, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"recorded -> {RESULT_PATH}")
        return 0
    return _check_regression(recorded[mode], result)


if __name__ == "__main__":
    raise SystemExit(main())
