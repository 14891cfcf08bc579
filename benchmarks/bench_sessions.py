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

Each path's time is the best of ``repeats`` runs, the two paths
interleaved in ABBA order after one untimed warm-up of each; a run
repeats ``inner`` campaigns, so a single noisy ~0.05 s smoke campaign
cannot decide a gate.  Gates: streamed RPS at least 3x submit RPS (the
acceptance floor), the streamed campaign at most 1.5x the submit wall
time, and identical histories.

Usage::

    python benchmarks/bench_sessions.py            # full run, writes BENCH_sessions.json
    python benchmarks/bench_sessions.py --smoke    # quick gate run
"""

from __future__ import annotations

import concurrent.futures
from typing import Dict, List

import harness
from harness import Gate

from repro.service import (
    JobSpec,
    ServiceConfig,
    ServiceHost,
    drive_session,
)
from repro.service.stream import (
    KIND_EVAL,
    KIND_VALUE,
    StreamDecoder,
    StreamWriter,
    pack_eval,
    pack_values,
    unpack_eval,
    unpack_values,
)

#: Acceptance floors: streamed requests/s must beat submitted jobs/s
#: by at least 3x, and the streamed campaign must not take materially
#: longer than the submit campaign end-to-end.  The wall ceiling is a
#: degenerate-win guard (an RPS ratio earned by simply being slow must
#: fail), with headroom for loop-marshalling jitter at smoke scale.
RPS_RATIO_FLOOR = 3.0
WALL_RATIO_CEILING = 1.5

#: ``inner`` campaigns per timed run bring each region to about a second.
FULL = dict(workload="vqe", qubits=4, shots=200, clients=4, iterations=4, repeats=5,
            inner=8)
SMOKE = dict(workload="vqe", qubits=4, shots=100, clients=2, iterations=3, repeats=5,
             inner=30)

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


def _submit_path(clock, config: Dict[str, int]) -> Dict[str, object]:
    """One job request per client campaign, all enqueued up front."""
    specs = _specs(config)
    with _make_host(config, len(specs)) as host:
        with clock:
            futures = [
                _submit_and_settle(host, spec, f"tenant{j}")
                for j, spec in enumerate(specs)
            ]
            records = [f.result(timeout=600) for f in futures]
    failed = [r.job_id for r in records if r.result is None]
    if failed:
        raise AssertionError(f"submit-path jobs failed: {failed}")
    return {
        "requests": len(specs),
        "steps": len(specs) * config["iterations"],
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


def _stream_path(clock, config: Dict[str, int]) -> Dict[str, object]:
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

        with clock:
            with concurrent.futures.ThreadPoolExecutor(n_clients) as clients:
                histories = list(clients.map(drive_client, range(n_clients)))
        snapshot = host.metrics()

    return {
        "clients": n_clients,
        "requests": sum(counts),
        "steps": n_clients * config["iterations"],
        "histories": histories,
        "stream_batches": snapshot["sessions"]["sessions"].get(
            "sessions.stream_batches", 0.0
        ),
    }


def run_bench(config: Dict[str, int]) -> Dict[str, object]:
    timed = harness.best_of(
        {
            "submit": lambda clock: _submit_path(clock, config),
            "stream": lambda clock: _stream_path(clock, config),
        },
        config["repeats"],
        config["inner"],
    )
    for name, run in timed.items():
        if any(output != run.outputs[0] for output in run.outputs):
            raise AssertionError(f"seeded {name} campaigns diverged between repeats")
    submit, stream = dict(timed["submit"].output), dict(timed["stream"].output)
    for path, seconds in ((submit, timed["submit"].seconds), (stream, timed["stream"].seconds)):
        path["seconds"] = seconds
        path["rps"] = path["requests"] / seconds
    histories = {"stream": stream.pop("histories"), "oneshot": submit.pop("histories")}
    return {
        "config": config,
        "submit": submit,
        "stream": stream,
        "rps_ratio": stream["rps"] / submit["rps"],
        "wall_ratio": stream["seconds"] / submit["seconds"],
        "identical_histories": histories["stream"] == histories["oneshot"],
        "histories": histories,
    }


def gates(host, smoke: bool) -> List[Gate]:
    return [
        Gate("rps_ratio", ">=", RPS_RATIO_FLOOR),
        Gate("wall_ratio", "<=", WALL_RATIO_CEILING),
        Gate("identical_histories", "==", True),
    ]


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


if __name__ == "__main__":
    raise SystemExit(harness.main(__file__, run_bench, _print_report, gates, FULL, SMOKE))
