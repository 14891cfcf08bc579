"""The four client-path workloads of the end-to-end benchmark.

A workload runs in *rounds*.  A round is one full life cycle of its
client path: set-up (host or server start, session OPEN with compile
and pin, engine ``prepare``, and one warm-up op that also does lazy
start-up such as the pool spawn), timed ops for the round's share of
``--seconds``, teardown, then output checks outside the timed window.
Every round starts from an empty process-wide program cache, so each
set-up compiles the way a fresh process would.  ``setup_s`` and
``teardown_s`` are medians over rounds; op latencies pool all rounds.

Inputs derive from the seed alone: the same seed gives the same inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.system import QtenonSystem
from repro.quantum.kernels import PROGRAM_CACHE
from repro.quantum.sampler import DEFAULT_EXACT_LIMIT
from repro.runtime.cache import evaluation_keys
from repro.runtime.engine import EvaluationEngine, build_spec, evaluate_spec_batch
from repro.service import (
    JobSpec,
    JobState,
    ServiceConfig,
    ServiceHost,
    SessionServer,
    stream,
)
from repro.service.platforms import build_engine
from repro.service.service import WORKLOADS as BUILDERS
from repro.vqa import make_optimizer, vqe_workload
from repro.vqa.runner import HybridRunner

from perfbench.spans import Snapshot, Tracer

#: The seed whose first ops are pinned in ``expected.json``.
DEFAULT_SEED = 1

#: Ops per workload covered by the pinned history and timeline (the
#: warm-up op included).  Only round 0 of a default-seed, full-size run
#: is pinned.
PINNED_OPS = {"shift-vqe12": 3, "stream-vqe6": 6, "jobs-mix": 6, "grad-vqe12": 8}

#: Workload sizes.  ``tiny`` runs every path in well under a second per
#: round; the benchmark's own tests use it.
SIZES: Dict[str, Dict[str, dict]] = {
    "full": {
        "shift-vqe12": dict(qubits=12, shots=1000),
        "stream-vqe6": dict(qubits=6, shots=200, clients=2),
        "jobs-mix": dict(qubits=(4, 5, 6, 7), rate=10.0, shots=200, iterations=2, tenants=4),
        "grad-vqe12": dict(qubits=12),
    },
    "tiny": {
        "shift-vqe12": dict(qubits=4, shots=100),
        "stream-vqe6": dict(qubits=3, shots=50, clients=2),
        "jobs-mix": dict(qubits=(4,), rate=20.0, shots=50, iterations=1, tenants=2),
        "grad-vqe12": dict(qubits=3),
    },
}

#: Output checks per round: every Nth pool probe of ``shift-vqe12``,
#: the first SPSA iterations of each ``stream-vqe6`` tenant, direct
#: reference runs of distinct ``jobs-mix`` jobs (repeats are always all
#: checked), and the first GRAD rows of ``grad-vqe12``.
SHIFT_CHECK_STRIDE = 15
STREAM_CHECK_ITERATIONS = 3
JOBS_DIRECT_CHECKS = 8
GRAD_CHECK_ROWS = 4

#: Seconds any single wait may take before the run is declared stuck.
STALL_S = 120.0


class WindowOver(Exception):
    """Raised inside a client loop once the timed window has ended."""


def fingerprint(values: Sequence[float]) -> str:
    """Bit-exact digest of a float history."""
    data = np.asarray(list(values), dtype=np.float64).tobytes()
    return hashlib.blake2b(data, digest_size=12).hexdigest()


def timeline_of(platform) -> Dict[str, int]:
    """The modelled Qtenon timeline so far: end-to-end plus Fig. 13."""
    out = {"end_to_end_ps": int(platform.now)}
    out.update(platform.report.breakdown.as_dict())
    return out


class Run:
    """Everything one invocation measured, across its rounds."""

    def __init__(self, name: str, seed: int, size: str, tracer: Optional[Tracer]) -> None:
        self.name = name
        self.seed = seed
        self.size = size
        self.tracer = tracer
        self.latencies: List[float] = []  #: untraced rounds, seconds
        self.traced_latencies: List[float] = []
        self.window_s = 0.0  #: timed seconds of the untraced rounds
        self.setup: List[float] = []
        self.teardown: List[float] = []
        self.late: List[float] = []  #: open-loop generator lateness, seconds
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.layers = Snapshot.empty()  #: traced rounds' timed windows
        #: round 0's pinned values: {"history": digest, "timeline": ...}
        self.observed: Optional[Dict[str, object]] = None
        self.lock = threading.Lock()


def pinned_failures(run: Run, expected: Dict[str, object]) -> int:
    """Failed ops from the default-seed pins (0 when the run is not pinned)."""
    if run.seed != DEFAULT_SEED or run.size != "full":
        return 0
    observed = json.loads(json.dumps(run.observed))
    if observed is None or expected.get(run.name) != observed:
        run.errors.append(f"{run.name}: pinned history or timeline differs from expected.json")
        return PINNED_OPS[run.name]
    return 0


class Round:
    """One round's clock and counters, handed to a workload function."""

    def __init__(self, run: Run, index: int, seed: int, window_s: float, traced: bool) -> None:
        self.run = run
        self.index = index
        self.seed = seed
        self.window_s = window_s
        self.tracer = run.tracer if traced else None
        self.t0 = time.perf_counter()
        self.start = float("inf")
        self.deadline = float("inf")
        self._before: Optional[Snapshot] = None
        self._closed = False

    # -- the timed window ---------------------------------------------
    def begin(self, now: Optional[float] = None) -> None:
        """Set-up is over: record it and open the timed window."""
        now = time.perf_counter() if now is None else now
        self.run.setup.append(now - self.t0)
        self.start = now
        self.deadline = now + self.window_s
        if self.tracer is not None:
            self._before = self.tracer.snapshot()

    def finish(self, end: float) -> None:
        """Close the timed window at ``end`` (once; no-op if never opened)."""
        if self._closed or self.start == float("inf"):
            return
        self._closed = True
        if self.tracer is None:
            self.run.window_s += max(0.0, end - self.start)
        else:
            window = self.tracer.snapshot().minus(self._before)
            self.run.layers = self.run.layers.plus(window)

    def span(self, layer: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(layer)

    @contextlib.contextmanager
    def teardown(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.run.teardown.append(time.perf_counter() - start)

    # -- outcomes -----------------------------------------------------
    def op(self, latency: float) -> None:
        with self.run.lock:
            self.run.attempted += 1
            if self.tracer is None:
                self.run.latencies.append(latency)
            else:
                self.run.traced_latencies.append(latency)

    def fail(self, why: str, ops: int = 1, attempted: bool = False) -> None:
        """Count ``ops`` failed ops; ``attempted`` if they never completed."""
        with self.run.lock:
            if attempted:
                self.run.attempted += ops
            self.run.failed += ops
            self.run.errors.append(why)

    def check(self, what: str, got: Sequence, expected: Sequence) -> None:
        """Count each output that is not bit-identical as a failed op."""
        if len(got) != len(expected):
            self.fail(f"{what}: {len(got)} outputs vs {len(expected)}", max(1, len(expected)))
            return
        bad = sum(
            1 for a, b in zip(got, expected)
            if not np.array_equal(np.asarray(a), np.asarray(b))
        )
        if bad:
            self.fail(f"{what}: {bad} of {len(got)} outputs differ", bad)

    def pin(self, history: Sequence[float], timeline: Optional[object]) -> None:
        """Record round 0's history and timeline for the pinned check."""
        if self.index == 0:
            self.run.observed = {"history": fingerprint(history), "timeline": timeline}


# ----------------------------------------------------------------------
# shift-vqe12: HybridRunner over a 2-worker engine, parameter-shift GD
# ----------------------------------------------------------------------
class _StepClock:
    """Optimizer proxy for :class:`HybridRunner`.

    Step 0 is the warm-up op inside set-up (it spawns the pool).  Later
    steps are timed from one step's start to the next, and the first
    step that would start after the window ends raises
    :class:`WindowOver` instead.
    """

    def __init__(self, inner, ctx: Round, platform, pinned: int) -> None:
        self.inner = inner
        self.method = inner.method
        self.ctx = ctx
        self.platform = platform
        self.pinned = pinned
        self.history: List[float] = []
        self.timeline: Optional[Dict[str, int]] = None
        #: (vectors, energies) of the first timed probe batch.
        self.probes: Optional[Tuple[List[np.ndarray], List[float]]] = None
        self._started = 0.0

    def reset(self) -> None:
        self.inner.reset()

    def run_iteration(self, params, evaluate, evaluate_many=None, evaluate_gradient=None):
        now = time.perf_counter()
        step = len(self.history)
        if step == self.pinned:
            self.timeline = timeline_of(self.platform)
        if step == 1:
            self.ctx.begin(now)
            evaluate_many = self._capture(evaluate_many)
        elif step > 1:
            self.ctx.op(now - self._started)
            if now >= self.ctx.deadline:
                self.ctx.finish(now)
                raise WindowOver
        self._started = now
        outcome = self.inner.run_iteration(
            params, evaluate, evaluate_many=evaluate_many,
            evaluate_gradient=evaluate_gradient,
        )
        self.history.append(outcome.cost)
        return outcome

    def _capture(self, evaluate_many):
        def capture(vectors):
            values = evaluate_many(vectors)
            if self.probes is None:
                self.probes = ([np.array(v) for v in vectors], list(values))
            return values
        return capture


def shift_vqe12(ctx: Round, size: dict) -> None:
    qubits, shots = size["qubits"], size["shots"]
    workload = vqe_workload(qubits)
    engine = EvaluationEngine(
        QtenonSystem(qubits, seed=ctx.seed), max_workers=2, seed=ctx.seed
    )
    steps = _StepClock(
        make_optimizer("gd", seed=ctx.seed), ctx, engine.platform,
        PINNED_OPS["shift-vqe12"],
    )
    runner = HybridRunner(
        engine, workload.ansatz, workload.parameters, workload.observable,
        steps, shots=shots, iterations=10 ** 9,
    )
    try:
        runner.run(seed=ctx.seed)
    except WindowOver:
        pass
    finally:
        with ctx.teardown():
            engine.finish()  # stops the pool
    ctx.pin(steps.history[: steps.pinned], steps.timeline)
    if steps.probes is None:
        ctx.fail("shift-vqe12: no timed step ran", attempted=True)
        return
    # Pool energies against a serial evaluation of the same probes.
    vectors, energies = steps.probes
    sampler = engine.platform.sampler
    spec = build_spec(
        workload.ansatz, workload.observable,
        exact_limit=getattr(sampler, "exact_limit", DEFAULT_EXACT_LIMIT),
        force_backend=getattr(sampler, "force_backend", None),
        readout_noise=getattr(sampler, "readout_noise", None),
    )
    position = {id(p): i for i, p in enumerate(workload.parameters)}
    perm = [position[id(p)] for p in spec.parameters]
    slots = [np.asarray(v, dtype=np.float64)[perm] for v in vectors]
    keys = evaluation_keys(spec.structure_hash, slots, shots, ctx.seed, spec.backend_id)
    picks = range(0, len(slots), SHIFT_CHECK_STRIDE)
    serial = evaluate_spec_batch(
        spec, [slots[i] for i in picks], shots, [keys[i].sampler_seed for i in picks]
    )
    ctx.check("pool energies vs serial", [energies[i] for i in picks], serial)


# ----------------------------------------------------------------------
# stream-vqe6: two tenants streaming SPSA through a resident ServiceHost
# ----------------------------------------------------------------------
class _StreamClient:
    """One tenant's closed loop; every EVAL passes the frame codec."""

    def __init__(self, ctx: Round, host: ServiceHost, spec: JobSpec, session, ready) -> None:
        self.ctx = ctx
        self.host = host
        self.spec = spec
        self.session = session
        self.ready = ready
        self.history: List[float] = []
        self.timeline: Optional[Dict[str, int]] = None
        self.last_end = 0.0
        self.requests = 0
        self._tx = (stream.StreamWriter(), stream.StreamDecoder())
        self._rx = (stream.StreamWriter(), stream.StreamDecoder())

    def _send(self, vectors) -> List[float]:
        writer, decoder = self._tx
        (_seq, _kind, body), = decoder.feed(
            writer.encode(stream.KIND_EVAL, stream.pack_eval(vectors, 0))
        )
        decoded, shots = stream.unpack_eval(body)
        values = self.host.evaluate(self.session.session_id, list(decoded), shots)
        writer, decoder = self._rx
        (_seq, _kind, reply), = decoder.feed(
            writer.encode(stream.KIND_VALUE, stream.pack_values(values))
        )
        return stream.unpack_values(reply)

    def request(self, vectors) -> List[float]:
        start = time.perf_counter()
        warmup = self.requests == 0
        if not warmup and start >= self.ctx.deadline:
            raise WindowOver
        with self.ctx.span("client"):
            values = self._send(vectors)
            if warmup:  # set-up ends once every tenant's warm-up op is back
                self.ready.wait(timeout=STALL_S)
        end = time.perf_counter()
        self.requests += 1
        if not warmup:
            self.ctx.op(end - start)
            self.last_end = end
        if self.requests == PINNED_OPS["stream-vqe6"]:
            self.timeline = timeline_of(self.session.engine.platform)
        return values

    def run(self) -> None:
        """The client half of ``drive_session``, bounded by the window."""
        spec = self.spec
        params = np.random.default_rng(spec.seed).uniform(
            -0.5, 0.5, size=self.session.n_params
        )
        optimizer = make_optimizer(spec.optimizer, seed=spec.seed)
        optimizer.reset()
        try:
            while True:
                outcome = optimizer.run_iteration(
                    params, lambda v: self.request([v])[0], evaluate_many=self.request
                )
                params = outcome.params
                self.history.append(outcome.cost)
        except WindowOver:
            pass
        except Exception as exc:  # a failed op ends this client's loop
            self.ready.abort()
            self.ctx.fail(f"stream op: {type(exc).__name__}: {exc}", attempted=True)


def stream_vqe6(ctx: Round, size: dict) -> None:
    host = ServiceHost(ServiceConfig(workers=2, cache_entries=0)).start()
    specs = [
        JobSpec(workload="vqe", n_qubits=size["qubits"], optimizer="spsa",
                shots=size["shots"], iterations=1, seed=ctx.seed + j)
        for j in range(size["clients"])
    ]
    sessions = []
    clients: List[_StreamClient] = []
    try:
        sessions = [host.open_session(spec, f"tenant{j}") for j, spec in enumerate(specs)]
        ready = threading.Barrier(len(specs), action=ctx.begin)
        clients = [
            _StreamClient(ctx, host, spec, session, ready)
            for spec, session in zip(specs, sessions)
        ]
        threads = [threading.Thread(target=c.run, daemon=True) for c in clients]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=ctx.window_s + STALL_S)
            if thread.is_alive():
                raise RuntimeError("a stream-vqe6 client did not stop")
        ctx.finish(max(c.last_end for c in clients) or time.perf_counter())
    finally:
        with ctx.teardown():
            for session in sessions:
                host.close_session(session.session_id)
            host.stop()
    pinned: List[float] = []
    for client in clients:
        pinned += client.history[:STREAM_CHECK_ITERATIONS]
        # Streamed history against a one-shot run of the same spec.
        k = min(STREAM_CHECK_ITERATIONS, len(client.history))
        if k:
            ctx.check(
                f"streamed vs one-shot history (seed {client.spec.seed})",
                client.history[:k], _one_shot(client.spec, k).cost_history,
            )
    ctx.pin(pinned, [client.timeline for client in clients])


def _one_shot(spec: JobSpec, iterations: int):
    """A direct ``HybridRunner`` run of ``spec``: the reference."""
    workload = BUILDERS[spec.workload](spec.n_qubits)
    engine = build_engine(spec)
    try:
        return HybridRunner(
            engine, workload.ansatz, workload.parameters, workload.observable,
            make_optimizer(spec.optimizer, seed=spec.seed),
            shots=spec.shots, iterations=iterations,
        ).run(seed=spec.seed)
    finally:
        engine.close()


# ----------------------------------------------------------------------
# jobs-mix: open-loop one-shot submits at a fixed rate, with repeats
# ----------------------------------------------------------------------
KINDS = ("qaoa", "vqe", "qnn")


def job_plan(seed: int, window_s: float, size: dict) -> List[Tuple[JobSpec, str, Optional[int]]]:
    """``(spec, tenant, index of the job it repeats)`` for one round.

    Distinct jobs walk every (kind, width) structure in seeded order,
    twice per cycle of ``3 x structures`` jobs, and every third job
    exactly repeats one of the two jobs before it.  Rounding the job
    count to whole cycles keeps the mix the same for every seed.
    """
    rng = np.random.default_rng(seed)
    structures = [(kind, q) for kind in KINDS for q in size["qubits"]]
    cycle = 3 * len(structures)
    n_jobs = cycle * max(1, round(size["rate"] * window_s / cycle))
    plan: List[Tuple[JobSpec, str, Optional[int]]] = []
    order: List[int] = []
    for i in range(n_jobs):
        tenant = f"tenant{i % size['tenants']}"
        if i % 3 == 2:
            source = i - 1 - int(rng.integers(2))
            plan.append((plan[source][0], tenant, source))
            continue
        if not order:
            order = [int(k) for k in rng.permutation(len(structures))]
        kind, qubits = structures[order.pop()]
        spec = JobSpec(
            workload=kind, n_qubits=qubits, optimizer="spsa", shots=size["shots"],
            iterations=size["iterations"], seed=int(rng.integers(1 << 31)),
        )
        plan.append((spec, tenant, None))
    return plan


def jobs_mix(ctx: Round, size: dict) -> None:
    host = ServiceHost(ServiceConfig(workers=2, cache_entries=4096)).start()
    plan = job_plan(ctx.seed, ctx.window_s, size)
    n_jobs = len(plan)
    # One slot per job, plus the warm-up job's at the end.
    records: List[Optional[object]] = [None] * (n_jobs + 1)
    finished: List[Optional[float]] = [None] * (n_jobs + 1)
    due: List[float] = []
    settled = threading.Semaphore(0)

    def submit(i: int, spec: JobSpec, tenant: str) -> bool:
        def done(record) -> None:
            finished[i] = time.perf_counter()
            records[i] = record
            settled.release()

        return host.call(host.service.submit, spec, tenant, done).accepted

    try:
        # Warm-up: a job outside the mix starts the executor threads.
        warmup = JobSpec(workload="vqe", n_qubits=3, optimizer="spsa",
                         shots=size["shots"], iterations=1, seed=ctx.seed)
        if not submit(n_jobs, warmup, "warmup") or not settled.acquire(timeout=STALL_S):
            raise RuntimeError("jobs-mix warm-up job did not settle")
        ctx.begin()
        accepted = 0
        for i, (spec, tenant, _source) in enumerate(plan):
            due.append(ctx.start + i / size["rate"])
            delay = due[i] - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            ctx.run.late.append(time.perf_counter() - due[i])
            if submit(i, spec, tenant):
                accepted += 1
            else:
                ctx.fail(f"job {i} rejected at admission", attempted=True)
        for _ in range(accepted):
            if not settled.acquire(timeout=STALL_S):
                raise RuntimeError("jobs-mix jobs did not settle")
        ends = [end for end in finished[:n_jobs] if end is not None]
        ctx.finish(max(ends) if ends else time.perf_counter())
        for i in range(n_jobs):
            record = records[i]
            if record is None:
                continue
            if record.state is JobState.DONE:
                ctx.op(finished[i] - due[i])
            else:
                ctx.fail(f"job {i} {record.state.value}: {record.error}", attempted=True)
    finally:
        with ctx.teardown():
            host.stop()
    histories = [
        list(r.result.cost_history) if r is not None and r.result is not None else []
        for r in records[:n_jobs]
    ]
    ctx.pin([v for h in histories[: PINNED_OPS["jobs-mix"]] for v in h], None)
    direct = 0
    for i, (spec, _tenant, source) in enumerate(plan):
        if records[i] is None:
            continue
        if source is not None:
            ctx.check(f"repeat {i} vs job {source}", histories[i], histories[source])
        elif direct < JOBS_DIRECT_CHECKS:
            direct += 1
            reference = _one_shot(spec, spec.iterations).cost_history
            ctx.check(f"job {i} vs direct run", histories[i], reference)


# ----------------------------------------------------------------------
# grad-vqe12: one SessionClient streaming GRAD over loopback TCP
# ----------------------------------------------------------------------
class _GradClient:
    """Supplies ``evaluate_gradient`` to the optimizer, one GRAD per op."""

    def __init__(self, ctx: Round, client: stream.SessionClient, session) -> None:
        self.ctx = ctx
        self.client = client
        self.session = session
        self.calls = 0
        self.last_end = 0.0
        self.timeline: Optional[Dict[str, int]] = None
        #: (vector, energy, gradient) of the first timed ops.
        self.rows: List[Tuple[np.ndarray, float, np.ndarray]] = []

    def gradient(self, vector: np.ndarray):
        start = time.perf_counter()
        if self.calls and start >= self.ctx.deadline:
            self.ctx.finish(self.last_end)
            raise WindowOver
        with self.ctx.span("client"):
            energies, grads = self.client.gradients([vector], 0)
        end = time.perf_counter()
        if self.calls == 0:  # the warm-up op, inside set-up
            self.ctx.begin(end)
        else:
            self.ctx.op(end - start)
            self.last_end = end
            if len(self.rows) < GRAD_CHECK_ROWS:
                self.rows.append((np.array(vector), energies[0], grads[0]))
        self.calls += 1
        if self.calls == PINNED_OPS["grad-vqe12"]:
            self.timeline = timeline_of(self.session.engine.platform)
        return energies[0], grads[0]


def _no_probe(_vector):
    raise RuntimeError("the adjoint path fell back to parameter-shift probes")


def grad_vqe12(ctx: Round, size: dict) -> None:
    spec = JobSpec(workload="vqe", n_qubits=size["qubits"], optimizer="gd",
                   shots=0, iterations=1, seed=ctx.seed)
    server = SessionServer().start()
    client: Optional[stream.SessionClient] = None
    loop: Optional[_GradClient] = None
    history: List[float] = []
    try:
        client = stream.SessionClient(*server.address)
        handle = client.open(spec.as_dict(), tenant="tenant0")
        loop = _GradClient(ctx, client, server.manager.get(handle["session_id"]))
        params = np.random.default_rng(spec.seed).uniform(
            -0.5, 0.5, size=int(handle["n_params"])
        )
        optimizer = make_optimizer("gd", seed=spec.seed, gradient="adjoint")
        optimizer.reset()
        try:
            while True:
                outcome = optimizer.run_iteration(
                    params, _no_probe, evaluate_gradient=loop.gradient
                )
                params = outcome.params
                history.append(outcome.cost)
        except WindowOver:
            pass
        except Exception as exc:
            ctx.fail(f"grad op: {type(exc).__name__}: {exc}", attempted=True)
        ctx.finish(loop.last_end or time.perf_counter())
    finally:
        with ctx.teardown():
            if client is not None:
                client.close()
            server.stop()
    ctx.pin(history[: PINNED_OPS["grad-vqe12"]], loop.timeline)
    # GRAD rows against a serial engine's adjoint gradients, row by row.
    workload = BUILDERS[spec.workload](spec.n_qubits)
    engine = build_engine(spec)
    try:
        engine.prepare(workload.ansatz, workload.observable)
        for index, (vector, energy, grad) in enumerate(loop.rows):
            energies, grads = engine.evaluate_gradients(
                workload.ansatz.parameters, [vector], 0
            )
            ctx.check(f"GRAD row {index} vs serial", [energy, grad], [energies[0], grads[0]])
    finally:
        engine.close()


WORKLOADS: Dict[str, Callable[[Round, dict], None]] = {
    "shift-vqe12": shift_vqe12,
    "stream-vqe6": stream_vqe6,
    "jobs-mix": jobs_mix,
    "grad-vqe12": grad_vqe12,
}


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool = False,
    size: str = "full",
    rounds: Optional[int] = None,
) -> Run:
    """Run ``name`` for ``seconds`` of timed ops, split across rounds.

    Untraced runs use five rounds, so that the per-round set-up and
    teardown medians are steady.  Traced runs alternate untraced and
    traced rounds (four by default): per-layer numbers come from the
    traced ones, and the latency ratio between the two kinds is the
    tracing overhead.
    """
    if rounds is None:
        rounds = 4 if trace else 5
    run = Run(name, seed, size, Tracer() if trace else None)
    for index in range(rounds):
        traced = trace and index % 2 == 1
        PROGRAM_CACHE.clear()
        if traced:
            run.tracer.install()
        try:
            ctx = Round(run, index, seed * 101 + index, seconds / rounds, traced)
            WORKLOADS[name](ctx, SIZES[size][name])
        finally:
            if traced:
                run.tracer.uninstall()
    return run
