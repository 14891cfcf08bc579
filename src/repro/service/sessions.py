"""Parametric-compilation sessions: register once, stream parameters.

The one-shot submit path pays its full setup — spec validation, dict
round-trips, platform construction, per-group transpilation — on every
request, even when a hybrid optimiser asks for thousands of
evaluations of *one circuit structure*.  Rigetti's QCS solved this
with parametric compilation plus active reservations: the program is
compiled once against the control hardware, a reservation holds the
binding, and each iteration ships only the parameter values.  This
module is that tier for the service:

* :meth:`SessionManager.open` validates the spec once, counts the
  session against the tenant's admission quota, builds the platform +
  :class:`~repro.runtime.engine.EvaluationEngine` stack (the same
  construction the one-shot path uses — see
  :func:`repro.service.platforms.build_engine`), prepares the workload
  and **pins** its compiled programs in the process-wide
  :data:`~repro.quantum.kernels.PROGRAM_CACHE` so other tenants'
  compiles cannot evict the hot structure;
* every subsequent request is a raw parameter-vector batch fed
  straight into
  :meth:`~repro.runtime.engine.EvaluationEngine.evaluate_vectors` —
  no JobSpec, no dict, no JSON (the wire form lives in
  :mod:`repro.service.stream`);
* sessions hold a **lease** (the cluster's heartbeat pattern): every
  batch renews it, and :meth:`SessionManager.expire_idle` reaps
  sessions whose lease ran out — strictly-greater comparison, so a
  renewal in the same tick as the expiry sweep wins deterministically;
* backend health gates streaming: batches against an unhealthy
  platform backend fail with a structured :class:`SessionError`
  instead of burning a worker slot on a doomed evaluation.

Determinism contract: the engine is seeded with ``spec.seed`` and the
evaluation keys are derived from (structure hash, vector, shots, seed,
backend) exactly as the one-shot path derives them — so a streamed
optimisation driven by :func:`drive_session` reproduces a one-shot
job's energy history bit for bit.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.faults.protocol import Connection, FrameServer
from repro.quantum.kernels import PROGRAM_CACHE
from repro.quantum.parameters import Parameter
from repro.runtime.engine import EvaluationEngine
from repro.service import stream as wire
from repro.service.admission import AdmissionController
from repro.service.health import HealthRegistry
from repro.service.jobs import JobSpec
from repro.service.platforms import WORKLOADS, build_engine
from repro.sim.stats import StatGroup
from repro.vqa import make_optimizer
from repro.vqa.runner import optimize

#: Default idle-lease length.  Long enough that a slow optimiser step
#: between batches never loses the session; short enough that a client
#: that vanished frees its quota within a human's patience.
DEFAULT_LEASE_TIMEOUT_S = 30.0

# -- structured error codes --------------------------------------------
ERR_UNKNOWN_SESSION = "unknown_session"
ERR_SESSION_CLOSED = "session_closed"
ERR_SESSION_EXPIRED = "session_expired"
ERR_SESSION_FAILED = "session_failed"
ERR_BACKEND_UNHEALTHY = "backend_unhealthy"
ERR_EVALUATION_FAILED = "evaluation_failed"
ERR_MALFORMED = "malformed_open"
ERR_EMPTY_BATCH = "empty_batch"
ERR_BAD_VECTOR = "bad_vector"
ERR_ADJOINT_UNSUPPORTED = "adjoint_unsupported"


class SessionError(Exception):
    """Structured session-tier failure (maps 1:1 onto ERROR frames)."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


@dataclass
class Session:
    """One open reservation: compiled structure + streaming state."""

    session_id: str
    tenant: str
    spec: JobSpec
    engine: EvaluationEngine
    parameters: List[Parameter]
    structure_hash: str
    backend_id: str
    opened_s: float
    last_renewed_s: float
    #: keys this session pinned in the process-wide replay cache.
    program_keys: List[str] = field(default_factory=list)
    state: str = "open"  #: open | closed | expired | failed
    batches: int = 0
    vectors_evaluated: int = 0
    #: serialises evaluations of this session's engine (one engine is
    #: not safe under concurrent batches; different sessions stream
    #: concurrently).
    lock: threading.Lock = field(default_factory=threading.Lock)

    @property
    def n_params(self) -> int:
        return len(self.parameters)

    def evaluate_vectors(
        self, vectors: Sequence[np.ndarray], shots: int
    ) -> List[float]:
        with self.lock:
            return self.engine.evaluate_vectors(self.parameters, vectors, shots)

    def evaluate_gradients(
        self, vectors: Sequence[np.ndarray], shots: int
    ) -> Optional[Tuple[List[float], List[np.ndarray]]]:
        with self.lock:
            return self.engine.evaluate_gradients(self.parameters, vectors, shots)

    def handle_dict(self, lease_timeout_s: float) -> Dict[str, object]:
        """The OPENED payload a client needs to drive the session."""
        return {
            "session_id": self.session_id,
            "n_params": self.n_params,
            "structure_hash": self.structure_hash,
            "backend_id": self.backend_id,
            "shots": self.spec.shots,
            "lease_s": lease_timeout_s,
        }

    def stats_dict(self) -> Dict[str, object]:
        return {
            "session_id": self.session_id,
            "tenant": self.tenant,
            "state": self.state,
            "batches": self.batches,
            "vectors": self.vectors_evaluated,
        }


class SessionManager:
    """Registry + lifecycle of parametric-compilation sessions.

    Thread-safe: the manager lock guards the registry and the shared
    admission controller; each session's own lock serialises its
    engine.  When embedded in :class:`~repro.service.service.JobService`
    the lifecycle calls arrive on the event loop and the evaluations on
    worker threads — both are covered.
    """

    def __init__(
        self,
        admission: Optional[AdmissionController] = None,
        health: Optional[HealthRegistry] = None,
        clock: Optional[Callable[[], float]] = None,
        lease_timeout_s: float = DEFAULT_LEASE_TIMEOUT_S,
        engine_factory: Optional[Callable[[JobSpec], EvaluationEngine]] = None,
        events=None,
    ) -> None:
        if lease_timeout_s <= 0:
            raise ValueError(
                f"lease_timeout_s must be positive, got {lease_timeout_s}"
            )
        self.admission = admission if admission is not None else AdmissionController()
        self.health = health if health is not None else HealthRegistry()
        self.lease_timeout_s = lease_timeout_s
        self.stats = StatGroup("sessions")
        self.events = events
        self.sessions: Dict[str, Session] = {}
        self._clock = clock if clock is not None else time.monotonic
        # A module function, not a bound method: storing one would make
        # the manager a reference cycle, and a dropped manager's
        # sessions (engines, compiled programs, observable plans) would
        # wait for the cyclic garbage collector.
        self._engine_factory = engine_factory or _default_engine
        self._sequence = 0
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def open(self, spec: JobSpec, tenant: str = "default") -> Session:
        """Admit, compile and register one session.

        The admission charge is the same unit a queued job holds, so a
        tenant's open sessions and open jobs share one quota — a tenant
        cannot dodge its cap by holding reservations instead of
        submitting work.
        """
        with self._lock:
            backend = self.health.backend(spec.platform)
            if not backend.healthy:
                self.stats.counter("rejected").increment()
                raise SessionError(
                    ERR_BACKEND_UNHEALTHY,
                    f"backend {spec.platform!r} is unhealthy",
                )
            rejection = self.admission.try_admit(tenant)
            if rejection is not None:
                self.stats.counter("rejected").increment()
                raise SessionError(rejection.code, rejection.message)
            try:
                workload = WORKLOADS[spec.workload](spec.n_qubits)
                engine = self._engine_factory(spec)
                engine.prepare(workload.ansatz, workload.observable)
            except Exception as exc:
                self.admission.release(tenant)
                self.stats.counter("open_failures").increment()
                raise SessionError(
                    ERR_MALFORMED, f"session setup failed: {exc}"
                ) from exc
            self._sequence += 1
            now = self._clock()
            engine_spec = getattr(engine, "_spec", None)
            session = Session(
                session_id=f"sess-{self._sequence:04d}-{spec.digest[:8]}",
                tenant=tenant,
                spec=spec,
                engine=engine,
                parameters=(
                    list(engine_spec.parameters)
                    if engine_spec is not None
                    else list(workload.parameters)
                ),
                structure_hash=(
                    engine_spec.structure_hash if engine_spec is not None else ""
                ),
                backend_id=(
                    engine_spec.backend_id if engine_spec is not None else ""
                ),
                opened_s=now,
                last_renewed_s=now,
            )
            # Pin the session's compiled programs: an active reservation
            # must not lose its parametric compilation to other
            # tenants' cache churn.
            if engine_spec is not None and engine_spec.programs:
                for program in engine_spec.programs:
                    key = getattr(program, "key", None)
                    if key is not None:
                        PROGRAM_CACHE.pin(key)
                        session.program_keys.append(key)
            self.sessions[session.session_id] = session
            self.stats.counter("opened").increment()
            if self.events is not None:
                self.events.emit(
                    "session_opened",
                    session_id=session.session_id,
                    tenant=tenant,
                    digest=spec.digest,
                )
            return session

    def get(self, session_id: str) -> Session:
        session = self.sessions.get(session_id)
        if session is None:
            raise SessionError(
                ERR_UNKNOWN_SESSION, f"no session {session_id!r}"
            )
        return session

    def checkout(self, session_id: str) -> Session:
        """Validate a session for streaming and renew its lease."""
        with self._lock:
            session = self.get(session_id)
            if session.state == "closed":
                raise SessionError(
                    ERR_SESSION_CLOSED, f"session {session_id} is closed"
                )
            if session.state == "expired":
                raise SessionError(
                    ERR_SESSION_EXPIRED,
                    f"session {session_id} lease expired after "
                    f"{self.lease_timeout_s}s idle",
                )
            if session.state == "failed":
                raise SessionError(
                    ERR_SESSION_FAILED,
                    f"session {session_id} failed a previous batch",
                )
            backend = self.health.backend(session.spec.platform)
            if not backend.healthy:
                raise SessionError(
                    ERR_BACKEND_UNHEALTHY,
                    f"backend {session.spec.platform!r} is unhealthy",
                )
            session.last_renewed_s = self._clock()
            return session

    def evaluate(
        self,
        session_id: str,
        vectors: Sequence[np.ndarray],
        shots: int = 0,
    ) -> List[float]:
        """Validate + run one streamed batch (blocking convenience)."""
        session = self.checkout(session_id)
        batch = self.validate_batch(session, vectors)
        return self.run_batch(session, batch, shots)

    def validate_batch(
        self, session: Session, vectors: Sequence[np.ndarray]
    ) -> List[np.ndarray]:
        if not len(vectors):
            raise SessionError(ERR_EMPTY_BATCH, "empty vector batch")
        batch: List[np.ndarray] = []
        for vector in vectors:
            array = np.asarray(vector, dtype=np.float64)
            if array.ndim != 1 or array.size != session.n_params:
                raise SessionError(
                    ERR_BAD_VECTOR,
                    f"expected vectors of {session.n_params} params, "
                    f"got shape {array.shape}",
                )
            batch.append(array)
        return batch

    def run_batch(
        self, session: Session, vectors: List[np.ndarray], shots: int = 0
    ) -> List[float]:
        """The compute half of a streamed request (worker-thread safe)."""
        values = self._run_on_backend(
            session,
            lambda: session.evaluate_vectors(
                vectors, shots if shots > 0 else session.spec.shots
            ),
        )
        session.batches += 1
        session.vectors_evaluated += len(vectors)
        self.stats.counter("stream_batches").increment()
        self.stats.counter("stream_vectors").increment(len(vectors))
        return values

    def gradients(
        self,
        session_id: str,
        vectors: Sequence[np.ndarray],
        shots: int = 0,
    ) -> Tuple[List[float], List[np.ndarray]]:
        """Validate + run one streamed adjoint-gradient batch.

        ``shots`` is passed through unchanged (no session-default
        substitution): the adjoint pass is analytic, so only
        ``shots=0`` is servable — anything else, or a workload without
        an adjoint path, fails with ``adjoint_unsupported`` while the
        session stays open (clients fall back to EVAL probes).
        """
        session = self.checkout(session_id)
        batch = self.validate_batch(session, vectors)
        result = self._run_on_backend(
            session, lambda: session.evaluate_gradients(batch, shots)
        )
        if result is None:
            # Not a backend fault: the workload simply has no adjoint
            # path (sampled shots, non-statevector routing, unknown
            # generator).  The session stays healthy and open.
            raise SessionError(
                ERR_ADJOINT_UNSUPPORTED,
                f"session {session_id} cannot serve adjoint gradients "
                f"(shots={shots}, backend={session.backend_id})",
            )
        session.batches += 1
        session.vectors_evaluated += len(batch)
        self.stats.counter("stream_gradient_batches").increment()
        self.stats.counter("stream_gradient_vectors").increment(len(batch))
        return result

    def _run_on_backend(self, session: Session, call: Callable[[], object]):
        """Run one batch of ``session`` and record it on its backend.

        A result is a backend success, except ``None`` (the workload
        has no adjoint path, which is no fault of the backend).  A
        raised error is a backend failure: the session is failed and
        released, and the caller gets ``evaluation_failed``.
        """
        backend = self.health.backend(session.spec.platform)
        try:
            result = call()
        except Exception as exc:
            backend.record_failure(f"{type(exc).__name__}: {exc}")
            self.stats.counter("stream_errors").increment()
            with self._lock:
                if session.state == "open":
                    session.state = "failed"
                    self._release(session)
            raise SessionError(
                ERR_EVALUATION_FAILED, f"{type(exc).__name__}: {exc}"
            ) from exc
        if result is not None:
            backend.record_success()
        return result

    def close(self, session_id: str) -> Dict[str, object]:
        """Release one session; idempotent on already-dead sessions."""
        with self._lock:
            session = self.get(session_id)
            if session.state == "open":
                session.state = "closed"
                self._release(session)
                self.stats.counter("closed").increment()
                if self.events is not None:
                    self.events.emit(
                        "session_closed",
                        session_id=session_id,
                        tenant=session.tenant,
                        batches=session.batches,
                    )
            return session.stats_dict()

    def expire_idle(self, now: Optional[float] = None) -> List[str]:
        """Reap sessions whose lease ran out; returns their ids.

        Strictly-greater comparison (the cluster lease contract): a
        session renewed in the same tick the sweep runs is *not*
        expired — the renewal wins deterministically.
        """
        if now is None:
            now = self._clock()
        expired: List[str] = []
        with self._lock:
            for session in self.sessions.values():
                if session.state != "open":
                    continue
                if now - session.last_renewed_s > self.lease_timeout_s:
                    session.state = "expired"
                    self._release(session)
                    expired.append(session.session_id)
                    self.stats.counter("expired").increment()
                    if self.events is not None:
                        self.events.emit(
                            "session_expired",
                            session_id=session.session_id,
                            tenant=session.tenant,
                        )
        return expired

    def close_all(self) -> None:
        with self._lock:
            for session_id in list(self.sessions):
                self.close(session_id)

    def _release(self, session: Session) -> None:
        """Tear down a session leaving its terminal state in place."""
        for key in session.program_keys:
            PROGRAM_CACHE.unpin(key)
        session.program_keys = []
        self.admission.release(session.tenant)
        try:
            session.engine.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    @property
    def open_sessions(self) -> int:
        return sum(1 for s in self.sessions.values() if s.state == "open")

    def snapshot(self) -> Dict[str, object]:
        by_state: Dict[str, int] = {}
        for session in self.sessions.values():
            by_state[session.state] = by_state.get(session.state, 0) + 1
        return {
            "sessions": self.stats.as_dict(),
            "by_state": by_state,
            "open": self.open_sessions,
            "pinned_programs": PROGRAM_CACHE.pinned,
        }


def _default_engine(spec: JobSpec) -> EvaluationEngine:
    return build_engine(spec, engine_workers=1)


def drive_session(
    spec: JobSpec,
    n_params: int,
    evaluate_batch: Callable[[Sequence[np.ndarray]], List[float]],
) -> Tuple[np.ndarray, List[float]]:
    """Client-side hybrid loop over a streamed session.

    Runs :func:`repro.vqa.runner.optimize`, the loop
    :meth:`repro.vqa.runner.HybridRunner.run` runs, with the spec's
    optimizer and seed — so the energy history it produces over a
    session is bit-identical to the one-shot job of the same spec (the
    property ``benchmarks/bench_sessions.py`` gates on).
    Returns ``(final_params, cost_history)``.
    """
    return optimize(
        make_optimizer(spec.optimizer, seed=spec.seed),
        n_params,
        spec.iterations,
        lambda vector: evaluate_batch([vector])[0],
        evaluate_many=evaluate_batch,
        seed=spec.seed,
    )


class SessionServer(FrameServer):
    """TCP front door for streamed sessions (one session per socket).

    The shared :class:`repro.faults.protocol.FrameServer` over
    :mod:`repro.service.stream`'s framing: OPEN → OPENED (or ERROR),
    then EVAL → VALUE / ERROR until CLOSE → CLOSED.  A connection that
    drops without CLOSE has its session closed server-side, releasing
    the admission charge — the socket *is* the reservation.
    """

    def __init__(
        self,
        manager: Optional[SessionManager] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        super().__init__(host, port, "repro-session")
        self.manager = manager if manager is not None else SessionManager()

    def stop(self) -> None:
        super().stop()
        self.manager.close_all()

    def __enter__(self) -> "SessionServer":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()

    def on_frame(self, conn: Connection, kind: int, body: bytes) -> bool:
        """One request frame → one reply frame; True once CLOSED."""
        try:
            reply = self._reply(conn, kind, body)
        except SessionError as exc:
            self.manager.stats.counter("protocol_errors").increment()
            reply = (wire.KIND_ERROR, wire.pack_error(exc.code, exc.message))
        conn.send(*reply)
        return reply[0] == wire.KIND_CLOSED

    def on_disconnect(self, conn: Connection) -> None:
        if conn.state is not None:
            try:
                self.manager.close(conn.state)
            except SessionError:
                pass

    def _reply(self, conn: Connection, kind: int, body: bytes) -> Tuple[int, bytes]:
        session_id = conn.state
        if kind == wire.KIND_OPEN:
            if session_id is not None:
                # One session per stream: a second OPEN must not orphan
                # the first (its admission charge and pinned programs
                # would outlive the connection).
                raise SessionError(
                    ERR_MALFORMED, f"OPEN on a stream that holds session {session_id}"
                )
            payload = wire.unpack_json(body)
            try:
                spec = JobSpec.from_dict(payload.get("spec"))
            except ValueError as exc:
                raise SessionError(ERR_MALFORMED, str(exc)) from None
            session = self.manager.open(
                spec, tenant=str(payload.get("tenant", "default"))
            )
            conn.state = session.session_id
            return wire.KIND_OPENED, wire.pack_json(
                session.handle_dict(self.manager.lease_timeout_s)
            )
        if kind == wire.KIND_CLOSE:
            stats: Dict[str, object] = {}
            if session_id is not None:
                stats = self.manager.close(session_id)
                conn.state = None
            return wire.KIND_CLOSED, wire.pack_json(stats)
        if kind not in (wire.KIND_EVAL, wire.KIND_GRAD):
            raise SessionError(
                ERR_MALFORMED, f"unexpected frame kind {kind} from a client"
            )
        if session_id is None:
            name = "EVAL" if kind == wire.KIND_EVAL else "GRAD"
            raise SessionError(ERR_UNKNOWN_SESSION, f"{name} before OPEN on this stream")
        vectors, shots = wire.unpack_eval(body)
        if kind == wire.KIND_EVAL:
            values = self.manager.evaluate(session_id, list(vectors), shots)
            return wire.KIND_VALUE, wire.pack_values(values)
        energies, grads = self.manager.gradients(session_id, list(vectors), shots)
        return wire.KIND_GRADS, wire.pack_grads(energies, grads)
