"""The asyncio job service: admission → fair-share dispatch → workers.

:class:`JobService` is the engine room behind
:class:`repro.service.api.ServiceAPI`.  One event loop owns all
scheduling state (queues, records, counters — no locks needed there);
job execution happens on a bounded ``ThreadPoolExecutor`` whose slots
model the platform pool.  Each slot builds its job's platform
(:class:`~repro.core.system.QtenonSystem` or
:class:`~repro.baseline.system.DecoupledSystem`) wrapped in a
:class:`~repro.runtime.engine.EvaluationEngine` that shares one
service-wide content-addressed
:class:`~repro.runtime.cache.EvalCache`, so identical circuit
evaluations are computed once across tenants.

Flow of one submission::

    submit ──► AdmissionController ──► Rejection (structured, no job)
                    │ admitted
                    ▼
              RequestCoalescer ──► follower (waits on the primary)
                    │ primary
                    ▼
              DeficitRoundRobin queue ──► worker slot ──► terminal state
                                               │ transient failure
                                               ▼
                                    bounded retries with backoff

Failure semantics (a primary's terminal state, result and error are
copied onto every coalesced follower — the computation is what
succeeded, failed or proved too slow):

* **timeout** — the job's cooperative cancel token is set, the worker
  unwinds at its next evaluation, and the job turns ``timed_out``;
* **worker failure** — up to ``max_attempts`` tries with exponential
  backoff, then ``failed``.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.analysis.breakdown import CATEGORIES
from repro.runtime.breaker import backoff_delay
from repro.runtime.cache import EvalCache
from repro.runtime.engine import EvaluationEngine
from repro.service.health import HealthRegistry
# WORKLOADS is re-exported: callers outside the package import it from here.
from repro.service.platforms import WORKLOADS, build_engine, run_spec  # noqa: F401
from repro.service.admission import (
    DEFAULT_MAX_OPEN_JOBS,
    DEFAULT_TENANT_QUOTA,
    AdmissionController,
)
from repro.service.coalescer import RequestCoalescer
from repro.service.drr import DEFAULT_QUANTUM, DeficitRoundRobin, jain_index
from repro.service.jobs import (
    JobCancelled,
    JobRecord,
    JobSpec,
    JobState,
    SubmitOutcome,
    make_job_id,
)
from repro.service.sessions import (
    DEFAULT_LEASE_TIMEOUT_S,
    Session,
    SessionError,
    SessionManager,
)
from repro.sim.stats import StatGroup
from repro.telemetry.export import EventLog
from repro.telemetry.metrics import (
    DEFAULT_LATENCY_BUCKETS_S,
    DEFAULT_TIME_BUCKETS_PS,
    MetricsRegistry,
    nearest_rank_quantile,
)
from repro.telemetry.tracing import (
    TraceGroup,
    TraceSpan,
    Tracer,
    make_trace_id,
    merged_chrome_trace as render_merged_trace,
)
from repro.vqa.runner import HybridResult


@dataclass
class ServiceConfig:
    """Tunables of one service instance (all CLI-exposed)."""

    workers: int = 2
    cache_entries: int = 4096  #: 0 disables cross-tenant result reuse
    quantum: float = DEFAULT_QUANTUM
    max_open_jobs: int = DEFAULT_MAX_OPEN_JOBS
    tenant_quota: int = DEFAULT_TENANT_QUOTA
    per_tenant_quotas: Dict[str, int] = field(default_factory=dict)
    job_timeout_s: Optional[float] = None
    max_attempts: int = 2
    retry_backoff_s: float = 0.05
    #: cap on the exponential backoff — without it a handful of retries
    #: of a flaky job stalls its worker slot for seconds (0.05 → 0.1 →
    #: 0.2 → ...).  The actual delay is *full-jitter*: uniform in
    #: [0, min(cap, base * 2^attempt)], deterministic per job id.
    retry_backoff_max_s: float = 1.0
    core: str = "boom-large"
    timing_only: bool = False
    #: record per-job sim traces (platform ``trace_events`` + the
    #: engine's evaluation spans) for the merged Chrome trace export.
    sim_trace: bool = False
    #: idle-lease length of streamed sessions; an open session that
    #: goes this long without a batch or renewal is reaped and its
    #: admission charge released.
    session_lease_s: float = DEFAULT_LEASE_TIMEOUT_S

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.cache_entries < 0:
            raise ValueError(
                f"cache_entries must be >= 0, got {self.cache_entries}"
            )
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.job_timeout_s is not None and self.job_timeout_s <= 0:
            raise ValueError(
                f"job_timeout_s must be positive, got {self.job_timeout_s}"
            )
        if self.retry_backoff_s < 0:
            raise ValueError(
                f"retry_backoff_s must be >= 0, got {self.retry_backoff_s}"
            )
        if self.retry_backoff_max_s < 0:
            raise ValueError(
                f"retry_backoff_max_s must be >= 0, got {self.retry_backoff_max_s}"
            )
        if self.retry_backoff_max_s < self.retry_backoff_s:
            raise ValueError(
                f"retry_backoff_max_s ({self.retry_backoff_max_s}) must not be "
                f"below retry_backoff_s ({self.retry_backoff_s})"
            )
        if self.session_lease_s <= 0:
            raise ValueError(
                f"session_lease_s must be positive, got {self.session_lease_s}"
            )


class _CancellablePlatform:
    """Platform wrapper that honours a job's cancel token.

    The check runs before every evaluation (single or batched), which
    makes a deadline's cancellation *cooperative* at evaluation
    granularity — a worker never dies mid-evaluation, it unwinds at the
    next safe point and the platform state is simply discarded with the
    job.
    """

    def __init__(self, platform, cancel_event: threading.Event) -> None:
        self._platform = platform
        self._cancel = cancel_event

    def _check(self) -> None:
        if self._cancel.is_set():
            raise JobCancelled()

    def prepare(self, ansatz, observable) -> None:
        self._check()
        self._platform.prepare(ansatz, observable)

    def evaluate(self, values, shots):
        self._check()
        return self._platform.evaluate(values, shots)

    def evaluate_vectors(self, parameters, vectors, shots):
        self._check()
        inner = getattr(self._platform, "evaluate_vectors", None)
        if callable(inner):
            return inner(parameters, vectors, shots)
        # Plain platforms get the serial path, one cancel check each.
        return [
            self.evaluate({p: float(v) for p, v in zip(parameters, vector)}, shots)
            for vector in vectors
        ]

    def charge_optimizer_step(self, n_params, method) -> None:
        self._platform.charge_optimizer_step(n_params, method)

    def finish(self):
        self._check()
        return self._platform.finish()


@dataclass
class _StreamBatch:
    """One streamed session request queued against the job scheduler.

    Stream batches ride the same deficit-round-robin queue as one-shot
    jobs, costed in circuit evaluations (one per vector) — a tenant
    streaming a hot session is charged against its deficit exactly like
    a tenant submitting jobs, so sessions cannot starve the batch tier.
    """

    session: Session
    vectors: List
    shots: int
    future: "asyncio.Future"
    enqueued_s: float = 0.0


class JobService:
    """Multi-tenant async job service over the platform pool."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        platform_factory: Optional[Callable[[JobSpec], object]] = None,
        clock: Callable[[], float] = time.monotonic,
        fault_injector=None,
        telemetry: Optional[MetricsRegistry] = None,
        events: Optional[EventLog] = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.stats = StatGroup("service")
        self.fault_injector = fault_injector
        self.health = HealthRegistry()
        self.admission = AdmissionController(
            max_open_jobs=self.config.max_open_jobs,
            tenant_quota=self.config.tenant_quota,
            per_tenant_quotas=self.config.per_tenant_quotas,
        )
        self.coalescer = RequestCoalescer()
        self.scheduler: DeficitRoundRobin = DeficitRoundRobin(
            quantum=self.config.quantum
        )
        self.cache: Optional[EvalCache] = (
            EvalCache(self.config.cache_entries)
            if self.config.cache_entries > 0
            else None
        )
        self.records: Dict[str, JobRecord] = {}
        #: one span per streamed session batch, on the service timeline
        self._session_spans: List[TraceSpan] = []
        self._platform_factory = platform_factory or self._default_platform
        self._clock = clock
        self._epoch = clock()
        self._sequence = 0
        self._executor: Optional[ThreadPoolExecutor] = None
        self._active: "set[asyncio.Task]" = set()
        self._wake: Optional[asyncio.Event] = None
        self._pumping = False
        # Session tier: shares the admission controller (sessions and
        # jobs draw on one tenant quota), the health registry and the
        # eval cache, so streamed and one-shot evaluations of the same
        # content are served from the same entries.
        self.sessions = SessionManager(
            admission=self.admission,
            health=self.health,
            clock=clock,
            lease_timeout_s=self.config.session_lease_s,
            engine_factory=self._session_engine,
            events=events,
        )

        # -- telemetry (optional; zero cost when absent) ----------------
        self.telemetry = telemetry
        self.events = events
        self._latency_hist = None
        self._sim_e2e_hist = None
        self._sim_counters: Dict[str, object] = {}
        if telemetry is not None:
            from repro.telemetry.bridge import register_service

            register_service(telemetry, self)
            self._latency_hist = telemetry.histogram(
                "service.job.latency_s",
                DEFAULT_LATENCY_BUCKETS_S,
                help="wall-clock submit-to-settle latency per job",
            )
            self._sim_e2e_hist = telemetry.histogram(
                "service.job.sim_end_to_end_ps",
                DEFAULT_TIME_BUCKETS_PS,
                help="modelled end-to-end time per completed job",
            )
            # One counter per paper breakdown category (Fig. 13):
            # service.sim.quantum_ps / pulse_gen_ps / host_compute_ps /
            # comm_ps — accumulated modelled time across completed jobs.
            self._sim_counters = {
                category: telemetry.counter(
                    f"service.sim.{category}_ps",
                    help=f"modelled {category} time across completed jobs",
                )
                for category in CATEGORIES
            }

    # ------------------------------------------------------------------
    # client surface (event-loop thread only)
    # ------------------------------------------------------------------
    def submit(
        self,
        spec: JobSpec,
        tenant: str = "default",
        on_done: Optional[Callable[[JobRecord], None]] = None,
    ) -> SubmitOutcome:
        """Admit a job (or return a structured rejection) and queue it.

        ``on_done`` fires exactly once when the job settles, with the
        terminal state already recorded.
        """
        self.stats.counter("submitted").increment()
        rejection = self.admission.try_admit(tenant)
        if rejection is not None:
            self.stats.counter("rejected").increment()
            if self.events is not None:
                self.events.emit(
                    "job_rejected", tenant=tenant, code=rejection.code
                )
            return SubmitOutcome(rejection=rejection)

        self._sequence += 1
        record = JobRecord(
            job_id=make_job_id(self._sequence, spec),
            tenant=tenant,
            spec=spec,
            submitted_s=self._clock(),
        )
        if on_done is not None:
            record.callbacks.append(on_done)
        self.records[record.job_id] = record
        primary = self.coalescer.attach(record)
        if primary is None:
            self.scheduler.enqueue(tenant, record, spec.cost)
        else:
            self.stats.counter("coalesced").increment()
        self.stats.accumulator("queue_depth").observe(len(self.scheduler))
        if self.events is not None:
            self.events.emit(
                "job_submitted",
                job_id=record.job_id,
                tenant=tenant,
                coalesced=primary is not None,
            )
        self._notify()
        return SubmitOutcome(job_id=record.job_id)

    def status(self, job_id: str) -> Optional[JobRecord]:
        return self.records.get(job_id)

    def result(self, job_id: str) -> Optional[HybridResult]:
        record = self.records.get(job_id)
        return None if record is None else record.result

    # ------------------------------------------------------------------
    # session tier (event-loop thread only)
    # ------------------------------------------------------------------
    def open_session(self, spec: JobSpec, tenant: str = "default") -> Session:
        """Open a parametric-compilation session (admission-counted).

        Raises :class:`~repro.service.sessions.SessionError` on quota
        or setup failure — sessions are a streaming surface, so the
        structured-error contract is exception-shaped rather than the
        submit path's ``SubmitOutcome``.
        """
        session = self.sessions.open(spec, tenant=tenant)
        self.stats.counter("sessions_opened").increment()
        return session

    def close_session(self, session_id: str) -> Dict[str, object]:
        stats = self.sessions.close(session_id)
        self._notify()
        return stats

    async def submit_stream_batch(
        self, session_id: str, vectors: List, shots: int = 0
    ) -> List[float]:
        """Queue one streamed batch and await its energies.

        Validation (session state, lease renewal, backend health,
        vector shape) happens here on the loop; the evaluation itself
        is scheduled through the deficit-round-robin queue and runs on
        a worker slot like any job.
        """
        session = self.sessions.checkout(session_id)
        batch_vectors = self.sessions.validate_batch(session, vectors)
        loop = asyncio.get_running_loop()
        batch = _StreamBatch(
            session=session,
            vectors=batch_vectors,
            shots=shots,
            future=loop.create_future(),
            enqueued_s=self._clock(),
        )
        self.scheduler.enqueue(
            session.tenant, batch, float(len(batch_vectors))
        )
        self._notify()
        return await batch.future

    def _session_engine(self, spec: JobSpec) -> EvaluationEngine:
        # Same stack as a one-shot job's platform (same core, same
        # shared cache, same seeding) — which is exactly why a streamed
        # optimisation reproduces the one-shot energy history bit for
        # bit: the evaluation keys coincide.
        return build_engine(
            spec,
            core=self.config.core,
            timing_only=self.config.timing_only,
            cache=self.cache,
            engine_workers=1,
        )

    # ------------------------------------------------------------------
    # event loop
    # ------------------------------------------------------------------
    async def drain(self) -> None:
        """Run until every open job reaches a terminal state."""
        self._wake = asyncio.Event()
        self._ensure_executor()
        try:
            while True:
                self._dispatch()
                if not self._active and len(self.scheduler) == 0:
                    break
                await self._wake.wait()
                self._wake.clear()
        finally:
            self._wake = None

    async def pump(self) -> None:
        """Run the dispatch loop until :meth:`stop_pump` — the resident
        mode a session host needs, where an *idle* service keeps
        serving: sessions stay open between batches, and new work can
        arrive at any time from other threads via the wake event."""
        self._wake = asyncio.Event()
        self._ensure_executor()
        self._pumping = True
        try:
            while self._pumping:
                self._dispatch()
                await self._wake.wait()
                self._wake.clear()
        finally:
            self._pumping = False
            self._wake = None

    def stop_pump(self) -> None:
        self._pumping = False
        self._notify()

    def _ensure_executor(self) -> None:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.config.workers,
                thread_name_prefix="repro-service",
            )

    def close(self) -> None:
        self.sessions.close_all()
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def _notify(self) -> None:
        if self._wake is not None:
            self._wake.set()

    def _dispatch(self) -> None:
        """Fill free worker slots in deficit-round-robin order.

        Stream batches and one-shot jobs come out of the *same* DRR
        queue and consume the same slots — fairness is by evaluation
        cost, not by tier.  Every pass also sweeps expired session
        leases, so an abandoned session frees its quota on the next
        scheduling activity rather than waiting for an explicit close.
        """
        for session_id in self.sessions.expire_idle(self._clock()):
            self.stats.counter("sessions_expired").increment()
        while len(self._active) < self.config.workers:
            popped = self.scheduler.pop()
            if popped is None:
                return
            _tenant, record, _cost = popped
            if isinstance(record, _StreamBatch):
                task = asyncio.create_task(self._run_stream_batch(record))
                self._active.add(task)
                task.add_done_callback(self._task_done)
                continue
            record.state = JobState.SCHEDULED
            self.stats.counter("dispatched").increment()
            if self.events is not None:
                self.events.emit(
                    "job_dispatched", job_id=record.job_id, tenant=record.tenant
                )
            task = asyncio.create_task(self._run_job(record))
            self._active.add(task)
            task.add_done_callback(self._task_done)

    def _task_done(self, task: asyncio.Task) -> None:
        self._active.discard(task)
        if not task.cancelled():
            task.exception()  # surface tracebacks instead of warnings
        self._notify()

    async def _run_stream_batch(self, batch: _StreamBatch) -> None:
        """Worker-slot body of one streamed session batch."""
        loop = asyncio.get_running_loop()
        start = self._clock()
        session = batch.session
        try:
            values = await loop.run_in_executor(
                self._executor,
                self.sessions.run_batch,
                session,
                batch.vectors,
                batch.shots,
            )
        except SessionError as exc:
            self.stats.counter("stream_errors").increment()
            if not batch.future.done():
                batch.future.set_exception(exc)
            return
        except Exception as exc:  # defensive: never strand the waiter
            if not batch.future.done():
                batch.future.set_exception(exc)
            return
        end = self._clock()
        self.stats.counter("stream_batches").increment()
        self.stats.counter("stream_vectors").increment(len(batch.vectors))
        self.stats.accumulator("stream_batch_latency_s").observe(
            end - batch.enqueued_s
        )
        # One span per batch on the session's own track, so the merged
        # trace shows a session as a dense row of short spans where a
        # job is one long one.  The trace id is the session's; batch
        # numbers are unique within it.
        trace_id = make_trace_id(session.session_id)
        self._session_spans.append(
            TraceSpan(
                track=f"session/{session.tenant}",
                name=f"{session.session_id}[{session.batches}]",
                start_ps=self._wall_ps(start),
                end_ps=self._wall_ps(end),
                trace_id=trace_id,
                span_id=f"{trace_id}:{session.batches:04d}",
            )
        )
        if self.events is not None:
            self.events.emit(
                "session_batch",
                session_id=session.session_id,
                tenant=session.tenant,
                vectors=len(batch.vectors),
            )
        if not batch.future.done():
            batch.future.set_result(values)

    # ------------------------------------------------------------------
    # one job
    # ------------------------------------------------------------------
    async def _run_job(self, record: JobRecord) -> None:
        loop = asyncio.get_running_loop()
        record.started_s = self._clock()
        record.state = JobState.RUNNING
        error = "unknown failure"
        backend = self.health.backend(record.spec.platform)
        for attempt in range(self.config.max_attempts):
            record.attempts = attempt + 1
            future = loop.run_in_executor(self._executor, self._execute, record)
            try:
                if self.config.job_timeout_s is not None:
                    elapsed = self._clock() - record.started_s
                    remaining = self.config.job_timeout_s - elapsed
                    if remaining <= 0:
                        raise asyncio.TimeoutError
                    result = await asyncio.wait_for(
                        asyncio.shield(future), timeout=remaining
                    )
                else:
                    result = await future
                backend.record_success()
                self._finish(record, JobState.DONE, result=result)
                return
            except asyncio.TimeoutError:
                # The deadline covers all attempts of the job.  Ask the
                # worker to unwind (it raises JobCancelled at its next
                # evaluation) and wait for the slot to come back.
                record.cancel_event.set()
                try:
                    await future
                except Exception:
                    pass
                self.stats.counter("timeouts").increment()
                self._finish(
                    record,
                    JobState.TIMED_OUT,
                    error=f"deadline of {self.config.job_timeout_s}s exceeded",
                )
                return
            except Exception as exc:  # worker failure: retry with backoff
                error = f"{type(exc).__name__}: {exc}"
                backend.record_failure(error)
                if attempt + 1 < self.config.max_attempts:
                    self.stats.counter("retries").increment()
                    delay = self._backoff_delay(record.job_id, attempt)
                    if delay > 0:
                        await asyncio.sleep(delay)
        self._finish(record, JobState.FAILED, error=error)

    def _backoff_delay(self, job_id: str, attempt: int) -> float:
        return backoff_delay(
            job_id, attempt, self.config.retry_backoff_s, self.config.retry_backoff_max_s
        )

    def _execute(self, record: JobRecord) -> HybridResult:
        """Worker-thread body: build the platform, run the hybrid loop."""
        if record.cancel_event.is_set():
            raise JobCancelled()
        if self.fault_injector is not None:
            # Keyed on (job id, attempt): a retry draws a fresh fate and
            # the campaign replays however the event loop interleaves.
            self.fault_injector.worker_fault("service", record.job_id, record.attempts)
        spec = record.spec
        inner = self._platform_factory(spec)
        tracer: Optional[Tracer] = None
        if self.config.sim_trace:
            # One trace per job; the id is content-derived from the job
            # id so replayed runs emit identical traces.  Retries simply
            # replace the tracer — the surviving attempt's trace wins.
            tracer = Tracer(make_trace_id(record.job_id))
            record.trace = tracer
            if isinstance(inner, EvaluationEngine):
                inner.tracer = tracer
        result = run_spec(spec, _CancellablePlatform(inner, record.cancel_event))
        if tracer is not None:
            # Fold the platform's sim-phase spans into the job trace,
            # parented to the engine's evaluation spans by enclosure.
            timeline = getattr(getattr(inner, "platform", inner), "trace", None)
            if timeline is not None:
                evaluation_spans = [
                    span for span in tracer.spans if span.track == "evaluation"
                ]
                tracer.adopt(timeline, parents=evaluation_spans)
        return result

    def _default_platform(self, spec: JobSpec) -> EvaluationEngine:
        # One in-process engine per job; parallelism lives in the
        # service's worker slots, reuse in the shared cache.  The
        # construction is shared with the cluster worker nodes
        # (repro.service.platforms) so both tiers run bit-identical
        # computations for the same spec.
        return build_engine(
            spec,
            core=self.config.core,
            timing_only=self.config.timing_only,
            trace_events=self.config.sim_trace,
            cache=self.cache,
            engine_workers=1,
        )

    # ------------------------------------------------------------------
    # settlement
    # ------------------------------------------------------------------
    def _finish(
        self,
        record: JobRecord,
        state: JobState,
        result: Optional[HybridResult] = None,
        error: Optional[str] = None,
    ) -> None:
        followers = self.coalescer.settle(record)
        if (
            state is JobState.DONE
            and result is not None
            and self.telemetry is not None
        ):
            # Push modelled-time metrics once per *computation* (the
            # primary); followers share the result and must not double
            # the sim-time totals.
            report = result.report
            self._sim_e2e_hist.observe(float(report.end_to_end_ps))
            for category, counter in self._sim_counters.items():
                counter.inc(int(report.breakdown.get(category)))
        for settled in [record] + followers:
            self._settle_one(settled, state, result=result, error=error)

    def _settle_one(
        self,
        record: JobRecord,
        state: JobState,
        result: Optional[HybridResult] = None,
        error: Optional[str] = None,
    ) -> None:
        record.state = state
        record.result = result
        record.error = error
        record.finished_s = self._clock()
        self.stats.counter(f"jobs_{state.value}").increment()
        if record.latency_s is not None:
            self.stats.accumulator("latency_s").observe(record.latency_s)
            if self._latency_hist is not None:
                self._latency_hist.observe(record.latency_s)
        if self.events is not None:
            self.events.emit(
                "job_settled",
                job_id=record.job_id,
                tenant=record.tenant,
                state=state.value,
                attempts=record.attempts,
            )
        self.admission.release(record.tenant)
        # Callbacks fire only here — after the terminal state, result
        # and release are all recorded.
        record.deliver_callbacks()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def merged_trace_groups(self) -> List[TraceGroup]:
        """The merged trace's process groups.

        pid 1 is the service timeline — one row per tenant with one
        root span per job (its wall-clock lifetime), and one row per
        tenant's streamed sessions with one span per batch.  Each job
        that carried a sim trace (``sim_trace=True``) follows as its
        own process, its sim timeline offset to the job's wall-clock
        start, every span sharing the job's trace id — so in the viewer
        a tenant's job visibly descends into its evaluation and PGU/bus
        spans.
        """
        service_spans: List[TraceSpan] = []
        job_groups: List[TraceGroup] = []
        pid = 2
        for job_id in sorted(self.records):
            record = self.records[job_id]
            tracer: Optional[Tracer] = record.trace
            trace_id = (
                tracer.trace_id if tracer is not None else make_trace_id(job_id)
            )
            root_id = (
                tracer.root_span_id if tracer is not None else f"{trace_id}:0000"
            )
            start = (
                record.started_s
                if record.started_s is not None
                else record.submitted_s
            )
            end = record.finished_s if record.finished_s is not None else start
            start_ps = self._wall_ps(start)
            end_ps = max(start_ps, self._wall_ps(end))
            service_spans.append(
                TraceSpan(
                    trace_id=trace_id,
                    span_id=root_id,
                    parent_id=None,
                    track=record.tenant,
                    name=job_id,
                    start_ps=start_ps,
                    end_ps=end_ps,
                    args={
                        "state": record.state.value,
                        "attempts": record.attempts,
                    },
                )
            )
            if tracer is not None and tracer.spans:
                job_groups.append(
                    TraceGroup(
                        pid=pid,
                        process_name=f"job {job_id}",
                        spans=list(tracer.spans),
                        time_offset_ps=start_ps,
                    )
                )
                pid += 1
        service_spans.extend(self._session_spans)
        return [
            TraceGroup(pid=1, process_name="repro.service", spans=service_spans)
        ] + job_groups

    def _wall_ps(self, clock_s: float) -> int:
        """A service-clock reading as picoseconds since the service start."""
        return int((clock_s - self._epoch) * 1e12)

    def merged_chrome_trace(self) -> str:
        """One Chrome/Perfetto JSON for the whole service run."""
        return render_merged_trace(self.merged_trace_groups())

    def metrics_snapshot(self) -> Dict[str, object]:
        """JSON-able service metrics (the ``metrics`` API payload)."""
        latencies = sorted(
            record.latency_s
            for record in self.records.values()
            if record.latency_s is not None
        )
        jobs_by_state: Dict[str, int] = {}
        for record in self.records.values():
            jobs_by_state[record.state.value] = (
                jobs_by_state.get(record.state.value, 0) + 1
            )
        served = self.scheduler.fairness_snapshot()
        snapshot: Dict[str, object] = {
            "service": self.stats.as_dict(),
            "admission": self.admission.stats.as_dict(),
            "coalescer": self.coalescer.stats.as_dict(),
            "scheduler": {
                "backlog": len(self.scheduler),
                "served_cost_by_tenant": served,
                "fairness_jain": jain_index(list(served.values())),
            },
            "jobs_by_state": jobs_by_state,
            "sessions": self.sessions.snapshot(),
            "backends": self.health.snapshot(),
            "latency_s": {
                "count": len(latencies),
                "p50": nearest_rank_quantile(latencies, 0.50),
                "p95": nearest_rank_quantile(latencies, 0.95),
                "p99": nearest_rank_quantile(latencies, 0.99),
                "mean": sum(latencies) / len(latencies) if latencies else 0.0,
            },
        }
        if self.cache is not None:
            cache_stats = dict(self.cache.stats.as_dict())
            cache_stats["eval_cache.hit_rate"] = self.cache.hit_rate
            snapshot["eval_cache"] = cache_stats
        return snapshot
