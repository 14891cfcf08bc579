"""Public facade of the job service: submit / status / result / metrics.

:class:`ServiceAPI` is the surface clients (CLI, benchmarks, tests)
program against; it hides the :class:`~repro.service.service.JobService`
internals behind plain JSON-able payloads and adds the batch driver
(:meth:`run_batch`) that the ``repro serve`` command and the service
benchmark share.

Everything here is synchronous from the caller's point of view —
:meth:`run_batch` owns the event loop for the duration of the batch.
For finer control (submissions from concurrent coroutines, streaming
status), use :class:`JobService` directly inside your own loop.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.service.jobs import JobSpec, SubmitOutcome
from repro.service.service import JobService, ServiceConfig
from repro.vqa.runner import HybridResult


@dataclass(frozen=True)
class BatchOutcome:
    """What one closed batch produced, submission-ordered."""

    outcomes: List[SubmitOutcome]
    metrics: Dict[str, object]

    @property
    def accepted(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.accepted)

    @property
    def rejected(self) -> int:
        return len(self.outcomes) - self.accepted


class ServiceAPI:
    """Thin, stable wrapper around one :class:`JobService` instance."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        service: Optional[JobService] = None,
        telemetry=None,
        events=None,
    ) -> None:
        self.service = service or JobService(
            config, telemetry=telemetry, events=events
        )

    # -- lifecycle -----------------------------------------------------
    def submit(self, spec: JobSpec, tenant: str = "default") -> SubmitOutcome:
        return self.service.submit(spec, tenant)

    def status(self, job_id: str) -> Optional[Dict[str, object]]:
        record = self.service.status(job_id)
        return None if record is None else record.status_dict()

    def result(self, job_id: str) -> Optional[HybridResult]:
        return self.service.result(job_id)

    def metrics(self) -> Dict[str, object]:
        return self.service.metrics_snapshot()

    def export_trace(self, path: str) -> None:
        """Write the merged Chrome trace: the service timeline (job and
        session-batch spans) plus, when the service runs with
        ``sim_trace=True``, one sim-time process per job."""
        with open(path, "w") as handle:
            handle.write(self.service.merged_chrome_trace())

    def prometheus_text(self) -> str:
        """The attached registry's Prometheus text exposition."""
        if self.service.telemetry is None:
            raise RuntimeError(
                "service has no telemetry registry; construct ServiceAPI "
                "with telemetry=MetricsRegistry()"
            )
        from repro.telemetry.export import to_prometheus_text

        return to_prometheus_text(self.service.telemetry)

    def export_prometheus(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.prometheus_text())

    def export_events(self, path: str) -> None:
        """Write the structured JSONL event log."""
        if self.service.events is None:
            raise RuntimeError(
                "service has no event log; construct ServiceAPI with "
                "events=EventLog()"
            )
        self.service.events.save(path)

    # -- batch driver --------------------------------------------------
    def run_batch(
        self, submissions: Sequence[Tuple[str, JobSpec]]
    ) -> BatchOutcome:
        """Submit ``(tenant, spec)`` pairs, drain the service, report.

        Rejections surface in the returned outcomes (in submission
        order) — they are part of the workload's result, not errors.
        """

        async def _run() -> List[SubmitOutcome]:
            outcomes = [
                self.service.submit(spec, tenant) for tenant, spec in submissions
            ]
            await self.service.drain()
            return outcomes

        try:
            outcomes = asyncio.run(_run())
        finally:
            self.service.close()
        return BatchOutcome(outcomes=outcomes, metrics=self.metrics())


class ServiceHost:
    """A resident :class:`JobService` on its own event-loop thread.

    ``run_batch`` owns the loop for one batch and exits when the queue
    drains — sessions need the opposite: a service that stays up,
    holding open reservations between requests from *other* threads
    (a socket server, the CLI, a benchmark driver).  The host runs
    :meth:`JobService.pump` on a dedicated thread and marshals every
    call onto that loop, so the service's single-threaded scheduling
    invariants hold unchanged.
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        service: Optional[JobService] = None,
        telemetry=None,
        events=None,
    ) -> None:
        self.service = service or JobService(
            config, telemetry=telemetry, events=events
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "ServiceHost":
        if self._thread is not None:
            return self  # already running: entering a started host is a no-op
        self._thread = threading.Thread(
            target=self._run, name="repro-service-host", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=10.0):
            raise RuntimeError("service host failed to start")
        return self

    def stop(self) -> None:
        if self._loop is not None:
            self.call(self.service.stop_pump)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self.service.close()
        self._loop = None
        self._ready.clear()

    def __enter__(self) -> "ServiceHost":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()

    def _run(self) -> None:
        async def main() -> None:
            self._loop = asyncio.get_running_loop()
            self._ready.set()
            await self.service.pump()

        asyncio.run(main())

    # -- marshalling ---------------------------------------------------
    def call(self, fn: Callable, *args):
        """Run ``fn(*args)`` on the service loop; block for the result."""
        if self._loop is None:
            raise RuntimeError("service host is not running")
        done: "concurrent.futures.Future" = concurrent.futures.Future()

        def runner() -> None:
            try:
                done.set_result(fn(*args))
            except BaseException as exc:
                done.set_exception(exc)

        self._loop.call_soon_threadsafe(runner)
        return done.result()

    def stream(self, coro) -> "concurrent.futures.Future":
        """Schedule a coroutine on the service loop (non-blocking)."""
        if self._loop is None:
            raise RuntimeError("service host is not running")
        return asyncio.run_coroutine_threadsafe(coro, self._loop)

    # -- client surface (thread-safe) ----------------------------------
    def submit(self, spec: JobSpec, tenant: str = "default") -> SubmitOutcome:
        return self.call(self.service.submit, spec, tenant)

    def open_session(self, spec: JobSpec, tenant: str = "default"):
        return self.call(self.service.open_session, spec, tenant)

    def close_session(self, session_id: str) -> Dict[str, object]:
        return self.call(self.service.close_session, session_id)

    def evaluate(self, session_id: str, vectors, shots: int = 0) -> List[float]:
        """Stream one batch through the resident service, blocking."""
        return self.stream(
            self.service.submit_stream_batch(session_id, list(vectors), shots)
        ).result()

    def metrics(self) -> Dict[str, object]:
        return self.call(self.service.metrics_snapshot)
