"""Job model for the multi-tenant evaluation service.

A *job* is one hybrid-algorithm run request — the unit a tenant
submits, the scheduler interleaves, and the platform pool executes.
The lifecycle is linear with three terminal states::

    queued -> scheduled -> running -> done
                                   -> failed      (retries exhausted)
                                   -> timed_out   (deadline exceeded)

Submissions that the admission controller refuses never become jobs at
all: :meth:`repro.service.api.ServiceAPI.submit` returns a
:class:`SubmitOutcome` carrying a structured :class:`Rejection`
instead of raising, so over-quota traffic is an expected signal, not
an exception escape.

Job IDs are *durable*: ``job-<seq>-<digest8>`` where ``digest8`` is
the first 8 hex characters of the spec's content address.  The digest
part identifies *what* runs (two identical submissions share it — the
coalescer keys on the full digest); the sequence part identifies *this
submission* and never repeats within a service lifetime.
"""

from __future__ import annotations

import enum
import hashlib
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.vqa.runner import HybridResult

#: Workload families the service accepts (mirrors the CLI).
WORKLOAD_NAMES = ("qaoa", "vqe", "qnn", "ghz")
OPTIMIZER_NAMES = ("gd", "spsa")
PLATFORM_NAMES = ("qtenon", "baseline")
#: Execution-backend selector; ``auto`` defers to the planner.
BACKEND_NAMES = ("auto", "statevector", "stabilizer", "product")


class JobState(enum.Enum):
    """Lifecycle states of a job (see module docstring)."""

    QUEUED = "queued"
    SCHEDULED = "scheduled"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    TIMED_OUT = "timed_out"

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED, JobState.TIMED_OUT)


@dataclass(frozen=True)
class JobSpec:
    """What to run — everything that determines a job's result.

    Two specs with equal fields are the *same computation* (results
    are bit-identical thanks to the content-derived sampler seeds of
    :mod:`repro.runtime`), which is what makes request coalescing and
    cross-tenant cache sharing exact rather than approximate.
    """

    workload: str = "qaoa"
    n_qubits: int = 5
    optimizer: str = "spsa"
    shots: int = 200
    iterations: int = 1
    seed: int = 0
    platform: str = "qtenon"
    #: execution backend: ``auto`` routes through the planner, the
    #: rest force the named backend (part of the content address — a
    #: forced-backend run is a *different* computation).
    backend: str = "auto"

    def __post_init__(self) -> None:
        if self.workload not in WORKLOAD_NAMES:
            raise ValueError(
                f"unknown workload {self.workload!r}; expected one of {WORKLOAD_NAMES}"
            )
        if self.optimizer not in OPTIMIZER_NAMES:
            raise ValueError(
                f"unknown optimizer {self.optimizer!r}; expected one of {OPTIMIZER_NAMES}"
            )
        if self.platform not in PLATFORM_NAMES:
            raise ValueError(
                f"unknown platform {self.platform!r}; expected one of {PLATFORM_NAMES}"
            )
        if self.backend not in BACKEND_NAMES:
            raise ValueError(
                f"unknown backend {self.backend!r}; expected one of {BACKEND_NAMES}"
            )
        if self.n_qubits <= 0:
            raise ValueError(f"n_qubits must be positive, got {self.n_qubits}")
        if self.shots < 0:
            raise ValueError(f"shots must be non-negative, got {self.shots}")
        if self.iterations <= 0:
            raise ValueError(f"iterations must be positive, got {self.iterations}")

    @property
    def digest(self) -> str:
        """Content address of the computation this spec describes."""
        payload = "|".join(
            str(part)
            for part in (
                self.workload,
                self.n_qubits,
                self.optimizer,
                self.shots,
                self.iterations,
                self.seed,
                self.platform,
                self.backend,
            )
        )
        return hashlib.blake2b(payload.encode(), digest_size=16).hexdigest()

    @property
    def cost(self) -> float:
        """Scheduling cost — predicted circuit evaluations of the job.

        The deficit-round-robin scheduler charges tenants in this
        unit, so a tenant submitting heavy jobs is interleaved against
        one submitting light jobs by *work*, not by job count.
        """
        per_iteration = 3 if self.optimizer == "spsa" else None
        if per_iteration is None:
            # gd: 2 probes per parameter + the post-step cost.  The
            # parameter count scales with qubits; a linear proxy is
            # enough for fair-share accounting.
            per_iteration = 2 * self.n_qubits + 1
        return float(self.iterations * per_iteration)

    def as_dict(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "qubits": self.n_qubits,
            "optimizer": self.optimizer,
            "shots": self.shots,
            "iterations": self.iterations,
            "seed": self.seed,
            "platform": self.platform,
            "backend": self.backend,
        }

    #: Wire-level key → (constructor kwarg, coercion).  ``from_dict``
    #: accepts exactly these keys: a cluster wire protocol makes
    #: untrusted dicts the norm, and a typo'd or hostile key must be a
    #: structured refusal, not a silently-dropped field.
    _WIRE_FIELDS = {
        "workload": ("workload", str),
        "qubits": ("n_qubits", int),
        "optimizer": ("optimizer", str),
        "shots": ("shots", int),
        "iterations": ("iterations", int),
        "seed": ("seed", int),
        "platform": ("platform", str),
        "backend": ("backend", str),
    }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "JobSpec":
        """Build a spec from an untrusted payload dict.

        Every malformed payload — wrong container type, unknown keys,
        uncoercible or out-of-range values — raises ``ValueError`` with
        a message naming the offending key, never a raw ``TypeError``/
        ``KeyError`` traceback.  Callers on untrusted paths (CLI job
        files, session OPEN, the cluster journal and worker) catch it
        and report the refusal in their own terms.
        """
        if not isinstance(data, dict):
            raise ValueError(
                f"job spec must be a JSON object, got {type(data).__name__}"
            )
        unknown = sorted(set(data) - set(cls._WIRE_FIELDS))
        if unknown:
            raise ValueError(
                f"unknown job-spec keys {unknown}; "
                f"expected a subset of {sorted(cls._WIRE_FIELDS)}"
            )
        kwargs = {}
        for key, (field_name, coerce) in cls._WIRE_FIELDS.items():
            if key not in data:
                continue
            value = data[key]
            if coerce is int:
                # bool is an int subclass and int("3") hides type lies;
                # integral fields take genuine integers only.
                if isinstance(value, bool) or not isinstance(value, int):
                    raise ValueError(
                        f"job-spec key {key!r} must be an integer, got {value!r}"
                    )
                kwargs[field_name] = int(value)
            else:
                if not isinstance(value, str):
                    raise ValueError(
                        f"job-spec key {key!r} must be a string, got {value!r}"
                    )
                kwargs[field_name] = value
        try:
            return cls(**kwargs)
        except ValueError as exc:
            raise ValueError(f"invalid job spec: {exc}") from None


@dataclass(frozen=True)
class Rejection:
    """Structured admission refusal (never an exception)."""

    code: str  #: ``queue_full`` | ``tenant_quota``
    message: str
    tenant: str
    limit: int
    current: int

    def as_dict(self) -> Dict[str, object]:
        return {
            "code": self.code,
            "message": self.message,
            "tenant": self.tenant,
            "limit": self.limit,
            "current": self.current,
        }


@dataclass
class JobRecord:
    """One admitted submission, tracked through its lifecycle."""

    job_id: str
    tenant: str
    spec: JobSpec
    state: JobState = JobState.QUEUED
    submitted_s: float = 0.0
    started_s: Optional[float] = None
    finished_s: Optional[float] = None
    attempts: int = 0
    error: Optional[str] = None
    result: Optional[HybridResult] = None
    #: job id of the in-flight primary this job coalesced onto.
    coalesced_with: Optional[str] = None
    #: cooperative-cancellation token checked between evaluations; the
    #: service sets it when the job's deadline passes.
    cancel_event: threading.Event = field(default_factory=threading.Event)
    #: repro.telemetry.tracing.Tracer of the job's sim-trace (only set
    #: when the service runs with ``sim_trace=True``); typed loosely so
    #: the job model keeps no hard dependency on the telemetry layer.
    trace: Optional[object] = None
    #: completion callbacks, fired exactly once when the record reaches
    #: a terminal state — *after* the state is recorded, so a callback
    #: observing ``record.state`` always sees the settled truth:
    #: settlement and delivery are one step on the event loop (see
    #: ``JobService._settle_one``).
    callbacks: List[Callable[["JobRecord"], None]] = field(default_factory=list)
    #: latch making delivery idempotent across settle paths.
    callbacks_delivered: bool = False

    def add_done_callback(self, fn: Callable[["JobRecord"], None]) -> None:
        """Register a completion callback (fires immediately when the
        record already settled and delivered)."""
        if self.callbacks_delivered:
            fn(self)
            return
        self.callbacks.append(fn)

    def deliver_callbacks(self) -> None:
        """Fire completion callbacks exactly once (idempotent)."""
        if self.callbacks_delivered or not self.state.terminal:
            return
        self.callbacks_delivered = True
        for callback in self.callbacks:
            callback(self)

    @property
    def latency_s(self) -> Optional[float]:
        if self.finished_s is None:
            return None
        return self.finished_s - self.submitted_s

    def status_dict(self) -> Dict[str, object]:
        """JSON-able status snapshot (the ``status`` API payload)."""
        return {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "state": self.state.value,
            "spec": self.spec.as_dict(),
            "digest": self.spec.digest,
            "attempts": self.attempts,
            "error": self.error,
            "coalesced_with": self.coalesced_with,
            "latency_s": self.latency_s,
            "final_cost": None if self.result is None else self.result.final_cost,
        }


@dataclass(frozen=True)
class SubmitOutcome:
    """What ``submit`` returns: an admitted job id *or* a rejection."""

    job_id: Optional[str] = None
    rejection: Optional[Rejection] = None

    @property
    def accepted(self) -> bool:
        return self.job_id is not None

    def as_dict(self) -> Dict[str, object]:
        return {
            "accepted": self.accepted,
            "job_id": self.job_id,
            "rejection": None if self.rejection is None else self.rejection.as_dict(),
        }


class JobCancelled(Exception):
    """Raised inside a worker when its job's cancel token is set (its
    deadline passed)."""


def make_job_id(sequence: int, spec: JobSpec) -> str:
    """Durable job id: unique sequence + content-address prefix."""
    return f"job-{sequence:06d}-{spec.digest[:8]}"
