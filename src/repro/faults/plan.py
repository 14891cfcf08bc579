"""Declarative fault plans: what to break, how often, reproducibly.

The paper evaluates both platforms "under optimal conditions" — the
100 GbE UDP baseline never drops a packet, measurement PUTs always
arrive, workers never die.  A :class:`FaultPlan` describes the
*adverse* conditions a production deployment must survive, one
dataclass per fault class:

* :class:`LinkFaults` — UDP packet loss / reordering / jitter on the
  decoupled baseline's host↔FPGA link, answered by a NACK/retransmit
  protocol whose detection timeout is charged in sim time;
* :class:`MeasurementFaults` — drop / corruption of the controller's
  batched measurement PUTs (Algorithm 1 traffic) and stuck
  ``q_acquire`` pulls, answered by sequence numbers + checksums and a
  controller watchdog;
* :class:`ReadoutDriftFaults` — slow calibration drift of the
  :class:`~repro.quantum.noise.ReadoutNoise` assignment errors;
* :class:`WorkerFaults` — crash / hang / slow-down of evaluation-pool
  and service workers, answered by the runtime circuit breaker and the
  service's capped-backoff retries.

Plans are **content-addressed**: :attr:`FaultPlan.digest` hashes every
field, and all fault decisions derive from that digest (see
:class:`repro.faults.injector.FaultInjector`), so two campaigns with
the same plan are bit-identical and a plan change is a digest change.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields
from typing import Tuple

from repro.sim.clock import ms, us


def _check_probability(owner: str, name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{owner}.{name}={value} is not a probability")


@dataclass(frozen=True)
class LinkFaults:
    """UDP link degradation for the decoupled baseline (paper §7.1).

    A dropped datagram is detected by the receiver's NACK after
    ``nack_timeout_ps`` and retransmitted (charged: timeout + a full
    re-send); a reordered datagram is held back one message slot by the
    sequence-number reassembly; jitter adds a uniform extra delay.
    """

    loss_p: float = 0.0          #: per-message drop probability
    reorder_p: float = 0.0       #: per-message reorder probability
    jitter_ps: int = 0           #: max uniform extra latency per message
    nack_timeout_ps: int = ms(2)  #: loss-detection timeout before retransmit
    max_retransmits: int = 8     #: give-up bound per message

    def __post_init__(self) -> None:
        _check_probability("LinkFaults", "loss_p", self.loss_p)
        _check_probability("LinkFaults", "reorder_p", self.reorder_p)
        if self.jitter_ps < 0:
            raise ValueError(f"jitter_ps must be >= 0, got {self.jitter_ps}")
        if self.nack_timeout_ps <= 0:
            raise ValueError(
                f"nack_timeout_ps must be positive, got {self.nack_timeout_ps}"
            )
        if self.max_retransmits < 1:
            raise ValueError(
                f"max_retransmits must be >= 1, got {self.max_retransmits}"
            )


@dataclass(frozen=True)
class MeasurementFaults:
    """Faults on the controller's measurement result path (§6.3).

    Batched PUTs carry a sequence number and checksum
    (:mod:`repro.faults.protocol`); a dropped or corrupted batch is
    detected after ``retry_timeout_ps`` (watchdog or checksum NACK) and
    retransmitted.  A stuck ``q_acquire`` is recovered by the same
    watchdog, each firing charged in sim time.
    """

    drop_p: float = 0.0          #: per-batch PUT drop probability
    corrupt_p: float = 0.0       #: per-batch payload corruption probability
    stuck_acquire_p: float = 0.0  #: per-q_acquire hang probability
    retry_timeout_ps: int = us(5)  #: watchdog / NACK detection latency
    max_retransmits: int = 8

    def __post_init__(self) -> None:
        _check_probability("MeasurementFaults", "drop_p", self.drop_p)
        _check_probability("MeasurementFaults", "corrupt_p", self.corrupt_p)
        _check_probability(
            "MeasurementFaults", "stuck_acquire_p", self.stuck_acquire_p
        )
        if self.drop_p + self.corrupt_p > 1.0:
            raise ValueError(
                f"drop_p + corrupt_p must not exceed 1, got "
                f"{self.drop_p + self.corrupt_p}"
            )
        if self.retry_timeout_ps <= 0:
            raise ValueError(
                f"retry_timeout_ps must be positive, got {self.retry_timeout_ps}"
            )
        if self.max_retransmits < 1:
            raise ValueError(
                f"max_retransmits must be >= 1, got {self.max_retransmits}"
            )


@dataclass(frozen=True)
class ReadoutDriftFaults:
    """Calibration drift of the readout assignment errors.

    The effective ``p01``/``p10`` grow multiplicatively with the
    evaluation index — ``scale(i) = min(max_scale, 1 + rate * i)`` —
    modelling the slow drift between recalibrations on real chips.
    """

    rate_per_evaluation: float = 0.0
    max_scale: float = 4.0

    def __post_init__(self) -> None:
        if self.rate_per_evaluation < 0:
            raise ValueError(
                f"rate_per_evaluation must be >= 0, got {self.rate_per_evaluation}"
            )
        if self.max_scale < 1.0:
            raise ValueError(f"max_scale must be >= 1, got {self.max_scale}")


@dataclass(frozen=True)
class WorkerFaults:
    """Crash / hang / slow-down of evaluation and service workers.

    ``crash_burst`` deterministically crashes the first N worker
    dispatches at every injection site — the scripted scenario the
    circuit-breaker recovery proofs are built on; the probabilities
    apply to every dispatch after the burst.
    """

    crash_p: float = 0.0
    hang_p: float = 0.0
    slowdown_p: float = 0.0
    crash_burst: int = 0          #: first N dispatches per site crash
    hang_s: float = 0.2           #: how long a hung worker blocks (wall clock)
    slowdown_s: float = 0.05      #: extra latency of a slowed worker

    def __post_init__(self) -> None:
        _check_probability("WorkerFaults", "crash_p", self.crash_p)
        _check_probability("WorkerFaults", "hang_p", self.hang_p)
        _check_probability("WorkerFaults", "slowdown_p", self.slowdown_p)
        if self.crash_p + self.hang_p + self.slowdown_p > 1.0:
            raise ValueError(
                "crash_p + hang_p + slowdown_p must not exceed 1, got "
                f"{self.crash_p + self.hang_p + self.slowdown_p}"
            )
        if self.crash_burst < 0:
            raise ValueError(f"crash_burst must be >= 0, got {self.crash_burst}")
        if self.hang_s < 0 or self.slowdown_s < 0:
            raise ValueError("hang_s and slowdown_s must be >= 0")


#: Whole-node fates the cluster fault layer can schedule.
NODE_FAULT_KINDS = ("kill", "hang", "partition")


@dataclass(frozen=True)
class NodeFaults:
    """Scheduled whole-node failures for the cluster layer.

    Unlike the probabilistic per-dispatch worker faults, node fates are
    *scripted*: each event is ``(kind, node_id, after_completions,
    duration_rounds)`` and fires exactly when the named node has
    completed that many jobs — the determinism the zero-loss chaos
    proofs are built on (the same plan kills the same node at the same
    point in the campaign, every run, regardless of interleaving).

    * ``kill`` — the node stops heartbeating and processing; its
      in-flight jobs are reassigned when the master's lease expires
      (``duration_rounds`` is ignored — death is forever);
    * ``hang`` — the node keeps heartbeating (its heartbeat thread is
      alive) but stops making progress; the master's dispatch timeout
      reaps it;
    * ``partition`` — the node keeps executing but messages between it
      and the master are dropped for ``duration_rounds`` harness
      rounds; on heal, its stale results exercise the master's
      duplicate-result idempotency.
    """

    events: Tuple[Tuple[str, str, int, int], ...] = ()

    def __post_init__(self) -> None:
        for event in self.events:
            if len(event) != 4:
                raise ValueError(
                    f"node fault event must be (kind, node_id, "
                    f"after_completions, duration_rounds), got {event!r}"
                )
            kind, node_id, after, duration = event
            if kind not in NODE_FAULT_KINDS:
                raise ValueError(
                    f"unknown node fault kind {kind!r}; "
                    f"expected one of {NODE_FAULT_KINDS}"
                )
            if not isinstance(node_id, str) or not node_id:
                raise ValueError(f"node_id must be a non-empty string, got {node_id!r}")
            if after < 0:
                raise ValueError(f"after_completions must be >= 0, got {after}")
            if duration < 0:
                raise ValueError(f"duration_rounds must be >= 0, got {duration}")

    def for_node(self, node_id: str) -> Tuple[Tuple[str, int, int], ...]:
        """(kind, after_completions, duration) events for one node."""
        return tuple(
            (kind, after, duration)
            for kind, name, after, duration in self.events
            if name == node_id
        )


@dataclass(frozen=True)
class FaultPlan:
    """A complete, seeded fault schedule across all fault classes."""

    seed: int = 0
    link: LinkFaults = field(default_factory=LinkFaults)
    measurement: MeasurementFaults = field(default_factory=MeasurementFaults)
    readout: ReadoutDriftFaults = field(default_factory=ReadoutDriftFaults)
    worker: WorkerFaults = field(default_factory=WorkerFaults)
    node: NodeFaults = field(default_factory=NodeFaults)

    def _canonical(self) -> str:
        parts = [f"seed={self.seed}"]
        for section_name in ("link", "measurement", "readout", "worker", "node"):
            section = getattr(self, section_name)
            for f in fields(section):
                parts.append(f"{section_name}.{f.name}={getattr(section, f.name)!r}")
        return "|".join(parts)

    @property
    def digest(self) -> str:
        """Content address of the plan — every field enters the hash."""
        return hashlib.blake2b(
            self._canonical().encode(), digest_size=16
        ).hexdigest()

    @property
    def digest_bytes(self) -> bytes:
        return bytes.fromhex(self.digest)


class InjectedWorkerCrash(RuntimeError):
    """A worker process killed by the fault injector."""


class InjectedWorkerHang(RuntimeError):
    """A worker hang reaped by a watchdog (surfaces as a failure)."""
