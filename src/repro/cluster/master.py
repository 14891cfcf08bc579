"""The cluster master: admission, fair-share dispatch, failover.

:class:`ClusterMaster` is a *transport-agnostic state machine*: it
never touches a socket, a thread or the wall clock.  Callers feed it
events (``submit``, ``register_node``, ``heartbeat``, ``handle_result``,
``handle_error``) and drive time explicitly through :meth:`tick`, which
returns the dispatch messages the transport should deliver.  The
threaded socket front-end (:mod:`repro.cluster.server`) and the
deterministic in-process harness (:mod:`repro.cluster.harness`) are
both thin shells over this one machine — which is what lets the chaos
campaigns prove failover properties with a manual clock and byte-exact
assertions, and the socket deployment inherit them.

Reliability model (see DESIGN.md for the full argument):

* **durable acceptance** — every admitted job is journaled before the
  submit call returns; a master restart replays the journal and
  re-admits accepted-but-unsettled jobs, so acceptance is a promise
  that survives the master process;
* **heartbeat leases** — a node that misses its lease is declared
  lost and its in-flight jobs are redispatched.  A node that
  heartbeats but stops completing (a hang) is reaped by the dispatch
  timeout instead;
* **at-least-once dispatch, exactly-once settlement** — redispatch may
  race a slow or partitioned node, so one job can execute twice; the
  content-derived sampler seeds make both executions bit-identical,
  the first result to arrive settles the job, and later duplicates
  are counted and dropped without touching admission accounting;
* **cache-local routing** — jobs route to nodes by rendezvous hash of
  the spec digest (:mod:`repro.cluster.hashring`) with a bounded
  spill past unhealthy or saturated nodes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster import wire
from repro.cluster.executor import result_fingerprint
from repro.cluster.hashring import rank_nodes
from repro.cluster.journal import JobJournal, JournalState, replay_journal
from repro.runtime.breaker import CircuitBreaker, backoff_delay
from repro.service.admission import (
    DEFAULT_MAX_OPEN_JOBS,
    DEFAULT_TENANT_QUOTA,
    AdmissionController,
)
from repro.service.drr import DEFAULT_QUANTUM, DeficitRoundRobin, jain_index
from repro.service.health import HealthRegistry
from repro.service.jobs import (
    JobSpec,
    JobState,
    SubmitOutcome,
    make_job_id,
)
from repro.sim.stats import StatGroup


@dataclass
class ClusterConfig:
    """Tunables of one master instance (all CLI-exposed)."""

    #: a node whose last heartbeat is older than this is *lost* — its
    #: lease lapsed and its in-flight jobs are redispatched.
    lease_timeout_s: float = 3.0
    #: a job in flight longer than this on a still-heartbeating node
    #: means the node hangs: the job is reaped and the node's breaker
    #: charged a failure.
    dispatch_timeout_s: float = 30.0
    #: dispatch attempts (including redispatches) before a job fails.
    max_dispatch_attempts: int = 4
    #: capped full-jitter backoff for redispatching a failed job.
    redispatch_backoff_s: float = 0.05
    redispatch_backoff_max_s: float = 1.0
    #: how far past the rendezvous-preferred node routing may spill.
    spill_limit: int = 2
    quantum: float = DEFAULT_QUANTUM
    max_open_jobs: int = DEFAULT_MAX_OPEN_JOBS
    tenant_quota: int = DEFAULT_TENANT_QUOTA
    per_tenant_quotas: Dict[str, int] = field(default_factory=dict)
    breaker_failure_threshold: int = 2
    breaker_cooldown_s: float = 1.0
    #: journal file; ``None`` runs without durability (tests, benches).
    journal_path: Optional[str] = None
    #: fsync every journal record (power-loss durability); ``False``
    #: still survives master crashes, which is the failure the chaos
    #: campaigns model.
    journal_fsync: bool = False

    def __post_init__(self) -> None:
        if self.lease_timeout_s <= 0:
            raise ValueError(
                f"lease_timeout_s must be positive, got {self.lease_timeout_s}"
            )
        if self.dispatch_timeout_s <= 0:
            raise ValueError(
                f"dispatch_timeout_s must be positive, got {self.dispatch_timeout_s}"
            )
        if self.max_dispatch_attempts < 1:
            raise ValueError(
                f"max_dispatch_attempts must be >= 1, got {self.max_dispatch_attempts}"
            )
        if self.spill_limit < 0:
            raise ValueError(f"spill_limit must be >= 0, got {self.spill_limit}")
        if self.redispatch_backoff_max_s < self.redispatch_backoff_s:
            raise ValueError(
                f"redispatch_backoff_max_s ({self.redispatch_backoff_max_s}) "
                f"must not be below redispatch_backoff_s "
                f"({self.redispatch_backoff_s})"
            )


@dataclass
class NodeHandle:
    """Master-side view of one worker node."""

    node_id: str
    capacity: int
    last_heartbeat_s: float
    breaker: CircuitBreaker
    stats: StatGroup
    alive: bool = True
    #: job_id -> dispatch timestamp (master clock).
    in_flight: Dict[str, float] = field(default_factory=dict)

    @property
    def free_slots(self) -> int:
        return max(0, self.capacity - len(self.in_flight)) if self.alive else 0

    def snapshot(self) -> Dict[str, object]:
        return {
            "alive": self.alive,
            "capacity": self.capacity,
            "in_flight": len(self.in_flight),
            "breaker_state": self.breaker.state.value,
            "stats": self.stats.as_dict(),
        }


@dataclass
class ClusterJob:
    """One accepted job tracked through dispatch and settlement."""

    job_id: str
    tenant: str
    spec: JobSpec
    submitted_s: float
    state: JobState = JobState.QUEUED
    attempts: int = 0
    assigned_node: Optional[str] = None
    finished_s: Optional[float] = None
    #: backoff parking: not dispatchable before this master-clock time.
    eligible_s: float = 0.0
    error: Optional[str] = None
    payload: Optional[Dict[str, object]] = None
    fingerprint: Optional[str] = None
    #: re-admitted from the journal after a master restart.
    recovered: bool = False

    def status_dict(self) -> Dict[str, object]:
        return {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "digest": self.spec.digest,
            "state": self.state.value,
            "attempts": self.attempts,
            "node": self.assigned_node,
            "error": self.error,
            "fingerprint": self.fingerprint,
            "recovered": self.recovered,
        }


class ClusterMaster:
    """Admission + DRR fair-share + failover over N worker nodes."""

    def __init__(
        self,
        config: Optional[ClusterConfig] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config or ClusterConfig()
        self.clock = clock
        self.stats = StatGroup("cluster")
        self.health = HealthRegistry()
        self.admission = AdmissionController(
            max_open_jobs=self.config.max_open_jobs,
            tenant_quota=self.config.tenant_quota,
            per_tenant_quotas=self.config.per_tenant_quotas,
        )
        self.scheduler: DeficitRoundRobin[ClusterJob] = DeficitRoundRobin(
            quantum=self.config.quantum
        )
        self.nodes: Dict[str, NodeHandle] = {}
        self.jobs: Dict[str, ClusterJob] = {}
        self._parked: List[ClusterJob] = []
        self._sequence = 0
        self.journal: Optional[JobJournal] = None
        self.recovered_state: Optional[JournalState] = None
        if self.config.journal_path is not None:
            self._recover(self.config.journal_path)
            self.journal = JobJournal(
                self.config.journal_path, fsync=self.config.journal_fsync
            )
            if self.journal.repaired_bytes:
                self.stats.counter("journal_tail_repaired").increment()

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def _recover(self, path: str) -> None:
        """Replay the journal: accepted-but-unsettled jobs re-enter the
        queue with their original ids — acceptance survives the master."""
        import os

        if not os.path.exists(path) or os.path.getsize(path) == 0:
            return
        state = replay_journal(path)
        self.recovered_state = state
        for job_id in state.open_jobs:
            entry = state.accepted[job_id]
            try:
                spec = JobSpec.from_dict(dict(entry["spec"]))
            except ValueError:
                self.stats.counter("recovery_unparseable").increment()
                continue
            tenant = str(entry["tenant"])
            rejection = self.admission.try_admit(tenant)
            if rejection is not None:
                # Can only happen if the journal holds more open jobs
                # than the (shrunk) admission bound; surface, don't drop.
                self.stats.counter("recovery_readmit_rejected").increment()
                continue
            job = ClusterJob(
                job_id=job_id,
                tenant=tenant,
                spec=spec,
                submitted_s=self.clock(),
                recovered=True,
            )
            self.jobs[job_id] = job
            self.scheduler.enqueue(tenant, job, spec.cost)
            self.stats.counter("recovered_jobs").increment()
        for job_id in state.accepted:
            # job-<seq>-<digest8>: keep new ids unique past the replay.
            try:
                sequence = int(job_id.split("-")[1])
            except (IndexError, ValueError):
                continue
            self._sequence = max(self._sequence, sequence)

    # ------------------------------------------------------------------
    # client surface
    # ------------------------------------------------------------------
    def submit(self, spec: JobSpec, tenant: str = "default") -> SubmitOutcome:
        """Admit (journaling the acceptance) or refuse with a reason."""
        self.stats.counter("submitted").increment()
        rejection = self.admission.try_admit(tenant)
        if rejection is not None:
            self.stats.counter("rejected").increment()
            return SubmitOutcome(rejection=rejection)
        self._sequence += 1
        job = ClusterJob(
            job_id=make_job_id(self._sequence, spec),
            tenant=tenant,
            spec=spec,
            submitted_s=self.clock(),
        )
        self.jobs[job.job_id] = job
        if self.journal is not None:
            # Durability point: once this record is on disk the job is
            # a promise — a restarted master re-admits it from replay.
            self.journal.append(
                "accepted",
                job_id=job.job_id,
                tenant=tenant,
                spec=spec.as_dict(),
                digest=spec.digest,
            )
        self.scheduler.enqueue(tenant, job, spec.cost)
        self.stats.counter("accepted").increment()
        return SubmitOutcome(job_id=job.job_id)

    def status(self, job_id: str) -> Optional[Dict[str, object]]:
        job = self.jobs.get(job_id)
        return None if job is None else job.status_dict()

    # ------------------------------------------------------------------
    # node membership
    # ------------------------------------------------------------------
    def register_node(self, node_id: str, capacity: int) -> NodeHandle:
        """A worker said hello (first contact or rejoin after a loss)."""
        if capacity < 1:
            raise ValueError(f"node capacity must be >= 1, got {capacity}")
        now = self.clock()
        handle = self.nodes.get(node_id)
        if handle is None:
            handle = NodeHandle(
                node_id=node_id,
                capacity=capacity,
                last_heartbeat_s=now,
                breaker=CircuitBreaker(
                    failure_threshold=self.config.breaker_failure_threshold,
                    cooldown_s=self.config.breaker_cooldown_s,
                    clock=self.clock,
                ),
                stats=StatGroup(f"node.{node_id}"),
            )
            self.nodes[node_id] = handle
        else:
            handle.capacity = capacity
            handle.last_heartbeat_s = now
            handle.alive = True
            # Rejoin wipes the breaker: its failure history belongs to
            # the dead incarnation, and a half-open probe lost with the
            # old connection must not keep the node unroutable forever.
            handle.breaker.reset()
        handle.stats.counter("registered").increment()
        self.stats.counter("node_registrations").increment()
        return handle

    def heartbeat(self, node_id: str) -> bool:
        """Lease renewal; unknown nodes are ignored (they must hello)."""
        handle = self.nodes.get(node_id)
        if handle is None or not handle.alive:
            return False
        handle.last_heartbeat_s = self.clock()
        handle.stats.counter("heartbeats").increment()
        return True

    def node_lost(self, node_id: str) -> None:
        """Transport-level loss (connection closed/errored)."""
        handle = self.nodes.get(node_id)
        if handle is not None and handle.alive:
            self._lose_node(handle, reason="connection_lost")

    def _lose_node(self, handle: NodeHandle, reason: str) -> None:
        handle.alive = False
        handle.stats.counter(f"lost_{reason}").increment()
        self.stats.counter("nodes_lost").increment()
        in_flight = list(handle.in_flight)
        handle.in_flight.clear()
        if in_flight:
            # The node vanished mid-work.  Charging a failure also
            # fails any half-open probe riding on those dispatches, so
            # the breaker cannot wedge with its probe slot leaked.
            handle.breaker.record_failure()
        for job_id in in_flight:
            job = self.jobs.get(job_id)
            if job is None or job.state.terminal:
                continue
            self.stats.counter("reassigned").increment()
            self._requeue(job, error=f"node {handle.node_id} {reason}")

    # ------------------------------------------------------------------
    # time and dispatch
    # ------------------------------------------------------------------
    def tick(self, now: Optional[float] = None) -> List[Tuple[str, Dict[str, object]]]:
        """Advance the machine: expire leases, reap hangs, dispatch.

        Returns ``(node_id, dispatch message)`` pairs for the transport
        to deliver.  Deterministic given the clock and event history:
        nodes and jobs are visited in stable order.
        """
        if now is None:
            now = self.clock()
        self._expire_leases(now)
        self._reap_hangs(now)
        self._unpark(now)
        return self._dispatch(now)

    def _expire_leases(self, now: float) -> None:
        for node_id in sorted(self.nodes):
            handle = self.nodes[node_id]
            if not handle.alive:
                continue
            if now - handle.last_heartbeat_s > self.config.lease_timeout_s:
                self._lose_node(handle, reason="lease_expired")

    def _reap_hangs(self, now: float) -> None:
        """A heartbeating node that sits on a job past the dispatch
        timeout is hung: reclaim the job, charge the breaker."""
        for node_id in sorted(self.nodes):
            handle = self.nodes[node_id]
            if not handle.alive:
                continue
            overdue = [
                job_id
                for job_id, dispatched_at in handle.in_flight.items()
                if now - dispatched_at > self.config.dispatch_timeout_s
            ]
            for job_id in overdue:
                del handle.in_flight[job_id]
                handle.stats.counter("hang_reaps").increment()
                handle.breaker.record_failure()
                self.health.backend(node_id).record_failure(
                    f"dispatch timeout on {job_id}"
                )
                job = self.jobs.get(job_id)
                if job is None or job.state.terminal:
                    continue
                self.stats.counter("hang_reassigned").increment()
                self._requeue(job, error=f"node {node_id} dispatch timeout")

    def _unpark(self, now: float) -> None:
        still_parked: List[ClusterJob] = []
        for job in self._parked:
            if job.state.terminal:
                continue
            if job.eligible_s <= now:
                self.scheduler.enqueue(job.tenant, job, job.spec.cost)
            else:
                still_parked.append(job)
        self._parked = still_parked

    def _dispatch(self, now: float) -> List[Tuple[str, Dict[str, object]]]:
        outbox: List[Tuple[str, Dict[str, object]]] = []
        free_slots = sum(h.free_slots for h in self.nodes.values())
        while free_slots > 0:
            popped = self.scheduler.pop()
            if popped is None:
                break
            _tenant, job, _cost = popped
            if job.state is not JobState.QUEUED:
                continue
            handle = self._route(job)
            if handle is None:
                # No admissible node for *this* digest right now
                # (breakers open, spill bound hit): park it until the
                # next tick and keep dispatching other jobs — their
                # rendezvous candidates may differ.
                self._park(job, delay=0.0, now=now)
                continue
            job.state = JobState.SCHEDULED
            job.attempts += 1
            job.assigned_node = handle.node_id
            handle.in_flight[job.job_id] = now
            handle.stats.counter("dispatched").increment()
            self.stats.counter("dispatched").increment()
            if self.journal is not None:
                self.journal.append(
                    "dispatched",
                    job_id=job.job_id,
                    node=handle.node_id,
                    attempt=job.attempts,
                )
            outbox.append(
                (
                    handle.node_id,
                    wire.dispatch(job.job_id, job.spec.as_dict(), job.attempts),
                )
            )
            free_slots -= 1
        return outbox

    def _route(self, job: ClusterJob) -> Optional[NodeHandle]:
        """Rendezvous-preferred node, spilling at most ``spill_limit``
        ranks past it to nodes that are alive, healthy and free."""
        alive = [h.node_id for h in self.nodes.values() if h.alive]
        if not alive:
            return None
        ranking = rank_nodes(job.spec.digest, alive)
        candidates = ranking[: 1 + self.config.spill_limit]
        for rank, node_id in enumerate(candidates):
            handle = self.nodes[node_id]
            if handle.free_slots <= 0:
                continue
            if not self.health.backend(node_id).healthy:
                continue
            # allow() last: in half-open it admits the single probe,
            # so it must only be consulted when we will dispatch.
            if not handle.breaker.allow():
                continue
            if rank > 0:
                self.stats.counter("spills").increment()
                handle.stats.counter("spill_ins").increment()
            return handle
        return None

    # ------------------------------------------------------------------
    # results and failures
    # ------------------------------------------------------------------
    def handle_result(
        self, node_id: str, job_id: str, payload: Dict[str, object]
    ) -> bool:
        """A worker returned a result; settle the job exactly once."""
        handle = self.nodes.get(node_id)
        if handle is not None:
            handle.in_flight.pop(job_id, None)
        job = self.jobs.get(job_id)
        if job is None:
            self.stats.counter("unknown_results").increment()
            return False
        if job.state.terminal:
            # A redispatch raced this node (partition heal, slow node):
            # the job already settled with bit-identical content.  Count
            # it; admission was released exactly once at settlement.  The
            # node still did the work, so its breaker records a success —
            # a half-open probe answered by a duplicate must be released.
            self.stats.counter("duplicate_results").increment()
            if handle is not None:
                handle.breaker.record_success()
                handle.stats.counter("duplicate_results").increment()
            return False
        if str(payload.get("digest", "")) != job.spec.digest:
            # Wrong content for this job id — a desynchronised worker.
            self.stats.counter("digest_mismatches").increment()
            if handle is not None:
                handle.breaker.record_failure()
                self.health.backend(node_id).record_failure(
                    f"digest mismatch on {job_id}"
                )
            self._fail_or_requeue(job, f"digest mismatch from node {node_id}")
            return False
        if handle is not None:
            handle.breaker.record_success()
            handle.stats.counter("completed").increment()
        self.health.backend(node_id).record_success()
        job.payload = dict(payload)
        job.fingerprint = result_fingerprint(payload)
        self._settle(job, JobState.DONE, node_id=node_id)
        return True

    def handle_error(self, node_id: str, job_id: str, message: str) -> None:
        """A worker reported a job failure: charge health, redispatch."""
        handle = self.nodes.get(node_id)
        if handle is not None:
            handle.in_flight.pop(job_id, None)
            handle.breaker.record_failure()
            handle.stats.counter("worker_errors").increment()
        self.health.backend(node_id).record_failure(message)
        self.stats.counter("worker_errors").increment()
        job = self.jobs.get(job_id)
        if job is None or job.state.terminal:
            return
        self._fail_or_requeue(job, message)

    def _fail_or_requeue(self, job: ClusterJob, error: str) -> None:
        if job.attempts >= self.config.max_dispatch_attempts:
            job.error = error
            self._settle(job, JobState.FAILED, node_id=job.assigned_node)
            return
        self._requeue(job, error=error)

    def _requeue(self, job: ClusterJob, error: str) -> None:
        """Park a job for redispatch with capped full-jitter backoff."""
        if job.attempts >= self.config.max_dispatch_attempts:
            job.error = error
            self._settle(job, JobState.FAILED, node_id=job.assigned_node)
            return
        job.state = JobState.QUEUED
        job.assigned_node = None
        delay = self._backoff_delay(job.job_id, job.attempts)
        self._park(job, delay=delay, now=self.clock())
        self.stats.counter("redispatches").increment()

    def _park(self, job: ClusterJob, delay: float, now: float) -> None:
        job.state = JobState.QUEUED
        job.eligible_s = now + delay
        self._parked.append(job)

    def _backoff_delay(self, job_id: str, attempt: int) -> float:
        return backoff_delay(
            job_id,
            attempt,
            self.config.redispatch_backoff_s,
            self.config.redispatch_backoff_max_s,
        )

    # ------------------------------------------------------------------
    # settlement
    # ------------------------------------------------------------------
    def _settle(
        self, job: ClusterJob, state: JobState, node_id: Optional[str]
    ) -> None:
        job.state = state
        job.finished_s = self.clock()
        self.stats.counter(f"jobs_{state.value}").increment()
        if self.journal is not None:
            self.journal.append(
                "settled",
                job_id=job.job_id,
                state=state.value,
                node=node_id,
                fingerprint=job.fingerprint,
                error=job.error,
            )
        self.admission.release(job.tenant)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    @property
    def all_settled(self) -> bool:
        return all(job.state.terminal for job in self.jobs.values())

    @property
    def open_jobs(self) -> int:
        return self.admission.open_jobs

    def results(self) -> Dict[str, Dict[str, object]]:
        """Settled payloads by job id (``done`` jobs only)."""
        return {
            job_id: job.payload
            for job_id, job in sorted(self.jobs.items())
            if job.state is JobState.DONE and job.payload is not None
        }

    def fingerprints(self) -> Dict[str, str]:
        """Result fingerprint per settled job's *digest* — the chaos
        campaigns' bit-parity key (digest identifies the computation,
        so faulted and clean runs compare independent of job ids)."""
        out: Dict[str, str] = {}
        for job in self.jobs.values():
            if job.state is JobState.DONE and job.fingerprint is not None:
                out[job.spec.digest] = job.fingerprint
        return out

    def metrics_snapshot(self) -> Dict[str, object]:
        jobs_by_state: Dict[str, int] = {}
        for job in self.jobs.values():
            jobs_by_state[job.state.value] = (
                jobs_by_state.get(job.state.value, 0) + 1
            )
        served = self.scheduler.fairness_snapshot()
        snapshot: Dict[str, object] = {
            "cluster": self.stats.as_dict(),
            "admission": self.admission.stats.as_dict(),
            "scheduler": {
                "backlog": len(self.scheduler),
                "parked": len(self._parked),
                "served_cost_by_tenant": served,
                "fairness_jain": jain_index(list(served.values())),
            },
            "jobs_by_state": jobs_by_state,
            "nodes": {
                node_id: handle.snapshot()
                for node_id, handle in sorted(self.nodes.items())
            },
            "node_health": self.health.snapshot(),
        }
        if self.journal is not None:
            snapshot["journal"] = {"appended": self.journal.appended}
        if self.recovered_state is not None:
            snapshot["recovery"] = self.recovered_state.as_dict()
        return snapshot

    def close(self) -> None:
        if self.journal is not None:
            self.journal.close()
