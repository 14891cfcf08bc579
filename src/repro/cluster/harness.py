"""Deterministic in-process multi-node harness.

:class:`LocalCluster` runs a real :class:`~repro.cluster.master.ClusterMaster`
against N real :class:`~repro.cluster.worker.WorkerNode` executors —
no sockets, no threads, no wall clock.  Time is a manual clock the
harness advances in fixed rounds; nodes are stepped in sorted order;
node failures come from a scripted
:class:`~repro.faults.plan.NodeFaults` schedule applied through the
:class:`~repro.faults.injector.FaultInjector`.  Every run of the same
(plan, submissions) pair therefore produces byte-identical histories,
which is what lets the chaos campaign assert the strongest possible
failover property: *kill a node mid-load and the surviving cluster
settles exactly the same results, to the bit, as a run with no fault
at all*.

One round of :meth:`step`:

1. advance the clock by ``round_s``;
2. every reachable node heartbeats (killed nodes never; partitioned
   nodes' heartbeats are dropped in flight; hung nodes *do* heartbeat
   — that is what makes a hang invisible to the lease and forces the
   master's dispatch timeout to catch it);
3. the master ticks — leases expire, hangs are reaped, jobs dispatch;
   dispatches to killed or partitioned nodes are lost in flight;
4. every live, un-hung node completes at most one queued job and
   delivers the result (partitioned nodes *execute* but their results
   are held until the partition heals — the healed node's stale
   results then exercise the master's duplicate settlement path);
5. scripted node fates fire on exact completion counts.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.cluster.master import ClusterConfig, ClusterMaster
from repro.cluster.worker import WorkerNode
from repro.faults.injector import FaultInjector
from repro.service.jobs import JobSpec, SubmitOutcome


class ManualClock:
    """Injectable clock the harness advances explicitly."""

    def __init__(self, start: float = 0.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> float:
        self.now += dt
        return self.now


class _LocalNode:
    """One in-process node: executor + scripted failure state."""

    def __init__(self, worker: WorkerNode) -> None:
        self.worker = worker
        self.node_id = worker.node_id
        self.queue: Deque[Tuple[str, Dict[str, object]]] = deque()
        self.killed = False
        self.hung_until: Optional[float] = None  # None = not hung
        self.partitioned_until: Optional[float] = None
        #: results executed while partitioned, delivered on heal.
        self.held: List[Tuple[str, Dict[str, object]]] = []

    def hung(self, now: float) -> bool:
        return self.hung_until is not None and now < self.hung_until

    def partitioned(self, now: float) -> bool:
        return self.partitioned_until is not None and now < self.partitioned_until

    def reachable(self, now: float) -> bool:
        return not self.killed and not self.partitioned(now)


class LocalCluster:
    """Deterministic master + N nodes under a manual clock."""

    def __init__(
        self,
        n_nodes: int = 3,
        config: Optional[ClusterConfig] = None,
        injector: Optional[FaultInjector] = None,
        *,
        node_capacity: int = 1,
        round_s: float = 1.0,
        core: str = "boom-large",
        timing_only: bool = False,
        cache_entries: int = 4096,
    ) -> None:
        if n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
        self.clock = ManualClock()
        self.round_s = round_s
        self.injector = injector
        self.config = config or ClusterConfig(
            # Harness-scale timings: a lease spans ~2 rounds, a hang is
            # reaped after ~4, and redispatch backoff stays sub-round so
            # parked jobs are eligible again by the next tick.
            lease_timeout_s=2.5 * round_s,
            dispatch_timeout_s=4.5 * round_s,
            redispatch_backoff_s=0.05 * round_s,
            redispatch_backoff_max_s=0.5 * round_s,
            breaker_cooldown_s=2.0 * round_s,
        )
        self.master = ClusterMaster(self.config, clock=self.clock)
        self.node_capacity = node_capacity
        self.nodes: Dict[str, _LocalNode] = {}
        for index in range(n_nodes):
            node_id = f"node-{index}"
            worker = WorkerNode(
                node_id,
                core=core,
                timing_only=timing_only,
                cache_entries=cache_entries,
            )
            self.nodes[node_id] = _LocalNode(worker)
            self.master.register_node(node_id, node_capacity)
            self._apply_fate(self.nodes[node_id])  # "after 0 completions"
        self.rounds = 0

    # ------------------------------------------------------------------
    def submit(self, spec: JobSpec, tenant: str = "default") -> SubmitOutcome:
        return self.master.submit(spec, tenant)

    # ------------------------------------------------------------------
    def _apply_fate(self, node: _LocalNode) -> None:
        if self.injector is None:
            return
        fate = self.injector.node_fate(node.node_id, node.worker.completions)
        if fate is None:
            return
        kind, duration = fate
        now = self.clock.now
        if kind == "kill":
            node.killed = True
        elif kind == "hang":
            node.hung_until = (
                now + duration * self.round_s if duration > 0 else float("inf")
            )
        elif kind == "partition":
            node.partitioned_until = now + max(1, duration) * self.round_s

    def step(self) -> None:
        """One deterministic round (see module docstring)."""
        now = self.clock.advance(self.round_s)
        self.rounds += 1

        # 2. heartbeats from every reachable node (hung nodes included).
        for node_id in sorted(self.nodes):
            node = self.nodes[node_id]
            if node.reachable(now):
                self.master.heartbeat(node_id)

        # Partition heal: the node rejoins (a reconnect + hello in the
        # socket world) and its held results arrive late and stale.
        for node_id in sorted(self.nodes):
            node = self.nodes[node_id]
            if node.killed or node.partitioned(now):
                continue
            if node.partitioned_until is not None:
                node.partitioned_until = None
                self.master.register_node(node_id, self.node_capacity)
            if node.held:
                for job_id, payload in node.held:
                    self.master.handle_result(node_id, job_id, payload)
                node.held.clear()

        # 3. master tick; dispatches to unreachable nodes are lost.
        for target, message in self.master.tick(now):
            node = self.nodes[target]
            if node.reachable(now):
                node.queue.append(
                    (str(message["job_id"]), dict(message["spec"]))
                )

        # 4. execution: one completion per live, un-hung node per round.
        for node_id in sorted(self.nodes):
            node = self.nodes[node_id]
            if node.killed or node.hung(now) or not node.queue:
                continue
            job_id, spec_payload = node.queue.popleft()
            try:
                payload = node.worker.execute(spec_payload)
            except Exception as exc:
                if node.reachable(now):
                    self.master.handle_error(
                        node_id, job_id, f"{type(exc).__name__}: {exc}"
                    )
                continue
            if node.partitioned(now):
                node.held.append((job_id, payload))
            elif not node.killed:
                self.master.handle_result(node_id, job_id, payload)
            # 5. scripted fates fire on exact completion counts.
            self._apply_fate(node)

    def run(self, max_rounds: int = 200) -> bool:
        """Step until every accepted job settles; True on success."""
        for _ in range(max_rounds):
            if self.master.all_settled:
                return True
            self.step()
        return self.master.all_settled

    # ------------------------------------------------------------------
    def fingerprints(self) -> Dict[str, str]:
        """Digest -> result fingerprint of every settled job."""
        return self.master.fingerprints()

    def metrics_snapshot(self) -> Dict[str, object]:
        return self.master.metrics_snapshot()

    def close(self) -> None:
        self.master.close()
