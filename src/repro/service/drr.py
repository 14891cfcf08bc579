"""Deficit round-robin fair-share scheduling over per-tenant queues.

Shreedhar & Varghese's deficit round robin, applied to jobs instead of
packets: every tenant owns a FIFO queue and a *deficit counter*; the
scheduler visits backlogged tenants in a ring, tops the visited
tenant's deficit up by one ``quantum``, and serves queued jobs while
the deficit covers their cost.  A job too expensive for the remaining
deficit ends the visit — the deficit carries over, so expensive jobs
are delayed, never starved.

Properties the tests pin down:

* **work conservation** — ``pop`` returns a job whenever any queue is
  non-empty;
* **bounded unfairness** — while two tenants are both continuously
  backlogged, their cumulative served cost differs by at most
  ``quantum + 2 * max_job_cost`` (each visit serves ``quantum``
  ± one deficit carry, and ring order bounds the visit counts to
  within one of each other);
* **no banking** — a tenant whose queue drains forfeits its deficit,
  so idle periods cannot be hoarded into a later burst.

The structure is synchronous and single-threaded by design; the async
service drives it from the event-loop thread only.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Generic, List, Optional, Tuple, TypeVar

T = TypeVar("T")

#: Default per-visit service quantum, in job-cost units (predicted
#: circuit evaluations — see :meth:`repro.service.jobs.JobSpec.cost`).
DEFAULT_QUANTUM = 16.0


class DeficitRoundRobin(Generic[T]):
    """Fair-share queue: ``enqueue(tenant, item, cost)`` / ``pop()``."""

    def __init__(self, quantum: float = DEFAULT_QUANTUM) -> None:
        if quantum <= 0:
            raise ValueError(f"quantum must be positive, got {quantum}")
        self.quantum = float(quantum)
        self._queues: Dict[str, Deque[Tuple[T, float]]] = {}
        self._deficits: Dict[str, float] = {}
        self._ring: Deque[str] = deque()
        #: whether the ring-head tenant already received this visit's
        #: quantum top-up (reset when the visit ends).
        self._visit_open = False
        #: cumulative served cost per tenant — the fairness telemetry.
        self.served: Dict[str, float] = {}

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return sum(len(queue) for queue in self._queues.values())

    def enqueue(self, tenant: str, item: T, cost: float) -> None:
        if cost <= 0:
            raise ValueError(f"job cost must be positive, got {cost}")
        queue = self._queues.setdefault(tenant, deque())
        if not queue and tenant not in self._ring:
            self._ring.append(tenant)
            self._deficits.setdefault(tenant, 0.0)
        queue.append((item, cost))

    def pop(self) -> Optional[Tuple[str, T, float]]:
        """Serve the next job under DRR order, or ``None`` if idle."""
        while self._ring:
            tenant = self._ring[0]
            queue = self._queues[tenant]
            if not self._visit_open:
                self._deficits[tenant] += self.quantum
                self._visit_open = True
            item, cost = queue[0]
            if self._deficits[tenant] >= cost:
                queue.popleft()
                self._deficits[tenant] -= cost
                self.served[tenant] = self.served.get(tenant, 0.0) + cost
                if not queue:
                    self._end_visit(tenant, drained=True)
                return tenant, item, cost
            # Head job exceeds the remaining deficit: the visit ends,
            # the deficit carries over to this tenant's next turn.
            self._end_visit(tenant, drained=False)
        return None

    # ------------------------------------------------------------------
    def _end_visit(self, tenant: str, drained: bool) -> None:
        self._visit_open = False
        if drained:
            self._ring.popleft()
            self._deficits[tenant] = 0.0  # idle tenants forfeit deficit
        else:
            self._ring.rotate(-1)

    def fairness_snapshot(self) -> Dict[str, float]:
        """Cumulative served cost per tenant (for metrics/benchmarks)."""
        return dict(self.served)


def jain_index(values: List[float]) -> float:
    """Jain's fairness index: 1.0 = perfectly even, 1/n = one hog."""
    if not values:
        return 1.0
    total = sum(values)
    squares = sum(value * value for value in values)
    if squares == 0.0:
        return 1.0
    return (total * total) / (len(values) * squares)
