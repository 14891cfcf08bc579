"""Admission control: bounded queues and per-tenant quotas.

The service's front door.  Every submission passes two checks before
it may become a job:

1. **global queue bound** — the total number of *open* jobs (queued +
   scheduled + running) across all tenants is capped, so a traffic
   spike degrades into fast structured rejections instead of unbounded
   memory growth;
2. **per-tenant quota** — each tenant may hold at most ``quota`` open
   jobs, so one noisy tenant cannot consume the whole admission budget
   even below the global bound.

Refusals are data (:class:`repro.service.jobs.Rejection`), not
exceptions: rejecting load is the controller's *job*, and callers
route the outcome back to the client.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.service.jobs import Rejection
from repro.sim.stats import StatGroup

#: Defaults sized for the CLI/bench workloads; ``repro serve`` flags
#: override both.
DEFAULT_MAX_OPEN_JOBS = 256
DEFAULT_TENANT_QUOTA = 64


class AdmissionController:
    """Tracks open jobs and decides admit / reject-with-reason."""

    def __init__(
        self,
        max_open_jobs: int = DEFAULT_MAX_OPEN_JOBS,
        tenant_quota: int = DEFAULT_TENANT_QUOTA,
        per_tenant_quotas: Optional[Dict[str, int]] = None,
        stats: Optional[StatGroup] = None,
    ) -> None:
        if max_open_jobs <= 0:
            raise ValueError(f"max_open_jobs must be positive, got {max_open_jobs}")
        if tenant_quota <= 0:
            raise ValueError(f"tenant_quota must be positive, got {tenant_quota}")
        self.max_open_jobs = max_open_jobs
        self.tenant_quota = tenant_quota
        self.per_tenant_quotas = dict(per_tenant_quotas or {})
        self.stats = stats or StatGroup("admission")
        self._open_by_tenant: Dict[str, int] = {}
        self._open_total = 0

    # ------------------------------------------------------------------
    @property
    def open_jobs(self) -> int:
        return self._open_total

    def quota_for(self, tenant: str) -> int:
        return self.per_tenant_quotas.get(tenant, self.tenant_quota)

    # ------------------------------------------------------------------
    def try_admit(self, tenant: str) -> Optional[Rejection]:
        """Admit (account and return ``None``) or explain the refusal."""
        if self._open_total >= self.max_open_jobs:
            self.stats.counter("rejected_queue_full").increment()
            return Rejection(
                code="queue_full",
                message=(
                    f"service queue is full ({self._open_total}/"
                    f"{self.max_open_jobs} open jobs); retry later"
                ),
                tenant=tenant,
                limit=self.max_open_jobs,
                current=self._open_total,
            )
        quota = self.quota_for(tenant)
        held = self._open_by_tenant.get(tenant, 0)
        if held >= quota:
            self.stats.counter("rejected_tenant_quota").increment()
            return Rejection(
                code="tenant_quota",
                message=(
                    f"tenant {tenant!r} holds {held}/{quota} open jobs; "
                    "wait for completions or raise the quota"
                ),
                tenant=tenant,
                limit=quota,
                current=held,
            )
        self._open_by_tenant[tenant] = held + 1
        self._open_total += 1
        self.stats.counter("admitted").increment()
        self.stats.accumulator("open_jobs").observe(self._open_total)
        return None

    def release(self, tenant: str) -> None:
        """A job reached a terminal state: return its admission slot."""
        held = self._open_by_tenant.get(tenant, 0)
        if held <= 0 or self._open_total <= 0:
            raise RuntimeError(
                f"release without matching admit for tenant {tenant!r}"
            )
        self._open_by_tenant[tenant] = held - 1
        self._open_total -= 1
