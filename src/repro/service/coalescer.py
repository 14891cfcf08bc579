"""Request coalescing: identical in-flight jobs cost one execution.

Duplicate traffic is the common case a shared QPU front-end sees —
many clients sweeping the same textbook workloads with the same seeds.
Deduplication happens at two levels:

* **job level (this module)** — a *singleflight* table keyed by the
  spec's content digest.  The first submission of a digest becomes the
  **primary** and actually executes; submissions of the same digest
  that arrive while the primary is still open become **followers**:
  they never enter the run queue, and when the primary finishes every
  follower receives the same result object (bit-identical by the
  determinism guarantees of :mod:`repro.runtime` — the computation is
  content-addressed, so equal specs *are* equal results).

* **evaluation level** — all platform instances in the service pool
  share one content-addressed :class:`repro.runtime.cache.EvalCache`,
  so even non-identical jobs that revisit the same ``(circuit
  structure, parameter vector, shots, seed, backend)`` points reuse
  each other's circuit evaluations across tenants.

Failure semantics: a primary that fails or times out settles its
followers with the same terminal state — coalescing must never turn
one tenant's failure into another tenant's silent hang.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.service.jobs import JobRecord
from repro.sim.stats import StatGroup


class RequestCoalescer:
    """Singleflight table: digest → primary + followers in flight."""

    def __init__(self, stats: Optional[StatGroup] = None) -> None:
        self._primaries: Dict[str, JobRecord] = {}
        self._followers: Dict[str, List[JobRecord]] = {}
        self.stats = stats or StatGroup("coalescer")

    # ------------------------------------------------------------------
    def attach(self, record: JobRecord) -> Optional[JobRecord]:
        """Register a job; return the primary it coalesced onto, if any.

        Returns ``None`` when ``record`` *is* the new primary (it must
        then be scheduled normally).
        """
        digest = record.spec.digest
        primary = self._primaries.get(digest)
        if primary is None:
            self._primaries[digest] = record
            self._followers[digest] = []
            return None
        self._followers[digest].append(record)
        record.coalesced_with = primary.job_id
        self.stats.counter("coalesced_jobs").increment()
        return primary

    def settle(self, record: JobRecord) -> List[JobRecord]:
        """The primary reached a terminal state: close its flight.

        Returns the followers awaiting the outcome; the caller copies
        the primary's terminal state/result onto each.  After settling,
        a new submission of the same digest starts a fresh flight.
        """
        digest = record.spec.digest
        if self._primaries.get(digest) is not record:
            return []
        del self._primaries[digest]
        return self._followers.pop(digest, [])
