"""Deterministic fault injection from a content-addressed plan.

Every decision the injector makes is a pure function of the plan's
digest and the decision's *content* (site name plus sequence numbers)
— no shared RNG stream, no ordering dependence.  That design has two
consequences the chaos harness relies on:

* **bit-identical campaigns** — the same plan replays the same faults
  no matter how threads interleave or how many unrelated decisions ran
  before (the same property that makes the runtime's content-derived
  sampler seeds exact, applied to adversity instead of shot noise);
* **diffable regressions** — a campaign's result digest changes only
  when the plan or the system under test changes.

Sites in use: ``link`` (baseline UDP messages), ``put`` (controller
measurement batches), ``acquire`` (q_acquire pulls), ``pool`` (the
evaluation engine's process-pool dispatches), ``service`` (job-service
worker slots).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Optional

from repro.faults.plan import FaultPlan, InjectedWorkerCrash, InjectedWorkerHang
from repro.quantum.noise import ReadoutNoise
from repro.sim.stats import StatGroup

#: Worker-event kinds (order fixes the probability partition).
WORKER_CRASH = "crash"
WORKER_HANG = "hang"
WORKER_SLOW = "slow"


@dataclass(frozen=True)
class LinkDecision:
    """Fate of one link message."""

    drops: int        #: retransmissions before successful delivery
    jitter_ps: int    #: extra delay on the delivered copy
    reordered: bool   #: held back one slot by sequence reassembly


@dataclass(frozen=True)
class PutDecision:
    """Fate of one measurement-batch PUT."""

    attempts: int            #: total transmissions (>= 1)
    dropped_attempts: int    #: attempts lost in flight (watchdog-detected)
    corrupted_attempts: int  #: attempts delivered but checksum-rejected


class FaultInjector:
    """Turns a :class:`FaultPlan` into per-event decisions."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.stats = StatGroup("faults")
        self._digest = plan.digest_bytes
        self._burst_used: dict = {}

    # ------------------------------------------------------------------
    # the one source of randomness
    # ------------------------------------------------------------------
    def _uniform(self, site: str, *content: object) -> float:
        """Uniform [0, 1) draw addressed by (plan, site, content)."""
        digest = hashlib.blake2b(self._digest, digest_size=8)
        digest.update(site.encode())
        for part in content:
            digest.update(b"\x1f")
            digest.update(str(part).encode())
        return int.from_bytes(digest.digest(), "little") / 2.0**64

    # ------------------------------------------------------------------
    # link (baseline UDP)
    # ------------------------------------------------------------------
    def link_message(self, message_index: int, n_bytes: int) -> LinkDecision:
        """Decide the fate of baseline link message ``message_index``."""
        cfg = self.plan.link
        drops = 0
        while (
            drops < cfg.max_retransmits
            and self._uniform("link", message_index, n_bytes, drops) < cfg.loss_p
        ):
            drops += 1
        jitter = 0
        if cfg.jitter_ps > 0:
            jitter = int(
                self._uniform("link-jitter", message_index, n_bytes)
                * (cfg.jitter_ps + 1)
            )
        reordered = (
            cfg.reorder_p > 0.0
            and self._uniform("link-reorder", message_index, n_bytes) < cfg.reorder_p
        )
        if drops:
            self.stats.counter("link_drops").increment(drops)
        if reordered:
            self.stats.counter("link_reorders").increment()
        return LinkDecision(drops=drops, jitter_ps=jitter, reordered=reordered)

    # ------------------------------------------------------------------
    # controller measurement path
    # ------------------------------------------------------------------
    def measurement_put(self, run_index: int, batch_index: int) -> PutDecision:
        """Decide the fate of one batched measurement PUT."""
        cfg = self.plan.measurement
        dropped = corrupted = 0
        attempt = 0
        while attempt < cfg.max_retransmits:
            u = self._uniform("put", run_index, batch_index, attempt)
            if u < cfg.drop_p:
                dropped += 1
            elif u < cfg.drop_p + cfg.corrupt_p:
                corrupted += 1
            else:
                break
            attempt += 1
        if dropped:
            self.stats.counter("put_drops").increment(dropped)
        if corrupted:
            self.stats.counter("put_corruptions").increment(corrupted)
        return PutDecision(
            attempts=dropped + corrupted + 1,
            dropped_attempts=dropped,
            corrupted_attempts=corrupted,
        )

    def acquire_stuck(self, acquire_index: int) -> int:
        """Watchdog firings needed to unstick q_acquire #``acquire_index``."""
        cfg = self.plan.measurement
        fires = 0
        while (
            fires < cfg.max_retransmits
            and self._uniform("acquire", acquire_index, fires) < cfg.stuck_acquire_p
        ):
            fires += 1
        if fires:
            self.stats.counter("acquire_watchdog_fires").increment(fires)
        return fires

    # ------------------------------------------------------------------
    # readout calibration drift
    # ------------------------------------------------------------------
    def drifted_readout(
        self, base: Optional[ReadoutNoise], evaluation_index: int
    ) -> Optional[ReadoutNoise]:
        """The drifted noise channel at evaluation ``evaluation_index``."""
        cfg = self.plan.readout
        if base is None or cfg.rate_per_evaluation == 0.0:
            return base
        scale = min(cfg.max_scale, 1.0 + cfg.rate_per_evaluation * evaluation_index)
        if scale != 1.0:
            self.stats.counter("readout_drift_applications").increment()
        return ReadoutNoise(
            p01=min(0.5, base.p01 * scale), p10=min(0.5, base.p10 * scale)
        )

    # ------------------------------------------------------------------
    # cluster nodes
    # ------------------------------------------------------------------
    def node_fate(
        self, node_id: str, completions: int
    ) -> Optional["tuple[str, int]"]:
        """Scheduled fate of a cluster node after ``completions`` jobs.

        Returns ``(kind, duration_rounds)`` when the plan scripts a
        fault for this node at exactly this completion count, else
        ``None``.  Pure lookup into the plan — no RNG draw — so the
        same plan fells the same node at the same campaign point no
        matter how dispatches interleave.
        """
        for kind, after, duration in self.plan.node.for_node(node_id):
            if after == completions:
                self.stats.counter(f"node_{kind}s").increment()
                return kind, duration
        return None

    # ------------------------------------------------------------------
    # workers (runtime pool + service slots)
    # ------------------------------------------------------------------
    def worker_event(self, site: str, *content: object) -> Optional[str]:
        """Fate of one worker dispatch at ``site``: crash/hang/slow/None.

        The first ``crash_burst`` dispatches at each site crash
        deterministically (the scripted breaker scenario); afterwards
        the partitioned probabilities decide.
        """
        cfg = self.plan.worker
        used = self._burst_used.get(site, 0)
        if used < cfg.crash_burst:
            self._burst_used[site] = used + 1
            self.stats.counter("worker_crashes").increment()
            return WORKER_CRASH
        u = self._uniform("worker", site, *content)
        if u < cfg.crash_p:
            self.stats.counter("worker_crashes").increment()
            return WORKER_CRASH
        if u < cfg.crash_p + cfg.hang_p:
            self.stats.counter("worker_hangs").increment()
            return WORKER_HANG
        if u < cfg.crash_p + cfg.hang_p + cfg.slowdown_p:
            self.stats.counter("worker_slowdowns").increment()
            return WORKER_SLOW
        return None

    def worker_fault(self, site: str, *content: object) -> None:
        """Act out :meth:`worker_event` for one dispatch at ``site``.

        A crash raises :class:`InjectedWorkerCrash` (the worker died
        mid-batch); a hang blocks for ``hang_s`` before a watchdog reaps
        it and raises :class:`InjectedWorkerHang`; a slowdown only
        sleeps ``slowdown_s``.
        """
        event = self.worker_event(site, *content)
        if event == WORKER_CRASH:
            raise InjectedWorkerCrash(f"injected {site} worker crash")
        if event == WORKER_HANG:
            time.sleep(self.plan.worker.hang_s)
            raise InjectedWorkerHang(f"injected {site} worker hang")
        if event == WORKER_SLOW:
            time.sleep(self.plan.worker.slowdown_s)
