"""Memory consistency: soft memory barrier vs FENCE (paper §6.2, Fig. 9).

Two data races exist in the tightly coupled design:

1. ``q_set`` vs ``q_gen`` — pulse generation starting before the
   program upload lands.  Solved entirely in hardware by a barrier in
   the QCC (no software cost); we model it by ordering the operations.
2. ``q_run``/``q_acquire`` vs host post-processing — the host reading
   a result address before the controller's PUT for it completed.

For race 2 the paper contrasts two mechanisms, both modelled here:

* **FENCE** (RISC-V default): the host stalls until *every*
  outstanding quantum/bus operation completes — coarse, strict
  ordering (Fig. 9a).
* **Fine-grained soft barrier** (Qtenon): the controller tracks, per
  synchronised host address, when its PUT was issued to the system
  bus; the host's access performs a non-blocking single-cycle RoCC
  query and proceeds as soon as *that* address is valid (Fig. 9b),
  letting post-processing overlap the remaining quantum shots.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.sim.clock import HOST_CLOCK, Clock
from repro.sim.stats import StatGroup


class MemoryBarrier:
    """The controller-side barrier table (one entry per synchronised range).

    A PUT to a range supersedes the previous PUT to the same range:
    every q_run streams its batches into the same host result buffer,
    so without replacement the table would grow by one run's worth of
    entries per evaluation for the life of a session.  Answers do not
    change: :meth:`query` already returned the latest covering PUT, and
    :meth:`fence` keeps the latest ready time it has ever seen.
    """

    def __init__(self, clock: Clock = HOST_CLOCK) -> None:
        self.clock = clock
        #: (addr, size) -> ready time of the latest PUT to that range,
        #: in marking order.
        self._ranges: Dict[Tuple[int, int], int] = {}
        self._latest_ps = 0
        self.stats = StatGroup("barrier")
        self._queries = self.stats.counter("queries")
        self._stall_acc = self.stats.accumulator("stall_ps")

    def __len__(self) -> int:
        return len(self._ranges)

    # ------------------------------------------------------------------
    # controller side
    # ------------------------------------------------------------------
    def mark_puts(
        self, ranges: Sequence[Tuple[int, int]], ready_times: Sequence[int]
    ) -> None:
        """Record a whole run's PUTs, in issue order: ``ranges[i]``
        (addr, size) is valid from ``ready_times[i]`` (the PUT request
        has been sent through the system bus)."""
        if len(ranges) != len(ready_times):
            raise ValueError(
                f"{len(ranges)} ranges but {len(ready_times)} ready times"
            )
        if not ranges:
            return
        if min(size for _, size in ranges) <= 0:
            raise ValueError(f"every range size must be positive, got {ranges}")
        table = self._ranges
        # Re-marked ranges move to the end: marking order decides which
        # of two overlapping ranges a query sees.
        for key in ranges:
            table.pop(key, None)
        table.update(zip(ranges, ready_times))
        self._latest_ps = max(self._latest_ps, max(ready_times))

    def clear(self) -> None:
        self._ranges.clear()
        self._latest_ps = 0

    # ------------------------------------------------------------------
    # host side
    # ------------------------------------------------------------------
    def query(self, addr: int, now_ps: int) -> int:
        """Fine-grained access check (Fig. 9b).

        Returns the earliest time the host may consume ``addr``:
        the single-cycle RoCC query plus any wait until the covering
        PUT is on the bus.  An address never marked is immediately
        usable after the query (it is not quantum-synchronised).
        """
        self._queries.increment()
        query_done = now_ps + self.clock.period_ps
        ready = query_done
        for (start, size), ready_ps in reversed(self._ranges.items()):
            if start <= addr < start + size:
                ready = max(query_done, ready_ps)
                break
        self._stall_acc.observe(ready - query_done)
        return ready

    def fence(self, now_ps: int) -> int:
        """Coarse FENCE (Fig. 9a): wait for *all* recorded operations."""
        return max(now_ps, self._latest_ps)
