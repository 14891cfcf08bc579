"""Quantum controller interfaces (paper §5.2, Fig. 5).

Three hardware structures sit between the controller and the host:

* the **RoCC interface** — data path ❶: one-cycle, 64-bit transfers
  between host core registers and the public QCC; also carries the
  non-blocking memory-barrier queries of §6.2;
* the **Reorder Buffer Queue (RBQ)** — 32 entries matching the bus's
  5-bit tag space; realigns TileLink responses that return out of
  order so the controller consumes them in request order;
* the **Write Buffer Queue (WBQ)** — 8 parallel 32-bit lanes that
  adapt the 256-bit system-bus beats to the 32-bit-wide public QCC
  ports (one beat fans out across the lanes in a cycle).

:class:`QccInterface` composes them into the bulk-transfer data paths
❷/❸ used by `q_set`/`q_acquire` and the QSpace spills.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.memory.tilelink import TileLinkBus
from repro.sim.clock import HOST_CLOCK, Clock
from repro.sim.stats import StatGroup


class RoccInterface:
    """Data path ❶: single-cycle 64-bit register transfers."""

    def __init__(self, clock: Clock = HOST_CLOCK) -> None:
        self.clock = clock
        self.stats = StatGroup("rocc")
        self._transfers = self.stats.counter("transfers")

    @property
    def latency_ps(self) -> int:
        return self.clock.period_ps  # one cycle

    def transfer(self, now_ps: int) -> int:
        """Move one 64-bit value; returns the completion time."""
        self._transfers.increment()
        return now_ps + self.latency_ps


class ReorderBufferQueue:
    """Realigns out-of-order bus responses to request order.

    32 entries — one per outstanding TileLink tag.  Functionally the
    i-th response cannot be *consumed* before responses 0..i-1 have
    been consumed; :meth:`realign` converts raw response times into
    in-order delivery times (a running maximum).
    """

    ENTRIES = TileLinkBus.NUM_TAGS

    def __init__(self) -> None:
        self.stats = StatGroup("rbq")
        self._realigned = self.stats.counter("responses")
        self._held = self.stats.counter("responses_held")
        self._hold_time = self.stats.accumulator("hold_ps")

    def realign(self, response_times: Sequence[int]) -> List[int]:
        """In-order delivery times for request-ordered ``response_times``."""
        delivered: List[int] = []
        horizon = 0
        for response in response_times:
            delivery = max(response, horizon)
            if delivery > response:
                self._held.increment()
                self._hold_time.observe(delivery - response)
            horizon = delivery
            delivered.append(delivery)
            self._realigned.increment()
        return delivered


class WriteBufferQueue:
    """8 x 32-bit lanes bridging 256-bit beats to 32-bit QCC ports."""

    LANES = 8
    LANE_BITS = 32

    def __init__(self, clock: Clock = HOST_CLOCK) -> None:
        self.clock = clock
        self.stats = StatGroup("wbq")
        self._words = self.stats.counter("words")

    def drain_ps(self, n_words32: int) -> int:
        """Time to drain ``n_words32`` 32-bit words through the lanes
        (8 words per cycle, ceil)."""
        if n_words32 < 0:
            raise ValueError("negative word count")
        self._words.increment(n_words32)
        cycles = -(-n_words32 // self.LANES)
        return cycles * self.clock.period_ps


@dataclass(frozen=True)
class BulkTransfer:
    """Timeline of one q_set/q_acquire-style bulk transfer."""

    start_ps: int
    end_ps: int
    bytes_moved: int
    transactions: int

    @property
    def duration_ps(self) -> int:
        return self.end_ps - self.start_ps


class QccInterface:
    """Data paths ❷/❸: bulk transfers over TileLink with RBQ + WBQ."""

    def __init__(self, bus: TileLinkBus, clock: Clock = HOST_CLOCK) -> None:
        self.bus = bus
        self.clock = clock
        self.rbq = ReorderBufferQueue()
        self.wbq = WriteBufferQueue(clock)
        self.stats = StatGroup("qcc-if")
        self._bulk = self.stats.counter("bulk_transfers")

    def bulk_transfer(
        self,
        now_ps: int,
        n_bytes: int,
        target_latency_ps: int,
        is_put: bool,
    ) -> BulkTransfer:
        """Move ``n_bytes`` as a stream of 32-byte bus transactions.

        Responses may return out of order (varying target latency is
        modelled by the bus); the RBQ realigns them, and the WBQ
        charges the width-conversion drain on the QCC side.
        """
        if n_bytes <= 0:
            raise ValueError(f"transfer size must be positive, got {n_bytes}")
        self._bulk.increment()
        chunks = -(-n_bytes // TileLinkBus.BEAT_BYTES)
        responses: List[int] = []
        cursor = now_ps
        for chunk in range(chunks):
            size = min(TileLinkBus.BEAT_BYTES, n_bytes - chunk * TileLinkBus.BEAT_BYTES)
            txn = self.bus.issue(cursor, size, target_latency_ps, is_put)
            responses.append(txn.response_ps)
            # Back-to-back issue: next request right after this data beat.
            cursor = txn.data_done_ps
        delivered = self.rbq.realign(responses)
        last = delivered[-1] if delivered else now_ps
        # WBQ drains overlap with in-flight beats; only the final
        # beat's width conversion extends the transfer.
        final_beat_bytes = n_bytes - (chunks - 1) * TileLinkBus.BEAT_BYTES
        end = last + self.wbq.drain_ps(-(-final_beat_bytes // 4))
        return BulkTransfer(
            start_ps=now_ps,
            end_ps=end,
            bytes_moved=n_bytes,
            transactions=chunks,
        )
