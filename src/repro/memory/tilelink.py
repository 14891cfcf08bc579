"""TileLink-style system bus model.

The paper links the quantum controller to the host L2 through TileLink
(Table 1 "Data Interface: Tilelink & RoCC"; §5.2).  Relevant behaviour
we reproduce:

* 256-bit data channel — a request moves in 32-byte beats that
  serialise on the channel;
* 32 outstanding transactions identified by unique 5-bit tags — when
  all tags are in flight the requester stalls (this is what the
  controller's Reorder Buffer Queue is sized against);
* responses arrive **out of order** because target latency varies per
  transaction; the RBQ on the controller side realigns them.

The model is transaction-level: ``issue()`` computes the full life of
a transaction (tag acquisition, beat serialisation, target latency,
response) in closed form and returns a :class:`TileLinkTransaction`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.sim.clock import HOST_CLOCK, Clock
from repro.sim.stats import StatGroup


@dataclass(frozen=True)
class TileLinkTransaction:
    """The computed timeline of one bus transaction."""

    tag: int
    is_put: bool
    size_bytes: int
    issue_ps: int        #: when the requester asked for the transfer
    grant_ps: int        #: when a tag + the channel became available
    data_done_ps: int    #: last beat left the requester
    response_ps: int     #: response (ack / data) returned

    @property
    def latency_ps(self) -> int:
        return self.response_ps - self.issue_ps

    @property
    def beats(self) -> int:
        return max(1, -(-self.size_bytes // TileLinkBus.BEAT_BYTES))


class TileLinkBus:
    """Shared 256-bit bus with a 32-entry tag pool."""

    BEAT_BYTES = 32  # 256 bits
    TAG_BITS = 5
    NUM_TAGS = 1 << TAG_BITS

    def __init__(
        self,
        clock: Clock = HOST_CLOCK,
        name: str = "tilelink",
        num_tags: int = NUM_TAGS,
    ) -> None:
        if num_tags <= 0:
            raise ValueError("need at least one tag")
        self.clock = clock
        self.name = name
        self._tag_free_at: List[int] = [0] * num_tags
        self._channel_free_at = 0
        self.stats = StatGroup(name)
        self._puts = self.stats.counter("puts")
        self._gets = self.stats.counter("gets")
        self._beats = self.stats.counter("beats")
        self._tag_stall = self.stats.accumulator("tag_stall_ps")

    @property
    def num_tags(self) -> int:
        return len(self._tag_free_at)

    def issue(
        self,
        now_ps: int,
        size_bytes: int,
        target_latency_ps: int,
        is_put: bool,
    ) -> TileLinkTransaction:
        """Issue a transaction; returns its computed timeline.

        ``target_latency_ps`` is the service time of the destination
        (cache/DRAM/controller segment) after the last beat arrives.
        """
        if size_bytes <= 0:
            raise ValueError(f"transaction size must be positive, got {size_bytes}")
        if target_latency_ps < 0:
            raise ValueError("negative target latency")
        beats = max(1, -(-size_bytes // self.BEAT_BYTES))
        # A tag must be free, and the channel must be free.
        tag = min(range(len(self._tag_free_at)), key=self._tag_free_at.__getitem__)
        grant = max(now_ps, self._tag_free_at[tag], self._channel_free_at)
        self._tag_stall.observe(grant - now_ps)
        data_done = grant + beats * self.clock.period_ps
        response = data_done + target_latency_ps
        # Channel frees when the last beat is sent; tag frees at response.
        self._channel_free_at = data_done
        self._tag_free_at[tag] = response
        (self._puts if is_put else self._gets).increment()
        self._beats.increment(beats)
        return TileLinkTransaction(
            tag=tag,
            is_put=is_put,
            size_bytes=size_bytes,
            issue_ps=now_ps,
            grant_ps=grant,
            data_done_ps=data_done,
            response_ps=response,
        )

    def put(self, now_ps: int, size_bytes: int, target_latency_ps: int) -> TileLinkTransaction:
        return self.issue(now_ps, size_bytes, target_latency_ps, is_put=True)

    def get(self, now_ps: int, size_bytes: int, target_latency_ps: int) -> TileLinkTransaction:
        return self.issue(now_ps, size_bytes, target_latency_ps, is_put=False)

    def reset(self) -> None:
        self._tag_free_at = [0] * len(self._tag_free_at)
        self._channel_free_at = 0
        self.stats.reset()
