"""Tests for controller interfaces (RoCC, RBQ, WBQ) and the memory barrier."""

import pytest

from repro.core import (
    MemoryBarrier,
    QccInterface,
    ReorderBufferQueue,
    RoccInterface,
    WriteBufferQueue,
)
from repro.memory import TileLinkBus
from repro.sim.clock import ns


class TestRoccInterface:
    def test_single_cycle_transfer(self):
        rocc = RoccInterface()
        assert rocc.transfer(ns(10)) == ns(11)

    def test_transfer_counting(self):
        rocc = RoccInterface()
        rocc.transfer(0)
        rocc.transfer(0)
        assert rocc.stats.counter("transfers").value == 2

    def test_barrier_query_single_cycle_nonblocking(self):
        # The host's barrier probe is one RoCC cycle; an address no PUT
        # covers is usable right after it.
        rocc = RoccInterface()
        assert rocc.latency_ps == ns(1)
        barrier = MemoryBarrier()
        assert barrier.query(0x1000, ns(5)) == ns(5) + rocc.latency_ps
        assert barrier.stats.counter("queries").value == 1


class TestReorderBufferQueue:
    def test_in_order_responses_pass_through(self):
        rbq = ReorderBufferQueue()
        assert rbq.realign([10, 20, 30]) == [10, 20, 30]

    def test_out_of_order_responses_held(self):
        rbq = ReorderBufferQueue()
        # response 0 arrives at 50, response 1 at 20: 1 is held until 50.
        assert rbq.realign([50, 20, 30]) == [50, 50, 50]
        assert rbq.stats.counter("responses_held").value == 2

    def test_entry_count_matches_tag_space(self):
        assert ReorderBufferQueue.ENTRIES == TileLinkBus.NUM_TAGS == 32


class TestWriteBufferQueue:
    def test_eight_words_per_cycle(self):
        wbq = WriteBufferQueue()
        assert wbq.drain_ps(8) == ns(1)
        assert wbq.drain_ps(9) == ns(2)
        assert wbq.drain_ps(0) == 0

    def test_lane_geometry(self):
        assert WriteBufferQueue.LANES == 8
        assert WriteBufferQueue.LANE_BITS == 32

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            WriteBufferQueue().drain_ps(-1)


class TestQccInterface:
    def make(self):
        return QccInterface(TileLinkBus())

    def test_small_transfer(self):
        qcc_if = self.make()
        transfer = qcc_if.bulk_transfer(0, 32, ns(10), is_put=False)
        assert transfer.transactions == 1
        assert transfer.bytes_moved == 32
        assert transfer.end_ps > ns(10)

    def test_large_transfer_splits_into_beats(self):
        qcc_if = self.make()
        transfer = qcc_if.bulk_transfer(0, 1024, ns(5), is_put=True)
        assert transfer.transactions == 32

    def test_duration_scales_with_size(self):
        a = self.make().bulk_transfer(0, 64, ns(5), is_put=False)
        b = self.make().bulk_transfer(0, 4096, ns(5), is_put=False)
        assert b.duration_ps > a.duration_ps

    def test_zero_bytes_rejected(self):
        with pytest.raises(ValueError):
            self.make().bulk_transfer(0, 0, 0, is_put=False)


class TestMemoryBarrier:
    def test_unmarked_address_ready_after_query(self):
        barrier = MemoryBarrier()
        assert barrier.query(0x1000, ns(10)) == ns(11)

    def test_marked_address_waits_for_put(self):
        barrier = MemoryBarrier()
        barrier.mark_puts(((0x1000, 64),), (ns(100),))
        assert barrier.query(0x1000, ns(10)) == ns(100)

    def test_ready_put_does_not_block(self):
        barrier = MemoryBarrier()
        barrier.mark_puts(((0x1000, 64),), (ns(5),))
        assert barrier.query(0x1000, ns(50)) == ns(51)

    def test_latest_covering_put_wins(self):
        barrier = MemoryBarrier()
        barrier.mark_puts(((0x1000, 64),), (ns(100),))
        barrier.mark_puts(((0x1000, 64),), (ns(200),))
        assert barrier.query(0x1000, 0) == ns(200)

    def test_query_is_per_address(self):
        barrier = MemoryBarrier()
        barrier.mark_puts(((0x1000, 64),), (ns(1000),))
        # An address outside the range is not quantum-synchronised.
        assert barrier.query(0x2000, ns(10)) == ns(11)

    def test_fence_waits_for_everything(self):
        barrier = MemoryBarrier()
        barrier.mark_puts(((0x1000, 64),), (ns(100),))
        barrier.mark_puts(((0x2000, 64),), (ns(300),))
        assert barrier.fence(ns(10)) == ns(300)

    def test_fence_with_nothing_pending(self):
        assert MemoryBarrier().fence(ns(42)) == ns(42)

    def test_fine_grained_beats_fence(self):
        """The §6.2 claim: per-address sync releases earlier than FENCE."""
        barrier = MemoryBarrier()
        barrier.mark_puts(((0x1000, 64),), (ns(100),))   # first batch
        barrier.mark_puts(((0x2000, 64),), (ns(900),))   # last batch
        fine = barrier.query(0x1000, ns(50))
        coarse = barrier.fence(ns(50))
        assert fine < coarse

    def test_pending_after(self):
        barrier = MemoryBarrier()
        barrier.mark_puts(((0x0, 8),), (ns(10),))
        barrier.mark_puts(((0x8, 8),), (ns(20),))
        query_done = ns(15) + barrier.clock.period_ps
        # At 15 ns only the second range is still waiting for its PUT.
        assert barrier.query(0x0, ns(15)) == query_done
        assert barrier.query(0x8, ns(15)) == ns(20)

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            MemoryBarrier().mark_puts(((0, 0),), (0,))

    def test_remarked_range_wins_over_overlapping_range(self):
        # Runs at different shot counts stream differently sized
        # batches into the same buffer: the ranges overlap without
        # being equal.  Re-marking the wide range makes it the latest
        # PUT covering 0x1008, even though it was first marked earlier.
        barrier = MemoryBarrier()
        barrier.mark_puts([(0x1000, 16)], [ns(100)])
        barrier.mark_puts([(0x1008, 8)], [ns(200)])
        assert barrier.query(0x1008, 0) == ns(200)
        barrier.mark_puts([(0x1000, 16)], [ns(300)])
        assert barrier.query(0x1008, 0) == ns(300)
        assert len(barrier) == 2

    def test_mark_puts_equals_one_mark_put_per_range(self):
        ranges = [(0x0, 8), (0x8, 8), (0x10, 4)]
        ready = [ns(30), ns(10), ns(20)]
        bulk, single = MemoryBarrier(), MemoryBarrier()
        bulk.mark_puts(ranges, ready)
        for (addr, size), ready_ps in zip(ranges, ready):
            single.mark_puts(((addr, size),), (ready_ps,))
        for barrier in (bulk, single):
            assert barrier.fence(0) == ns(30)
        assert [bulk.query(a, 0) for a in range(0x18)] == [
            single.query(a, 0) for a in range(0x18)
        ]

    def test_mark_puts_rejects_bad_runs(self):
        with pytest.raises(ValueError, match="ready times"):
            MemoryBarrier().mark_puts([(0, 8), (8, 8)], [ns(1)])
        with pytest.raises(ValueError, match="positive"):
            MemoryBarrier().mark_puts([(0, 8), (8, 0)], [ns(1), ns(2)])
