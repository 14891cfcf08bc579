"""Tests for the classical memory substrate: image, caches, DRAM, bus."""

import pickle

import pytest

from repro.memory import (
    Cache,
    CacheGeometry,
    Dram,
    DramConfig,
    MemoryHierarchy,
    MemoryImage,
    TileLinkBus,
)
from repro.sim.clock import ns


class TestMemoryImage:
    def test_word_round_trip(self):
        image = MemoryImage()
        image.write_u64(0x1000, 0xDEADBEEF_CAFEBABE)
        assert image.read_bytes(0x1000, 8) == (0xDEADBEEF_CAFEBABE).to_bytes(8, "little")

    def test_bytes_round_trip_unaligned(self):
        image = MemoryImage()
        image.write_bytes(0x1003, b"hello world")
        assert image.read_bytes(0x1003, 11) == b"hello world"

    def test_u32_and_u64(self):
        image = MemoryImage()
        image.write_bytes(0x10, (0x12345678).to_bytes(4, "little"))
        image.write_u64(0x20, 0x1122334455667788)
        assert image.read_u64(0x10) == 0x12345678  # the other half stays 0
        assert image.read_u64(0x20) == 0x1122334455667788
        assert image.read_bytes(0x20, 4) == (0x55667788).to_bytes(4, "little")

    def test_u64_array(self):
        image = MemoryImage()
        for i, value in enumerate([1, 2, 3]):
            image.write_u64(0x100 + 8 * i, value)
        assert image.read_u64_array(0x100, 3) == [1, 2, 3]

    def test_unwritten_reads_zero(self):
        assert MemoryImage().read_u64(0x5000) == 0

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            MemoryImage().read_bytes(-1, 4)

    def test_footprint_is_sparse(self):
        image = MemoryImage()
        image.write_u64(0, 1)
        image.write_u64(1 << 40, 1)
        # Two touched words, not a terabyte: the pickled image stays tiny.
        assert len(pickle.dumps(image)) < 256
        assert image.read_u64(1 << 40) == 1


class _FlatLatency:
    """Stub next-level returning a constant latency."""

    def __init__(self, latency):
        self.latency = latency
        self.accesses = []

    def access(self, addr, size, is_write, now_ps):
        self.accesses.append((addr, size, is_write))
        return self.latency


class TestCache:
    def make(self, size=1024, ways=2, line=64, hit=ns(1), miss=ns(50)):
        nxt = _FlatLatency(miss)
        return Cache("test", CacheGeometry(size, ways, line), hit, nxt), nxt

    def test_miss_then_hit(self):
        cache, nxt = self.make()
        first = cache.access(0x0, 8, False, 0)
        second = cache.access(0x0, 8, False, 0)
        assert first == ns(1) + ns(50)
        assert second == ns(1)
        assert cache.hits == 1 and cache.misses == 1

    def test_same_line_shares_fill(self):
        cache, _ = self.make()
        cache.access(0x0, 8, False, 0)
        assert cache.access(0x38, 8, False, 0) == ns(1)  # same 64B line

    def test_multi_line_access_charges_each_line(self):
        cache, nxt = self.make()
        cache.access(0x0, 128, False, 0)  # two lines
        assert cache.misses == 2

    def test_lru_eviction(self):
        # 2-way, set count = 1024/(2*64) = 8 sets; lines 0, 8, 16 share set 0.
        cache, _ = self.make()
        line = 64
        stride = 8 * line
        cache.access(0 * stride, 8, False, 0)
        cache.access(1 * stride, 8, False, 0)
        cache.access(2 * stride, 8, False, 0)  # evicts line 0
        assert (cache.hits, cache.misses) == (0, 3)
        cache.access(stride, 8, False, 0)
        cache.access(2 * stride, 8, False, 0)
        assert (cache.hits, cache.misses) == (2, 3)
        cache.access(0, 8, False, 0)
        assert (cache.hits, cache.misses) == (2, 4)

    def test_dirty_eviction_writes_back(self):
        cache, nxt = self.make()
        stride = 8 * 64
        cache.access(0, 8, True, 0)  # dirty
        cache.access(stride, 8, False, 0)
        cache.access(2 * stride, 8, False, 0)  # evicts dirty line 0
        writebacks = [a for a in nxt.accesses if a[2]]
        assert len(writebacks) == 1
        assert cache.stats.counter("writebacks").value == 1

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            CacheGeometry(1000, 3, 64)

    def test_zero_size_access_rejected(self):
        cache, _ = self.make()
        with pytest.raises(ValueError):
            cache.access(0, 0, False, 0)

    def test_hit_rate(self):
        cache, _ = self.make()
        cache.access(0, 8, False, 0)
        cache.access(0, 8, False, 0)
        cache.access(0, 8, False, 0)
        assert cache.hit_rate == pytest.approx(2 / 3)


class TestDram:
    def test_base_latency_plus_transfer(self):
        dram = Dram(DramConfig(access_latency_ps=ns(60), bandwidth_bytes_per_ns=16))
        latency = dram.access(0, 64, False, 0)
        assert latency == ns(60) + ns(4)

    def test_bank_conflicts_queue(self):
        config = DramConfig(banks=2, bank_busy_ps=ns(15))
        dram = Dram(config)
        first = dram.access(0x0, 8, False, 0)
        second = dram.access(0x0, 8, False, 0)  # same bank, immediately
        assert second > first
        assert dram.stats.counter("bank_conflicts").value == 1

    def test_different_banks_no_conflict(self):
        dram = Dram(DramConfig(banks=4))
        dram.access(0x0000, 8, False, 0)
        dram.access(0x1000, 8, False, 0)  # next 4K row -> next bank
        assert dram.stats.counter("bank_conflicts").value == 0

    def test_capacity_check(self):
        dram = Dram(DramConfig(capacity_bytes=1024))
        with pytest.raises(ValueError):
            dram.access(1024, 8, False, 0)


class TestTileLinkBus:
    def test_single_beat_transaction(self):
        bus = TileLinkBus()
        txn = bus.put(0, 32, ns(10))
        assert txn.beats == 1
        assert txn.data_done_ps == ns(1)
        assert txn.response_ps == ns(11)

    def test_multi_beat_serialisation(self):
        bus = TileLinkBus()
        txn = bus.put(0, 256, ns(0))
        assert txn.beats == 8
        assert txn.data_done_ps == ns(8)

    def test_channel_serialises_across_transactions(self):
        bus = TileLinkBus()
        a = bus.put(0, 32, ns(100))
        b = bus.put(0, 32, ns(100))
        assert b.grant_ps >= a.data_done_ps

    def test_tag_exhaustion_stalls(self):
        bus = TileLinkBus(num_tags=2)
        a = bus.put(0, 32, ns(1000))
        b = bus.put(0, 32, ns(1000))
        c = bus.put(0, 32, ns(1000))
        assert c.grant_ps >= min(a.response_ps, b.response_ps)

    def test_out_of_order_responses_possible(self):
        bus = TileLinkBus()
        slow = bus.get(0, 32, ns(500))
        fast = bus.get(0, 32, ns(1))
        assert fast.response_ps < slow.response_ps  # later request, earlier response

    def test_stats(self):
        bus = TileLinkBus()
        bus.put(0, 64, 0)
        bus.get(0, 32, 0)
        assert bus.stats.counter("puts").value == 1
        assert bus.stats.counter("gets").value == 1
        assert bus.stats.counter("beats").value == 3

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            TileLinkBus().put(0, 0, 0)


class TestHierarchy:
    def test_table4_defaults(self):
        h = MemoryHierarchy()
        assert h.l1d.geometry.size_bytes == 16 << 10
        assert h.l1d.geometry.ways == 4
        assert h.l2.geometry.size_bytes == 512 << 10
        assert h.l2.geometry.banks == 8
        assert h.dram.config.capacity_bytes == 16 << 30

    def test_l1_hit_faster_than_miss(self):
        h = MemoryHierarchy()
        miss = h.l1d.access(0x1000, 8, is_write=False, now_ps=0)
        hit = h.l1d.access(0x1000, 8, is_write=False, now_ps=0)
        assert hit < miss

    def test_stats_dict_keys(self):
        h = MemoryHierarchy()
        h.l1d.access(0x0, 8, is_write=False, now_ps=0)
        stats = h.stats_dict()
        assert "l1d.misses" in stats
        assert "l2.misses" in stats
