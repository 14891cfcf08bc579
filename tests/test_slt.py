"""Tests for the Skip Lookup Table and QSpace (Fig. 7)."""

import itertools

import pytest

from repro.core import QSpace, QtenonConfig, SkipLookupTable, slt_index, slt_tag


@pytest.fixture
def config():
    return QtenonConfig(n_qubits=2)


@pytest.fixture
def qspace(config):
    return QSpace(config.n_qubits, config)


@pytest.fixture
def slt(config, qspace):
    return SkipLookupTable(0, config, qspace)


def make_allocator():
    counter = itertools.count(0x80000)

    def allocate():
        return next(counter)

    return allocate


class TestIndexAndTag:
    def test_tag_is_20_bits(self):
        assert 0 <= slt_tag(0xF, (1 << 27) - 1) < (1 << 20)

    def test_index_is_7_bits(self):
        assert 0 <= slt_index(0x7, (1 << 27) - 1) < (1 << 7)

    def test_same_input_same_tag(self):
        assert slt_tag(1, 12345) == slt_tag(1, 12345)

    def test_different_types_different_tags(self):
        assert slt_tag(1, 12345) != slt_tag(2, 12345)

    def test_tag_granularity_merges_close_angles(self):
        # Angles identical in the top 16 data bits share a pulse.
        assert slt_tag(0, 0b1_0000_0000_0000) == slt_tag(0, 0b1_0000_0000_0001)


class TestLookup:
    def test_first_lookup_allocates(self, slt):
        result = slt.lookup_or_allocate(1, 1000, make_allocator())
        assert result.allocated
        assert not result.hit

    def test_second_lookup_hits(self, slt):
        alloc = make_allocator()
        first = slt.lookup_or_allocate(1, 1000, alloc)
        second = slt.lookup_or_allocate(1, 1000, alloc)
        assert second.hit
        assert second.qaddr == first.qaddr
        assert not second.allocated

    def test_distinct_parameters_get_distinct_pulses(self, slt):
        alloc = make_allocator()
        a = slt.lookup_or_allocate(1, 0, alloc)
        b = slt.lookup_or_allocate(1, 1 << 20, alloc)
        assert a.qaddr != b.qaddr

    def test_hit_rate_accounting(self, slt):
        alloc = make_allocator()
        slt.lookup_or_allocate(1, 5, alloc)
        slt.lookup_or_allocate(1, 5, alloc)
        slt.lookup_or_allocate(1, 5, alloc)
        assert slt.hits == 2
        assert slt.misses == 1
        assert slt.hit_rate == pytest.approx(2 / 3)


class TestLeastCountReplacement:
    def _fill_set(self, slt, alloc, index_data):
        """Insert two entries landing in the same set."""
        # same index bits, different tags: vary high data bits only.
        base = index_data
        a = slt.lookup_or_allocate(1, base, alloc)
        b = slt.lookup_or_allocate(1, base | (1 << 26), alloc)
        return a, b

    def test_eviction_prefers_least_count(self, slt, qspace):
        alloc = make_allocator()
        data0 = 0
        data1 = 1 << 26
        data2 = 1 << 25
        assert slt_index(1, data0) == slt_index(1, data1) == slt_index(1, data2)
        slt.lookup_or_allocate(1, data0, alloc)
        slt.lookup_or_allocate(1, data1, alloc)
        # Bump data0's count so data1 is the least-count victim.
        slt.lookup_or_allocate(1, data0, alloc)
        result = slt.lookup_or_allocate(1, data2, alloc)
        assert result.evicted
        # data0 must still hit; data1 was evicted to QSpace.
        assert slt.lookup_or_allocate(1, data0, alloc).hit
        assert qspace.load(0, slt_tag(1, data1)) is not None

    def test_qspace_reload_avoids_regeneration(self, slt):
        alloc = make_allocator()
        data0, data1, data2 = 0, 1 << 26, 1 << 25
        first = slt.lookup_or_allocate(1, data0, alloc)
        slt.lookup_or_allocate(1, data1, alloc)
        slt.lookup_or_allocate(1, data1, alloc)  # make data0 the victim
        slt.lookup_or_allocate(1, data2, alloc)  # evicts data0 -> QSpace
        reload = slt.lookup_or_allocate(1, data0, alloc)
        assert reload.qspace_hit
        assert not reload.allocated
        assert reload.qaddr == first.qaddr  # the original pulse survives

    def test_invalid_entries_replaced_without_writeback(self, slt, qspace):
        alloc = make_allocator()
        slt.lookup_or_allocate(1, 0, alloc)
        # Same set, other tag: the second way is still empty, so it is
        # filled without evicting or writing anything back.
        result = slt.lookup_or_allocate(1, 1 << 26, alloc)
        assert not result.evicted
        assert qspace.stats.counter("writebacks").value == 0

    def test_occupancy(self, slt):
        alloc = make_allocator()
        slt.lookup_or_allocate(1, 0, alloc)
        slt.lookup_or_allocate(2, 0, alloc)
        assert slt.hits == 0
        # Both entries stay resident: looking them up again hits.
        assert slt.lookup_or_allocate(1, 0, alloc).hit
        assert slt.lookup_or_allocate(2, 0, alloc).hit
        assert slt.hits == 2


class TestQSpace:
    def test_per_qubit_isolation(self, config):
        qspace = QSpace(2, config)
        qspace.store(0, 0x111, 0xA)
        assert qspace.load(0, 0x111) == 0xA
        assert qspace.load(1, 0x111) is None

    def test_address_translation(self, config):
        # qubit stride is 4 MB, entry stride is 4 B (Fig. 7 ❸): every
        # 20-bit tag has its own slot.
        assert config.qspace_bytes_per_qubit == 4 << 20
        assert config.qspace_entry_bytes == 4
        assert config.qspace_bytes_per_qubit == (1 << 20) * config.qspace_entry_bytes

    def test_miss_counting(self, config):
        qspace = QSpace(1, config)
        qspace.load(0, 5)
        assert qspace.stats.counter("misses").value == 1

    def test_resident_tags(self, config):
        qspace = QSpace(1, config)
        qspace.store(0, 1, 10)
        qspace.store(0, 2, 20)
        qspace.store(0, 1, 30)  # overwrite
        assert qspace.load(0, 1) == 30
        assert qspace.load(0, 2) == 20
        assert qspace.stats.counter("misses").value == 0
