"""Failure-injection and capacity-limit tests.

The paper's design has hard capacity edges — 1024 program entries per
qubit, 1024 regfile slots, 5120 measurement entries, 2-way SLT sets,
32 bus tags — and the models must degrade the way the hardware would
(wrap, evict, stall) or reject cleanly, never corrupt state.
"""

import itertools

import pytest

from repro.compiler import LoweringError, lower
from repro.core import (
    QtenonConfig,
    QSpace,
    QuantumControllerCache,
    SkipLookupTable,
    slt_index,
)
from repro.core.qcc import PulseRecord
from repro.isa import ProgramEntry
from repro.memory import TileLinkBus
from repro.quantum import Parameter, QuantumCircuit


class TestChunkCapacity:
    def test_program_chunk_overflow_raises(self):
        config = QtenonConfig(n_qubits=1, program_entries_per_qubit=8)
        circuit = QuantumCircuit(1)
        for _ in range(9):
            circuit.rx(0.1, 0)
        with pytest.raises(LoweringError, match="overflow"):
            lower([circuit], config)

    def test_exactly_full_chunk_accepted(self):
        config = QtenonConfig(n_qubits=1, program_entries_per_qubit=8)
        circuit = QuantumCircuit(1)
        for _ in range(8):
            circuit.rx(0.1, 0)
        program = lower([circuit], config)
        assert program.entries_per_qubit == [8]


class TestRegfileCapacity:
    def test_regfile_exhaustion_raises(self):
        config = QtenonConfig(n_qubits=1, regfile_entries=3, program_entries_per_qubit=16)
        circuit = QuantumCircuit(1)
        for i in range(4):
            circuit.rx(Parameter(f"p{i}"), 0)
        with pytest.raises(LoweringError, match="regfile exhausted"):
            lower([circuit], config)

    def test_exactly_full_regfile_accepted(self):
        config = QtenonConfig(n_qubits=1, regfile_entries=3, program_entries_per_qubit=16)
        circuit = QuantumCircuit(1)
        for i in range(3):
            circuit.rx(Parameter(f"p{i}"), 0)
        program = lower([circuit], config)
        assert program.n_parameter_slots == 3


class TestMeasureWraparound:
    def test_measure_segment_wraps_like_circular_buffer(self):
        config = QtenonConfig(n_qubits=2, measure_entries=8)
        qcc = QuantumControllerCache(config)
        for i in range(10):
            qcc.measure_write(i % config.measure_entries, i)
        # entries 0 and 1 were overwritten by 8 and 9.
        assert qcc.measure_read(0) == 8
        assert qcc.measure_read(1) == 9
        assert qcc.measure_read(2) == 2


class TestPulseSlotRecycling:
    def test_pulse_slots_wrap_within_chunk(self):
        config = QtenonConfig(n_qubits=1, pulse_entries_per_qubit=4)
        qcc = QuantumControllerCache(config)
        addresses = [qcc.allocate_pulse(0, PulseRecord(1, i)) for i in range(6)]
        base, end = config.pulse_chunk(0)
        assert all(base <= a < end for a in addresses)
        assert addresses[4] == addresses[0]  # slot recycled


class TestSltPressure:
    def test_thrashing_one_set_never_corrupts(self):
        """Hammer one SLT set with more tags than ways: every lookup
        must return a consistent address for its own tag."""
        config = QtenonConfig(n_qubits=1)
        qspace = QSpace(1, config)
        slt = SkipLookupTable(0, config, qspace)
        counter = itertools.count(1000)
        assigned = {}

        # 6 distinct tags all landing in one set: the index comes from
        # data bits [22:19], the tag from bits [26:11], so varying bits
        # [16:11] changes the tag while keeping the set fixed.
        datas = [i << 11 for i in range(6)]
        indices = {slt_index(1, d) for d in datas}
        assert len(indices) == 1

        for _ in range(4):
            for data in datas:
                result = slt.lookup_or_allocate(1, data, lambda: next(counter))
                if data in assigned:
                    assert result.qaddr == assigned[data], "pulse address changed!"
                else:
                    assigned[data] = result.qaddr

    def test_all_pressure_is_absorbed_by_qspace(self):
        config = QtenonConfig(n_qubits=1)
        qspace = QSpace(1, config)
        slt = SkipLookupTable(0, config, qspace)
        counter = itertools.count(0)
        for i in range(40):
            # distinct tags, same set (see test above for the bit maths)
            slt.lookup_or_allocate(1, i << 11, lambda: next(counter))
        # only 2 ways live in the set; the rest were spilled to QSpace.
        assert qspace.stats.counter("writebacks").value >= 40 - 2


class TestBusSaturation:
    def test_many_outstanding_transactions_all_complete(self):
        bus = TileLinkBus(num_tags=4)
        responses = [bus.put(0, 32, 1_000_000).response_ps for _ in range(64)]
        # every transaction got a response, monotonically schedulable.
        assert len(responses) == 64
        assert responses == sorted(responses)

    def test_tag_reuse_preserves_ordering_per_tag(self):
        bus = TileLinkBus(num_tags=1)
        first = bus.put(0, 32, 1000)
        second = bus.put(0, 32, 1000)
        assert second.grant_ps >= first.response_ps  # tag not reused early


class TestEntryStateMachine:
    def test_status_transitions(self):
        entry = ProgramEntry(gate_type=1, data=5)
        assert not entry.has_valid_pulse
        valid = entry.with_pulse(0x123)
        assert valid.has_valid_pulse
        stale = valid.invalidated()
        assert not stale.has_valid_pulse
        assert stale.qaddr == 0
        again = stale.with_pulse(0x200)
        assert again.has_valid_pulse

    def test_invalidated(self):
        entry = ProgramEntry(gate_type=1).with_pulse(9).invalidated()
        assert not entry.has_valid_pulse
        assert entry.qaddr == 0
