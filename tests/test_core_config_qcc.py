"""Tests for QtenonConfig (Table 2) and the quantum controller cache."""

import pytest

from repro.core import (
    PrivateSegmentError,
    PulseRecord,
    QccAddressError,
    QtenonConfig,
    QuantumControllerCache,
)
from repro.isa import ProgramEntry


class TestTable2Sizes:
    """The 64-qubit configuration must reproduce Table 2 exactly."""

    def setup_method(self):
        self.config = QtenonConfig(n_qubits=64)

    def test_program_segment_520_kb(self):
        assert self.config.segment_size_bytes(".program") == 520 * 1024

    def test_pulse_segment_5_mb(self):
        assert self.config.segment_size_bytes(".pulse") == 5 * 1024 * 1024

    def test_measure_segment_40_kb(self):
        assert self.config.segment_size_bytes(".measure") == 40 * 1024

    def test_slt_segment_112_kb(self):
        assert self.config.segment_size_bytes(".slt") == 112 * 1024

    def test_regfile_segment_4_kb(self):
        assert self.config.segment_size_bytes(".regfile") == 4 * 1024

    def test_total_5_66_mb(self):
        assert self.config.total_cache_bytes / (1 << 20) == pytest.approx(5.66, abs=0.01)

    def test_qspace_4_mb_per_qubit(self):
        # 2^20 tags x 4 bytes (Fig. 7 step ❸).
        assert self.config.qspace_bytes_per_qubit == 4 << 20

    def test_256_qubit_scaling(self):
        # §7.5: "controlling 256 qubits requires a cache size of 22.63 MB"
        big = QtenonConfig(n_qubits=256)
        assert big.total_cache_bytes / (1 << 20) == pytest.approx(22.63, abs=0.25)

    def test_unknown_segment_rejected(self):
        with pytest.raises(KeyError):
            self.config.segment_size_bytes(".bogus")


class TestAddressMap:
    """The Fig. 4 QAddress layout."""

    def setup_method(self):
        self.config = QtenonConfig(n_qubits=64)

    def test_program_chunks(self):
        assert self.config.program_chunk(0) == (0x0, 0x400)
        assert self.config.program_chunk(1) == (0x400, 0x800)
        assert self.config.program_chunk(63) == (0xFC00, 0x10000)

    def test_regfile_at_0x70000(self):
        assert self.config.regfile_base == 0x70000

    def test_measure_at_0x71000(self):
        assert self.config.measure_base == 0x71000

    def test_pulse_at_0x80000(self):
        assert self.config.pulse_base == 0x80000
        assert self.config.pulse_chunk(1) == (0x80400, 0x80800)

    def test_wide_configs_relocate_segments(self):
        wide = QtenonConfig(n_qubits=512)
        assert wide.regfile_base >= wide.program_end
        assert wide.pulse_base >= wide.measure_base + wide.measure_entries

    def test_bounds_checks(self):
        with pytest.raises(ValueError):
            self.config.program_qaddr(64, 0)
        with pytest.raises(ValueError):
            self.config.program_qaddr(0, 1024)
        with pytest.raises(ValueError):
            self.config.regfile_qaddr(1024)
        with pytest.raises(ValueError):
            self.config.measure_qaddr(5120)


class TestQccResolution:
    def setup_method(self):
        self.config = QtenonConfig(n_qubits=64)
        self.qcc = QuantumControllerCache(self.config)

    def test_resolve_program(self):
        where = self.qcc.resolve(0x400 + 5)
        assert (where.segment, where.qubit, where.index) == (".program", 1, 5)

    def test_resolve_regfile(self):
        where = self.qcc.resolve(0x70000 + 9)
        assert (where.segment, where.qubit, where.index) == (".regfile", None, 9)

    def test_resolve_measure(self):
        where = self.qcc.resolve(0x71000)
        assert where.segment == ".measure"

    def test_resolve_pulse(self):
        where = self.qcc.resolve(0x80400)
        assert (where.segment, where.qubit, where.index) == (".pulse", 1, 0)

    def test_unmapped_address(self):
        with pytest.raises(QccAddressError):
            self.qcc.resolve(0x60000)


class TestPublicPrivateIsolation:
    """§5.1: .pulse and .slt are private through hardware isolation."""

    def setup_method(self):
        self.config = QtenonConfig(n_qubits=64)
        self.qcc = QuantumControllerCache(self.config)

    def test_host_cannot_write_pulse(self):
        with pytest.raises(PrivateSegmentError):
            self.qcc.host_write(0x80000, 1)

    def test_host_reads_public_segments(self):
        self.qcc.host_write(self.config.regfile_qaddr(3), 0x1234)
        self.qcc.host_write(self.config.measure_qaddr(5), 0xBEEF)
        assert self.qcc.regfile_read(3) == 0x1234
        assert self.qcc.measure_read(5) == 0xBEEF

    def test_program_round_trip_through_host_path(self):
        entry = ProgramEntry(gate_type=2, reg_flag=True, data=7)
        self.qcc.host_write(0x400, entry.pack())
        assert self.qcc.program_entry(1, 0) == entry


class TestPulseAllocation:
    def setup_method(self):
        self.config = QtenonConfig(n_qubits=4)
        self.qcc = QuantumControllerCache(self.config)

    def test_allocation_is_per_qubit(self):
        a = self.qcc.allocate_pulse(0, PulseRecord(1, 10))
        b = self.qcc.allocate_pulse(1, PulseRecord(1, 10))
        base0, _ = self.config.pulse_chunk(0)
        base1, _ = self.config.pulse_chunk(1)
        assert a == base0
        assert b == base1

    def test_sequential_slots(self):
        first = self.qcc.allocate_pulse(0, PulseRecord(1, 1))
        second = self.qcc.allocate_pulse(0, PulseRecord(1, 2))
        assert second == first + 1

    def test_record_retrievable(self):
        qaddr = self.qcc.allocate_pulse(2, PulseRecord(gate_type=3, data=42))
        record = self.qcc.pulse_record(qaddr)
        assert (record.gate_type, record.data) == (3, 42)

    def test_pulses_generated_counter(self):
        self.qcc.allocate_pulse(0, PulseRecord(1, 1))
        self.qcc.allocate_pulse(3, PulseRecord(1, 2))
        assert self.qcc.pulses_generated == 2


class TestMeasureSegment:
    def test_round_trip(self):
        qcc = QuantumControllerCache(QtenonConfig(n_qubits=4))
        qcc.measure_write(0, 0xFACE)
        qcc.measure_write(5119, 0xBEEF)
        assert qcc.measure_read(0) == 0xFACE
        assert qcc.measure_read(5119) == 0xBEEF

    def test_program_length_contiguous(self):
        qcc = QuantumControllerCache(QtenonConfig(n_qubits=4))
        config = qcc.config
        for i in range(3):
            entry = ProgramEntry(gate_type=1, data=i)
            qcc.host_write(config.program_qaddr(0, i), entry.pack())
        assert [qcc.program_entry(0, i).data for i in range(3)] == [0, 1, 2]
        assert qcc.program_entry(0, 3) is None
        assert qcc.program_entry(1, 0) is None
