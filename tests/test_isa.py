"""Tests for the Qtenon ISA: encoding, instructions, program entries."""

import math

import pytest

from repro.core import QtenonConfig, QuantumControllerCache
from repro.isa import (
    CUSTOM0_OPCODE,
    EncodingError,
    ProgramEntry,
    QAcquire,
    QGen,
    QRun,
    QSet,
    QUpdate,
    RoccWord,
    decode_angle,
    decode_instruction,
    encode_angle,
    instruction_counts,
    pack_qaddr_length,
    unpack_qaddr_length,
)
from repro.isa.program import STATUS_VALID


class TestRoccEncoding:
    def test_round_trip(self):
        word = RoccWord(funct=3, rd=7, rs1=12, rs2=31, xd=True, xs1=True, xs2=False)
        assert RoccWord.decode(word.encode()) == word

    def test_opcode_is_custom0(self):
        assert RoccWord(funct=0).encode() & 0x7F == CUSTOM0_OPCODE

    def test_field_bit_positions(self):
        word = RoccWord(funct=0b1010101, rd=0b10001, rs1=0b01110, rs2=0b10101).encode()
        assert (word >> 25) & 0x7F == 0b1010101
        assert (word >> 7) & 0x1F == 0b10001
        assert (word >> 15) & 0x1F == 0b01110
        assert (word >> 20) & 0x1F == 0b10101

    def test_bad_opcode_rejected(self):
        with pytest.raises(EncodingError, match="custom-0"):
            RoccWord.decode(0b0110011)  # RISC-V OP opcode

    def test_oversized_field_rejected(self):
        with pytest.raises(EncodingError):
            RoccWord(funct=200).encode()

    def test_oversized_word_rejected(self):
        with pytest.raises(EncodingError):
            RoccWord.decode(1 << 32)


class TestPayloadPacking:
    def test_round_trip(self):
        payload = pack_qaddr_length(0x12345, 1000)
        assert unpack_qaddr_length(payload) == (0x12345, 1000)

    def test_qaddr_occupies_low_39_bits(self):
        payload = pack_qaddr_length((1 << 39) - 1, 0)
        assert payload == (1 << 39) - 1

    def test_overflow_rejected(self):
        with pytest.raises(EncodingError):
            pack_qaddr_length(1 << 39, 1)
        with pytest.raises(EncodingError):
            pack_qaddr_length(0, 1 << 25)


class TestInstructions:
    def test_q_update_payloads(self):
        instr = QUpdate(quantum_addr=0x70001, value=0xDEAD)
        rs1, rs2 = instr.register_payloads()
        assert rs1 == 0x70001
        assert rs2 == 0xDEAD

    def test_q_set_decode_round_trip(self):
        instr = QSet(classical_addr=0x1000, quantum_addr=0x400, length=96)
        word = instr.rocc_word()
        rs1, rs2 = instr.register_payloads()
        assert decode_instruction(word, rs1, rs2) == instr

    def test_q_acquire_decode_round_trip(self):
        instr = QAcquire(classical_addr=0x2000_0000, quantum_addr=0x71000, length=8)
        word = instr.rocc_word()
        rs1, rs2 = instr.register_payloads()
        assert decode_instruction(word, rs1, rs2) == instr

    def test_q_run_shots_positive(self):
        with pytest.raises(ValueError):
            QRun(shots=0)

    def test_q_gen_no_operands(self):
        assert QGen().register_payloads() == (0, 0)

    def test_mnemonics(self):
        assert QUpdate(0, 0).mnemonic == "q_update"
        assert QSet(0, 0, 1).mnemonic == "q_set"
        assert QAcquire(0, 0, 1).mnemonic == "q_acquire"
        assert QGen().mnemonic == "q_gen"
        assert QRun(1).mnemonic == "q_run"

    def test_instruction_counts(self):
        stream = [QGen(), QRun(10), QUpdate(0, 0), QUpdate(1, 1)]
        assert instruction_counts(stream) == {"q_gen": 1, "q_run": 1, "q_update": 2}


class TestProgramEntry:
    def test_pack_round_trip(self):
        entry = ProgramEntry(
            gate_type=0xA, reg_flag=True, data=123456, status=STATUS_VALID, qaddr=0x3FF
        )
        assert ProgramEntry.unpack(entry.pack()) == entry

    def test_entry_is_65_bits(self):
        from repro.isa import ENTRY_BITS

        assert ENTRY_BITS == 65  # Table 2: 4 + 1 + 27 + 3 + 30
        entry = ProgramEntry(gate_type=0xF, reg_flag=True, data=(1 << 27) - 1,
                             status=7, qaddr=(1 << 30) - 1)
        assert entry.pack() < (1 << 65)

    def test_field_overflow_rejected(self):
        with pytest.raises(ValueError):
            ProgramEntry(gate_type=16)
        with pytest.raises(ValueError):
            ProgramEntry(gate_type=0, data=1 << 27)

    def test_with_pulse_marks_valid(self):
        entry = ProgramEntry(gate_type=1).with_pulse(0x55)
        assert entry.has_valid_pulse
        assert entry.qaddr == 0x55

    def test_with_data_invalidates_pulse(self):
        # A new immediate payload arrives as a re-uploaded entry, which
        # replaces the linked one: its cached pulse is stale.
        config = QtenonConfig(n_qubits=1)
        qcc = QuantumControllerCache(config)
        qaddr = config.program_qaddr(0, 0)
        qcc.host_write(qaddr, ProgramEntry(gate_type=1).pack())
        qcc.link_pulse(0, 0, 0x55)
        assert qcc.program_entry(0, 0).has_valid_pulse
        qcc.host_write(qaddr, ProgramEntry(gate_type=1, data=99).pack())
        entry = qcc.program_entry(0, 0)
        assert not entry.has_valid_pulse
        assert entry.data == 99

    def test_regfile_entry_refuses_immediate_angle(self):
        entry = ProgramEntry(gate_type=0, reg_flag=True, data=5)
        with pytest.raises(ValueError):
            entry.angle()


class TestAngleEncoding:
    @pytest.mark.parametrize("theta", [0.0, 1.0, -1.0, math.pi, -math.pi, 2 * math.pi, 0.123456])
    def test_round_trip_within_resolution(self, theta):
        assert decode_angle(encode_angle(theta)) == pytest.approx(
            theta, abs=decode_angle(1)
        )

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            encode_angle(100.0)

    def test_resolution_below_microradian(self):
        assert decode_angle(1) < 1e-6  # one least-significant step
