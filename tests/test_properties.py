"""Property-based tests (hypothesis) on core data structures and invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    QtenonConfig,
    QuantumControllerCache,
    batch_interval,
    plan_transmissions,
    shot_record_bytes,
)
from repro.isa import (
    ProgramEntry,
    QAcquire,
    QGen,
    QRun,
    QSet,
    QUpdate,
    RoccWord,
    decode_angle,
    disassemble,
    encode_angle,
    pack_qaddr_length,
    parse_program,
    unpack_qaddr_length,
)
from repro.isa.assembler import MachineTriple, emit
from repro.memory import MemoryImage
from repro.quantum import QuantumCircuit, StatevectorBackend

# ----------------------------------------------------------------------
# ISA encodings
# ----------------------------------------------------------------------


@given(
    funct=st.integers(0, 127),
    rd=st.integers(0, 31),
    rs1=st.integers(0, 31),
    rs2=st.integers(0, 31),
    xd=st.booleans(),
    xs1=st.booleans(),
    xs2=st.booleans(),
)
def test_rocc_word_round_trip(funct, rd, rs1, rs2, xd, xs1, xs2):
    word = RoccWord(funct=funct, rd=rd, rs1=rs1, rs2=rs2, xd=xd, xs1=xs1, xs2=xs2)
    assert RoccWord.decode(word.encode()) == word


@given(qaddr=st.integers(0, (1 << 39) - 1), length=st.integers(0, (1 << 25) - 1))
def test_qaddr_length_round_trip(qaddr, length):
    assert unpack_qaddr_length(pack_qaddr_length(qaddr, length)) == (qaddr, length)


@given(
    gate_type=st.integers(0, 15),
    reg_flag=st.booleans(),
    data=st.integers(0, (1 << 27) - 1),
    status=st.integers(0, 7),
    qaddr=st.integers(0, (1 << 30) - 1),
)
def test_program_entry_round_trip(gate_type, reg_flag, data, status, qaddr):
    entry = ProgramEntry(gate_type, reg_flag, data, status, qaddr)
    assert ProgramEntry.unpack(entry.pack()) == entry


@given(theta=st.floats(min_value=-12.0, max_value=12.0, allow_nan=False))
def test_angle_encoding_error_bounded(theta):
    recovered = decode_angle(encode_angle(theta))
    assert abs(recovered - theta) <= 2 ** -21


_instructions = st.one_of(
    st.builds(
        QUpdate,
        quantum_addr=st.integers(0, (1 << 39) - 1),
        value=st.integers(0, (1 << 32) - 1),
    ),
    st.builds(
        QSet,
        classical_addr=st.integers(0, (1 << 40) - 1),
        quantum_addr=st.integers(0, (1 << 39) - 1),
        length=st.integers(0, (1 << 25) - 1),
    ),
    st.builds(
        QAcquire,
        classical_addr=st.integers(0, (1 << 40) - 1),
        quantum_addr=st.integers(0, (1 << 39) - 1),
        length=st.integers(0, (1 << 25) - 1),
    ),
    st.just(QGen()),
    st.builds(QRun, shots=st.integers(1, 1 << 20)),
)


@given(stream=st.lists(_instructions, max_size=20))
def test_assembler_round_trip(stream):
    source = emit(stream)
    assert parse_program(source) == stream


@given(stream=st.lists(_instructions, min_size=1, max_size=10))
def test_machine_round_trip(stream):
    triples = [
        MachineTriple(
            word=i.rocc_word().encode(),
            rs1=i.register_payloads()[0],
            rs2=i.register_payloads()[1],
        )
        for i in stream
    ]
    assert parse_program(disassemble(triples)) == stream


# ----------------------------------------------------------------------
# Algorithm 1 (batched transmission)
# ----------------------------------------------------------------------


@given(
    n_qubits=st.integers(1, 320),
    shots=st.integers(1, 2000),
    batched=st.booleans(),
)
def test_transmission_plan_invariants(n_qubits, shots, batched):
    plan = plan_transmissions(n_qubits, shots, host_addr=0x1000, batched=batched)
    # every shot is transmitted exactly once, in order.
    assert sum(b.n_shots for b in plan) == shots
    cursor = 0
    for batch in plan:
        assert batch.first_shot == cursor
        cursor += batch.n_shots
    # no batch exceeds the interval; only the tail may be short.
    interval = batch_interval(n_qubits) if batched else 1
    assert all(b.n_shots <= interval for b in plan)
    assert all(b.n_shots == interval for b in plan[:-1])
    # addresses never overlap.
    record = shot_record_bytes(n_qubits)
    for a, b in zip(plan, plan[1:]):
        assert a.host_addr + a.n_bytes <= b.host_addr
    assert all(b.n_bytes == record * b.n_shots for b in plan)


# ----------------------------------------------------------------------
# memory image
# ----------------------------------------------------------------------


@given(
    addr=st.integers(0, 1 << 30),
    data=st.binary(min_size=0, max_size=64),
)
def test_memory_image_bytes_round_trip(addr, data):
    image = MemoryImage()
    image.write_bytes(addr, data)
    assert image.read_bytes(addr, len(data)) == data


@given(
    writes=st.lists(
        st.tuples(st.integers(0, 256), st.binary(min_size=1, max_size=16)),
        max_size=10,
    )
)
def test_memory_image_last_write_wins(writes):
    image = MemoryImage()
    reference = bytearray(512)
    for addr, data in writes:
        image.write_bytes(addr, data)
        reference[addr : addr + len(data)] = data
    assert image.read_bytes(0, 512) == bytes(reference)


# ----------------------------------------------------------------------
# quantum: unitarity and normalisation
# ----------------------------------------------------------------------

_gate_moves = st.one_of(
    st.tuples(st.just("rx"), st.floats(-math.pi, math.pi, allow_nan=False)),
    st.tuples(st.just("ry"), st.floats(-math.pi, math.pi, allow_nan=False)),
    st.tuples(st.just("rz"), st.floats(-math.pi, math.pi, allow_nan=False)),
    st.tuples(st.just("h"), st.none()),
    st.tuples(st.just("cz"), st.none()),
    st.tuples(st.just("cx"), st.none()),
)


@settings(max_examples=30, deadline=None)
@given(moves=st.lists(st.tuples(_gate_moves, st.integers(0, 3)), max_size=25))
def test_statevector_norm_preserved(moves):
    qc = QuantumCircuit(4)
    for (gate, param), qubit in moves:
        if gate in ("cz", "cx"):
            qc.append(gate, (qubit, (qubit + 1) % 4))
        elif param is None:
            qc.append(gate, (qubit,))
        else:
            qc.append(gate, (qubit,), (param,))
    state = StatevectorBackend().run(qc)
    assert state.norm() == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(
    moves=st.lists(st.tuples(_gate_moves, st.integers(0, 3)), max_size=25),
    shots=st.integers(1, 200),
)
def test_sampled_counts_sum_to_shots(moves, shots):
    rng = np.random.default_rng(0)
    qc = QuantumCircuit(4)
    for (gate, param), qubit in moves:
        if gate in ("cz", "cx"):
            qc.append(gate, (qubit, (qubit + 1) % 4))
        elif param is None:
            qc.append(gate, (qubit,))
        else:
            qc.append(gate, (qubit,), (param,))
    qc.measure_all()
    counts = StatevectorBackend().sample(qc, shots, rng)
    assert sum(counts.values()) == shots


# ----------------------------------------------------------------------
# QCC address map
# ----------------------------------------------------------------------


@given(
    n_qubits=st.integers(1, 320),
    qubit_frac=st.floats(0, 1, exclude_max=True),
    index_frac=st.floats(0, 1, exclude_max=True),
)
def test_qcc_resolution_inverts_address_map(n_qubits, qubit_frac, index_frac):
    config = QtenonConfig(n_qubits=n_qubits)
    qcc = QuantumControllerCache(config)
    qubit = int(qubit_frac * n_qubits)
    index = int(index_frac * config.program_entries_per_qubit)
    where = qcc.resolve(config.program_qaddr(qubit, index))
    assert (where.segment, where.qubit, where.index) == (".program", qubit, index)
    pulse_base, _ = config.pulse_chunk(qubit)
    where = qcc.resolve(pulse_base + index % config.pulse_entries_per_qubit)
    assert where.segment == ".pulse"
    assert where.qubit == qubit


@given(n_qubits=st.integers(1, 512))
def test_config_segments_never_overlap(n_qubits):
    config = QtenonConfig(n_qubits=n_qubits)
    ranges = [
        (config.program_base, config.program_end),
        (config.regfile_base, config.regfile_base + config.regfile_entries),
        (config.measure_base, config.measure_base + config.measure_entries),
        (config.pulse_base, config.pulse_end),
    ]
    ordered = sorted(ranges)
    for (_, end_a), (start_b, _) in zip(ordered, ordered[1:]):
        assert end_a <= start_b
