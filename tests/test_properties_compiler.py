"""Property-based tests over the compiler and device-timing invariants."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler import is_native, lower, transpile
from repro.core import QtenonConfig
from repro.isa.program import decode_angle
from repro.quantum import QuantumCircuit, QuantumDevice, StatevectorBackend
from repro.quantum.gates import gate_spec

# random circuit generator -------------------------------------------------

_GATES_1Q = ["h", "x", "y", "z", "s", "sdg", "t"]
_ROT_1Q = ["rx", "ry", "rz"]
_GATES_2Q = ["cz", "cx", "rzz"]

_move = st.one_of(
    st.tuples(st.sampled_from(_GATES_1Q), st.integers(0, 3), st.none()),
    st.tuples(
        st.sampled_from(_ROT_1Q),
        st.integers(0, 3),
        st.floats(-math.pi, math.pi, allow_nan=False),
    ),
    st.tuples(
        st.sampled_from(_GATES_2Q),
        st.integers(0, 3),
        st.floats(-math.pi, math.pi, allow_nan=False),
    ),
)


def build_circuit(moves, n_qubits=4):
    qc = QuantumCircuit(n_qubits)
    for gate, qubit, angle in moves:
        if gate in _GATES_2Q:
            partner = (qubit + 1) % n_qubits
            if gate == "rzz":
                qc.rzz(angle, qubit, partner)
            else:
                qc.append(gate, (qubit, partner))
        elif gate in _ROT_1Q:
            qc.append(gate, (qubit,), (angle,))
        else:
            qc.append(gate, (qubit,))
    return qc


def overlap(a, b):
    backend = StatevectorBackend()
    return abs(backend.run(a).inner(backend.run(b)))


# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(moves=st.lists(_move, max_size=20))
def test_transpile_preserves_state_up_to_phase(moves):
    qc = build_circuit(moves)
    native = transpile(qc)
    assert is_native(native)
    assert overlap(qc, native) == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(moves=st.lists(_move, max_size=20))
def test_lowering_is_faithful(moves):
    """Every lowered gate decodes back to the native operation it came
    from: same type code, same owner/partner, angle within fixed-point
    resolution."""
    qc = build_circuit(moves)
    native = transpile(qc)
    config = QtenonConfig(n_qubits=4)
    program = lower([native], config)
    assert program.total_entries == len(native.operations)
    cursor = {q: 0 for q in range(4)}
    for op, gate in zip(native.operations, program.gates):
        spec = gate_spec(op.name)
        assert gate.gate_type == spec.type_code
        if spec.n_qubits == 1:
            assert gate.qubit == op.qubits[0]
            assert gate.partner is None
        else:
            assert gate.qubit == min(op.qubits)
            assert gate.partner == max(op.qubits)
        assert gate.index == cursor[gate.qubit]
        cursor[gate.qubit] += 1
        if spec.n_params and not op.is_symbolic:
            assert decode_angle(gate.static_data) == pytest.approx(
                _wrap(float(op.params[0])), abs=1e-5
            )


def _wrap(theta):
    tau = 2 * math.pi
    wrapped = math.fmod(theta, 2 * tau)
    if wrapped > tau:
        wrapped -= 2 * tau
    elif wrapped < -tau:
        wrapped += 2 * tau
    return wrapped


@settings(max_examples=30, deadline=None)
@given(
    moves_a=st.lists(_move, max_size=12),
    moves_b=st.lists(_move, max_size=12),
)
def test_device_timing_superadditive_under_concatenation(moves_a, moves_b):
    """Concatenating circuits can only help through parallel slack:
    duration(a+b) <= duration(a) + duration(b), and is at least
    max(duration(a), duration(b))."""
    device = QuantumDevice(4)
    a, b = build_circuit(moves_a), build_circuit(moves_b)
    combined = a.copy().extend(b)
    da = device.circuit_duration_ps(a)
    db = device.circuit_duration_ps(b)
    dc = device.circuit_duration_ps(combined)
    assert dc <= da + db
    assert dc >= max(da, db)


@settings(max_examples=30, deadline=None)
@given(moves=st.lists(_move, min_size=1, max_size=20))
def test_device_duration_bounded_by_serial_sum(moves):
    """Per-qubit-track scheduling never exceeds fully serial execution
    and never undercuts the critical path's longest gate."""
    device = QuantumDevice(4)
    qc = build_circuit(moves)
    duration = device.circuit_duration_ps(qc)
    serial = sum(
        int(device.gate_duration_ns(op.name, op.spec.n_qubits) * 1000)
        for op in qc.operations
    )
    assert duration <= serial
    if qc.operations:
        longest = max(
            int(device.gate_duration_ns(op.name, op.spec.n_qubits) * 1000)
            for op in qc.operations
        )
        assert duration >= longest


@settings(max_examples=25, deadline=None)
@given(moves=st.lists(_move, max_size=15), seed=st.integers(0, 2**16))
def test_sampler_counts_deterministic_under_seed(moves, seed):
    from repro.quantum import Sampler

    qc = build_circuit(moves).measure_all()
    a = Sampler(seed=seed).run(qc, 64).counts
    b = Sampler(seed=seed).run(qc, 64).counts
    assert a == b
    assert sum(a.values()) == 64
