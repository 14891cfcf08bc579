"""Bit-exactness of the adjoint sweep against a frozen per-factor oracle.

``repro.quantum.adjoint`` builds the costate ``(H - c)|psi>`` from a
compiled term plan (one gather, an optional ``1j``, one real weight
multiply per Pauli term) and pulls psi and lambda back through each
node with the forward pass's own matrices.  Every one of those steps
is exact except the single ``coeff`` multiply, which the per-factor
sweep performs too, so energies and gradients must not move by one
bit.  The oracle below is the per-factor sweep as it stood before the
plan: one fresh array per Pauli factor, one generator array per
parameter node, and each undo matrix rebuilt with ``matrix_for``.

Results are compared by value and byte for byte on every nonzero
entry (an exact zero may differ in sign only, which no later sum or
product can turn into a nonzero difference).
"""

import hashlib
import math
import pickle

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import EvaluationEngine, QtenonSystem
from repro.quantum import PauliString, PauliSum, QuantumCircuit, compile_circuit, pauli
from repro.quantum.adjoint import adjoint_gradient, adjoint_gradient_batch
from repro.quantum.kernels import (
    _FusedNode,
    _ParamNode,
    apply_1q,
    apply_2q,
    scratch_size,
)
from repro.quantum.parameters import Parameter
from repro.runtime.engine import build_spec
from repro.vqa.ansatz import hardware_efficient_ansatz
from repro.vqa.hamiltonians import molecular_hamiltonian
from repro.vqa.vqe import vqe_workload


# ----------------------------------------------------------------------
# frozen oracle: the per-factor sweep
# ----------------------------------------------------------------------
def _gen_x(arr, qubits):
    out = np.empty_like(arr)
    src = arr.reshape(-1, 2, 1 << qubits[0])
    dst = out.reshape(-1, 2, 1 << qubits[0])
    dst[:, 0, :] = src[:, 1, :]
    dst[:, 1, :] = src[:, 0, :]
    return out


def _gen_y(arr, qubits):
    out = np.empty_like(arr)
    src = arr.reshape(-1, 2, 1 << qubits[0])
    dst = out.reshape(-1, 2, 1 << qubits[0])
    np.multiply(src[:, 1, :], -1j, out=dst[:, 0, :])
    np.multiply(src[:, 0, :], 1j, out=dst[:, 1, :])
    return out


def _gen_z(arr, qubits):
    out = arr.copy()
    out.reshape(-1, 2, 1 << qubits[0])[:, 1, :] *= -1.0
    return out


def _gen_zz(arr, qubits):
    q0, q1 = qubits
    hi, lo = (q0, q1) if q0 > q1 else (q1, q0)
    out = arr.copy()
    view = out.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
    view[:, 0, :, 1, :] *= -1.0
    view[:, 1, :, 0, :] *= -1.0
    return out


_GENERATORS = {"rx": _gen_x, "ry": _gen_y, "rz": _gen_z, "rzz": _gen_zz}
_PAULI_APPLIES = {"X": _gen_x, "Y": _gen_y, "Z": _gen_z}


def _oracle_costate(amps, observable):
    lam = np.zeros_like(amps)
    for coeff, string in observable.terms:
        working = amps
        for qubit, pauli in string.terms:
            working = _PAULI_APPLIES[pauli](working, (qubit,))
        lam += coeff * working
    return lam


def _oracle_reverse_step(psi, lam, node, vector, grad, scratch):
    qubits = node.qubits
    if isinstance(node, _ParamNode):
        applied = _GENERATORS[node.spec.name](psi, qubits)
        partial = float(np.imag(np.vdot(lam, applied)))
        for slot, coeff, _offset in node.bindings:
            if slot is not None and coeff != 0.0:
                grad[slot] += coeff * partial
    dag = node.matrix_for(vector).conj().T
    if len(qubits) == 1:
        apply_1q(psi, dag, qubits[0], scratch, node.diagonal)
        apply_1q(lam, dag, qubits[0], scratch, node.diagonal)
    else:
        apply_2q(psi, dag, qubits[0], qubits[1], scratch, node.diagonal)
        apply_2q(lam, dag, qubits[0], qubits[1], scratch, node.diagonal)


def oracle_gradient(program, observable, vector):
    n = program.n_qubits
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = 1.0
    scratch = np.empty(scratch_size(n), dtype=complex)
    for node in program.ops:
        matrix = node.matrix_for(vector)
        qubits = node.qubits
        if len(qubits) == 1:
            apply_1q(amps, matrix, qubits[0], scratch, node.diagonal)
        else:
            apply_2q(amps, matrix, qubits[0], qubits[1], scratch, node.diagonal)
    lam = _oracle_costate(amps, observable)
    energy = observable.constant + float(np.real(np.vdot(amps, lam)))
    grad = np.zeros(program.n_slots, dtype=np.float64)
    for node in reversed(program.ops):
        elements = node.elements if isinstance(node, _FusedNode) else (node,)
        for element in reversed(elements):
            _oracle_reverse_step(amps, lam, element, vector, grad, scratch)
    return energy, grad


def assert_same_bits(actual, expected):
    actual = np.atleast_1d(np.asarray(actual, dtype=np.float64))
    expected = np.atleast_1d(np.asarray(expected, dtype=np.float64))
    assert np.array_equal(actual, expected)
    nonzero = expected != 0
    assert actual[nonzero].tobytes() == expected[nonzero].tobytes()


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
_COEFFS = st.floats(-3.0, 3.0, allow_nan=False, allow_subnormal=False).filter(
    lambda c: c != 0.0
)
#: Angles that zero amplitudes exactly (0, pi) next to generic ones.
_ANGLES = st.one_of(
    st.sampled_from((0.0, math.pi, -math.pi, math.pi / 2)),
    st.floats(-math.pi, math.pi, allow_nan=False, allow_subnormal=False),
)


@st.composite
def observables(draw, width):
    """A Pauli sum mixing X, Y and Z; its first term carries exactly
    ``ny`` Y factors, drawn so every ``(-i)**ny`` phase occurs."""
    ny = draw(st.integers(0, min(3, width)), label="ny")
    y_qubits = draw(st.permutations(range(width)), label="y_qubits")[:ny]
    first = {q: "Y" for q in y_qubits}
    for q in range(width):
        if q not in first:
            letter = draw(st.sampled_from("IXZ"), label=f"first{q}")
            if letter != "I":
                first[q] = letter
    terms = [(draw(_COEFFS, label="coeff0"), PauliString(first))]
    for t in range(draw(st.integers(0, 6), label="n_terms")):
        letters = draw(
            st.lists(st.sampled_from("IXYZ"), min_size=width, max_size=width),
            label=f"term{t}",
        )
        string = {q: p for q, p in enumerate(letters) if p != "I"}
        terms.append((draw(_COEFFS, label=f"coeff{t + 1}"), PauliString(string)))
    constant = draw(st.floats(-1.0, 1.0, allow_nan=False), label="constant")
    return PauliSum(terms, constant=constant)


@st.composite
def programs(draw, width):
    """A parameterised ``rx``/``ry``/``rz``/``rzz`` circuit with fixed
    gates between, compiled with fusion: adjacent single-qubit gates on
    one wire become fused runs, and qubits it never touches keep their
    amplitudes exactly zero."""
    circuit = QuantumCircuit(width)
    parameters = [Parameter(f"p{i}") for i in range(draw(st.integers(1, 4)))]
    for i in range(draw(st.integers(1, 16), label="n_ops")):
        qubit = draw(st.integers(0, width - 1), label=f"q{i}")
        parameter = draw(st.sampled_from(parameters), label=f"p{i}")
        kind = draw(st.sampled_from(("rx", "ry", "rz", "rzz", "h", "s", "cx")))
        if kind in ("rzz", "cx"):
            if width < 2:
                continue
            other = draw(
                st.integers(0, width - 1).filter(lambda q: q != qubit),
                label=f"o{i}",
            )
            if kind == "cx":
                circuit.append("cx", (qubit, other))
            else:
                circuit.append("rzz", (qubit, other), (parameter * 2.0,))
        elif kind in ("h", "s"):
            circuit.append(kind, (qubit,))
        else:
            scale = draw(st.sampled_from((1.0, -0.5, 1.75)), label=f"s{i}")
            circuit.append(kind, (qubit,), (parameter * scale,))
    return compile_circuit(circuit, parameters), len(parameters)


# ----------------------------------------------------------------------
# bit-exactness
# ----------------------------------------------------------------------
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_serial_and_batch_match_the_per_factor_oracle(data):
    width = data.draw(st.integers(1, 10), label="width")
    program, n_slots = data.draw(programs(width), label="program")
    observable = data.draw(observables(width), label="observable")
    rows = data.draw(st.integers(1, 9), label="rows")
    batch = np.array(
        [
            data.draw(
                st.lists(_ANGLES, min_size=n_slots, max_size=n_slots),
                label=f"row{k}",
            )
            for k in range(rows)
        ],
        dtype=np.float64,
    )
    energies, grads = adjoint_gradient_batch(program, observable, batch)
    for k in range(rows):
        expected_energy, expected_grad = oracle_gradient(program, observable, batch[k])
        energy, grad = adjoint_gradient(program, observable, batch[k])
        assert_same_bits(energy, expected_energy)
        assert_same_bits(grad, expected_grad)
        assert_same_bits(energies[k], expected_energy)
        assert_same_bits(grads[k], expected_grad)


def test_every_y_phase_matches_the_oracle():
    """One term per ``(-i)**ny`` phase, ny = 0..4, on a dense state."""
    width = 5
    ansatz, parameters = hardware_efficient_ansatz(width, n_layers=2)
    program = compile_circuit(ansatz, parameters)
    rng = np.random.default_rng(5)
    vector = rng.uniform(-math.pi, math.pi, len(parameters))
    for ny in range(5):
        string = {q: "Y" for q in range(ny)}
        string.update({q: "XZ"[q % 2] for q in range(ny, width)})
        observable = PauliSum([(0.7 - 0.1 * ny, PauliString(string))])
        energy, grad = adjoint_gradient(program, observable, vector)
        expected_energy, expected_grad = oracle_gradient(program, observable, vector)
        assert_same_bits(energy, expected_energy)
        assert_same_bits(grad, expected_grad)


#: blake2b-128 of the 12-qubit VQE adjoint energies and gradients at the
#: four seeded vectors below; unchanged since the per-factor sweep.
VQE12_DIGEST = "c3d1a520615f2809f492e56acc4c1a60"


def test_vqe12_adjoint_digest():
    workload = vqe_workload(12)
    spec = build_spec(
        workload.ansatz, workload.observable, parameters=workload.parameters
    )
    batch = np.random.default_rng(2024).uniform(
        -math.pi, math.pi, size=(4, len(workload.parameters))
    )
    energies, grads = adjoint_gradient_batch(
        spec.adjoint_program, spec.observable, batch
    )
    digest = hashlib.blake2b(digest_size=16)
    digest.update(energies.tobytes())
    digest.update(grads.tobytes())
    assert digest.hexdigest() == VQE12_DIGEST
    energy, grad = adjoint_gradient(spec.adjoint_program, spec.observable, batch[0])
    assert_same_bits(energy, energies[0])
    assert_same_bits(grad, grads[0])


# ----------------------------------------------------------------------
# the cached plan stays out of pickles
# ----------------------------------------------------------------------
def test_pickled_spec_and_observable_do_not_grow_after_a_gradient():
    ansatz, parameters = hardware_efficient_ansatz(6, n_layers=1)
    spec = build_spec(ansatz, molecular_hamiltonian(6, seed=0), parameters=parameters)
    observable = spec.observable
    spec_before = pickle.dumps(spec, protocol=pickle.HIGHEST_PROTOCOL)
    observable_before = pickle.dumps(observable, protocol=pickle.HIGHEST_PROTOCOL)
    vector = np.linspace(-1.0, 1.0, len(parameters))
    first = adjoint_gradient(spec.adjoint_program, observable, vector)
    assert "_costate_plans" in observable.__dict__
    spec_after = pickle.dumps(spec, protocol=pickle.HIGHEST_PROTOCOL)
    assert len(spec_after) == len(spec_before)
    assert len(pickle.dumps(observable, protocol=pickle.HIGHEST_PROTOCOL)) == len(
        observable_before
    )
    clone = pickle.loads(spec_after)
    assert "_costate_plans" not in clone.observable.__dict__
    again = adjoint_gradient(clone.adjoint_program, clone.observable, vector)
    assert "_costate_plans" in clone.observable.__dict__
    assert_same_bits(again[0], first[0])
    assert_same_bits(again[1], first[1])


def test_over_budget_plan_is_rebuilt_per_call_with_the_same_bits(monkeypatch):
    ansatz, parameters = hardware_efficient_ansatz(6, n_layers=1)
    program = compile_circuit(ansatz, parameters)
    vector = np.linspace(-1.0, 1.0, len(parameters))
    expected = oracle_gradient(program, molecular_hamiltonian(6, seed=0), vector)
    monkeypatch.setattr(pauli, "PARITY_TABLE_MAX_ENTRIES", 0)
    observable = molecular_hamiltonian(6, seed=0)
    for _ in range(2):
        energy, grad = adjoint_gradient(program, observable, vector)
        assert_same_bits(energy, expected[0])
        assert_same_bits(grad, expected[1])
    assert not observable.__dict__.get("_costate_plans")


def test_pool_workers_build_their_own_plan():
    """A pool worker receives the spec without a plan, builds its own,
    and returns the parent's serial bits."""
    ansatz, parameters = hardware_efficient_ansatz(4, n_layers=1)
    observable = molecular_hamiltonian(4, seed=11)
    rng = np.random.default_rng(3)
    vectors = [rng.uniform(-1, 1, len(parameters)) for _ in range(5)]
    pooled = EvaluationEngine(QtenonSystem(4, seed=11), max_workers=2, seed=11)
    try:
        pooled.prepare(ansatz, observable)
        energies, grads = pooled.evaluate_gradients(parameters, vectors, shots=0)
        assert pooled.stats.as_dict()["runtime.parallel_gradients"] > 0
    finally:
        pooled.close()
    # The engine's spec differentiates this very observable, and the
    # parent never swept it: the plans were the workers' own.
    assert "_costate_plans" not in observable.__dict__
    spec = build_spec(ansatz, observable, parameters=parameters)
    for vector, energy, grad in zip(vectors, energies, grads):
        expected_energy, expected_grad = oracle_gradient(
            spec.adjoint_program, spec.observable, vector
        )
        assert_same_bits(energy, expected_energy)
        assert_same_bits(grad, expected_grad)
