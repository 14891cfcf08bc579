"""Tests for the stream executor and the exact-diagonalisation substrate."""

import math

import numpy as np
import pytest

from repro.compiler import lower, transpile
from repro.core import QtenonConfig, QuantumController
from repro.core.executor import StreamExecutor
from repro.isa import QAcquire, QGen, QRun, QUpdate, assemble, encode_angle
from repro.memory import MemoryHierarchy
from repro.quantum import (
    Parameter,
    QuantumCircuit,
    QuantumDevice,
    Sampler,
    StatevectorBackend,
)
from repro.quantum.exact import (
    expectation,
    ground_energy,
    pauli_string_matrix,
    pauli_sum_matrix,
)
from repro.quantum.pauli import PauliString, PauliSum
from repro.vqa import h2_workload


def transverse_field_ising(n_qubits):
    """Open 1D TFIM chain at J = h = 1: ``-sum Z_i Z_{i+1} - sum X_i``."""
    couplings = [
        (-1.0, PauliString({i: "Z", i + 1: "Z"})) for i in range(n_qubits - 1)
    ]
    fields = [(-1.0, PauliString({i: "X"})) for i in range(n_qubits)]
    return PauliSum(couplings + fields)


# ----------------------------------------------------------------------
# StreamExecutor
# ----------------------------------------------------------------------


@pytest.fixture
def rig():
    config = QtenonConfig(n_qubits=2)
    controller = QuantumController(config, MemoryHierarchy(), QuantumDevice(2))
    theta = Parameter("theta")
    circuit = QuantumCircuit(2).ry(theta, 0).cz(0, 1).measure_all()
    program = lower([transpile(circuit)], config)
    controller.attach_program(program)
    for gate in program.gates:
        controller.qcc.host_write(
            config.program_qaddr(gate.qubit, gate.index), gate.program_entry().pack()
        )
    return config, controller, program, theta


class TestStreamExecutor:
    def test_full_stream_advances_time(self, rig):
        config, controller, program, theta = rig
        executor = StreamExecutor(controller, Sampler(seed=0))
        executor.bind_circuit(program.bind_group(0, {theta: math.pi}))
        slot = program.slots[0]
        stream = [
            QUpdate(config.regfile_qaddr(slot.index), encode_angle(math.pi)),
            QGen(),
            QRun(shots=16),
            QAcquire(0x3000_0000, config.measure_qaddr(0), length=8),
        ]
        controller.mark_gates_dirty(program.gates_for_slot(slot.index))
        log = executor.execute(stream)
        assert log.duration_ps > 0
        assert len(log.entries) == 4
        assert len(log.runs) == 1
        # ry(pi) on q0: every shot reads q0 = 1 into .measure
        assert [controller.qcc.measure_read(i) for i in range(16)] == [0b01] * 16

    def test_machine_triples_accepted(self, rig):
        config, controller, program, theta = rig
        executor = StreamExecutor(controller, Sampler(seed=0))
        triples = assemble("q_update 0x70000, 0x1000\nq_gen")
        log = executor.execute(triples)
        assert [e.split()[0] for e in log.entries] == ["q_update", "q_gen"]

    def test_run_without_bound_circuit_raises(self, rig):
        _, controller, _, _ = rig
        executor = StreamExecutor(controller, Sampler(seed=0))
        with pytest.raises(RuntimeError, match="bind_circuit"):
            executor.execute([QRun(shots=4)])

    def test_unbound_circuit_rejected(self, rig):
        _, controller, program, _ = rig
        executor = StreamExecutor(controller, Sampler(seed=0))
        with pytest.raises(ValueError, match="bound"):
            executor.bind_circuit(program.group_circuits[0])

    def test_runs_consume_circuits_in_order(self, rig):
        config, controller, program, theta = rig
        executor = StreamExecutor(controller, Sampler(seed=0))
        executor.bind_circuit(program.bind_group(0, {theta: 0.0}))   # all |00>
        executor.bind_circuit(program.bind_group(0, {theta: math.pi}))  # q0 -> 1
        measured = []
        for _ in range(2):
            executor.execute([QRun(shots=8)])
            measured.append({controller.qcc.measure_read(i) for i in range(8)})
        assert measured == [{0b00}, {0b01}]


# ----------------------------------------------------------------------
# exact diagonalisation
# ----------------------------------------------------------------------


class TestExactMatrices:
    def test_pauli_matrices_square_to_identity(self):
        for label in ("X", "Y", "Z"):
            matrix = pauli_string_matrix(PauliString({0: label}), 1)
            product = (matrix @ matrix).toarray()
            assert np.allclose(product, np.eye(2))

    def test_little_endian_placement(self):
        # Z on qubit 0 of two: diag(1,-1,1,-1) in little-endian indexing.
        matrix = pauli_string_matrix(PauliString({0: "Z"}), 2).toarray()
        assert np.allclose(np.diag(matrix), [1, -1, 1, -1])

    def test_sum_matrix_hermitian(self):
        ham = transverse_field_ising(3)
        matrix = pauli_sum_matrix(ham, 3).toarray()
        assert np.allclose(matrix, matrix.conj().T)

    def test_width_limits(self):
        with pytest.raises(ValueError):
            pauli_sum_matrix(PauliSum([]), 0)
        with pytest.raises(ValueError):
            pauli_sum_matrix(PauliSum([]), 64)


class TestGroundEnergies:
    def test_h2_ground_energy(self):
        energy = ground_energy(h2_workload().observable, 2)
        assert energy == pytest.approx(-1.851, abs=0.01)

    def test_tfim_critical_chain(self):
        # 2-site TFIM (J=h=1): H = -Z0Z1 - X0 - X1, ground energy -sqrt(5).
        energy = ground_energy(transverse_field_ising(2), 2)
        assert energy == pytest.approx(-math.sqrt(5), abs=1e-9)

    def test_diagonal_sum_ground_is_min_eigenbasis(self):
        ham = PauliSum([(1.0, PauliString({0: "Z", 1: "Z"}))], constant=0.5)
        assert ground_energy(ham, 2) == pytest.approx(-0.5)

    def test_larger_sparse_path(self):
        # 7 qubits forces the eigsh branch.
        energy = ground_energy(transverse_field_ising(7), 7)
        dense_bound = -2.0 * 7  # loose lower bound
        assert dense_bound < energy < 0


class TestCrossValidation:
    def test_matrix_expectation_matches_pauli_algebra(self):
        ham = PauliSum(
            [
                (0.7, PauliString({0: "Z", 1: "Z"})),
                (0.3, PauliString({0: "X"})),
                (-0.2, PauliString({1: "Y"})),
            ],
            constant=0.1,
        )
        circuit = QuantumCircuit(2).ry(0.8, 0).rx(0.3, 1).cz(0, 1)
        state = StatevectorBackend().run(circuit)
        via_algebra = ham.expectation_statevector(state)
        via_matrix = expectation(ham, state)
        assert via_matrix == pytest.approx(via_algebra, abs=1e-10)

    def test_ground_state_expectation_equals_energy(self):
        ham = transverse_field_ising(3)
        from repro.quantum.exact import ground_state
        from repro.quantum.statevector import Statevector

        energy, vector = ground_state(ham, 3)
        state = Statevector(vector.astype(complex), 3)
        assert expectation(ham, state) == pytest.approx(energy, abs=1e-9)
