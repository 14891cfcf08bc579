"""Tests for the compiler: transpile, lowering, incremental."""

import math

import pytest

from repro.compiler import (
    IncrementalCompiler,
    LoweringError,
    is_native,
    lower,
    transpile,
)
from repro.baseline import JitCompiler
from repro.core import QtenonConfig
from repro.host import INTEL_I9, HostWorkloadModel
from repro.isa import QSet, QUpdate, decode_angle
from repro.quantum import Parameter, QuantumCircuit, StatevectorBackend


def states_equal_up_to_phase(a, b):
    return abs(a.inner(b)) == pytest.approx(1.0, abs=1e-9)


class TestTranspile:
    @pytest.mark.parametrize("builder", [
        lambda qc: qc.h(0),
        lambda qc: qc.x(0).y(1).z(2),
        lambda qc: qc.s(0).sdg(1).t(2),
        lambda qc: qc.h(0).cx(0, 1),
        lambda qc: qc.h(0).h(1).rzz(0.7, 0, 1),
        lambda qc: qc.h(0).cx(0, 1).cx(1, 2).rx(0.3, 0).rzz(1.1, 0, 2),
    ])
    def test_equivalence_up_to_global_phase(self, builder):
        qc = QuantumCircuit(3)
        builder(qc)
        native = transpile(qc)
        assert is_native(native)
        backend = StatevectorBackend()
        assert states_equal_up_to_phase(backend.run(qc), backend.run(native))

    def test_native_gates_pass_through(self):
        qc = QuantumCircuit(2).rx(0.1, 0).cz(0, 1).rzz(0.2, 0, 1).measure_all()
        native = transpile(qc)
        assert [op.name for op in native] == [op.name for op in qc]

    def test_symbolic_parameters_survive(self):
        theta = Parameter("theta")
        qc = QuantumCircuit(2).rzz(2 * theta, 0, 1)
        native = transpile(qc)
        assert native.parameters == [theta]

    def test_measure_preserved(self):
        native = transpile(QuantumCircuit(2).h(0).measure_all())
        assert native.measured_qubits() == [0, 1]


class TestLowering:
    def setup_method(self):
        self.config = QtenonConfig(n_qubits=8)

    def build(self, n_qubits=4):
        theta = Parameter("theta")
        gamma = Parameter("gamma")
        qc = QuantumCircuit(n_qubits)
        for q in range(n_qubits):
            qc.ry(theta, q)
        qc.cz(0, 1)
        qc.rz(2 * gamma, 1)
        qc.rx(0.5, 2)
        qc.measure_all()
        return qc, theta, gamma

    def test_entry_counts(self):
        qc, _, _ = self.build()
        program = lower([qc], self.config)
        assert program.total_entries == len(qc.operations)
        assert sum(program.entries_per_qubit) == program.total_entries

    def test_shared_parameter_shares_slot(self):
        qc, theta, _ = self.build()
        program = lower([qc], self.config)
        slots = [slot for slot in program.slots if slot.parameter is theta]
        assert len(slots) == 1
        assert len(program.gates_for_slot(slots[0].index)) == 4

    def test_distinct_expressions_get_distinct_slots(self):
        gamma = Parameter("gamma")
        qc = QuantumCircuit(2).rz(gamma, 0).rz(2 * gamma, 1)
        program = lower([qc], self.config)
        assert program.n_parameter_slots == 2

    def test_static_angles_encoded_inline(self):
        qc = QuantumCircuit(1).rx(0.5, 0)
        program = lower([qc], self.config)
        gate = program.gates[0]
        assert gate.slot is None
        assert decode_angle(gate.static_data) == pytest.approx(0.5, abs=1e-5)

    def test_two_qubit_gate_owned_by_lower_qubit(self):
        qc = QuantumCircuit(4).cz(3, 1)
        program = lower([qc], self.config)
        gate = program.gates[0]
        assert gate.qubit == 1
        assert gate.partner == 3
        assert gate.static_data == 3

    def test_angle_wrapping(self):
        qc = QuantumCircuit(1).rx(7 * math.pi, 0)
        program = lower([qc], self.config)
        angle = decode_angle(program.gates[0].static_data)
        assert abs(angle) <= 4 * math.pi + 1e-6

    def test_chunk_overflow_rejected(self):
        config = QtenonConfig(n_qubits=2, program_entries_per_qubit=4)
        qc = QuantumCircuit(1)
        for _ in range(5):
            qc.rx(0.1, 0)
        with pytest.raises(LoweringError, match="overflow"):
            lower([qc], config)

    def test_too_many_qubits_rejected(self):
        with pytest.raises(LoweringError):
            lower([QuantumCircuit(16).h(0)], QtenonConfig(n_qubits=8))

    def test_upload_instructions_one_per_occupied_qubit(self):
        qc, _, _ = self.build()
        program = lower([qc], self.config)
        stream = program.upload_instructions(0x1000)
        assert all(isinstance(i, QSet) for i in stream)
        assert len(stream) == sum(1 for c in program.entries_per_qubit if c)

    def test_upload_lengths_in_32bit_words(self):
        qc = QuantumCircuit(1).rx(0.5, 0).measure(0)
        program = lower([qc], self.config)
        (instr,) = program.upload_instructions(0)
        assert instr.length == 2 * 3  # 2 entries x 3 words

    def test_measurement_groups_lower_together(self):
        a = QuantumCircuit(2).h(0).measure_all()
        b = QuantumCircuit(2).h(1).measure_all()
        program = lower([transpile(a), transpile(b)], self.config)
        groups = {gate.group for gate in program.gates}
        assert groups == {0, 1}


class TestIncrementalCompiler:
    def setup_method(self):
        theta = Parameter("theta")
        gamma = Parameter("gamma")
        qc = QuantumCircuit(2).ry(theta, 0).ry(theta, 1).rz(gamma, 0)
        self.theta, self.gamma = theta, gamma
        self.program = lower([qc], QtenonConfig(n_qubits=2))
        self.inc = IncrementalCompiler(self.program)

    def test_first_plan_touches_every_slot(self):
        plan = self.inc.plan({self.theta: 0.1, self.gamma: 0.2})
        assert plan.n_updates == self.program.n_parameter_slots

    def test_unchanged_values_produce_empty_plan(self):
        values = {self.theta: 0.1, self.gamma: 0.2}
        self.inc.plan(values)
        assert self.inc.plan(values).n_updates == 0

    def test_single_parameter_change_is_localised(self):
        self.inc.plan({self.theta: 0.1, self.gamma: 0.2})
        plan = self.inc.plan({self.theta: 0.1, self.gamma: 0.3})
        assert plan.n_updates == 1
        assert all(isinstance(i, QUpdate) for i in plan.instructions)
        # gamma touches only one gate.
        assert len(plan.invalidated_gates) == 1

    def test_shared_slot_invalidates_all_its_gates(self):
        self.inc.plan({self.theta: 0.1, self.gamma: 0.2})
        plan = self.inc.plan({self.theta: 0.5, self.gamma: 0.2})
        assert len(plan.invalidated_gates) == 2  # both ry(theta) gates

    def test_missing_parameter_raises(self):
        with pytest.raises(KeyError, match="gamma"):
            self.inc.plan({self.theta: 0.1})

    def test_tolerance_suppresses_tiny_changes(self):
        inc = IncrementalCompiler(self.program, tolerance=1e-3)
        inc.plan({self.theta: 0.1, self.gamma: 0.2})
        plan = inc.plan({self.theta: 0.1 + 1e-6, self.gamma: 0.2})
        assert plan.n_updates == 0

    def test_reset_forgets_history(self):
        values = {self.theta: 0.1, self.gamma: 0.2}
        self.inc.plan(values)
        self.inc.reset()
        assert self.inc.plan(values).n_updates == self.program.n_parameter_slots


class TestQasm:
    """The decoupled baseline's static binary: one instruction per gate
    and per measurement, as in a QASM listing."""

    def test_static_count_is_per_operation(self):
        qc = QuantumCircuit(2).h(0).cx(0, 1).measure_all()
        jit = JitCompiler(HostWorkloadModel(INTEL_I9))
        assert jit.compile(qc).instruction_count == 4
