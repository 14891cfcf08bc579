"""Tests for circuits, gates, and parameters."""


from collections import Counter

import pytest

from repro.quantum import (
    Parameter,
    QuantumCircuit,
    QuantumDevice,
    gate_spec,
    parameter_vector,
)
from repro.quantum.parameters import ParameterExpression, is_symbolic, resolve
from repro.sim.clock import ns


class TestGateLibrary:
    def test_known_gates_resolve(self):
        for name in ("rx", "ry", "rz", "h", "x", "cz", "cx", "rzz", "measure"):
            assert gate_spec(name).name == name

    def test_unknown_gate_raises_with_suggestions(self):
        with pytest.raises(KeyError, match="known gates"):
            gate_spec("hadamard")

    def test_type_codes_unique(self):
        from repro.quantum.gates import GATE_LIBRARY

        codes = [spec.type_code for spec in GATE_LIBRARY.values()]
        assert len(codes) == len(set(codes))

    def test_durations(self):
        assert gate_spec("rx").duration_ns == 20.0
        assert gate_spec("cz").duration_ns == 40.0
        assert gate_spec("measure").duration_ns == 600.0

    def test_rotation_matrices_unitary(self):
        import numpy as np

        for name in ("rx", "ry", "rz"):
            matrix = gate_spec(name).matrix(0.7)
            assert np.allclose(matrix @ matrix.conj().T, np.eye(2))


class TestCircuitConstruction:
    def test_fluent_builders(self):
        qc = QuantumCircuit(3).h(0).cx(0, 1).rz(0.5, 2).measure_all()
        assert len(qc) == 6
        assert Counter(op.name for op in qc.operations) == {
            "h": 1, "cx": 1, "rz": 1, "measure": 3,
        }

    def test_qubit_bounds_checked(self):
        with pytest.raises(ValueError, match="out of range"):
            QuantumCircuit(2).h(2)

    def test_duplicate_qubits_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            QuantumCircuit(2).cz(1, 1)

    def test_wrong_param_count_rejected(self):
        with pytest.raises(ValueError, match="parameter"):
            QuantumCircuit(1).append("rx", (0,), ())

    def test_zero_qubits_rejected(self):
        with pytest.raises(ValueError):
            QuantumCircuit(0)

    def test_extend_checks_width(self):
        with pytest.raises(ValueError):
            QuantumCircuit(2).extend(QuantumCircuit(3))


class TestDepth:
    """Critical-path depth as the device times it: per-qubit tracks,
    1q gates 20 ns, 2q gates 40 ns."""

    def test_parallel_gates_share_a_layer(self):
        qc = QuantumCircuit(4)
        for q in range(4):
            qc.h(q)
        assert QuantumDevice(4).circuit_duration_ps(qc) == ns(20)

    def test_two_qubit_gate_joins_tracks(self):
        qc = QuantumCircuit(2).h(0).h(1).cz(0, 1).h(0)
        assert QuantumDevice(2).circuit_duration_ps(qc) == ns(20 + 40 + 20)

    def test_empty_circuit_depth_zero(self):
        assert QuantumDevice(3).circuit_duration_ps(QuantumCircuit(3)) == 0


class TestParameters:
    def test_parameters_deduplicated_in_order(self):
        a, b = Parameter("a"), Parameter("b")
        qc = QuantumCircuit(2).rx(a, 0).ry(b, 1).rz(a, 0)
        assert qc.parameters == [a, b]
        assert qc.num_parameters == 2

    def test_same_name_different_objects_are_distinct(self):
        qc = QuantumCircuit(1).rx(Parameter("t"), 0).ry(Parameter("t"), 0)
        assert qc.num_parameters == 2

    def test_bind_produces_bound_circuit(self):
        theta = Parameter("theta")
        qc = QuantumCircuit(1).rx(theta, 0)
        assert not qc.is_bound
        bound = qc.bind({theta: 0.5})
        assert bound.is_bound
        assert bound.operations[0].params == (0.5,)
        # original untouched
        assert not qc.is_bound

    def test_expression_binding(self):
        gamma = Parameter("gamma")
        expr = 2.0 * gamma + 1.0
        assert isinstance(expr, ParameterExpression)
        assert resolve(expr, {gamma: 0.25}) == pytest.approx(1.5)

    def test_expression_negation(self):
        gamma = Parameter("gamma")
        assert resolve(-gamma, {gamma: 0.5}) == pytest.approx(-0.5)

    def test_is_symbolic(self):
        assert is_symbolic(Parameter("x"))
        assert is_symbolic(2 * Parameter("x"))
        assert not is_symbolic(1.0)

    def test_missing_binding_raises(self):
        theta = Parameter("theta")
        qc = QuantumCircuit(1).rx(theta, 0)
        with pytest.raises(KeyError):
            qc.bind({})

    def test_parameter_vector(self):
        params = parameter_vector("w", 4)
        assert len(params) == 4
        assert params[2].name == "w[2]"
        assert len({id(p) for p in params}) == 4


class TestCounts:
    def test_two_qubit_gate_count(self):
        qc = QuantumCircuit(3).h(0).cz(0, 1).cx(1, 2).rzz(0.1, 0, 2)
        assert sum(op.spec.n_qubits == 2 for op in qc.operations) == 3
        assert qc.gate_count() == 4

    def test_gate_count_excluding_measure(self):
        qc = QuantumCircuit(2).h(0).measure_all()
        assert qc.gate_count() == 3
        assert qc.gate_count(include_measure=False) == 1

    def test_measured_qubits(self):
        qc = QuantumCircuit(3).measure(2).measure(0)
        assert qc.measured_qubits() == [2, 0]
