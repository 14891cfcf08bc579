"""Tests for the mean-field product-state backend."""

import math

import numpy as np
import pytest

from repro.quantum import ProductState, ProductStateBackend, QuantumCircuit, StatevectorBackend


@pytest.fixture
def backend():
    return ProductStateBackend()


class TestSingleQubitExactness:
    """1q gates must agree exactly with the statevector backend."""

    @pytest.mark.parametrize("gate,args", [
        ("x", ()), ("y", ()), ("z", ()), ("h", ()), ("s", ()), ("t", ()),
        ("rx", (0.7,)), ("ry", (1.3,)), ("rz", (2.1,)),
    ])
    def test_marginals_match_statevector(self, backend, gate, args):
        qc = QuantumCircuit(1)
        qc.append(gate, (0,), args)
        qc_prefix = QuantumCircuit(1).h(0)
        qc_prefix.extend(qc)
        product = backend.run(qc_prefix)
        exact = StatevectorBackend().run(qc_prefix)
        assert product.probability_one(0) == pytest.approx(
            exact.marginal_probability_one(0), abs=1e-12
        )

    def test_unentangled_multi_qubit_matches(self, backend):
        qc = QuantumCircuit(3).rx(0.4, 0).ry(1.1, 1).h(2).rz(0.3, 2)
        product = backend.run(qc)
        exact = StatevectorBackend().run(qc)
        for q in range(3):
            assert product.probability_one(q) == pytest.approx(
                exact.marginal_probability_one(q), abs=1e-12
            )


class TestMeanFieldRules:
    def test_cz_with_partner_in_zero_is_identity(self, backend):
        # partner |0> -> P1 = 0 -> no phase applied.
        qc = QuantumCircuit(2).h(0).cz(0, 1)
        state = backend.run(qc)
        assert state.probability_one(0) == pytest.approx(0.5)
        assert state.probability_one(1) == pytest.approx(0.0)

    def test_cx_with_control_one_flips_target(self, backend):
        state = backend.run(QuantumCircuit(2).x(0).cx(0, 1))
        assert state.probability_one(1) == pytest.approx(1.0)

    def test_cx_with_control_zero_is_identity(self, backend):
        state = backend.run(QuantumCircuit(2).cx(0, 1))
        assert state.probability_one(1) == pytest.approx(0.0)

    def test_state_stays_normalised(self, backend):
        rng = np.random.default_rng(3)
        qc = QuantumCircuit(6)
        for _ in range(200):
            q = int(rng.integers(6))
            qc.rx(float(rng.normal()), q)
            qc.cz(q, (q + 1) % 6)
        state = backend.run(qc)
        norms = np.linalg.norm(state.amplitudes, axis=1)
        assert norms == pytest.approx(np.ones(6))

    def test_rzz_applies_partner_weighted_phase(self, backend):
        # partner in |+> has <Z> = 0 -> no phase on the other side.
        qc = QuantumCircuit(2).h(0).h(1).rzz(0.9, 0, 1)
        state = backend.run(qc)
        assert state.probability_one(0) == pytest.approx(0.5)


class TestSampling:
    def test_counts_match_marginals(self, backend):
        rng = np.random.default_rng(0)
        qc = QuantumCircuit(2).ry(2 * math.asin(math.sqrt(0.3)), 0).measure_all()
        counts = backend.sample(qc, 50000, rng)
        p_one = sum(c for k, c in counts.items() if k & 1) / 50000
        assert p_one == pytest.approx(0.3, abs=0.02)

    def test_wide_register(self, backend):
        rng = np.random.default_rng(0)
        qc = QuantumCircuit(80)
        qc.x(79).measure_all()
        counts = backend.sample(qc, 10, rng)
        for key in counts:
            assert (key >> 79) & 1 == 1

    def test_zero_shots_rejected(self, backend):
        with pytest.raises(ValueError):
            backend.sample(QuantumCircuit(1).measure_all(), 0, np.random.default_rng(0))

    def test_unbound_rejected(self, backend):
        from repro.quantum import Parameter

        qc = QuantumCircuit(1).rx(Parameter("t"), 0)
        with pytest.raises(ValueError, match="unbound"):
            backend.run(qc)


class TestProductState:
    def test_zero_state(self):
        state = ProductState.zero_state(4)
        assert state.n_qubits == 4
        assert [state.probability_one(q) for q in range(4)] == [0.0] * 4

    def test_expectation_z(self):
        state = ProductState.zero_state(1)
        assert state.expectation_z(0) == pytest.approx(1.0)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            ProductState(np.zeros((3, 3)))
