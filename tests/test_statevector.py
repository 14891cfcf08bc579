"""Tests for the exact statevector backend."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.quantum import QuantumCircuit, Statevector, StatevectorBackend


@pytest.fixture
def backend():
    return StatevectorBackend()


class TestBasicStates:
    def test_zero_state(self):
        state = Statevector.zero_state(2)
        assert state.probabilities()[0b00] == pytest.approx(1.0)

    def test_x_flips(self, backend):
        state = backend.run(QuantumCircuit(1).x(0))
        assert state.probabilities()[1] == pytest.approx(1.0)

    def test_h_superposition(self, backend):
        state = backend.run(QuantumCircuit(1).h(0))
        assert state.probabilities() == pytest.approx([0.5, 0.5])

    def test_bell_state(self, backend):
        state = backend.run(QuantumCircuit(2).h(0).cx(0, 1))
        probs = state.probabilities()
        assert probs[0b00] == pytest.approx(0.5)
        assert probs[0b11] == pytest.approx(0.5)
        assert probs[0b01] == pytest.approx(0.0)

    def test_ghz_state(self, backend):
        qc = QuantumCircuit(4).h(0)
        for q in range(3):
            qc.cx(q, q + 1)
        state = backend.run(qc)
        assert state.probabilities()[0] == pytest.approx(0.5)
        assert state.probabilities()[0b1111] == pytest.approx(0.5)

    def test_little_endian_convention(self, backend):
        # X on qubit 1 of three -> basis index 0b010 = 2.
        state = backend.run(QuantumCircuit(3).x(1))
        assert state.probabilities()[0b010] == pytest.approx(1.0)


class TestGateAlgebra:
    def test_rx_pi_equals_x_up_to_phase(self, backend):
        a = backend.run(QuantumCircuit(1).rx(math.pi, 0))
        b = backend.run(QuantumCircuit(1).x(0))
        assert abs(a.inner(b)) == pytest.approx(1.0)

    def test_hzh_equals_x(self, backend):
        a = backend.run(QuantumCircuit(1).h(0).z(0).h(0))
        b = backend.run(QuantumCircuit(1).x(0))
        assert abs(a.inner(b)) == pytest.approx(1.0)

    def test_cz_symmetric(self, backend):
        base = QuantumCircuit(2).h(0).h(1)
        a = backend.run(base.copy().cz(0, 1))
        b = backend.run(base.copy().cz(1, 0))
        assert abs(a.inner(b)) == pytest.approx(1.0)

    def test_cx_direction_matters(self, backend):
        a = backend.run(QuantumCircuit(2).x(0).cx(0, 1))
        assert a.probabilities()[0b11] == pytest.approx(1.0)
        b = backend.run(QuantumCircuit(2).x(0).cx(1, 0))
        assert b.probabilities()[0b01] == pytest.approx(1.0)

    def test_rzz_diagonal_phases(self, backend):
        theta = 0.8
        state = backend.run(QuantumCircuit(2).h(0).h(1).rzz(theta, 0, 1))
        # |amplitudes| unchanged by a diagonal gate
        assert state.probabilities() == pytest.approx([0.25] * 4)

    def test_s_squared_is_z(self, backend):
        a = backend.run(QuantumCircuit(1).h(0).s(0).s(0))
        b = backend.run(QuantumCircuit(1).h(0).z(0))
        assert abs(a.inner(b)) == pytest.approx(1.0)

    def test_norm_preserved_deep_circuit(self, backend):
        rng = np.random.default_rng(7)
        qc = QuantumCircuit(4)
        for _ in range(60):
            q = int(rng.integers(4))
            qc.rx(float(rng.normal()), q)
            qc.cz(q, (q + 1) % 4)
        state = backend.run(qc)
        assert state.norm() == pytest.approx(1.0)


class TestMarginalsAndSampling:
    def test_marginal_probability(self, backend):
        state = backend.run(QuantumCircuit(2).h(0))
        assert state.marginal_probability_one(0) == pytest.approx(0.5)
        assert state.marginal_probability_one(1) == pytest.approx(0.0)

    def test_expectation_z(self, backend):
        state = backend.run(QuantumCircuit(1).x(0))
        assert state.expectation_z(0) == pytest.approx(-1.0)

    def test_sampling_statistics(self, backend):
        rng = np.random.default_rng(0)
        counts = backend.sample(QuantumCircuit(1).h(0).measure_all(), 20000, rng)
        assert abs(counts.get(0, 0) / 20000 - 0.5) < 0.02

    def test_sampling_respects_measured_subset(self, backend):
        rng = np.random.default_rng(0)
        qc = QuantumCircuit(3).x(2).measure(2)
        counts = backend.sample(qc, 100, rng)
        assert counts == {1: 100}

    def test_deterministic_outcomes(self, backend):
        rng = np.random.default_rng(0)
        counts = backend.sample(QuantumCircuit(2).x(0).x(1).measure_all(), 50, rng)
        assert counts == {0b11: 50}

    def test_zero_shots_rejected(self, backend):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            backend.sample(QuantumCircuit(1).measure_all(), 0, rng)


def _reference_sample_counts(state, shots, rng, qubits=None):
    """The pre-vectorisation per-shot/per-qubit loop, kept as oracle."""
    probs = state.probabilities()
    probs = probs / probs.sum()
    outcomes = rng.choice(probs.size, size=shots, p=probs)
    subset = sorted(set(qubits)) if qubits is not None else list(range(state.n_qubits))
    counts = {}
    for outcome in outcomes:
        key = 0
        for position, qubit in enumerate(subset):
            key |= ((int(outcome) >> qubit) & 1) << position
        counts[key] = counts.get(key, 0) + 1
    return counts


class TestVectorisedSampling:
    """The numpy bit-packing in ``sample_counts`` draws from the same
    rng stream as the old scalar loop, so with equal seeds the two must
    be *identical*, not just statistically close."""

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_matches_reference_loop(self, data):
        n = data.draw(st.integers(1, 4), label="n_qubits")
        seed = data.draw(st.integers(0, 2**31 - 1), label="seed")
        shots = data.draw(st.integers(1, 256), label="shots")
        subset = data.draw(
            st.one_of(st.none(), st.sets(st.integers(0, n - 1), min_size=1)),
            label="qubits",
        )
        rng = np.random.default_rng(seed)
        qc = QuantumCircuit(n)
        for q in range(n):
            qc.ry(float(rng.uniform(-math.pi, math.pi)), q)
            if n > 1:
                qc.cx(q, (q + 1) % n)
        state = StatevectorBackend().run(qc)
        fast = state.sample_counts(shots, np.random.default_rng(seed), qubits=subset)
        slow = _reference_sample_counts(
            state, shots, np.random.default_rng(seed), qubits=subset
        )
        assert fast == slow

    def test_subset_keys_are_positional(self):
        # |q2 q1 q0> = |110>: measuring {1, 2} packs qubit 1 into bit 0.
        state = StatevectorBackend().run(QuantumCircuit(3).x(1).x(2))
        counts = state.sample_counts(10, np.random.default_rng(0), qubits=[2, 1])
        assert counts == {0b11: 10}


class TestGuards:
    def test_unbound_circuit_rejected(self, backend):
        from repro.quantum import Parameter

        qc = QuantumCircuit(1).rx(Parameter("t"), 0)
        with pytest.raises(ValueError, match="unbound"):
            backend.run(qc)

    def test_width_limit(self):
        backend = StatevectorBackend(max_qubits=3)
        with pytest.raises(ValueError, match="exceeds"):
            backend.run(QuantumCircuit(4))
