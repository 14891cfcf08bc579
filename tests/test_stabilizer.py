"""Tests for the Aaronson-Gottesman stabilizer-tableau backend.

The load-bearing property is *bit-identical sampling parity* with the
exact statevector backend under shared seeds: the planner may route a
Clifford job to either backend without perturbing content-derived
sampler histories, so the two must consume their RNG identically and
map draws to outcomes identically — not merely agree in distribution.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler import transpile
from repro.quantum import Parameter, QuantumCircuit, Sampler
from repro.quantum.stabilizer import (
    NotCliffordError,
    StabilizerBackend,
    Tableau,
    clifford_quarter,
    is_clifford_circuit,
)

HALF_PI = 0.5 * math.pi


@pytest.fixture
def backend():
    return StabilizerBackend()


# ----------------------------------------------------------------------
# angle snapping
# ----------------------------------------------------------------------
class TestCliffordQuarter:
    @pytest.mark.parametrize(
        "angle,quarter",
        [
            (0.0, 0),
            (HALF_PI, 1),
            (math.pi, 2),
            (3 * HALF_PI, 3),
            (2 * math.pi, 0),
            (-HALF_PI, 3),
            (-math.pi, 2),
            (5 * HALF_PI, 1),
        ],
    )
    def test_grid_angles(self, angle, quarter):
        assert clifford_quarter(angle) == quarter

    @pytest.mark.parametrize("angle", [0.3, math.pi / 4, HALF_PI + 1e-6])
    def test_off_grid_angles(self, angle):
        assert clifford_quarter(angle) is None

    def test_tolerance_absorbs_float_noise(self):
        assert clifford_quarter(HALF_PI * (1 + 1e-12)) == 1


# ----------------------------------------------------------------------
# tableau states with known supports
# ----------------------------------------------------------------------
class TestTableauStates:
    def sample_keys(self, circuit, shots=200, seed=7):
        counts = StabilizerBackend().sample(
            circuit, shots, np.random.default_rng(seed)
        )
        assert sum(counts.values()) == shots
        return set(counts)

    def test_zero_state(self):
        assert self.sample_keys(QuantumCircuit(3).measure_all()) == {0}

    def test_x_flips(self):
        qc = QuantumCircuit(2).x(1).measure_all()
        assert self.sample_keys(qc) == {0b10}

    def test_bell_state(self):
        qc = QuantumCircuit(2).h(0).cx(0, 1).measure_all()
        assert self.sample_keys(qc) == {0b00, 0b11}

    def test_ghz_state(self):
        qc = QuantumCircuit(4).h(0)
        for q in range(3):
            qc.cx(q, q + 1)
        assert self.sample_keys(qc.measure_all()) == {0, 0b1111}

    def test_hssh_is_x(self):
        # H S S H = H Z H = X: deterministic |1>.
        qc = QuantumCircuit(1).h(0).s(0).s(0).h(0).measure_all()
        assert self.sample_keys(qc) == {1}

    def test_s_sdg_cancel(self):
        qc = QuantumCircuit(1).h(0).s(0).sdg(0).h(0).measure_all()
        assert self.sample_keys(qc) == {0}

    def test_hsh_sign(self):
        # H Sdg H |0> and H S H |0> are both equal superpositions — but
        # following either with the inverse rotation must restore |0>
        # exactly, which only holds if the sdg phase rule is right.
        qc = (
            QuantumCircuit(1)
            .rx(HALF_PI, 0)
            .rx(-HALF_PI, 0)
            .measure_all()
        )
        assert self.sample_keys(qc) == {0}

    def test_cz_entangles_like_cx(self):
        direct = QuantumCircuit(2).h(0).cx(0, 1).measure_all()
        via_cz = QuantumCircuit(2).h(0).h(1).cz(0, 1).h(1).measure_all()
        assert self.sample_keys(direct) == self.sample_keys(via_cz)

    def test_measured_subset_keys(self):
        qc = QuantumCircuit(3).x(2).measure(0).measure(2)
        # qubit 2 is position 1 of the sorted subset [0, 2].
        assert self.sample_keys(qc) == {0b10}

    def test_support_of_ghz(self):
        tableau = StabilizerBackend().run(
            QuantumCircuit(3).h(0).cx(0, 1).cx(1, 2)
        )
        x0, basis = tableau.support()
        assert basis.shape == (1, 3)
        assert list(basis[0]) == [1, 1, 1]
        assert list(x0) in ([0, 0, 0], [1, 1, 1])

    def test_rotation_decompositions_roundtrip(self):
        # Every quarter-turn rotation composed with its inverse is the
        # identity on the tableau — exercises all _ROTATION_STEPS rows.
        for gate in ("rx", "ry", "rz"):
            for k in (1, 2, 3):
                qc = QuantumCircuit(1).h(0)
                qc.append(gate, [0], [k * HALF_PI])
                qc.append(gate, [0], [-k * HALF_PI])
                qc.h(0).measure_all()
                assert self.sample_keys(qc) == {0}, (gate, k)
        for k in (1, 2, 3):
            qc = QuantumCircuit(2).h(0).h(1)
            qc.append("rzz", [0, 1], [k * HALF_PI])
            qc.append("rzz", [0, 1], [-k * HALF_PI])
            qc.h(0).h(1).measure_all()
            assert self.sample_keys(qc) == {0}, ("rzz", k)


# ----------------------------------------------------------------------
# rejection of non-Clifford input
# ----------------------------------------------------------------------
class TestRejection:
    def test_t_gate(self, backend):
        with pytest.raises(NotCliffordError, match="Clifford subset"):
            backend.run(QuantumCircuit(1).t(0))

    def test_off_grid_rotation(self, backend):
        with pytest.raises(NotCliffordError, match="multiple of pi/2"):
            backend.run(QuantumCircuit(1).rz(0.3, 0))

    def test_unbound_circuit(self, backend):
        qc = QuantumCircuit(1).rx(Parameter("t"), 0)
        with pytest.raises(ValueError, match="unbound"):
            backend.run(qc)

    def test_not_clifford_is_a_value_error(self):
        # Callers that catch ValueError (the backend protocol's contract
        # for bad circuits) must also catch the Clifford rejection.
        assert issubclass(NotCliffordError, ValueError)

    def test_is_clifford_circuit(self):
        assert is_clifford_circuit(QuantumCircuit(2).h(0).cx(0, 1).measure_all())
        assert is_clifford_circuit(QuantumCircuit(2).rzz(math.pi, 0, 1))
        assert not is_clifford_circuit(QuantumCircuit(1).t(0))
        assert not is_clifford_circuit(QuantumCircuit(1).rz(0.3, 0))
        assert not is_clifford_circuit(
            QuantumCircuit(1).rx(Parameter("t"), 0)
        )

    def test_invalid_shots_and_width(self):
        with pytest.raises(ValueError, match="positive"):
            Tableau(0)
        with pytest.raises(ValueError, match="shots"):
            Tableau(1).sample_counts(0, np.random.default_rng(0))


# ----------------------------------------------------------------------
# bit-identical parity with the statevector backend
# ----------------------------------------------------------------------
_CLIFFORD_1Q = ("h", "s", "sdg", "x", "y", "z")


@st.composite
def clifford_circuits(draw):
    """A random bound Clifford circuit on 2-6 qubits."""
    n = draw(st.integers(2, 6))
    qc = QuantumCircuit(n)
    for _ in range(draw(st.integers(1, 25))):
        kind = draw(st.integers(0, 3))
        if kind == 0:
            qc.append(draw(st.sampled_from(_CLIFFORD_1Q)), [draw(st.integers(0, n - 1))])
        elif kind == 1:
            a = draw(st.integers(0, n - 1))
            b = draw(st.integers(0, n - 2))
            b = b if b < a else b + 1
            qc.append(draw(st.sampled_from(("cx", "cz"))), [a, b])
        elif kind == 2:
            gate = draw(st.sampled_from(("rx", "ry", "rz")))
            angle = draw(st.integers(-4, 4)) * HALF_PI
            qc.append(gate, [draw(st.integers(0, n - 1))], [angle])
        else:
            a = draw(st.integers(0, n - 1))
            b = draw(st.integers(0, n - 2))
            b = b if b < a else b + 1
            qc.append("rzz", [a, b], [draw(st.integers(-4, 4)) * HALF_PI])
    if draw(st.booleans()):
        qc.measure_all()
    else:
        for q in sorted(
            draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))
        ):
            qc.measure(q)
    return qc


class TestStatevectorParity:
    def counts(self, circuit, force_backend, seed, shots=64):
        sampler = Sampler(seed=seed, force_backend=force_backend)
        return sampler.run(circuit, shots).counts

    @given(circuit=clifford_circuits(), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_counts_bit_identical(self, circuit, seed):
        exact = self.counts(circuit, "statevector", seed)
        tableau = self.counts(circuit, "stabilizer", seed)
        assert tableau == exact

    @given(circuit=clifford_circuits(), seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_parity_survives_transpilation(self, circuit, seed):
        native = transpile(circuit)
        exact = self.counts(native, "statevector", seed)
        tableau = self.counts(native, "stabilizer", seed)
        assert tableau == exact

    def test_parity_on_bell_pair_across_seeds(self):
        qc = QuantumCircuit(2).h(0).cx(0, 1).measure_all()
        for seed in range(10):
            assert self.counts(qc, "stabilizer", seed) == self.counts(
                qc, "statevector", seed
            )


# ----------------------------------------------------------------------
# wide circuits: beyond any statevector
# ----------------------------------------------------------------------
class TestWidePath:
    def test_ghz_64_exact(self):
        qc = QuantumCircuit(64).h(0)
        for q in range(63):
            qc.cx(q, q + 1)
        qc.measure_all()
        counts = StabilizerBackend().sample(qc, 500, np.random.default_rng(1))
        assert sum(counts.values()) == 500
        assert set(counts) <= {0, (1 << 64) - 1}
        assert len(counts) == 2  # both branches show up in 500 shots

    def test_wide_deterministic_state(self):
        qc = QuantumCircuit(100)
        for q in range(0, 100, 2):
            qc.x(q)
        qc.measure_all()
        counts = StabilizerBackend().sample(qc, 50, np.random.default_rng(0))
        expected = sum(1 << q for q in range(0, 100, 2))
        assert counts == {expected: 50}

    def test_wide_seed_reproducibility(self):
        qc = QuantumCircuit(80)
        for q in range(80):
            qc.h(q)
        qc.measure_all()
        a = StabilizerBackend().sample(qc, 100, np.random.default_rng(3))
        b = StabilizerBackend().sample(qc, 100, np.random.default_rng(3))
        assert a == b
        assert sum(a.values()) == 100

    def test_sampler_accounting_through_stabilizer(self):
        sampler = Sampler(seed=0, force_backend="stabilizer")
        qc = QuantumCircuit(40).h(0).measure_all()
        result = sampler.run(qc, 30)
        assert result.backend_name == "stabilizer"
