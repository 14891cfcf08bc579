"""Tests for Pauli strings, sums, grouping, and expectation estimation."""


import numpy as np
import pytest

from repro.quantum import (
    PauliString,
    PauliSum,
    QuantumCircuit,
    StatevectorBackend,
)
from repro.runtime.engine import build_spec, evaluate_spec_batch


class TestPauliString:
    def test_from_label(self):
        # Dense labels put the highest qubit leftmost.
        string = PauliString({2: "Z", 0: "X"})
        assert string.label(3) == "ZIX"
        assert string.pauli_on(0) == "X"
        assert string.pauli_on(1) == "I"
        assert string.pauli_on(2) == "Z"

    def test_label_round_trip(self):
        string = PauliString({0: "X", 2: "Y"})
        label = string.label(4)
        assert label == "IYIX"
        parsed = {q: p for q, p in enumerate(reversed(label)) if p != "I"}
        assert PauliString(parsed) == string

    def test_invalid_pauli_rejected(self):
        with pytest.raises(ValueError):
            PauliString({0: "Q"})

    def test_weight_and_support(self):
        string = PauliString({3: "Z", 1: "X"})
        assert string.weight == 2
        assert string.support == (1, 3)

    def test_is_diagonal(self):
        assert PauliString({0: "Z", 5: "Z"}).is_diagonal
        assert not PauliString({0: "X"}).is_diagonal

    def test_eigenvalue_parity(self):
        zz = PauliString({0: "Z", 1: "Z"})
        assert zz.eigenvalue(0b00) == 1
        assert zz.eigenvalue(0b01) == -1
        assert zz.eigenvalue(0b10) == -1
        assert zz.eigenvalue(0b11) == 1

    def test_qubitwise_commutation(self):
        a = PauliString({0: "Z", 1: "X"})
        b = PauliString({1: "X", 2: "Z"})
        c = PauliString({1: "Z"})
        # The grouping criterion: identical operators on shared qubits.
        assert len(PauliSum([(1.0, a), (1.0, b)]).grouped_qubitwise()) == 1
        assert len(PauliSum([(1.0, a), (1.0, c)]).grouped_qubitwise()) == 2


class TestPauliSum:
    def test_duplicate_terms_merge(self):
        z0 = PauliString({0: "Z"})
        total = PauliSum([(1.0, z0), (0.5, z0)])
        assert len(total) == 1
        assert total.terms[0][0] == pytest.approx(1.5)

    def test_identity_terms_fold_into_constant(self):
        total = PauliSum([(2.0, PauliString({}))], constant=1.0)
        assert len(total) == 0
        assert total.constant == pytest.approx(3.0)

    def test_zero_coefficients_dropped(self):
        z0 = PauliString({0: "Z"})
        total = PauliSum([(1.0, z0), (-1.0, z0)])
        assert len(total) == 0

    def test_addition_and_scaling(self):
        z0 = PauliString({0: "Z"})
        x1 = PauliString({1: "X"})
        total = PauliSum([(1.0, z0)]) + PauliSum([(2.0, x1), (1.0, z0)], constant=1.0)
        assert total.constant == pytest.approx(1.0)
        assert dict((s, c) for c, s in total.terms) == {z0: 2.0, x1: 2.0}

    def test_n_qubits_required(self):
        total = PauliSum([(1.0, PauliString({5: "Z"}))])
        string = total.terms[0][1]
        assert string.label(6) == "ZIIIII"
        with pytest.raises(ValueError, match="outside"):
            string.label(5)


class TestGrouping:
    def test_diagonal_sum_single_group(self):
        terms = [(1.0, PauliString({i: "Z", i + 1: "Z"})) for i in range(5)]
        groups = PauliSum(terms).grouped_qubitwise()
        assert len(groups) == 1

    def test_conflicting_bases_split(self):
        total = PauliSum([
            (1.0, PauliString({0: "Z"})),
            (1.0, PauliString({0: "X"})),
        ])
        assert len(total.grouped_qubitwise()) == 2

    def test_groups_cover_all_terms(self):
        from repro.vqa.hamiltonians import molecular_hamiltonian

        ham = molecular_hamiltonian(6, seed=1)
        groups = ham.grouped_qubitwise()
        covered = sum(len(g.members) for g in groups)
        assert covered == len(ham.terms)

    def test_group_basis_consistent(self):
        from repro.vqa.hamiltonians import molecular_hamiltonian

        for group in molecular_hamiltonian(6, seed=2).grouped_qubitwise():
            for _, string in group.members:
                for qubit, pauli in string.terms:
                    assert group.basis[qubit] == pauli


class TestExactExpectation:
    def test_z_on_zero_state(self):
        state = StatevectorBackend().run(QuantumCircuit(1))
        assert PauliSum([(1.0, PauliString({0: "Z"}))]).expectation_statevector(state) == pytest.approx(1.0)

    def test_x_on_plus_state(self):
        state = StatevectorBackend().run(QuantumCircuit(1).h(0))
        assert PauliSum([(1.0, PauliString({0: "X"}))]).expectation_statevector(state) == pytest.approx(1.0)

    def test_y_on_y_eigenstate(self):
        # S . H |0> = |+i>, the +1 eigenstate of Y.
        state = StatevectorBackend().run(QuantumCircuit(1).h(0).s(0))
        assert PauliSum([(1.0, PauliString({0: "Y"}))]).expectation_statevector(state) == pytest.approx(1.0)

    def test_zz_on_bell_state(self):
        state = StatevectorBackend().run(QuantumCircuit(2).h(0).cx(0, 1))
        ham = PauliSum([
            (1.0, PauliString({0: "Z", 1: "Z"})),
            (1.0, PauliString({0: "X", 1: "X"})),
        ])
        assert ham.expectation_statevector(state) == pytest.approx(2.0)

    def test_constant_included(self):
        state = StatevectorBackend().run(QuantumCircuit(1))
        assert PauliSum([], constant=-3.5).expectation_statevector(state) == pytest.approx(-3.5)


class TestSampledExpectation:
    def test_sampled_matches_exact_mixed_bases(self):
        ham = PauliSum([
            (0.8, PauliString({0: "Z", 1: "Z"})),
            (0.4, PauliString({0: "X"})),
            (-0.3, PauliString({1: "Y"})),
        ], constant=0.2)
        qc = QuantumCircuit(2).ry(0.9, 0).rx(0.4, 1).cz(0, 1)
        exact = ham.expectation_statevector(StatevectorBackend().run(qc))
        spec = build_spec(qc, ham)
        sampled = evaluate_spec_batch(spec, [np.zeros(0)], 40000, [11])[0]
        assert sampled == pytest.approx(exact, abs=0.03)
        assert len(spec.groups) == len(ham.grouped_qubitwise())

    def test_empty_counts_rejected(self):
        group = PauliSum([(1.0, PauliString({0: "Z"}))]).grouped_qubitwise()[0]
        with pytest.raises(ValueError):
            group.expectation_from_counts({})
