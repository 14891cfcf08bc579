"""Tests for ansätze, Hamiltonians, optimizers, and workload builders."""


from collections import Counter

import networkx as nx
import numpy as np
import pytest

from repro.vqa import (
    GradientDescent,
    Spsa,
    h2_workload,
    hardware_efficient_ansatz,
    make_optimizer,
    maxcut_hamiltonian,
    molecular_hamiltonian,
    qaoa_ansatz,
    qaoa_workload,
    qnn_ansatz,
    qnn_workload,
    random_regular_graph,
    vqe_workload,
)


class TestQaoaAnsatz:
    def test_parameter_count_two_per_layer(self):
        graph = random_regular_graph(8, seed=0)
        _, params = qaoa_ansatz(graph, n_layers=5)
        assert len(params) == 10

    def test_structure(self):
        graph = random_regular_graph(6, seed=0)
        circuit, _ = qaoa_ansatz(graph, n_layers=2)
        counts = Counter(op.name for op in circuit.operations)
        assert counts["h"] == 6
        assert counts["rzz"] == 2 * graph.number_of_edges()
        assert counts["rx"] == 12

    def test_rejects_zero_layers(self):
        with pytest.raises(ValueError):
            qaoa_ansatz(random_regular_graph(6, seed=0), 0)


class TestHeaAnsatz:
    def test_parameter_count(self):
        _, params = hardware_efficient_ansatz(6, n_layers=2, rotations=("ry", "rz"))
        # 2 layers x 2 rotations x 6 qubits + final 6.
        assert len(params) == 30

    def test_entangler_ladder_covers_neighbours(self):
        circuit, _ = hardware_efficient_ansatz(5, n_layers=1)
        cz_pairs = {op.qubits for op in circuit if op.name == "cz"}
        assert cz_pairs == {(0, 1), (2, 3), (1, 2), (3, 4)}

    def test_bad_rotation_rejected(self):
        with pytest.raises(ValueError):
            hardware_efficient_ansatz(4, rotations=("rq",))


class TestQnnAnsatz:
    def test_parameter_count_matches_paper(self):
        # "alternating Ry and CZ gates in 2 layers": n params per layer.
        _, params = qnn_ansatz(8, n_layers=2)
        assert len(params) == 16

    def test_feature_layer_prepended(self):
        circuit, _ = qnn_ansatz(4, n_layers=1)
        assert circuit.operations[0].name == "ry"
        assert not circuit.operations[0].is_symbolic

    def test_feature_length_checked(self):
        with pytest.raises(ValueError):
            qnn_ansatz(4, features=[0.1])


class TestMaxcutHamiltonian:
    def test_ground_state_energy_is_minus_maxcut(self):
        # Square graph: max cut = 4.
        graph = nx.cycle_graph(4)
        ham = maxcut_hamiltonian(graph)
        energies = []
        for bits in range(16):
            e = ham.constant
            for coeff, string in ham.terms:
                e += coeff * string.eigenvalue(bits)
            energies.append(e)
        assert min(energies) == pytest.approx(-4.0)

    def test_diagonal(self):
        assert maxcut_hamiltonian(nx.path_graph(3)).is_diagonal

    def test_weighted_edges(self):
        graph = nx.Graph()
        graph.add_edge(0, 1, weight=2.0)
        ham = maxcut_hamiltonian(graph)
        assert ham.terms[0][0] == pytest.approx(1.0)
        assert ham.constant == pytest.approx(-1.0)

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            maxcut_hamiltonian(nx.Graph())


class TestMolecularHamiltonian:
    def test_multiple_measurement_groups(self):
        ham = molecular_hamiltonian(8, seed=0)
        assert len(ham.grouped_qubitwise()) >= 2

    def test_deterministic_by_seed(self):
        a = molecular_hamiltonian(6, seed=3)
        b = molecular_hamiltonian(6, seed=3)
        assert len(a) == len(b)
        assert a.constant == b.constant

    def test_width(self):
        hamiltonian = molecular_hamiltonian(10)
        assert max(max(s.support) for _, s in hamiltonian.terms) == 9

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            molecular_hamiltonian(1)


class TestH2:
    def test_exact_ground_energy(self):
        """Dense-diagonalise the H2 Hamiltonian: ground ~ -1.85 Ha."""
        import numpy as np

        ham = h2_workload().observable
        dim = 4
        matrix = np.zeros((dim, dim), dtype=complex)
        paulis = {
            "I": np.eye(2, dtype=complex),
            "X": np.array([[0, 1], [1, 0]], dtype=complex),
            "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
            "Z": np.diag([1, -1]).astype(complex),
        }
        for coeff, string in ham.terms:
            label = string.label(2)
            op = np.kron(paulis[label[0]], paulis[label[1]])
            matrix += coeff * op
        matrix += ham.constant * np.eye(dim)
        ground = float(np.linalg.eigvalsh(matrix)[0])
        assert ground == pytest.approx(-1.851, abs=0.02)


class TestOptimizers:
    @staticmethod
    def quadratic(vector):
        return float(np.sum((vector - 1.0) ** 2))

    def test_gd_converges_on_quadratic(self):
        # parameter-shift on a quadratic is exact only for sinusoids;
        # use a sinusoidal landscape instead.
        def cost(vector):
            return float(np.sum(np.sin(vector)))

        optimizer = GradientDescent(learning_rate=0.3)
        params = np.zeros(3)
        for _ in range(30):
            result = optimizer.run_iteration(params, cost)
            params = result.params
        assert cost(params) < -2.8  # min is -3 at -pi/2

    def test_gd_evaluation_count(self):
        optimizer = GradientDescent()
        calls = []

        def cost(vector):
            calls.append(1)
            return 0.0

        optimizer.run_iteration(np.zeros(4), cost)
        assert len(calls) == 2 * 4 + 1

    def test_spsa_constant_evaluations(self):
        optimizer = Spsa(seed=0)
        calls = []

        def cost(vector):
            calls.append(1)
            return float(np.sum(vector**2))

        optimizer.run_iteration(np.ones(50), cost)
        assert len(calls) == 3

    def test_spsa_decreases_quadratic(self):
        optimizer = Spsa(a=0.3, c=0.1, seed=1)
        params = np.full(6, 2.0)

        def cost(vector):
            return float(np.sum(vector**2))

        initial = cost(params)
        for _ in range(60):
            result = optimizer.run_iteration(params, cost)
            params = result.params
        assert cost(params) < initial / 4

    def test_spsa_reset_reproducible(self):
        def cost(vector):
            return float(np.sum(vector**2))

        optimizer = Spsa(seed=7)
        first = optimizer.run_iteration(np.ones(3), cost).params
        optimizer.reset()
        second = optimizer.run_iteration(np.ones(3), cost).params
        assert np.allclose(first, second)

    def test_factory(self):
        assert make_optimizer("gd").method == "gd"
        assert make_optimizer("spsa").method == "spsa"
        with pytest.raises(ValueError):
            make_optimizer("adam")


class TestWorkloadBuilders:
    def test_qaoa_workload(self):
        wl = qaoa_workload(8, n_layers=3)
        assert wl.n_qubits == 8
        assert wl.n_parameters == 6
        assert wl.measurement_groups == 1  # diagonal MAX-CUT

    def test_vqe_workload(self):
        wl = vqe_workload(8)
        assert wl.measurement_groups >= 2
        assert wl.n_parameters == 5 * 8

    def test_qnn_workload(self):
        wl = qnn_workload(8, n_layers=2)
        assert wl.n_parameters == 16
        assert wl.observable.is_diagonal

    def test_graph_size_checked(self):
        with pytest.raises(ValueError):
            qaoa_workload(8, graph=nx.path_graph(4))


class TestRunnerRngHygiene:
    """HybridRunner runs are self-contained: no RNG leaks between runs."""

    def _runner(self, optimizer):
        from repro import HybridRunner

        class EchoPlatform:
            """Deterministic stand-in: energy is a pure function of params."""

            def prepare(self, ansatz, observable):
                pass

            def evaluate(self, values, shots):
                return float(sum(v * v for v in values.values()))

            def charge_optimizer_step(self, n_params, method):
                pass

            def finish(self):
                from repro.analysis import ExecutionReport
                return ExecutionReport(platform="echo")

        wl = qaoa_workload(4, n_layers=2)
        return HybridRunner(
            EchoPlatform(), wl.ansatz, wl.parameters, wl.observable,
            optimizer, shots=50, iterations=3,
        )

    def test_reused_optimizer_gives_identical_runs(self):
        # One Spsa instance shared by two runs (restart pattern): the
        # second run must replay the same stochastic schedule, not
        # continue the first run's stream.
        optimizer = Spsa(seed=9)
        first = self._runner(optimizer).run(seed=4)
        second = self._runner(optimizer).run(seed=4)
        assert first.cost_history == second.cost_history
        assert np.array_equal(first.final_params, second.final_params)

    def test_run_does_not_touch_global_numpy_rng(self):
        state_before = np.random.get_state()[1].copy()
        self._runner(Spsa(seed=9)).run(seed=4)
        self._runner(make_optimizer("gd")).run(seed=4)
        state_after = np.random.get_state()[1]
        assert np.array_equal(state_before, state_after)
