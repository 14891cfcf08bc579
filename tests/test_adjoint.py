"""Adjoint-mode analytic gradients (repro.quantum.adjoint).

The load-bearing contracts, in order of strictness:

* batched adjoint sweeps are **bit-identical** to the serial sweep,
  row for row (energies and every gradient entry);
* the adjoint gradient agrees with the analytic parameter-shift rule
  to <= 1e-10 on circuits where every parameter feeds one gate with
  unit coefficient (where the pi/2 shift is exact per slot);
* on arbitrary circuits — affine parameter expressions, one parameter
  feeding several gates, fused single-qubit runs, ``rzz`` — the
  gradient agrees with a central finite difference of the exact
  energy;
* the engine path (serial and shared-memory pool) returns exactly the
  module-level values, and ``shots=0`` evaluation is the exact
  statevector expectation end to end.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import EvaluationEngine, HybridRunner, QtenonSystem
from repro.compiler.transpile import transpile
from repro.faults import FaultInjector, FaultPlan, WorkerFaults
from repro.quantum import (
    PauliString,
    PauliSum,
    QuantumCircuit,
    StatevectorBackend,
    compile_circuit,
)
from repro.quantum.adjoint import (
    adjoint_gradient,
    adjoint_gradient_batch,
    supports_program,
)
from repro.quantum.gates import GATE_LIBRARY, GateSpec, ONE_QUBIT_NS
from repro.quantum.parameters import Parameter
from repro.runtime.engine import build_spec, evaluate_spec_batch
from repro.vqa.ansatz import hardware_efficient_ansatz
from repro.vqa.hamiltonians import molecular_hamiltonian
from repro.vqa.optimizers import GradientDescent, make_optimizer

SHIFT_TOL = 1e-10
FD_STEP = 1e-5
FD_TOL = 1e-6

_1Q_FIXED = ("x", "y", "z", "h", "s", "sdg", "t", "tdg")
_1Q_PARAM = ("rx", "ry", "rz")


def _random_observable(n_qubits: int, rng: np.random.Generator) -> PauliSum:
    terms = []
    for _ in range(4):
        string = {
            int(q): rng.choice(["X", "Y", "Z"])
            for q in rng.choice(n_qubits, size=min(2, n_qubits), replace=False)
        }
        terms.append((float(rng.uniform(-1, 1)), PauliString(string)))
    return PauliSum(terms, constant=float(rng.uniform(-1, 1)))


def _dagger(matrix: np.ndarray) -> np.ndarray:
    """The conjugate transpose the reverse sweep undoes a node with."""
    return np.swapaxes(matrix.conj(), -1, -2)


def _exact_energy(program, observable, vector) -> float:
    state = program.execute(np.asarray(vector, dtype=np.float64))
    return float(observable.expectation_statevector(state))


# ----------------------------------------------------------------------
# gate inverses the reverse sweep relies on
# ----------------------------------------------------------------------
class TestDagger:
    """The reverse sweep undoes every node with the conjugate transpose
    of its matrix, which is the gate's inverse only because every
    library matrix is unitary; each inverse is itself a library gate."""

    @pytest.mark.parametrize(
        "name",
        [n for n, s in sorted(GATE_LIBRARY.items()) if n != "measure"],
    )
    def test_dagger_matrix_is_conjugate_transpose(self, name):
        spec = GATE_LIBRARY[name]
        matrix = spec.matrix(*(0.731,) * spec.n_params)
        assert np.allclose(
            _dagger(matrix) @ matrix, np.eye(len(matrix)), atol=1e-15
        )

    def test_rotation_dagger_negates_angle(self):
        for name in ("rx", "ry", "rz", "rzz"):
            spec = GATE_LIBRARY[name]
            assert np.allclose(
                spec.matrix(-0.5), _dagger(spec.matrix(0.5)), atol=1e-15
            )

    def test_phase_gates_swap_partners(self):
        for gate, partner in (("s", "sdg"), ("sdg", "s"), ("t", "tdg"), ("tdg", "t")):
            assert np.allclose(
                _dagger(GATE_LIBRARY[gate].matrix()),
                GATE_LIBRARY[partner].matrix(),
                atol=1e-15,
            )

    def test_measure_is_its_own_pseudo_inverse(self):
        identity = GATE_LIBRARY["measure"].matrix()
        assert np.array_equal(identity, np.eye(2))
        assert np.array_equal(_dagger(identity), identity)

    def test_wrong_arity_raises(self):
        with pytest.raises(ValueError, match="takes 1 parameter"):
            GATE_LIBRARY["rx"].matrix()
        with pytest.raises(ValueError, match="takes 0 parameter"):
            GATE_LIBRARY["h"].matrix(0.3)

    def test_unregistered_gate_has_no_rule(self, monkeypatch):
        rogue = GateSpec(
            "u_rogue", 1, 1,
            lambda theta: np.eye(2, dtype=complex) * np.exp(1j * theta),
            0x7F, ONE_QUBIT_NS,
        )
        monkeypatch.setitem(GATE_LIBRARY, "u_rogue", rogue)
        theta = Parameter("theta")
        program = compile_circuit(QuantumCircuit(1).append("u_rogue", [0], [theta]))
        assert not supports_program(program)
        observable = PauliSum([(1.0, PauliString({0: "Z"}))])
        with pytest.raises(ValueError, match="does not support"):
            adjoint_gradient(program, observable, np.array([0.1]))


# ----------------------------------------------------------------------
# adjoint vs analytic parameter shift (one-use, unit-coefficient)
# ----------------------------------------------------------------------
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_adjoint_matches_parameter_shift(data):
    n_qubits = data.draw(st.integers(2, 8), label="n_qubits")
    n_ops = data.draw(st.integers(1, 20), label="n_ops")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31), label="seed"))
    circuit = QuantumCircuit(n_qubits)
    parameters = []
    for i in range(n_ops):
        kind = data.draw(
            st.sampled_from(("fixed", "param", "two")), label=f"kind{i}"
        )
        if kind == "two":
            name = data.draw(st.sampled_from(("cx", "cz", "rzz")), label=f"g{i}")
            qubits = data.draw(
                st.permutations(range(n_qubits)).map(lambda p: tuple(p[:2])),
                label=f"q{i}",
            )
            if name == "rzz":
                parameter = Parameter(f"t{i}")
                parameters.append(parameter)
                circuit.append(name, qubits, (parameter,))
            else:
                circuit.append(name, qubits)
        elif kind == "param":
            name = data.draw(st.sampled_from(_1Q_PARAM), label=f"g{i}")
            qubit = data.draw(st.integers(0, n_qubits - 1), label=f"q{i}")
            parameter = Parameter(f"t{i}")
            parameters.append(parameter)
            circuit.append(name, (qubit,), (parameter,))
        else:
            name = data.draw(st.sampled_from(_1Q_FIXED), label=f"g{i}")
            qubit = data.draw(st.integers(0, n_qubits - 1), label=f"q{i}")
            circuit.append(name, (qubit,))

    program = compile_circuit(circuit, parameters)
    assert supports_program(program)
    observable = _random_observable(n_qubits, rng)
    vector = rng.uniform(-math.pi, math.pi, size=len(parameters))

    energy, grad = adjoint_gradient(program, observable, vector)
    assert abs(energy - _exact_energy(program, observable, vector)) <= SHIFT_TOL

    # Each parameter feeds exactly one rotation with coefficient 1, so
    # the pi/2 parameter-shift rule is exact slot by slot.
    for slot in range(len(parameters)):
        plus = np.array(vector)
        minus = np.array(vector)
        plus[slot] += math.pi / 2
        minus[slot] -= math.pi / 2
        shift = 0.5 * (
            _exact_energy(program, observable, plus)
            - _exact_energy(program, observable, minus)
        )
        assert abs(grad[slot] - shift) <= SHIFT_TOL


# ----------------------------------------------------------------------
# adjoint vs central finite differences (expressions, reuse, fusion)
# ----------------------------------------------------------------------
@given(seed=st.integers(0, 2**31))
@settings(max_examples=25, deadline=None)
def test_adjoint_matches_finite_differences_with_expressions(seed):
    rng = np.random.default_rng(seed)
    n_qubits = int(rng.integers(2, 6))
    circuit = QuantumCircuit(n_qubits)
    parameters = [Parameter(f"p{i}") for i in range(3)]
    # Every parameter feeds several gates through affine expressions —
    # QAOA-style reuse where naive parameter shift is NOT exact — with
    # adjacent single-qubit runs the compiler fuses.
    for layer in range(2):
        for q in range(n_qubits):
            p = parameters[(layer + q) % 3]
            circuit.append("ry", (q,), (p * float(rng.uniform(0.5, 2.5)),))
            circuit.append("h", (q,))
            circuit.append(
                "rz", (q,), (p * -1.3 + float(rng.uniform(-0.5, 0.5)),)
            )
        for q in range(n_qubits - 1):
            circuit.append(
                "rzz", (q, q + 1), (parameters[layer % 3] * 2.0,)
            )

    program = compile_circuit(circuit, parameters)
    observable = _random_observable(n_qubits, rng)
    vector = rng.uniform(-1.0, 1.0, size=len(parameters))

    energy, grad = adjoint_gradient(program, observable, vector)
    assert abs(energy - _exact_energy(program, observable, vector)) <= 1e-12

    for slot in range(len(parameters)):
        plus = np.array(vector)
        minus = np.array(vector)
        plus[slot] += FD_STEP
        minus[slot] -= FD_STEP
        fd = (
            _exact_energy(program, observable, plus)
            - _exact_energy(program, observable, minus)
        ) / (2 * FD_STEP)
        assert abs(grad[slot] - fd) <= FD_TOL


def test_adjoint_validates_inputs():
    ansatz, parameters = hardware_efficient_ansatz(3, n_layers=1)
    program = compile_circuit(transpile(ansatz), parameters)
    observable = molecular_hamiltonian(3, seed=0)
    with pytest.raises(ValueError, match="needs a vector"):
        adjoint_gradient(program, observable)
    with pytest.raises(ValueError, match="needs"):
        adjoint_gradient(program, observable, np.zeros(2))
    with pytest.raises(ValueError, match="batch"):
        adjoint_gradient_batch(program, observable, np.zeros(len(parameters)))


# ----------------------------------------------------------------------
# batch vs serial bit-parity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n_qubits", [2, 3, 5, 8])
def test_batch_bit_identical_to_serial(n_qubits):
    ansatz, parameters = hardware_efficient_ansatz(n_qubits, n_layers=2)
    program = compile_circuit(transpile(ansatz), parameters)
    observable = molecular_hamiltonian(n_qubits, seed=1)
    rng = np.random.default_rng(n_qubits)
    batch = rng.uniform(-math.pi, math.pi, size=(7, len(parameters)))

    energies, grads = adjoint_gradient_batch(program, observable, batch)
    for row in range(batch.shape[0]):
        energy, grad = adjoint_gradient(program, observable, batch[row])
        assert energies[row] == energy
        assert np.array_equal(grads[row], grad)


def test_batch_empty_and_wide_vectors():
    ansatz, parameters = hardware_efficient_ansatz(3, n_layers=1)
    program = compile_circuit(transpile(ansatz), parameters)
    observable = molecular_hamiltonian(3, seed=0)
    energies, grads = adjoint_gradient_batch(
        program, observable, np.zeros((0, len(parameters)))
    )
    assert energies.shape == (0,) and grads.shape == (0, len(parameters))


# ----------------------------------------------------------------------
# engine path: serial, pool, and GD integration
# ----------------------------------------------------------------------
QUBITS = 4
SEED = 11


def _workload(qubits=QUBITS):
    ansatz, parameters = hardware_efficient_ansatz(qubits, n_layers=1)
    return ansatz, parameters, molecular_hamiltonian(qubits, seed=SEED)


class TestEngineGradients:
    def test_engine_matches_module_adjoint(self):
        ansatz, parameters, observable = _workload()
        program = compile_circuit(transpile(ansatz), parameters)
        engine = EvaluationEngine(QtenonSystem(QUBITS, seed=SEED), seed=SEED)
        try:
            engine.prepare(ansatz, observable)
            rng = np.random.default_rng(SEED)
            vectors = [
                rng.uniform(-1, 1, len(parameters)) for _ in range(3)
            ]
            result = engine.evaluate_gradients(parameters, vectors, shots=0)
            assert result is not None
            energies, grads = result
            for vec, energy, grad in zip(vectors, energies, grads):
                ref_e, ref_g = adjoint_gradient(program, observable, vec)
                assert energy == ref_e
                assert np.array_equal(grad, ref_g)
        finally:
            engine.close()

    def test_pool_path_bit_identical_to_serial(self):
        ansatz, parameters, observable = _workload()
        rng = np.random.default_rng(3)
        vectors = [rng.uniform(-1, 1, len(parameters)) for _ in range(5)]
        serial = EvaluationEngine(QtenonSystem(QUBITS, seed=SEED), seed=SEED)
        pooled = EvaluationEngine(
            QtenonSystem(QUBITS, seed=SEED), max_workers=2, seed=SEED
        )
        try:
            serial.prepare(ansatz, observable)
            pooled.prepare(ansatz, observable)
            s_energies, s_grads = serial.evaluate_gradients(
                parameters, vectors, shots=0
            )
            p_energies, p_grads = pooled.evaluate_gradients(
                parameters, vectors, shots=0
            )
            assert s_energies == p_energies
            for s_row, p_row in zip(s_grads, p_grads):
                assert np.array_equal(s_row, p_row)
            assert pooled.stats.as_dict()["runtime.parallel_gradients"] > 0
        finally:
            serial.close()
            pooled.close()

    @pytest.mark.parametrize("crash", ["injected", "killed_worker"])
    def test_crashed_pool_gradient_batch_retries_on_a_fresh_pool(self, crash):
        """A gradient batch whose first pool dispatch dies retries once
        on a respawned pool, as an evaluation batch does, instead of
        falling straight back to the serial path."""
        ansatz, parameters, observable = _workload()
        rng = np.random.default_rng(7)
        vectors = [rng.uniform(-1, 1, len(parameters)) for _ in range(4)]
        injector = None
        if crash == "injected":
            injector = FaultInjector(FaultPlan(worker=WorkerFaults(crash_burst=1)))
        serial = EvaluationEngine(QtenonSystem(QUBITS, seed=SEED), seed=SEED)
        pooled = EvaluationEngine(
            QtenonSystem(QUBITS, seed=SEED), max_workers=2, seed=SEED,
            fault_injector=injector,
        )
        try:
            serial.prepare(ansatz, observable)
            pooled.prepare(ansatz, observable)
            if crash == "killed_worker":
                worker = pooled._ensure_pool()._state["procs"][0]
                worker.kill()
                worker.join(timeout=5.0)
            s_energies, s_grads = serial.evaluate_gradients(
                parameters, vectors, shots=0
            )
            p_energies, p_grads = pooled.evaluate_gradients(
                parameters, vectors, shots=0
            )
            assert pooled.stats.counter("pool_restarts").value == 1
            assert pooled.stats.counter("parallel_gradients").value == len(vectors)
            assert pooled.stats.counter("serial_gradients").value == 0
            assert s_energies == p_energies
            for s_row, p_row in zip(s_grads, p_grads):
                assert s_row.tobytes() == p_row.tobytes()
        finally:
            serial.close()
            pooled.close()

    def test_sampled_shots_refuse_adjoint(self):
        ansatz, parameters, observable = _workload()
        engine = EvaluationEngine(QtenonSystem(QUBITS, seed=SEED), seed=SEED)
        try:
            engine.prepare(ansatz, observable)
            vec = [np.zeros(len(parameters))]
            assert engine.evaluate_gradients(parameters, vec, shots=100) is None
        finally:
            engine.close()

    def test_adjoint_gd_trajectories_are_reproducible(self):
        def run():
            ansatz, parameters, observable = _workload()
            engine = EvaluationEngine(QtenonSystem(QUBITS, seed=SEED), seed=SEED)
            try:
                runner = HybridRunner(
                    engine,
                    ansatz,
                    parameters,
                    observable,
                    GradientDescent(gradient="adjoint"),
                    shots=0,
                    iterations=4,
                )
                result = runner.run(seed=SEED)
            finally:
                engine.close()
            return result

        first, second = run(), run()
        assert first.cost_history == second.cost_history
        assert first.report.total_shots == 0
        # One forward pass per step — not 2P+1 evaluations.
        assert first.report.evaluations == 4


# ----------------------------------------------------------------------
# optimizer plumbing
# ----------------------------------------------------------------------
class TestOptimizerPlumbing:
    def test_make_optimizer_rejects_adjoint_spsa(self):
        with pytest.raises(ValueError, match="gd"):
            make_optimizer("spsa", gradient="adjoint")

    def test_gradient_descent_validates_method(self):
        with pytest.raises(ValueError):
            GradientDescent(gradient="magic")

    def test_adjoint_without_support_falls_back_to_shift(self):
        from repro.quantum.adjoint import ADJOINT_STATS

        before = ADJOINT_STATS.as_dict()["adjoint.shift_fallbacks"]
        optimizer = GradientDescent(learning_rate=0.1, gradient="adjoint")
        params = np.zeros(2)
        calls = []

        def evaluate(vector):
            calls.append(np.array(vector))
            return float(np.sum(np.asarray(vector) ** 2))

        outcome = optimizer.run_iteration(params, evaluate)
        after = ADJOINT_STATS.as_dict()["adjoint.shift_fallbacks"]
        assert after == before + 1
        assert len(calls) == 2 * len(params) + 1
        assert outcome.params.shape == params.shape


# ----------------------------------------------------------------------
# shots=0 exact expectation end to end
# ----------------------------------------------------------------------
class TestAnalyticExpectation:
    def test_spec_shots_zero_is_exact(self):
        ansatz, parameters, observable = _workload()
        vector = np.linspace(-1, 1, len(parameters))
        spec = build_spec(ansatz, observable, parameters=parameters)
        value = evaluate_spec_batch(spec, [vector], 0, [SEED])[0]
        state = StatevectorBackend().run(ansatz.bind(dict(zip(parameters, vector))))
        assert value == pytest.approx(
            observable.expectation_statevector(state), abs=1e-12
        )
        with pytest.raises(ValueError):
            evaluate_spec_batch(spec, [vector], -1, [SEED])

    def test_platform_shots_zero_matches_statevector(self):
        ansatz, parameters, observable = _workload()
        platform = QtenonSystem(QUBITS, seed=SEED)
        platform.prepare(ansatz, observable)
        values = dict(zip(parameters, np.linspace(-0.5, 0.5, len(parameters))))
        energy = platform.evaluate(values, 0)
        state = StatevectorBackend().run(ansatz.bind(values))
        assert energy == pytest.approx(
            observable.expectation_statevector(state), abs=1e-12
        )
        assert platform.report.total_shots == 0
        with pytest.raises(ValueError, match="non-negative"):
            platform.evaluate(values, -5)

    def test_engine_shots_zero_matches_platform(self):
        ansatz, parameters, observable = _workload()
        values = dict(zip(parameters, np.linspace(-0.5, 0.5, len(parameters))))
        platform = QtenonSystem(QUBITS, seed=SEED)
        platform.prepare(ansatz, observable)
        expected = platform.evaluate(values, 0)
        engine = EvaluationEngine(QtenonSystem(QUBITS, seed=SEED), seed=SEED)
        try:
            engine.prepare(ansatz, observable)
            assert engine.evaluate(values, 0) == pytest.approx(
                expected, abs=1e-12
            )
        finally:
            engine.close()

    def test_jobspec_accepts_zero_rejects_negative_shots(self):
        from repro.service.jobs import JobSpec

        spec = JobSpec(workload="vqe", n_qubits=3, shots=0)
        assert spec.shots == 0
        with pytest.raises(ValueError, match="non-negative"):
            JobSpec(workload="vqe", n_qubits=3, shots=-1)
