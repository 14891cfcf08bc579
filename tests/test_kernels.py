"""Vectorized kernels + compiled-circuit replay cache (repro.quantum.kernels).

The load-bearing contracts, in order of strictness:

* replaying a compiled program is **bit-identical** to freshly
  compiling the same structure at the same vector;
* the vectorized ``expectation_from_counts`` is **bit-identical** to
  the scalar reference loop (integer eigenvalue accumulation);
* the kernel statevector agrees with two independent oracles defined
  here — a ``tensordot`` contraction and, up to 8 qubits, a dense
  ``2**n`` unitary — to 1e-12 elementwise (fusion reorders a handful
  of fp operations).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.quantum import (
    PauliString,
    PauliSum,
    QuantumCircuit,
    Sampler,
    Statevector,
    compile_circuit,
    gate_spec,
    parameter_vector,
)
from repro.quantum.kernels import (
    KERNEL_STATS,
    ReplayCache,
    _FixedNode,
    _FusedNode,
    apply_1q,
    apply_2q,
    scratch_size,
)
from repro.quantum.parameters import Parameter
from repro.quantum.product_state import ProductState

TOL = 1e-12

_1Q_FIXED = ("x", "y", "z", "h", "s", "sdg", "t")
_1Q_PARAM = ("rx", "ry", "rz")
_2Q = ("cx", "cz", "rzz")


def _gate_matrix(op) -> np.ndarray:
    return op.spec.matrix(*(float(p) for p in op.params))


def _contract(amps: np.ndarray, matrix: np.ndarray, qubits) -> np.ndarray:
    """Oracle: contract ``matrix`` over the axes of ``qubits``.

    The state is viewed as a tensor with axis 0 = qubit ``n-1`` ...
    axis ``n-1`` = qubit 0 (C-order reshape of the little-endian
    vector), so a gate on qubit ``q`` acts on axis ``n - 1 - q``.
    """
    n = amps.size.bit_length() - 1
    k = len(qubits)
    axes = [n - 1 - q for q in qubits]
    gate = matrix.reshape((2,) * (2 * k))
    # tensordot contracts the gate's *input* axes (last k) with the
    # state and puts its output axes first; move them home.
    moved = np.tensordot(gate, amps.reshape((2,) * n), axes=(list(range(k, 2 * k)), axes))
    return np.moveaxis(moved, list(range(k)), axes).reshape(-1)


def _embed(matrix: np.ndarray, qubits, n: int) -> np.ndarray:
    """Dense ``2**n`` unitary of one gate; ``qubits[0]`` is its high bit."""
    index = np.arange(1 << n)
    local = np.zeros_like(index)
    mask = 0
    for qubit in qubits:
        local = (local << 1) | ((index >> qubit) & 1)
        mask |= 1 << qubit
    rest = index & ~mask
    return matrix[local[:, None], local[None, :]] * (rest[:, None] == rest[None, :])


def _oracle_amplitudes(circuit: QuantumCircuit, dense: bool = False) -> np.ndarray:
    """|0...0> evolved by a bound circuit, without the kernels.

    ``dense=True`` (at most 8 qubits) multiplies the full unitary out
    instead of contracting gate by gate.
    """
    n = circuit.n_qubits
    ops = [op for op in circuit.operations if not op.is_measurement]
    if dense:
        assert n <= 8, "dense oracle is for small circuits"
        unitary = np.eye(1 << n, dtype=complex)
        for op in ops:
            unitary = _embed(_gate_matrix(op), op.qubits, n) @ unitary
        return unitary[:, 0]
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = 1.0
    for op in ops:
        amps = _contract(amps, _gate_matrix(op), op.qubits)
    return amps


# ----------------------------------------------------------------------
# property tests: kernel vs oracles, replay vs fresh compile
# ----------------------------------------------------------------------
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_kernel_matches_reference_on_random_circuits(data):
    n_qubits = data.draw(st.integers(1, 8), label="n_qubits")
    n_ops = data.draw(st.integers(1, 25), label="n_ops")
    circuit = QuantumCircuit(n_qubits)
    values = []
    parameters = []
    for i in range(n_ops):
        kind = data.draw(st.sampled_from(("fixed", "param", "two")), label=f"kind{i}")
        if kind == "two" and n_qubits >= 2:
            name = data.draw(st.sampled_from(_2Q), label=f"gate{i}")
            qubits = data.draw(
                st.permutations(range(n_qubits)).map(lambda p: p[:2]),
                label=f"qubits{i}",
            )
            if name == "rzz":
                theta = data.draw(
                    st.floats(-math.pi, math.pi, allow_nan=False), label=f"angle{i}"
                )
                circuit.append(name, tuple(qubits), (theta,))
            else:
                circuit.append(name, tuple(qubits))
        elif kind == "param":
            name = data.draw(st.sampled_from(_1Q_PARAM), label=f"gate{i}")
            qubit = data.draw(st.integers(0, n_qubits - 1), label=f"qubit{i}")
            theta = data.draw(
                st.floats(-math.pi, math.pi, allow_nan=False), label=f"angle{i}"
            )
            parameter = Parameter(f"t{i}")
            parameters.append(parameter)
            values.append(theta)
            circuit.append(name, (qubit,), (parameter,))
        else:
            name = data.draw(st.sampled_from(_1Q_FIXED), label=f"gate{i}")
            qubit = data.draw(st.integers(0, n_qubits - 1), label=f"qubit{i}")
            circuit.append(name, (qubit,))

    vector = np.array(values, dtype=np.float64)
    fast = compile_circuit(circuit, parameters).execute(vector)
    bound = circuit.bind(dict(zip(parameters, values))) if parameters else circuit
    for dense in (False, True):
        oracle = _oracle_amplitudes(bound, dense=dense)
        assert np.max(np.abs(fast.amplitudes - oracle)) <= TOL


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_replay_bit_identical_to_fresh_compilation(data):
    n_qubits = data.draw(st.integers(2, 6), label="n_qubits")
    circuit = QuantumCircuit(n_qubits)
    params = parameter_vector("t", n_qubits * 2)
    for i, parameter in enumerate(params):
        circuit.append(("ry", "rz", "rx")[i % 3], (i % n_qubits,), (parameter,))
    for qubit in range(n_qubits - 1):
        circuit.append("cz", (qubit, qubit + 1))

    program = compile_circuit(circuit, params)
    vectors = [
        np.array(
            data.draw(
                st.lists(
                    st.floats(-3.0, 3.0, allow_nan=False),
                    min_size=len(params),
                    max_size=len(params),
                ),
                label=f"vector{r}",
            )
        )
        for r in range(3)
    ]
    # Replay the one program repeatedly (including revisiting an earlier
    # vector) and compare every state bit for bit against a from-scratch
    # compilation at the same vector.
    for vector in vectors + [vectors[0]]:
        replayed = program.execute(vector)
        fresh = compile_circuit(circuit, params).execute(vector)
        assert np.array_equal(replayed.amplitudes, fresh.amplitudes)


def test_parameter_expression_binding_matches_bind():
    circuit = QuantumCircuit(2)
    theta = Parameter("theta")
    circuit.append("ry", (0,), (theta * 0.5,))
    circuit.append("rz", (1,), (theta * -2.0 + 0.25,))
    circuit.append("cz", (0, 1))
    vector = np.array([0.81])
    fast = compile_circuit(circuit, [theta]).execute(vector)
    oracle = _oracle_amplitudes(circuit.bind({theta: 0.81}))
    assert np.max(np.abs(fast.amplitudes - oracle)) <= TOL


def test_compile_rejects_unknown_parameter():
    circuit = QuantumCircuit(1)
    circuit.append("ry", (0,), (Parameter("inside"),))
    with pytest.raises(ValueError, match="not in the compilation parameter order"):
        compile_circuit(circuit, [Parameter("outside")])


def test_execute_requires_vector_for_parameterized_program():
    circuit = QuantumCircuit(1)
    theta = Parameter("theta")
    circuit.append("ry", (0,), (theta,))
    program = compile_circuit(circuit, [theta])
    with pytest.raises(ValueError, match="needs a vector"):
        program.execute()


# ----------------------------------------------------------------------
# fusion
# ----------------------------------------------------------------------
def test_fusion_collapses_single_qubit_runs():
    circuit = QuantumCircuit(2)
    theta = Parameter("theta")
    circuit.append("h", (0,))
    circuit.append("ry", (0,), (theta,))
    circuit.append("rz", (0,), (0.3,))
    circuit.append("cz", (0, 1))
    fused = compile_circuit(circuit, [theta])
    plain = compile_circuit(circuit, [theta], fuse=False)
    assert fused.n_nodes == 2  # one fused 1q run + the cz
    assert plain.n_nodes == 4
    vector = np.array([0.7])
    assert (
        np.max(
            np.abs(fused.execute(vector).amplitudes - plain.execute(vector).amplitudes)
        )
        <= TOL
    )


def test_all_fixed_run_precomposes_into_one_matrix():
    circuit = QuantumCircuit(1)
    circuit.append("h", (0,))
    circuit.append("s", (0,))
    circuit.append("h", (0,))
    program = compile_circuit(circuit)
    assert program.n_nodes == 1
    node = program.ops[0]
    assert isinstance(node, _FixedNode)
    h = gate_spec("h").matrix()
    s = gate_spec("s").matrix()
    assert np.allclose(node.matrix, h @ s @ h)  # application order h, s, h
    with pytest.raises(ValueError):
        node.matrix[0, 0] = 0.0  # precomposed matrices are frozen


def test_fusion_preserves_application_order():
    # h then x does not commute with x then h; the fused node must
    # apply them in circuit order.
    circuit = QuantumCircuit(1)
    circuit.append("h", (0,))
    circuit.append("x", (0,))
    state = compile_circuit(circuit).execute()
    oracle = _oracle_amplitudes(circuit)
    assert np.max(np.abs(state.amplitudes - oracle)) <= TOL


def test_two_qubit_gate_flushes_only_its_wires():
    circuit = QuantumCircuit(3)
    theta = parameter_vector("t", 3)
    for qubit in range(3):
        circuit.append("ry", (qubit,), (theta[qubit],))
    circuit.append("cz", (0, 1))
    for qubit in range(3):
        circuit.append("ry", (qubit,), (theta[qubit],))
    program = compile_circuit(circuit, theta)
    # wires 0 and 1 are flushed by the cz (2 runs of 1), wire 2's two
    # rotations stay mergeable across it: 2 + 1(cz) + 2 + 1(fused) = 6.
    assert program.n_nodes == 6
    vector = np.array([0.1, 0.2, 0.3])
    oracle = _oracle_amplitudes(circuit.bind(dict(zip(theta, vector))))
    assert np.max(np.abs(program.execute(vector).amplitudes - oracle)) <= TOL


def test_diagonal_run_of_param_gates_marked_diagonal():
    circuit = QuantumCircuit(1)
    params = parameter_vector("t", 2)
    circuit.append("rz", (0,), (params[0],))
    circuit.append("rz", (0,), (params[1],))
    program = compile_circuit(circuit, params)
    assert program.n_nodes == 1
    node = program.ops[0]
    assert isinstance(node, _FusedNode)
    assert node.diagonal is True


def test_measurements_recorded_not_flushed():
    circuit = QuantumCircuit(2)
    circuit.append("h", (0,))
    circuit.measure_all()
    program = compile_circuit(circuit)
    assert program.measured_qubits() == [0, 1]
    assert program.n_nodes == 1


# ----------------------------------------------------------------------
# raw kernels
# ----------------------------------------------------------------------
@given(
    qubit=st.integers(0, 5),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=30, deadline=None)
def test_apply_1q_matches_reference(qubit, seed):
    n = 6
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    amps /= np.linalg.norm(amps)
    matrix = gate_spec("ry").matrix(rng.uniform(-3, 3))
    oracle = _contract(amps, matrix, (qubit,))
    fast = amps.copy()
    apply_1q(fast, matrix, qubit, np.empty(scratch_size(n), dtype=complex))
    assert np.max(np.abs(fast - oracle)) <= TOL


@given(
    seed=st.integers(0, 2**16),
    name=st.sampled_from(_2Q),
)
@settings(max_examples=30, deadline=None)
def test_apply_2q_matches_reference(seed, name):
    n = 5
    rng = np.random.default_rng(seed)
    q0, q1 = rng.permutation(n)[:2]
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    amps /= np.linalg.norm(amps)
    spec = gate_spec(name)
    matrix = spec.matrix(*([rng.uniform(-3, 3)] * spec.n_params))
    oracle = _contract(amps, matrix, (int(q0), int(q1)))
    fast = amps.copy()
    apply_2q(fast, matrix, int(q0), int(q1), np.empty(scratch_size(n), dtype=complex))
    assert np.max(np.abs(fast - oracle)) <= TOL


# ----------------------------------------------------------------------
# replay cache
# ----------------------------------------------------------------------
def _rotation_circuit(n_qubits: int = 3):
    circuit = QuantumCircuit(n_qubits)
    params = parameter_vector("t", n_qubits)
    for qubit, parameter in enumerate(params):
        circuit.append("ry", (qubit,), (parameter,))
    return circuit, params


def test_replay_cache_hits_on_structural_identity():
    cache = ReplayCache()
    circuit_a, params_a = _rotation_circuit()
    circuit_b, params_b = _rotation_circuit()  # distinct Parameter objects
    first = cache.get_or_compile(circuit_a, params_a)
    second = cache.get_or_compile(circuit_b, params_b)
    assert first is second
    stats = cache.stats.as_dict()
    assert stats["replay_cache.hits"] == 1
    assert stats["replay_cache.misses"] == 1


def test_replay_cache_evicts_lru():
    cache = ReplayCache(max_entries=2)
    circuits = []
    for n_qubits in (2, 3, 4):
        circuit, params = _rotation_circuit(n_qubits)
        circuits.append((circuit, params))
        cache.get_or_compile(circuit, params)
    assert len(cache) == 2
    assert cache.stats.as_dict()["replay_cache.evictions"] == 1
    # The oldest (2-qubit) program was evicted: fetching it recompiles.
    misses_before = cache.stats.as_dict()["replay_cache.misses"]
    cache.get_or_compile(*circuits[0])
    assert cache.stats.as_dict()["replay_cache.misses"] == misses_before + 1


def test_replay_cache_rejects_nonpositive_bound():
    with pytest.raises(ValueError):
        ReplayCache(max_entries=0)


# ----------------------------------------------------------------------
# vectorized expectation_from_counts
# ----------------------------------------------------------------------
def _reference_group_expectation(group, counts):
    shots = sum(counts.values())
    total = 0.0
    for coeff, string in group.members:
        acc = 0
        for bitstring, count in counts.items():
            acc += string.eigenvalue(bitstring) * count
        total += coeff * (acc / shots)
    return total


@given(seed=st.integers(0, 2**16))
@settings(max_examples=30, deadline=None)
def test_expectation_from_counts_bit_identical_to_loop(seed):
    rng = np.random.default_rng(seed)
    observable = PauliSum(
        [
            (rng.uniform(-2, 2), PauliString({0: "Z"})),
            (rng.uniform(-2, 2), PauliString({0: "Z", 2: "Z"})),
            (rng.uniform(-2, 2), PauliString({1: "Z", 3: "Z"})),
        ]
    )
    (group,) = observable.grouped_qubitwise()
    counts = {
        int(key): int(count)
        for key, count in zip(
            rng.choice(16, size=8, replace=False), rng.integers(1, 50, size=8)
        )
    }
    assert group.expectation_from_counts(counts) == _reference_group_expectation(
        group, counts
    )


def test_expectation_from_counts_wide_register_fallback():
    observable = PauliSum([(0.5, PauliString({70: "Z"}))])
    (group,) = observable.grouped_qubitwise()
    counts = {1 << 70: 3, 0: 5}  # keys exceed int64: Python-int path
    value = group.expectation_from_counts(counts)
    assert value == 0.5 * ((-3 + 5) / 8)


def test_eigenvalues_for_matches_scalar_eigenvalue():
    string = PauliString({0: "Z", 2: "Z"})
    bitstrings = np.arange(16, dtype=np.int64)
    vectorized = string.eigenvalues_for(bitstrings)
    scalar = [string.eigenvalue(int(b)) for b in bitstrings]
    assert vectorized.tolist() == scalar


# ----------------------------------------------------------------------
# end-to-end parity: sampler + engine
# ----------------------------------------------------------------------
def test_run_program_matches_circuit_path_draw_for_draw():
    circuit, params = _rotation_circuit(4)
    circuit.measure_all()
    vector = np.array([0.3, -1.1, 0.8, 0.2])
    program = compile_circuit(circuit, params)

    sampler_a = Sampler(seed=11)
    (result,) = sampler_a.run_program_batch(program, vector[None, :], 400)
    counts_a = result.counts
    sampler_b = Sampler(seed=11)
    bound = circuit.bind(dict(zip(params, vector)))
    counts_b = sampler_b.run(bound, 400).counts
    assert counts_a == counts_b


def test_evaluate_vectors_matches_evaluate_many():
    from repro import EvaluationEngine, QtenonSystem
    from repro.vqa.ansatz import hardware_efficient_ansatz
    from repro.vqa.hamiltonians import molecular_hamiltonian

    ansatz, parameters = hardware_efficient_ansatz(3, n_layers=1)
    observable = molecular_hamiltonian(3, seed=0)
    rng = np.random.default_rng(0)
    vectors = [rng.uniform(-0.5, 0.5, len(parameters)) for _ in range(4)]

    platform = QtenonSystem(3, seed=5)
    engine = EvaluationEngine(platform, seed=5)
    engine.prepare(ansatz, observable)
    via_vectors = engine.evaluate_vectors(parameters, vectors, 200)
    engine.close()

    platform = QtenonSystem(3, seed=5)
    engine = EvaluationEngine(platform, seed=5)
    engine.prepare(ansatz, observable)
    via_dicts = engine.evaluate_many(
        [dict(zip(parameters, map(float, vector))) for vector in vectors], 200
    )
    engine.close()
    assert via_vectors == via_dicts


def test_evaluate_vectors_permutes_caller_order():
    from repro import EvaluationEngine, QtenonSystem
    from repro.vqa.ansatz import hardware_efficient_ansatz
    from repro.vqa.hamiltonians import molecular_hamiltonian

    ansatz, parameters = hardware_efficient_ansatz(3, n_layers=1)
    observable = molecular_hamiltonian(3, seed=0)
    rng = np.random.default_rng(1)
    vector = rng.uniform(-0.5, 0.5, len(parameters))

    platform = QtenonSystem(3, seed=5)
    engine = EvaluationEngine(platform, seed=5)
    engine.prepare(ansatz, observable)
    forward = engine.evaluate_vectors(parameters, [vector], 150)
    shuffled = engine.evaluate_vectors(
        list(reversed(parameters)), [vector[::-1]], 150
    )
    assert forward == shuffled
    with pytest.raises(KeyError, match="no value bound"):
        engine.evaluate_vectors(parameters[:-1], [vector[:-1]], 150)
    engine.close()


def test_kernel_stats_counters_advance():
    before = KERNEL_STATS.as_dict()
    circuit, params = _rotation_circuit(3)
    compile_circuit(circuit, params).execute(np.array([0.1, 0.2, 0.3]))
    after = KERNEL_STATS.as_dict()
    assert after["kernels.programs_compiled"] == before["kernels.programs_compiled"] + 1
    assert after["kernels.replays"] == before["kernels.replays"] + 1
    assert after["kernels.gates_applied"] > before["kernels.gates_applied"]


# ----------------------------------------------------------------------
# satellites: memoized fixed matrices, probability cache, product-state
# validation
# ----------------------------------------------------------------------
def test_fixed_gate_matrices_memoized_and_frozen():
    first = gate_spec("h").matrix()
    second = gate_spec("h").matrix()
    assert first is second
    with pytest.raises(ValueError):
        first[0, 0] = 2.0


def test_probabilities_cached_until_invalidated():
    state = Statevector.zero_state(2)
    probs = state.probabilities()
    assert state.probabilities() is probs
    with pytest.raises(ValueError):
        probs[0] = 0.5  # cached array is read-only

    from repro.quantum.circuit import Operation

    state.apply(Operation(gate_spec("h"), (0,), ()))
    fresh = state.probabilities()
    assert fresh is not probs
    assert np.allclose(fresh, [0.5, 0.5, 0.0, 0.0])

    state.amplitudes = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)
    assert state.probabilities() is not fresh


def test_product_state_rejects_bad_matrices():
    state = ProductState.zero_state(2)
    with pytest.raises(ValueError, match="2x2"):
        state.apply_single(np.eye(3, dtype=complex), 0)
    with pytest.raises(ValueError, match="non-finite"):
        state.apply_single(np.array([[np.nan, 0], [0, 1]], dtype=complex), 0)
    # a valid gate still applies
    state.apply_single(gate_spec("x").matrix(), 0)
    assert state.probability_one(0) == 1.0
