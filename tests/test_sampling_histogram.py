"""The histogram path of sampled expectations.

``draw_keys`` must draw exactly the multiset ``Generator.choice(p=...)``
draws and leave the generator where ``choice`` leaves it; the parity-table
expectation must equal the counts-dictionary one bit for bit; and the
per-group tables must stay out of pickled specs.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.quantum import pauli
from repro.quantum.draw import (
    counts_from_keys,
    draw_keys,
    probability_cdf,
)
from repro.quantum.pauli import PauliString, PauliSum
from repro.quantum.statevector import Statevector
from repro.runtime.engine import build_spec, evaluate_spec_batch
from repro.vqa.ansatz import hardware_efficient_ansatz
from repro.vqa.hamiltonians import molecular_hamiltonian

SHOTS = (1, 7, 200, 1000, 5000)


def _choice_keys(probs, shots, rng, n_qubits, qubits):
    """``rng.choice`` plus a per-shot, per-qubit packing loop: the
    oracle the helper must reproduce draw for draw."""
    p = probs / probs.sum()
    outcomes = rng.choice(p.size, size=shots, p=p)
    subset = sorted(set(qubits)) if qubits is not None else list(range(n_qubits))
    keys = []
    for outcome in outcomes.tolist():
        key = 0
        for position, qubit in enumerate(subset):
            key |= ((outcome >> qubit) & 1) << position
        keys.append(key)
    return np.array(keys, dtype=np.int64), len(subset)


def _random_probs(rng, n_qubits):
    amps = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    if rng.random() < 0.3:
        # Sparse supports exercise empty bins and repeated CDF plateaus.
        amps[rng.random(amps.size) < 0.7] = 0.0
        amps[0] = 1.0
    return np.abs(amps) ** 2


def _qubit_lists(n_qubits):
    """Full and partial measured-qubit lists, ordered or not, with or
    without repeats."""
    everything = list(range(n_qubits))
    return st.one_of(
        st.none(),
        st.just(everything),
        st.permutations(everything),
        st.lists(st.integers(0, n_qubits - 1), min_size=1, max_size=n_qubits + 2),
    )


@st.composite
def _draws(draw):
    n_qubits = draw(st.integers(1, 14), label="n_qubits")
    qubits = draw(_qubit_lists(n_qubits), label="qubits")
    shots = draw(st.sampled_from(SHOTS), label="shots")
    seed = draw(st.integers(0, 2**32 - 1), label="seed")
    return n_qubits, qubits, shots, seed


@given(case=_draws())
@settings(max_examples=60, deadline=None)
def test_draw_keys_match_rng_choice(case):
    n_qubits, qubits, shots, seed = case
    probs = _random_probs(np.random.default_rng(seed ^ 0x5EED), n_qubits)
    reference_rng = np.random.default_rng(seed)
    helper_rng = np.random.default_rng(seed)
    expected, width = _choice_keys(probs, shots, reference_rng, n_qubits, qubits)
    keys = draw_keys(probability_cdf(probs), shots, helper_rng, n_qubits, qubits)
    # Same draws as a multiset (the helper bisects sorted uniforms) ...
    assert np.array_equal(np.sort(keys), np.sort(expected))
    # ... and the generator ends where rng.choice leaves it, so later
    # groups of the same row draw the same.
    assert helper_rng.random() == reference_rng.random()
    hist = np.bincount(keys, minlength=1 << width)
    assert hist.size == 1 << width and hist.sum() == shots
    unique, multiplicity = np.unique(expected, return_counts=True)
    assert counts_from_keys(keys, width) == dict(
        zip(unique.tolist(), multiplicity.tolist())
    )


@given(case=_draws(), n_strings=st.integers(1, 12))
@settings(max_examples=60, deadline=None)
def test_histogram_expectation_equals_counts_expectation(case, n_strings):
    n_qubits, qubits, shots, seed = case
    rng = np.random.default_rng(seed ^ 0xC0DE)
    terms = []
    for _ in range(n_strings):
        support = rng.choice(n_qubits, size=int(rng.integers(1, n_qubits + 1)), replace=False)
        terms.append(
            (float(rng.normal()), PauliString({int(q): "ZXY"[int(q) % 3] for q in support}))
        )
    probs = _random_probs(rng, n_qubits)
    keys = draw_keys(probability_cdf(probs), shots, np.random.default_rng(seed), n_qubits, qubits)
    width = len(set(qubits)) if qubits is not None else n_qubits
    counts = counts_from_keys(keys, width)
    for group in PauliSum(terms).grouped_qubitwise():
        assert group.expectation_from_keys(keys, width) == group.expectation_from_counts(counts)


def test_over_budget_group_takes_the_counts_path(monkeypatch):
    group = molecular_hamiltonian(6, seed=0).grouped_qubitwise()[0]
    probs = _random_probs(np.random.default_rng(3), 6)
    keys = draw_keys(probability_cdf(probs), 500, np.random.default_rng(4), 6)
    via_table = group.expectation_from_keys(keys, 6)
    monkeypatch.setattr(pauli, "PARITY_TABLE_MAX_ENTRIES", 0)
    fresh = molecular_hamiltonian(6, seed=0).grouped_qubitwise()[0]
    assert fresh.expectation_from_keys(keys, 6) == via_table
    assert "_parity_tables" not in fresh.__dict__


def test_parity_table_marks_odd_members():
    group = PauliSum([(1.0, PauliString({0: "Z"})), (0.5, PauliString({0: "Z", 2: "Z"}))])
    (only,) = group.grouped_qubitwise()
    table = only.parity_table(3)
    keys = np.arange(8)
    assert table.dtype == np.float64 and table.shape == (2, 8)
    odd = {1: keys & 1, 5: (keys & 1) ^ ((keys >> 2) & 1)}
    for row, (_, string) in zip(table, only.members):
        assert np.array_equal(row, odd[string.mask])
    assert only.parity_table(3) is table  # built once per width


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_amplitudes_raise(bad):
    amplitudes = np.full(4, 0.5, dtype=complex)
    amplitudes[2] = bad
    state = Statevector(amplitudes, 2)
    with pytest.raises(ValueError):
        state.sample_counts(10, np.random.default_rng(0))
    with pytest.raises(ValueError):
        probability_cdf(state.probabilities())


def test_negative_and_unnormalisable_probabilities_raise():
    with pytest.raises(ValueError):
        probability_cdf(np.array([0.5, -0.25, 0.75]))
    with pytest.raises(ValueError):
        probability_cdf(np.zeros(4))


def test_nan_parameter_raises_on_the_histogram_path():
    ansatz, parameters = hardware_efficient_ansatz(3, n_layers=1)
    spec = build_spec(ansatz, molecular_hamiltonian(3, seed=0), parameters=parameters)
    assert spec.programs is not None
    vector = np.full(len(parameters), np.nan)
    with pytest.raises(ValueError):
        evaluate_spec_batch(spec, [vector], 50, [1])


def test_pickled_spec_does_not_grow_after_evaluation():
    ansatz, parameters = hardware_efficient_ansatz(6, n_layers=1)
    spec = build_spec(ansatz, molecular_hamiltonian(6, seed=0), parameters=parameters)
    before = pickle.dumps(spec, protocol=pickle.HIGHEST_PROTOCOL)
    vector = np.linspace(-1.0, 1.0, len(parameters))
    first = evaluate_spec_batch(spec, [vector], 200, [7])
    assert any("_parity_tables" in group.__dict__ for group in spec.groups)
    after = pickle.dumps(spec, protocol=pickle.HIGHEST_PROTOCOL)
    assert len(after) == len(before)
    clone = pickle.loads(after)
    assert all("_parity_tables" not in group.__dict__ for group in clone.groups)
    assert evaluate_spec_batch(clone, [vector], 200, [7]) == first


def test_histogram_rows_match_the_sampler_draws():
    """An engine row on the histogram path equals the same groups
    sampled through ``Statevector.sample_counts`` and
    ``expectation_from_counts`` with the row's generator."""
    ansatz, parameters = hardware_efficient_ansatz(5, n_layers=2)
    observable = molecular_hamiltonian(5, seed=1)
    spec = build_spec(ansatz, observable, parameters=parameters)
    vector = np.random.default_rng(2).uniform(-np.pi, np.pi, len(parameters))
    (value,) = evaluate_spec_batch(spec, [vector], 300, [11])
    rng = np.random.default_rng(11)
    expected = float(spec.constant)
    for group, program in zip(spec.groups, spec.programs):
        state = program.execute(vector)
        counts = state.sample_counts(300, rng, qubits=program.measured_qubits())
        expected += group.expectation_from_counts(counts)
    assert value == expected
