"""Exact statevector backend.

Dense ``2^n`` simulation used for functional validation at small qubit
counts (the paper obtained its quantum I/O from Qiskit's simulator; we
implement the equivalent ourselves since no quantum SDK is available
offline).  Gates are applied by the in-place bit-sliced kernels of
:mod:`repro.quantum.kernels` (single-qubit fusion included when a whole
circuit runs); the test suite property-tests them against an
independent ``tensordot`` contraction oracle.

Bit convention: qubit 0 is the least significant bit of a basis index,
so basis state ``|q_{n-1} ... q_1 q_0>`` has index ``sum q_i << i``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence

import numpy as np

from repro.quantum.circuit import QuantumCircuit
from repro.quantum.draw import counts_from_keys, draw_keys, probability_cdf

#: Refuse to allocate statevectors beyond this width (2^26 complex128
#: is already 1 GiB); larger circuits go to the product-state backend.
MAX_EXACT_QUBITS = 26


class StatevectorBackend:
    """Exact simulator: apply a bound circuit, inspect, and sample."""

    name = "statevector"
    exact = True

    def __init__(self, max_qubits: int = MAX_EXACT_QUBITS) -> None:
        self.max_qubits = max_qubits

    # ------------------------------------------------------------------
    def run(self, circuit: QuantumCircuit) -> "Statevector":
        """Execute all unitary operations of a *bound* circuit."""
        if not circuit.is_bound:
            raise ValueError(
                f"circuit {circuit.name!r} has unbound parameters; bind() first"
            )
        if circuit.n_qubits > self.max_qubits:
            raise ValueError(
                f"{circuit.n_qubits} qubits exceeds exact-backend limit "
                f"{self.max_qubits}; use ProductStateBackend"
            )
        # Bound circuits compile to all-fixed programs: one pass of
        # in-place bit-sliced applies with adjacent 1q gates fused.
        from repro.quantum.kernels import compile_circuit

        return compile_circuit(circuit).execute()

    def sample(
        self,
        circuit: QuantumCircuit,
        shots: int,
        rng: np.random.Generator,
    ) -> Dict[int, int]:
        """Counts of measured bitstrings (as little-endian integers)."""
        state = self.run(circuit)
        measured = circuit.measured_qubits() or list(range(circuit.n_qubits))
        return state.sample_counts(shots, rng, qubits=measured)


class Statevector:
    """A dense quantum state with in-place gate application.

    ``probabilities()`` is cached behind a dirty flag: gate application
    and amplitude reassignment invalidate it, so repeated sampling or
    marginal queries on an unchanged state stop recomputing
    ``|amplitudes|^2``.  The cached array is read-only; copy it before
    mutating.
    """

    def __init__(self, amplitudes: np.ndarray, n_qubits: int) -> None:
        expected = 1 << n_qubits
        if amplitudes.shape != (expected,):
            raise ValueError(
                f"amplitude vector has shape {amplitudes.shape}, expected ({expected},)"
            )
        self.n_qubits = n_qubits
        self._amplitudes = amplitudes.astype(complex, copy=False)
        self._probs_cache: Optional[np.ndarray] = None

    @property
    def amplitudes(self) -> np.ndarray:
        return self._amplitudes

    @amplitudes.setter
    def amplitudes(self, value: np.ndarray) -> None:
        self._amplitudes = value.astype(complex, copy=False)
        self._probs_cache = None

    @classmethod
    def zero_state(cls, n_qubits: int) -> "Statevector":
        amplitudes = np.zeros(1 << n_qubits, dtype=complex)
        amplitudes[0] = 1.0
        return cls(amplitudes, n_qubits)

    # ------------------------------------------------------------------
    # inspection & sampling
    # ------------------------------------------------------------------
    def probabilities(self) -> np.ndarray:
        """``|amplitudes|^2`` (cached, read-only; copy before mutating)."""
        if self._probs_cache is None:
            probs = np.abs(self._amplitudes) ** 2
            probs.setflags(write=False)
            self._probs_cache = probs
        return self._probs_cache

    def norm(self) -> float:
        return float(np.sqrt(np.sum(self.probabilities())))

    def marginal_probability_one(self, qubit: int) -> float:
        """P(qubit == 1)."""
        probs = self.probabilities()
        indices = np.arange(probs.size)
        mask = (indices >> qubit) & 1
        return float(probs[mask == 1].sum())

    def expectation_z(self, qubit: int) -> float:
        """⟨Z⟩ on one qubit."""
        return 1.0 - 2.0 * self.marginal_probability_one(qubit)

    def sample_counts(
        self,
        shots: int,
        rng: np.random.Generator,
        qubits: Optional[Iterable[int]] = None,
    ) -> Dict[int, int]:
        """Sample ``shots`` outcomes; keys are little-endian integers over
        the (sorted) ``qubits`` subset, bit *i* of the key = i-th qubit in
        the sorted subset.  Draws exactly as ``rng.choice(p=probs)``
        would (see :mod:`repro.quantum.draw`)."""
        subset = sorted(set(qubits)) if qubits is not None else None
        keys = draw_keys(
            probability_cdf(self.probabilities()),
            shots,
            rng,
            self.n_qubits,
            subset,
        )
        width = len(subset) if subset is not None else self.n_qubits
        return counts_from_keys(keys, width)

    def inner(self, other: "Statevector") -> complex:
        return complex(np.vdot(self._amplitudes, other._amplitudes))

    def copy(self) -> "Statevector":
        return Statevector(self._amplitudes.copy(), self.n_qubits)


def adopt_batch_probabilities(
    states: Sequence[Statevector], amplitudes: np.ndarray
) -> None:
    """Prime ``states[k]``'s probability cache from batched amplitudes.

    ``|amplitudes|^2`` over the whole ``(K, 2**n)`` array is one numpy
    pass instead of K row-sized ones; elementwise it is exactly what
    each row's own :meth:`Statevector.probabilities` would compute, so
    downstream sampling draws identically.  Rows are handed out as
    read-only views, matching the cache contract.
    """
    probs = np.abs(amplitudes) ** 2
    probs.setflags(write=False)
    for k, state in enumerate(states):
        row = probs[k]
        row.setflags(write=False)
        state._probs_cache = row
