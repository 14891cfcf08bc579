"""Mean-field product-state backend for wide circuits.

The paper evaluates 8–64 qubits (and scales to 320); dense statevector
simulation is impossible beyond ~30 qubits on any machine, and the
authors themselves only need *shot samples with realistic statistics*,
not exact amplitudes (quantum I/O came from a simulator, and none of
the reported numbers depend on quantum fidelity).

This backend keeps each qubit as an independent 2-amplitude state
(an unentangled product state) so memory and time are O(n):

* single-qubit gates are applied **exactly**;
* two-qubit entangling gates are approximated in the *mean-field*
  spirit: the gate's action on each operand is replaced by the
  single-qubit rotation conditioned on the partner's ⟨Z⟩ expectation.
  For ``CZ(a, b)`` qubit *a* receives ``RZ(pi * P1(b))`` (a phase on
  its |1> component) and vice versa; ``CX`` rotates the target by
  ``RX(pi * P1(control))``; ``RZZ(theta)`` applies the partner-weighted
  Z phase.

The approximation is exact whenever the circuit leaves the state
unentangled and degrades gracefully otherwise — sampled bitstrings are
drawn from per-qubit Bernoulli marginals.  All sampling, batching and
timing code paths are identical to the exact backend's, which is the
property the architecture evaluation needs (documented as a
substitution in DESIGN.md).
"""

from __future__ import annotations

import math
from typing import Dict

import numpy as np

from repro.quantum.circuit import Operation, QuantumCircuit


class ProductState:
    """``n`` independent single-qubit states, shape (n, 2) complex."""

    def __init__(self, amplitudes: np.ndarray) -> None:
        if amplitudes.ndim != 2 or amplitudes.shape[1] != 2:
            raise ValueError(f"expected (n, 2) amplitudes, got {amplitudes.shape}")
        self.amplitudes = amplitudes.astype(complex, copy=False)

    @classmethod
    def zero_state(cls, n_qubits: int) -> "ProductState":
        amplitudes = np.zeros((n_qubits, 2), dtype=complex)
        amplitudes[:, 0] = 1.0
        return cls(amplitudes)

    @property
    def n_qubits(self) -> int:
        return self.amplitudes.shape[0]

    def probability_one(self, qubit: int) -> float:
        return float(abs(self.amplitudes[qubit, 1]) ** 2)

    def expectation_z(self, qubit: int) -> float:
        return 1.0 - 2.0 * self.probability_one(qubit)

    def apply_single(self, matrix: np.ndarray, qubit: int) -> None:
        matrix = np.asarray(matrix)
        if matrix.shape != (2, 2):
            raise ValueError(
                f"apply_single needs a 2x2 matrix, got shape {matrix.shape}"
            )
        if not np.isfinite(matrix).all():
            raise ValueError(
                "apply_single got a non-finite matrix (NaN/inf); refusing to "
                "propagate it into the sampled state"
            )
        self.amplitudes[qubit] = matrix @ self.amplitudes[qubit]
        # Renormalise to bury fp drift over deep circuits.
        norm = np.linalg.norm(self.amplitudes[qubit])
        if norm == 0.0:  # pragma: no cover - unitaries preserve norm
            raise ArithmeticError("state collapsed to zero")
        self.amplitudes[qubit] /= norm

    def copy(self) -> "ProductState":
        return ProductState(self.amplitudes.copy())


def _rz_matrix(theta: float) -> np.ndarray:
    half = theta / 2.0
    return np.array([[np.exp(-1j * half), 0.0], [0.0, np.exp(1j * half)]], dtype=complex)


def _rx_matrix(theta: float) -> np.ndarray:
    half = theta / 2.0
    return np.array(
        [[math.cos(half), -1j * math.sin(half)], [-1j * math.sin(half), math.cos(half)]],
        dtype=complex,
    )


class ProductStateBackend:
    """O(n) approximate simulator with the mean-field two-qubit rule."""

    name = "product-state"
    exact = False

    def run(self, circuit: QuantumCircuit) -> ProductState:
        if not circuit.is_bound:
            raise ValueError(
                f"circuit {circuit.name!r} has unbound parameters; bind() first"
            )
        state = ProductState.zero_state(circuit.n_qubits)
        for op in circuit.operations:
            if op.is_measurement:
                continue
            self._apply(state, op)
        return state

    def _apply(self, state: ProductState, op: Operation) -> None:
        params = tuple(float(p) for p in op.params)
        if op.spec.n_qubits == 1:
            state.apply_single(op.spec.matrix(*params), op.qubits[0])
            return
        self._apply_two_qubit(state, op, params)

    def _apply_two_qubit(self, state: ProductState, op: Operation, params: tuple) -> None:
        a, b = op.qubits
        if op.name == "cz":
            # |1>_b weight turns into a phase on |1>_a, and symmetrically.
            pa, pb = state.probability_one(a), state.probability_one(b)
            state.apply_single(_phase_on_one(math.pi * pb), a)
            state.apply_single(_phase_on_one(math.pi * pa), b)
        elif op.name == "cx":
            p_control = state.probability_one(a)
            state.apply_single(_rx_matrix(math.pi * p_control), b)
        elif op.name == "rzz":
            (theta,) = params
            za, zb = state.expectation_z(a), state.expectation_z(b)
            state.apply_single(_rz_matrix(theta * zb), a)
            state.apply_single(_rz_matrix(theta * za), b)
        else:  # pragma: no cover - library has no other 2q gates
            raise NotImplementedError(f"mean-field rule for {op.name}")

    # ------------------------------------------------------------------
    def sample(
        self,
        circuit: QuantumCircuit,
        shots: int,
        rng: np.random.Generator,
    ) -> Dict[int, int]:
        """Counts over measured qubits from per-qubit Bernoulli draws."""
        if shots <= 0:
            raise ValueError(f"shots must be positive, got {shots}")
        state = self.run(circuit)
        measured = circuit.measured_qubits() or list(range(circuit.n_qubits))
        subset = sorted(set(measured))
        p_one = np.array([state.probability_one(q) for q in subset])
        draws = rng.random((shots, len(subset))) < p_one
        counts: Dict[int, int] = {}
        if len(subset) <= 62:
            weights = 1 << np.arange(len(subset), dtype=np.int64)
            keys = (draws.astype(np.int64) * weights).sum(axis=1)
            for key in keys:
                key = int(key)
                counts[key] = counts.get(key, 0) + 1
            return counts
        # Registers wider than an int64: fold bits with Python ints.
        for row in draws:
            key = 0
            for position, bit in enumerate(row):
                if bit:
                    key |= 1 << position
            counts[key] = counts.get(key, 0) + 1
        return counts


def _phase_on_one(phi: float) -> np.ndarray:
    """diag(1, e^{i phi}) — phase applied to the |1> component."""
    return np.array([[1.0, 0.0], [0.0, np.exp(1j * phi)]], dtype=complex)
