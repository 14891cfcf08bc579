"""Pauli-string algebra and observable estimation.

VQAs minimise ``<psi(theta)| H |psi(theta)>`` for a Hamiltonian given
as a weighted sum of Pauli strings.  This module supplies:

* :class:`PauliString` — a sparse map qubit → {X, Y, Z};
* :class:`PauliSum` — weighted sum of strings plus an identity offset;
* qubit-wise-commuting **grouping** so all strings that share a
  measurement basis are estimated from one circuit execution (this is
  what real VQA stacks do, and what makes the shot counts the paper
  assumes — 500 shots per circuit — meaningful);
* basis-change circuit generation and eigenvalue evaluation of sampled
  bitstrings, plus exact statevector expectations for validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro.quantum.circuit import QuantumCircuit
from repro.quantum.statevector import Statevector

_VALID = frozenset("XYZ")


@dataclass(frozen=True)
class PauliString:
    """A tensor product of single-qubit Paulis on a sparse support.

    ``PauliString({0: "Z", 3: "Z"})`` is Z0⊗Z3 (identity elsewhere).
    """

    terms: Tuple[Tuple[int, str], ...]

    def __init__(self, mapping: Mapping[int, str]) -> None:
        items = []
        mask = 0
        for qubit, pauli in sorted(mapping.items()):
            if pauli not in _VALID:
                raise ValueError(f"invalid Pauli {pauli!r} on qubit {qubit}")
            if qubit < 0:
                raise ValueError(f"negative qubit index {qubit}")
            items.append((int(qubit), pauli))
            mask |= 1 << int(qubit)
        object.__setattr__(self, "terms", tuple(items))
        object.__setattr__(self, "mask", mask)

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        """Build from a dense label, leftmost char = highest qubit
        (e.g. ``"ZIX"`` on 3 qubits is Z2, X0)."""
        mapping: Dict[int, str] = {}
        n = len(label)
        for position, char in enumerate(label.upper()):
            qubit = n - 1 - position
            if char == "I":
                continue
            mapping[qubit] = char
        return cls(mapping)

    @property
    def support(self) -> Tuple[int, ...]:
        return tuple(q for q, _ in self.terms)

    @property
    def weight(self) -> int:
        return len(self.terms)

    @property
    def is_identity(self) -> bool:
        return not self.terms

    @property
    def is_diagonal(self) -> bool:
        """True when the string only contains Z (measured natively)."""
        return all(p == "Z" for _, p in self.terms)

    def pauli_on(self, qubit: int) -> str:
        for q, p in self.terms:
            if q == qubit:
                return p
        return "I"

    def commutes_qubitwise(self, other: "PauliString") -> bool:
        """Qubit-wise commutation: on every shared qubit the operators
        are identical (the grouping criterion for shared measurement)."""
        mine = dict(self.terms)
        for qubit, pauli in other.terms:
            if qubit in mine and mine[qubit] != pauli:
                return False
        return True

    def eigenvalue(self, bitstring: int) -> int:
        """±1 eigenvalue of a measured bitstring **in this string's
        basis** (little-endian integer)."""
        return -1 if (bitstring & self.mask).bit_count() & 1 else 1

    def eigenvalues_for(self, bitstrings: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`eigenvalue` over an int64 bitstring array:
        one parity-mask popcount instead of a Python loop per shot."""
        parity = np.bitwise_count(bitstrings & np.int64(self.mask)) & 1
        return 1 - 2 * parity.astype(np.int64)

    def label(self, n_qubits: int) -> str:
        chars = ["I"] * n_qubits
        for qubit, pauli in self.terms:
            if qubit >= n_qubits:
                raise ValueError(f"qubit {qubit} outside {n_qubits}-qubit register")
            chars[n_qubits - 1 - qubit] = pauli
        return "".join(chars)

    def __str__(self) -> str:
        if not self.terms:
            return "I"
        return "*".join(f"{p}{q}" for q, p in self.terms)


class PauliSum:
    """``constant + sum_k coeff_k * PauliString_k`` with unique strings."""

    def __init__(
        self,
        terms: Iterable[Tuple[float, PauliString]] = (),
        constant: float = 0.0,
    ) -> None:
        merged: Dict[PauliString, float] = {}
        const = float(constant)
        for coeff, string in terms:
            if string.is_identity:
                const += float(coeff)
                continue
            merged[string] = merged.get(string, 0.0) + float(coeff)
        self.terms: List[Tuple[float, PauliString]] = [
            (coeff, string) for string, coeff in merged.items() if coeff != 0.0
        ]
        self.constant = const

    def __len__(self) -> int:
        return len(self.terms)

    def __add__(self, other: "PauliSum") -> "PauliSum":
        return PauliSum(self.terms + other.terms, self.constant + other.constant)

    def scaled(self, factor: float) -> "PauliSum":
        return PauliSum(
            [(coeff * factor, string) for coeff, string in self.terms],
            self.constant * factor,
        )

    @property
    def n_qubits_required(self) -> int:
        highest = -1
        for _, string in self.terms:
            if string.terms:
                highest = max(highest, string.terms[-1][0])
        return highest + 1

    @property
    def is_diagonal(self) -> bool:
        return all(string.is_diagonal for _, string in self.terms)

    # ------------------------------------------------------------------
    # measurement grouping
    # ------------------------------------------------------------------
    def grouped_qubitwise(self) -> List["MeasurementGroup"]:
        """Greedy qubit-wise-commuting grouping.

        Each group shares a single measurement basis, hence one circuit
        execution estimates every string in the group.  Diagonal
        Hamiltonians (QAOA MAX-CUT) collapse to a single group.
        """
        groups: List[MeasurementGroup] = []
        for coeff, string in sorted(
            self.terms, key=lambda item: -item[1].weight
        ):
            for group in groups:
                if group.try_add(coeff, string):
                    break
            else:
                groups.append(MeasurementGroup.starting_with(coeff, string))
        return groups

    # ------------------------------------------------------------------
    # exact expectation (validation path)
    # ------------------------------------------------------------------
    def expectation_statevector(self, state: Statevector) -> float:
        """Exact ⟨H⟩ by applying each string to the state.

        Diagonal (all-Z) strings are evaluated in one shot as a
        parity-mask dot product against the cached probability vector;
        only non-diagonal strings pay the apply-and-inner-product path.
        """
        total = self.constant
        probs: Optional[np.ndarray] = None
        for coeff, string in self.terms:
            if string.is_diagonal:
                if probs is None:
                    probs = state.probabilities()
                    indices = np.arange(probs.size, dtype=np.int64)
                signs = string.eigenvalues_for(indices)
                total += coeff * float(probs @ signs)
            else:
                total += coeff * _string_expectation(state, string)
        return float(total)

    def __repr__(self) -> str:
        return f"<PauliSum {len(self.terms)} terms, constant={self.constant:+.4g}>"


class MeasurementGroup:
    """Strings sharing a measurement basis, plus that basis."""

    def __init__(self) -> None:
        self.members: List[Tuple[float, PauliString]] = []
        self.basis: Dict[int, str] = {}

    @classmethod
    def starting_with(cls, coeff: float, string: PauliString) -> "MeasurementGroup":
        group = cls()
        accepted = group.try_add(coeff, string)
        assert accepted
        return group

    def try_add(self, coeff: float, string: PauliString) -> bool:
        for qubit, pauli in string.terms:
            if self.basis.get(qubit, pauli) != pauli:
                return False
        for qubit, pauli in string.terms:
            self.basis[qubit] = pauli
        self.members.append((coeff, string))
        return True

    def basis_change_circuit(self, n_qubits: int) -> QuantumCircuit:
        """Rotations mapping this group's basis onto the Z basis:
        H for X, S† then H for Y."""
        circuit = QuantumCircuit(n_qubits, name="basis-change")
        for qubit, pauli in sorted(self.basis.items()):
            if pauli == "X":
                circuit.h(qubit)
            elif pauli == "Y":
                circuit.sdg(qubit)
                circuit.h(qubit)
        return circuit

    def expectation_from_probabilities(self, probs: np.ndarray) -> float:
        """Exact ``sum coeff * <string>`` from a post-rotation
        probability vector (the ``shots=0`` analytic path).

        The group circuit already contains the basis change, so every
        member is effectively Z-diagonal here: each string reduces to a
        parity-mask dot product against ``probs`` — no sampling, no RNG
        consumption.
        """
        indices = np.arange(probs.size, dtype=np.int64)
        total = 0.0
        for coeff, string in self.members:
            signs = string.eigenvalues_for(indices)
            total += coeff * float(probs @ signs)
        return total

    def expectation_from_counts(self, counts: Mapping[int, int]) -> float:
        """Estimate ``sum coeff * <string>`` from post-rotation counts.

        Vectorised over the histogram: each string's ±1 eigenvalues come
        from one parity-mask popcount over all observed bitstrings.  The
        accumulation is exact integer arithmetic, so the result is
        bit-identical to the per-shot reference loop (pinned in tests).
        """
        shots = sum(counts.values())
        if shots == 0:
            raise ValueError("empty counts")
        wide = counts and max(counts) > 0x3FFF_FFFF_FFFF_FFFF
        if not wide:
            keys = np.fromiter(counts.keys(), dtype=np.int64, count=len(counts))
            weights = np.fromiter(counts.values(), dtype=np.int64, count=len(counts))
        total = 0.0
        for coeff, string in self.members:
            if wide:
                # Registers beyond int64 (product-state backend at >62
                # qubits): fold with Python big ints.
                acc = 0
                for bitstring, count in counts.items():
                    acc += string.eigenvalue(bitstring) * count
            else:
                acc = int(string.eigenvalues_for(keys) @ weights)
            total += coeff * (acc / shots)
        return total


def measurement_circuits(
    circuit: QuantumCircuit, groups: Iterable[MeasurementGroup]
) -> List[QuantumCircuit]:
    """One ``circuit + basis change + measure_all`` copy per group."""
    return [
        circuit.copy()
        .extend(group.basis_change_circuit(circuit.n_qubits))
        .measure_all()
        for group in groups
    ]


def _string_expectation(state: Statevector, string: PauliString) -> float:
    working = state.copy()
    for qubit, pauli in string.terms:
        _apply_pauli(working, qubit, pauli)
    return float(np.real(state.inner(working)))


def _apply_pauli(state: Statevector, qubit: int, pauli: str) -> None:
    amps = state.amplitudes
    indices = np.arange(amps.size)
    bit = (indices >> qubit) & 1
    if pauli == "Z":
        state.amplitudes = np.where(bit == 1, -amps, amps)
        return
    flipped = indices ^ (1 << qubit)
    if pauli == "X":
        state.amplitudes = amps[flipped]
    elif pauli == "Y":
        # Y|0> = i|1>, Y|1> = -i|0>: an amplitude landing on bit=1 came
        # from |0> (phase +i); landing on bit=0 came from |1> (phase -i).
        phases = np.where(bit == 1, 1j, -1j)
        state.amplitudes = phases * amps[flipped]
    else:  # pragma: no cover
        raise ValueError(pauli)
