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
from repro.quantum.draw import counts_from_keys
from repro.quantum.statevector import Statevector

_VALID = frozenset("XYZ")

#: Largest ``members * 2**width`` parity table a group builds (8 MiB of
#: float64); a wider or larger group estimates from a counts dictionary.
PARITY_TABLE_MAX_ENTRIES = 1 << 20


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

    def __getstate__(self) -> Dict[str, object]:
        state = self.__dict__.copy()
        state.pop("_costate_plans", None)
        return state

    def costate_terms(self, width: int) -> Iterable[Tuple[Optional[np.ndarray], bool, object]]:
        """Each term ``coeff * P`` as ``(gather, odd_y, weight)`` over a
        ``width``-qubit state ``a``, in term order: with ``L`` the length
        of the array in question and ``i % L`` standing for ``i``,
        ``(coeff * P @ a)[i] == a[gather[i] + i - i % L] * (1j if odd_y
        else 1) * weight[i]``.

        ``gather`` is ``i ^ x_mask`` (None for diagonal terms, shared by
        terms with one X/Y mask) and ``weight`` is ``coeff`` times the
        exact real sign (a float when the term has no Z or Y); each
        covers one period, the bits up to its mask's highest, so
        ``a.reshape(-1, L)`` applies it row by row.  Every step is exact
        but the one ``coeff`` multiply.  The plan is built on first use
        per width and cached on the sum, out of pickles; one whose
        arrays would pass :data:`PARITY_TABLE_MAX_ENTRIES` entries is
        rebuilt term by term on each call instead.
        """
        plans = self.__dict__.setdefault("_costate_plans", {})
        if width not in plans:
            masks = [_x_z_ny(string) for _, string in self.terms]
            entries = sum(1 << x.bit_length() for x in {x for x, _, _ in masks} - {0})
            entries += sum(1 << z.bit_length() for _, z, _ in masks if z)
            if entries > PARITY_TABLE_MAX_ENTRIES:
                return self._plan_terms(width, masks, None)
            plans[width] = list(self._plan_terms(width, masks, {}))
        return plans[width]

    def _plan_terms(
        self,
        width: int,
        masks: List[Tuple[int, int, int]],
        gathers: Optional[Dict[int, np.ndarray]],
    ) -> Iterable[Tuple[Optional[np.ndarray], bool, object]]:
        for (coeff, string), (x, z, ny) in zip(self.terms, masks):
            if (x | z) >> width:
                raise ValueError(f"{string} acts outside a {width}-qubit register")
            # P a = (-i)**ny * (-1)**|i & z| * a[i ^ x], and
            # (-i)**ny = 1j**(ny & 1) * (-1)**((ny + 1) // 2).
            weight = -coeff if (ny + 1) // 2 & 1 else coeff
            if z:
                parity = np.bitwise_count(np.arange(1 << z.bit_length()) & z) & 1
                weight = np.where(parity, -weight, weight)
            gather = None if gathers is None else gathers.get(x)
            if x and gather is None:
                gather = np.arange(1 << x.bit_length()) ^ x
                if gathers is not None:
                    gathers[x] = gather
            yield gather, bool(ny & 1), weight

    def __add__(self, other: "PauliSum") -> "PauliSum":
        return PauliSum(self.terms + other.terms, self.constant + other.constant)

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
    """Strings sharing a measurement basis, plus that basis.

    Per key width, the group lazily builds an odd-parity table (see
    :meth:`parity_table`) that depends only on its structure: compiled
    once per process, then reused by every sampled evaluation.  The
    tables never travel with a pickled group.
    """

    def __init__(self) -> None:
        self.members: List[Tuple[float, PauliString]] = []
        self.basis: Dict[int, str] = {}

    def __getstate__(self) -> Dict[str, object]:
        state = self.__dict__.copy()
        state.pop("_parity_tables", None)
        return state

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

        Vectorised over members and histogram at once: one
        ``(members, outcomes)`` parity-mask popcount gives every
        member's integer ±1 accumulator, folded into the float total in
        member order by the fold :meth:`expectation_from_keys` shares.
        The accumulation is exact integer arithmetic, so the result is
        bit-identical to the per-shot reference loop (pinned in tests)
        and to the histogram path on the same draw.
        """
        shots = sum(counts.values())
        if shots == 0:
            raise ValueError("empty counts")
        if not self.members:
            return 0.0
        limit = 0x3FFF_FFFF_FFFF_FFFF
        if max(counts) > limit or any(s.mask > limit for _, s in self.members):
            # Registers beyond int64 (product-state backend at >62
            # qubits): accumulate with Python big ints.
            accs = [
                sum(string.eigenvalue(key) * count for key, count in counts.items())
                for _, string in self.members
            ]
            return self._fold(accs, shots)
        keys = np.fromiter(counts.keys(), dtype=np.int64, count=len(counts))
        weights = np.fromiter(counts.values(), dtype=np.int64, count=len(counts))
        masks = np.fromiter(
            (string.mask for _, string in self.members),
            dtype=np.int64,
            count=len(self.members),
        )
        odd = np.bitwise_count(keys[None, :] & masks[:, None]) & np.uint8(1)
        # sum(sign * count) = shots - 2 * (counts with odd parity)
        accs = shots - 2 * (odd.astype(np.int64) @ weights)
        return self._fold(accs.tolist(), shots)

    def parity_table(self, width: int) -> np.ndarray:
        """``(members, 2**width)`` float64 0/1: entry ``[m, key]`` is 1
        when member ``m`` reads ``key`` with odd parity (eigenvalue -1).

        Built on first use per width and cached on the group, so a
        process pays for it once per group; :meth:`__getstate__` keeps
        it out of pickles (at 12 qubits and 42 members it is 1.4 MB).
        """
        tables = self.__dict__.setdefault("_parity_tables", {})
        table = tables.get(width)
        if table is None:
            keys = np.arange(1 << width, dtype=np.int64)
            # Keys are below 2**width, so only the mask's low bits can
            # meet them; truncating first keeps wide masks in int64.
            low = (1 << width) - 1
            masks = np.array(
                [string.mask & low for _, string in self.members], dtype=np.int64
            )
            odd = np.bitwise_count(keys[None, :] & masks[:, None]) & np.uint8(1)
            table = odd.astype(np.float64)
            table.setflags(write=False)
            tables[width] = table
        return table

    def expectation_from_keys(self, keys: np.ndarray, width: int) -> float:
        """:meth:`expectation_from_counts` of the draw ``keys`` (ints of
        ``width`` bits), bit-identical, computed from a histogram.

        The keys are binned with ``np.bincount`` and every member's
        accumulator is ``shots - 2 * (parity_table @ hist)``.  That is
        exact: each partial sum is an integer no larger than ``shots``,
        far below 2**53, so no summation order changes a bit.  Groups
        whose table would exceed :data:`PARITY_TABLE_MAX_ENTRIES` take
        the counts-dictionary path instead.
        """
        if not self.members:
            return 0.0
        if len(self.members) << width > PARITY_TABLE_MAX_ENTRIES:
            return self.expectation_from_counts(counts_from_keys(keys, width))
        shots = keys.size
        hist = np.bincount(keys, minlength=1 << width).astype(np.float64)
        accs = shots - 2.0 * (self.parity_table(width) @ hist)
        return self._fold(accs.tolist(), shots)

    def _fold(self, accs: Iterable[float], shots: int) -> float:
        """``sum coeff * acc / shots`` in member order: the one float
        fold behind both sampled expectations, so they agree bit for
        bit (``acc`` is an exact integer, as int or float)."""
        total = 0.0
        for (coeff, _), acc in zip(self.members, accs):
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


def _x_z_ny(string: PauliString) -> Tuple[int, int, int]:
    """``string``'s X/Y mask, Y/Z mask and Y count."""
    x = z = ny = 0
    for qubit, pauli in string.terms:
        x |= (pauli != "Z") << qubit
        z |= (pauli != "X") << qubit
        ny += pauli == "Y"
    return x, z, ny


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
