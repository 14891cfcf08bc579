"""Aaronson-Gottesman stabilizer-tableau backend.

Exact simulation of Clifford circuits in time *polynomial* in the qubit
count — the backend that makes the paper's 64-320 qubit circuit widths
reachable without approximation.  A stabilizer state on ``n`` qubits is
represented by the standard ``2n x 2n`` binary tableau (Aaronson &
Gottesman, PRA 70, 052328): rows ``0..n-1`` are destabilizer
generators, rows ``n..2n-1`` stabilizer generators, each row a Pauli
string stored as X/Z bit vectors plus a sign bit.  Gates conjugate the
generators with vectorized column operations over all ``2n`` rows.

Supported gate set (everything :func:`repro.quantum.transpile` emits
for a Clifford source circuit):

* fixed Cliffords ``x y z h s sdg cx cz``;
* rotations ``rx ry rz rzz`` at integer multiples of pi/2 (snapped
  within :data:`ANGLE_TOL`), applied through exact Clifford
  decompositions — e.g. ``rx(pi/2) ~ H S H``, ``rzz(pi/2) ~ S S CZ``
  up to global phase, which measurement statistics cannot see.

Anything else (``t``, ``rz(pi/4)``, symbolic parameters, ...) raises
:class:`NotCliffordError` — the planner (:mod:`repro.planner`) is the
layer that routes such circuits elsewhere.

Measurement sampling extracts the state's computational-basis support
— always an affine subspace ``x0 + span(V)`` over GF(2), sampled
uniformly — by Gaussian elimination over the stabilizer rows with
exact ``rowsum`` phase tracking.  For small support ranks the sampler
draws through the same helper as :meth:`Statevector.sample_counts`
(:func:`repro.quantum.draw.draw_keys`: one ``rng.random(shots)`` draw
+ right-bisect over the outcome CDF, then the subset bit-packing), so
a stabilizer run under a content-derived sampler seed reproduces the
statevector backend's sampled histories bit for bit.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.quantum.circuit import QuantumCircuit
from repro.quantum.draw import counts_from_keys, draw_keys
from repro.sim.stats import StatGroup

STABILIZER_STATS = StatGroup("stabilizer")
_TABLEAU_RUNS = STABILIZER_STATS.counter("tableau_runs")
_GATES_APPLIED = STABILIZER_STATS.counter("gates_applied")
_SHOTS_SAMPLED = STABILIZER_STATS.counter("shots_sampled")
_WIDE_SAMPLES = STABILIZER_STATS.counter("wide_path_samples")

#: Absolute tolerance, in units of quarter turns, when snapping a
#: rotation angle onto the Clifford grid ``k * pi/2``.
ANGLE_TOL = 1e-9

#: Support ranks up to this are enumerated explicitly (``2**rank``
#: outcomes) so sampling can mirror the statevector CDF draw exactly;
#: beyond it the sampler switches to the random-combination wide path.
_ENUM_MAX_RANK = 16

#: Outcome integers are packed into int64 on the enumeration path.
_ENUM_MAX_QUBITS = 62


class NotCliffordError(ValueError):
    """A gate outside the stabilizer backend's Clifford subset."""


def clifford_quarter(angle: float) -> Optional[int]:
    """Snap ``angle`` to the Clifford rotation grid.

    Returns ``k in {0, 1, 2, 3}`` when ``angle`` is (within
    :data:`ANGLE_TOL` quarter turns) congruent to ``k * pi/2`` modulo
    ``2*pi``, else ``None``.
    """
    turns = float(angle) / (0.5 * math.pi)
    nearest = round(turns)
    if abs(turns - nearest) > ANGLE_TOL:
        return None
    return int(nearest) % 4


class Tableau:
    """A stabilizer state as destabilizer/stabilizer generator rows.

    ``x_bits``/``z_bits`` are ``(2n, n)`` uint8 0/1 matrices,
    ``phases`` a ``(2n,)`` uint8 sign vector (``(-1)**phase``).  The
    initial state is ``|0...0>``: destabilizer row ``i`` is ``X_i``,
    stabilizer row ``n+i`` is ``Z_i``.
    """

    def __init__(self, n_qubits: int) -> None:
        if n_qubits <= 0:
            raise ValueError(f"n_qubits must be positive, got {n_qubits}")
        self.n_qubits = n_qubits
        rows = 2 * n_qubits
        self.x_bits = np.zeros((rows, n_qubits), dtype=np.uint8)
        self.z_bits = np.zeros((rows, n_qubits), dtype=np.uint8)
        self.phases = np.zeros(rows, dtype=np.uint8)
        idx = np.arange(n_qubits)
        self.x_bits[idx, idx] = 1
        self.z_bits[n_qubits + idx, idx] = 1
        self._support: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------
    # generator conjugation (vectorized over all 2n rows)
    # ------------------------------------------------------------------
    def h(self, q: int) -> None:
        x, z = self.x_bits[:, q], self.z_bits[:, q]
        self.phases ^= x & z
        self.x_bits[:, q], self.z_bits[:, q] = z.copy(), x.copy()
        self._support = None

    def s(self, q: int) -> None:
        x, z = self.x_bits[:, q], self.z_bits[:, q]
        self.phases ^= x & z
        z ^= x
        self._support = None

    def sdg(self, q: int) -> None:
        x, z = self.x_bits[:, q], self.z_bits[:, q]
        self.phases ^= x & (z ^ 1)
        z ^= x
        self._support = None

    def x(self, q: int) -> None:
        self.phases ^= self.z_bits[:, q]
        self._support = None

    def y(self, q: int) -> None:
        self.phases ^= self.x_bits[:, q] ^ self.z_bits[:, q]
        self._support = None

    def z(self, q: int) -> None:
        self.phases ^= self.x_bits[:, q]
        self._support = None

    def cx(self, control: int, target: int) -> None:
        xc, zc = self.x_bits[:, control], self.z_bits[:, control]
        xt, zt = self.x_bits[:, target], self.z_bits[:, target]
        self.phases ^= xc & zt & (xt ^ zc ^ 1)
        xt ^= xc
        zc ^= zt
        self._support = None

    def cz(self, a: int, b: int) -> None:
        self.h(b)
        self.cx(a, b)
        self.h(b)

    # ------------------------------------------------------------------
    # circuit-level dispatch
    # ------------------------------------------------------------------
    def apply_gate(
        self, name: str, qubits: Sequence[int], params: Sequence[float]
    ) -> None:
        """Conjugate the tableau by one named gate.

        Rotations are accepted only at Clifford angles; everything is
        exact up to a global phase (invisible to measurement).
        """
        if name in _FIXED_1Q:
            getattr(self, name)(qubits[0])
            return
        if name == "cx":
            self.cx(qubits[0], qubits[1])
            return
        if name == "cz":
            self.cz(qubits[0], qubits[1])
            return
        if name in ("rx", "ry", "rz", "rzz"):
            quarter = clifford_quarter(params[0])
            if quarter is None:
                raise NotCliffordError(
                    f"{name}({params[0]:g}) is not a multiple of pi/2; "
                    "the stabilizer backend only simulates Clifford "
                    "circuits — route this job to statevector/product"
                )
            if quarter == 0:
                return
            if name == "rzz":
                a, b = qubits[0], qubits[1]
                if quarter == 2:
                    self.z(a)
                    self.z(b)
                else:  # S S CZ (quarter 1) / Sdg Sdg CZ (quarter 3)
                    phase = self.s if quarter == 1 else self.sdg
                    phase(a)
                    phase(b)
                    self.cz(a, b)
                return
            for step in _ROTATION_STEPS[name][quarter]:
                getattr(self, step)(qubits[0])
            return
        raise NotCliffordError(
            f"gate {name!r} is outside the stabilizer backend's "
            "Clifford subset"
        )

    # ------------------------------------------------------------------
    # measurement support: the affine subspace x0 + span(V) over GF(2)
    # ------------------------------------------------------------------
    def support(self) -> Tuple[np.ndarray, np.ndarray]:
        """Computational-basis support of the state.

        Returns ``(x0, basis)``: a particular outcome ``x0`` as an
        ``(n,)`` uint8 bit vector and a ``(k, n)`` uint8 basis of the
        direction space — the distribution is uniform over
        ``{x0 ^ c.V : c in GF(2)^k}``.  Cached until the next gate.
        """
        if self._support is None:
            self._support = self._compute_support()
        return self._support

    def _compute_support(self) -> Tuple[np.ndarray, np.ndarray]:
        n = self.n_qubits
        sx = self.x_bits[n:].copy()
        sz = self.z_bits[n:].copy()
        sr = self.phases[n:].astype(np.int64)

        # Gaussian elimination on the X block.  Eliminating a row means
        # *multiplying* generators, so signs must follow the exact
        # rowsum bookkeeping — a plain XOR of the bit rows would lose
        # the i-powers the Pauli products pick up.
        rank = 0
        for col in range(n):
            hits = np.nonzero(sx[rank:, col])[0]
            if hits.size == 0:
                continue
            pivot = rank + int(hits[0])
            if pivot != rank:
                sx[[rank, pivot]] = sx[[pivot, rank]]
                sz[[rank, pivot]] = sz[[pivot, rank]]
                sr[[rank, pivot]] = sr[[pivot, rank]]
            rows = np.nonzero(sx[:, col])[0]
            rows = rows[rows != rank]
            if rows.size:
                _rowsum_rows(sx, sz, sr, rows, rank)
            rank += 1

        basis = sx[:rank].copy()

        # Rows past the X rank are pure-Z stabilizers: (-1)**r Z**v
        # fixes |x> iff v.x = r (mod 2).  Solve the linear system for a
        # particular outcome (free variables pinned to 0).
        A = sz[rank:].copy()
        b = (sr[rank:] & 1).astype(np.uint8)
        x0 = np.zeros(n, dtype=np.uint8)
        pivot_cols: List[int] = []
        row = 0
        for col in range(n):
            if row >= A.shape[0]:
                break
            hits = np.nonzero(A[row:, col])[0]
            if hits.size == 0:
                continue
            pivot = row + int(hits[0])
            if pivot != row:
                A[[row, pivot]] = A[[pivot, row]]
                b[[row, pivot]] = b[[pivot, row]]
            others = np.nonzero(A[:, col])[0]
            others = others[others != row]
            if others.size:
                A[others] ^= A[row]
                b[others] ^= b[row]
            pivot_cols.append(col)
            row += 1
        if np.any(b[~A.any(axis=1)]):
            raise RuntimeError(
                "inconsistent pure-Z stabilizer constraints — the "
                "tableau does not describe a valid state (internal bug)"
            )
        for i, col in enumerate(pivot_cols):
            x0[col] = b[i]
        return x0, basis

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    def sample_counts(
        self,
        shots: int,
        rng: np.random.Generator,
        qubits: Optional[Sequence[int]] = None,
    ) -> Dict[int, int]:
        """Sample ``shots`` outcomes; same key convention (little-endian
        integers over the sorted ``qubits`` subset) as
        :meth:`Statevector.sample_counts`.

        The enumeration path draws through the statevector sampler's
        own helper (:func:`~repro.quantum.draw.draw_keys`: one
        ``rng.random(shots)`` + right-bisect over the uniform CDF, then
        the subset packing), so histories under shared seeds are
        bit-identical across the two exact backends.
        """
        if shots <= 0:
            raise ValueError(f"shots must be positive, got {shots}")
        n = self.n_qubits
        x0, basis = self.support()
        rank = basis.shape[0]
        subset = (
            sorted(set(qubits)) if qubits is not None else list(range(n))
        )
        _SHOTS_SAMPLED.increment(shots)

        if rank <= _ENUM_MAX_RANK and n <= _ENUM_MAX_QUBITS:
            outcomes = _enumerate_support(x0, basis)
            cdf = np.arange(1, outcomes.size + 1, dtype=np.float64)
            cdf /= outcomes.size
            keys = draw_keys(cdf, shots, rng, n, subset, outcomes=outcomes)
            return counts_from_keys(keys, len(subset))

        # Wide path: n or the support rank is too large to enumerate
        # outcome integers, so draw random GF(2) combinations of the
        # basis directly — exact and uniform, keys become Python ints
        # of arbitrary width.
        _WIDE_SAMPLES.increment(shots)
        if rank:
            combos = rng.integers(0, 2, size=(shots, rank), dtype=np.uint8)
            bits = (combos.astype(np.int64) @ basis.astype(np.int64)) & 1
            bits = bits.astype(np.uint8) ^ x0[np.newaxis, :]
        else:
            bits = np.broadcast_to(x0, (shots, n))
        packed = np.packbits(bits[:, subset], axis=1, bitorder="little")
        counts: Dict[int, int] = {}
        for row in range(shots):
            key = int.from_bytes(packed[row].tobytes(), "little")
            counts[key] = counts.get(key, 0) + 1
        return counts


#: 1q fixed Cliffords dispatched straight to their Tableau method.
_FIXED_1Q = frozenset({"x", "y", "z", "h", "s", "sdg"})

#: Clifford decompositions of rx/ry/rz at k quarter turns (k = 1, 2,
#: 3; k = 0 is the identity), exact up to global phase.  Steps apply
#: left to right in circuit order.
_ROTATION_STEPS: Dict[str, Dict[int, Tuple[str, ...]]] = {
    "rz": {1: ("s",), 2: ("z",), 3: ("sdg",)},
    "rx": {1: ("h", "s", "h"), 2: ("x",), 3: ("h", "sdg", "h")},
    "ry": {1: ("h", "x"), 2: ("y",), 3: ("x", "h")},
}


def _rowsum_rows(
    sx: np.ndarray,
    sz: np.ndarray,
    sr: np.ndarray,
    rows: np.ndarray,
    i: int,
) -> None:
    """Aaronson-Gottesman ``rowsum``: row h := row h * row i for every h
    in ``rows``, with exact sign tracking (phase exponent summed mod 4
    via the g-function of the per-qubit Pauli products)."""
    x1 = sx[i].astype(np.int64)
    z1 = sz[i].astype(np.int64)
    x2 = sx[rows].astype(np.int64)
    z2 = sz[rows].astype(np.int64)
    g = (
        x1 * z1 * (z2 - x2)
        + x1 * (1 - z1) * z2 * (2 * x2 - 1)
        + (1 - x1) * z1 * x2 * (1 - 2 * z2)
    )
    total = 2 * sr[rows] + 2 * sr[i] + g.sum(axis=1)
    sr[rows] = (total % 4) // 2
    sx[rows] ^= sx[i]
    sz[rows] ^= sz[i]


def _enumerate_support(x0: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """All ``2**k`` support outcomes as a sorted int64 array."""
    start = _bits_to_int(x0)
    outcomes = np.empty(1 << basis.shape[0], dtype=np.int64)
    outcomes[0] = start
    size = 1
    for row in range(basis.shape[0]):
        direction = _bits_to_int(basis[row])
        outcomes[size : 2 * size] = outcomes[:size] ^ direction
        size *= 2
    outcomes.sort()
    return outcomes


def _bits_to_int(bits: np.ndarray) -> int:
    packed = np.packbits(bits, bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def is_clifford_circuit(circuit: QuantumCircuit) -> bool:
    """True when every gate of ``circuit`` is in the Clifford subset
    (no symbolic parameters, rotations only at multiples of pi/2)."""
    for op in circuit.operations:
        if op.is_measurement:
            continue
        if op.is_symbolic:
            return False
        name = op.name
        if name in _FIXED_1Q or name in ("cx", "cz"):
            continue
        if name in ("rx", "ry", "rz", "rzz"):
            if clifford_quarter(float(op.params[0])) is None:
                return False
            continue
        return False
    return True


class StabilizerBackend:
    """Backend-protocol wrapper: run a bound Clifford circuit into a
    :class:`Tableau` and sample it."""

    name = "stabilizer"
    exact = True

    def run(self, circuit: QuantumCircuit) -> Tableau:
        if not circuit.is_bound:
            raise ValueError(
                f"circuit {circuit.name!r} has unbound parameters; bind() first"
            )
        tableau = Tableau(circuit.n_qubits)
        applied = 0
        for op in circuit.operations:
            if op.is_measurement:
                continue
            tableau.apply_gate(
                op.name, op.qubits, [float(value) for value in op.params]
            )
            applied += 1
        _TABLEAU_RUNS.increment()
        _GATES_APPLIED.increment(applied)
        return tableau

    def sample(
        self,
        circuit: QuantumCircuit,
        shots: int,
        rng: np.random.Generator,
    ) -> Dict[int, int]:
        """Counts of measured bitstrings (little-endian integers)."""
        tableau = self.run(circuit)
        measured = circuit.measured_qubits() or list(range(circuit.n_qubits))
        return tableau.sample_counts(shots, rng, qubits=measured)
