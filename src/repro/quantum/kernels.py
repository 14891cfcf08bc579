"""Vectorized statevector kernels and the compiled-circuit replay cache.

This module is the classical mirror of the paper's §6.1 incremental
compilation: a parameterized circuit's *structure* is compiled once
into a flat program of gate-apply nodes (slot-resolved parameters,
memoized fixed matrices, adjacent single-qubit gates fused), and every
subsequent optimizer probe **replays** the program with fresh parameter
values — no circuit traversal, no ``Operation`` rebinding, no gate
lowering.  The same split the Qtenon hardware exploits with
``q_update`` (only parameters move between iterations) is exploited
here to make the reproduction's own evaluation loop fast.  Going one
step further, :func:`replay_groups` replays a probe only from where it
differs: the measurement-group programs of one spec share a node
prefix (the :class:`Trunk`) that each row replays once, and wide rows
resume from a checkpoint of the batch's reference vector.

Gate application is in-place and bit-sliced (HybridQ-style): the state
is viewed as ``(high, 2, low)`` blocks around the target bit and
updated with elementwise multiply-adds into a preallocated scratch
buffer — no ``tensordot``, no ``moveaxis``, no full-state
``ascontiguousarray`` copy per gate.  Diagonal gates (RZ/CZ/RZZ and
friends, the bulk of transpiled circuits) skip the scratch entirely.

Numerical contract: the kernel path agrees with a ``tensordot``
contraction oracle to ~1e-12 elementwise (fusion reorders a handful of
floating-point operations), and replaying a compiled program is
**bit-identical** to freshly compiling the same structure — both are
pinned by the hypothesis property tests.  These kernels are the only
statevector implementation in the package; the contraction oracle
lives in the test suite, and ``benchmarks/bench_kernels.py`` keeps a
frozen copy of it as the baseline it times.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.quantum.circuit import Operation, QuantumCircuit
from repro.quantum.gates import GateSpec
from repro.quantum.parameters import Parameter, ParameterExpression
from repro.sim.stats import StatGroup

#: Telemetry-visible kernel counters (see repro.telemetry.bridge).
KERNEL_STATS = StatGroup("kernels")
_PROGRAMS_COMPILED = KERNEL_STATS.counter("programs_compiled")
_PROGRAM_CACHE_HITS = KERNEL_STATS.counter("program_cache_hits")
_REPLAYS = KERNEL_STATS.counter("replays")
_BATCH_REPLAYS = KERNEL_STATS.counter("batch_replays")
_BATCH_ROWS = KERNEL_STATS.counter("batch_rows")

#: Upper bound on a batch chunk's total amplitude count (rows x 2**n).
#: 2**13 amplitudes = 128 KiB of complex state (plus scratch of the
#: same order) keeps a chunk L2-resident; an 8-qubit gradient batch
#: (33 probes x 256 amps) stays a single chunk.
BATCH_AMPS_TARGET = 1 << 13

#: Below this many rows per chunk, broadcasting buys nothing: the
#: per-row matrix construction is identical either way (scalar binding
#: arithmetic per probe, see ``matrices_for``), so batching only
#: amortizes numpy *call* overhead — negligible once each row's state
#: is large enough that a chunk holds this few of them.  Replay such
#: batches row by row through the scalar kernels instead.
MIN_CHUNK_ROWS = 8
_GATES_APPLIED = KERNEL_STATS.counter("gates_applied")
_GATES_FUSED = KERNEL_STATS.counter("gates_fused")
_DIAG_FAST_APPLIES = KERNEL_STATS.counter("diag_fast_applies")


def scratch_size(n_qubits: int) -> int:
    """Scratch floats needed by the in-place kernels at this width.

    Single-qubit applies use two half-state buffers (= one state);
    two-qubit applies use four quarter-state outputs plus one
    quarter-state accumulator temp.
    """
    full = 1 << n_qubits
    return full + max(1, full >> 2)


#: Gates whose matrix is diagonal for *every* parameter value; their
#: compiled nodes skip the per-apply diagonality probe entirely.
_ALWAYS_DIAGONAL = frozenset({"rz", "z", "s", "t", "sdg", "tdg", "cz", "rzz"})

_OFFDIAG_MASKS = {
    2: ~np.eye(2, dtype=bool),
    4: ~np.eye(4, dtype=bool),
}


def _is_diagonal(matrix: np.ndarray) -> bool:
    return not matrix[_OFFDIAG_MASKS[matrix.shape[0]]].any()


# ----------------------------------------------------------------------
# gate census (compile-time circuit classification)
# ----------------------------------------------------------------------
#: Fixed gates that are Clifford for every invocation.
_CLIFFORD_FIXED = frozenset({"x", "y", "z", "h", "s", "sdg", "cx", "cz"})
_ROTATION_GATES = frozenset({"rx", "ry", "rz", "rzz"})


@dataclass(frozen=True)
class GateCensus:
    """Per-circuit gate counts, bucketed by simulability class.

    A pure function of the circuit *structure* (fixed angles count,
    symbolic parameters are opaque), computed once at compile time and
    attached to :class:`CompiledProgram` — the input the execution
    planner (:mod:`repro.planner`) classifies jobs from.  ``n_t``
    counts the fixed non-Clifford *diagonal* rotations a Clifford+T
    extension could absorb (``t``, ``rz``/``rzz`` at odd multiples of
    pi/4); every other fixed non-Clifford gate and every symbolic gate
    lands in ``n_other`` / ``n_parametric``.
    """

    n_gates: int = 0
    n_1q: int = 0
    n_2q: int = 0
    n_parametric: int = 0
    n_clifford: int = 0
    n_t: int = 0
    n_other: int = 0
    n_measurements: int = 0

    @property
    def is_clifford(self) -> bool:
        return self.n_parametric == 0 and self.n_t == 0 and self.n_other == 0

    @property
    def is_clifford_t(self) -> bool:
        return self.n_parametric == 0 and self.n_other == 0

    def merge(self, other: "GateCensus") -> "GateCensus":
        return GateCensus(
            n_gates=self.n_gates + other.n_gates,
            n_1q=self.n_1q + other.n_1q,
            n_2q=self.n_2q + other.n_2q,
            n_parametric=self.n_parametric + other.n_parametric,
            n_clifford=self.n_clifford + other.n_clifford,
            n_t=self.n_t + other.n_t,
            n_other=self.n_other + other.n_other,
            n_measurements=self.n_measurements + other.n_measurements,
        )


def _is_odd_eighth(angle: float) -> bool:
    """True when ``angle`` is an odd multiple of pi/4 (a T-power)."""
    eighths = angle / (0.25 * math.pi)
    nearest = round(eighths)
    return abs(eighths - nearest) <= 1e-9 and nearest % 2 == 1


def gate_census(circuit: QuantumCircuit) -> GateCensus:
    """Classify every operation of ``circuit`` (see :class:`GateCensus`)."""
    from repro.quantum.stabilizer import clifford_quarter

    n_gates = n_1q = n_2q = 0
    n_parametric = n_clifford = n_t = n_other = n_measurements = 0
    for op in circuit.operations:
        if op.is_measurement:
            n_measurements += 1
            continue
        n_gates += 1
        if len(op.qubits) == 1:
            n_1q += 1
        else:
            n_2q += 1
        if op.is_symbolic:
            n_parametric += 1
            continue
        name = op.name
        if name in _CLIFFORD_FIXED:
            n_clifford += 1
        elif name in ("t", "tdg"):
            n_t += 1
        elif name in _ROTATION_GATES:
            angle = float(op.params[0])
            if clifford_quarter(angle) is not None:
                n_clifford += 1
            elif name in ("rz", "rzz") and _is_odd_eighth(angle):
                n_t += 1
            else:
                n_other += 1
        else:
            n_other += 1
    return GateCensus(
        n_gates=n_gates,
        n_1q=n_1q,
        n_2q=n_2q,
        n_parametric=n_parametric,
        n_clifford=n_clifford,
        n_t=n_t,
        n_other=n_other,
        n_measurements=n_measurements,
    )


def apply_1q(
    amps: np.ndarray,
    matrix: np.ndarray,
    qubit: int,
    scratch: Optional[np.ndarray],
    diagonal: Optional[bool] = None,
) -> None:
    """Apply a 2x2 ``matrix`` to ``qubit`` of the flat state, in place.

    ``amps`` is the little-endian statevector (bit ``qubit`` selects the
    axis); ``scratch`` must hold at least ``amps.size`` complex values
    unless the matrix is diagonal.  ``diagonal`` short-circuits the
    off-diagonal probe when the caller knows it at compile time.
    """
    m00, m01 = matrix[0, 0], matrix[0, 1]
    m10, m11 = matrix[1, 0], matrix[1, 1]
    view = amps.reshape(-1, 2, 1 << qubit)
    a0 = view[:, 0, :]
    a1 = view[:, 1, :]
    if diagonal is None:
        diagonal = m01 == 0 and m10 == 0
    if diagonal:
        if m00 != 1.0:
            a0 *= m00
        if m11 != 1.0:
            a1 *= m11
        _DIAG_FAST_APPLIES.increment()
        return
    half = amps.size >> 1
    s0 = scratch[:half].reshape(a0.shape)
    s1 = scratch[half: 2 * half].reshape(a0.shape)
    np.multiply(a0, m00, out=s0)
    np.multiply(a0, m10, out=s1)
    np.multiply(a1, m01, out=a0)
    a0 += s0
    a1 *= m11
    a1 += s1


def apply_2q(
    amps: np.ndarray,
    matrix: np.ndarray,
    q0: int,
    q1: int,
    scratch: Optional[np.ndarray],
    diagonal: Optional[bool] = None,
) -> None:
    """Apply a 4x4 ``matrix`` to qubits ``(q0, q1)`` in place.

    ``q0`` indexes the *most significant* bit of the matrix (the same
    convention the reference ``tensordot`` contraction uses).
    ``diagonal`` short-circuits the off-diagonal probe when the caller
    knows it at compile time.
    """
    hi, lo = (q0, q1) if q0 > q1 else (q1, q0)
    view = amps.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)

    def block(b0: int, b1: int) -> np.ndarray:
        # b0 = bit value on q0, b1 = bit value on q1.
        if q0 == hi:
            return view[:, b0, :, b1, :]
        return view[:, b1, :, b0, :]

    blocks = [block(0, 0), block(0, 1), block(1, 0), block(1, 1)]
    if _is_diagonal(matrix) if diagonal is None else diagonal:
        for i in range(4):
            d = matrix[i, i]
            if d != 1.0:
                blocks[i] *= d
        _DIAG_FAST_APPLIES.increment()
        return
    quarter = amps.size >> 2
    outs = [
        scratch[i * quarter: (i + 1) * quarter].reshape(blocks[0].shape)
        for i in range(4)
    ]
    tmp = scratch[4 * quarter: 5 * quarter].reshape(blocks[0].shape)
    for i in range(4):
        np.multiply(blocks[0], matrix[i, 0], out=outs[i])
        for j in (1, 2, 3):
            mij = matrix[i, j]
            if mij != 0:
                np.multiply(blocks[j], mij, out=tmp)
                outs[i] += tmp
    for i in range(4):
        blocks[i][...] = outs[i]


def apply_1q_batch(
    amps: np.ndarray,
    matrices: np.ndarray,
    qubit: int,
    scratch: np.ndarray,
    diagonal: Optional[bool] = None,
) -> None:
    """Apply 2x2 matrices to ``qubit`` of a ``(K, 2**n)`` state batch.

    ``matrices`` is either one shared ``(2, 2)`` matrix (fixed nodes —
    every row gets the same gate, so the whole batch is one flat state
    to the scalar kernel) or a ``(K, 2, 2)`` per-row stack (parameter
    nodes — each row carries its own probe's angles, broadcast as
    ``(K, 1, 1)`` column scalars).

    Per-row elementwise arithmetic is the same multiply/add sequence
    the scalar kernel runs on that row alone; the only divergence is
    that per-row diagonal multiplies are unconditional (a row whose
    entry is exactly ``1+0j`` is still multiplied, which can flip the
    sign of a zero amplitude — invisible to probabilities, so sampled
    histories stay bit-identical; tests pin this).
    """
    if matrices.ndim == 2:
        apply_1q(amps.reshape(-1), matrices, qubit, scratch, diagonal)
        return
    rows = amps.shape[0]
    m00 = matrices[:, 0, 0].reshape(rows, 1, 1)
    m01 = matrices[:, 0, 1].reshape(rows, 1, 1)
    m10 = matrices[:, 1, 0].reshape(rows, 1, 1)
    m11 = matrices[:, 1, 1].reshape(rows, 1, 1)
    view = amps.reshape(rows, -1, 2, 1 << qubit)
    a0 = view[:, :, 0, :]
    a1 = view[:, :, 1, :]
    if diagonal is None:
        diagonal = not (matrices[:, 0, 1].any() or matrices[:, 1, 0].any())
    if diagonal:
        a0 *= m00
        a1 *= m11
        _DIAG_FAST_APPLIES.increment(rows)
        return
    half = amps.size >> 1
    s0 = scratch[:half].reshape(a0.shape)
    s1 = scratch[half: 2 * half].reshape(a0.shape)
    np.multiply(a0, m00, out=s0)
    np.multiply(a0, m10, out=s1)
    np.multiply(a1, m01, out=a0)
    a0 += s0
    a1 *= m11
    a1 += s1


def apply_2q_batch(
    amps: np.ndarray,
    matrices: np.ndarray,
    q0: int,
    q1: int,
    scratch: np.ndarray,
    diagonal: Optional[bool] = None,
) -> None:
    """Apply 4x4 matrices to ``(q0, q1)`` of a ``(K, 2**n)`` batch.

    Same shared-vs-per-row convention as :func:`apply_1q_batch`.  In
    the per-row path a column that is zero in *some* rows still
    multiplies (adding an exact ``x * 0``), which — like the diagonal
    case above — can only perturb zero signs, never probabilities.
    """
    if matrices.ndim == 2:
        apply_2q(amps.reshape(-1), matrices, q0, q1, scratch, diagonal)
        return
    rows = amps.shape[0]
    hi, lo = (q0, q1) if q0 > q1 else (q1, q0)
    view = amps.reshape(rows, -1, 2, 1 << (hi - lo - 1), 2, 1 << lo)

    def block(b0: int, b1: int) -> np.ndarray:
        if q0 == hi:
            return view[:, :, b0, :, b1, :]
        return view[:, :, b1, :, b0, :]

    def column(i: int, j: int) -> np.ndarray:
        return matrices[:, i, j].reshape(rows, 1, 1, 1)

    blocks = [block(0, 0), block(0, 1), block(1, 0), block(1, 1)]
    if diagonal is None:
        diagonal = not matrices[:, _OFFDIAG_MASKS[4]].any()
    if diagonal:
        for i in range(4):
            blocks[i] *= column(i, i)
        _DIAG_FAST_APPLIES.increment(rows)
        return
    quarter = amps.size >> 2
    outs = [
        scratch[i * quarter: (i + 1) * quarter].reshape(blocks[0].shape)
        for i in range(4)
    ]
    tmp = scratch[4 * quarter: 5 * quarter].reshape(blocks[0].shape)
    for i in range(4):
        np.multiply(blocks[0], column(i, 0), out=outs[i])
        for j in (1, 2, 3):
            if matrices[:, i, j].any():
                np.multiply(blocks[j], column(i, j), out=tmp)
                outs[i] += tmp
    for i in range(4):
        blocks[i][...] = outs[i]


# ----------------------------------------------------------------------
# compiled program nodes
# ----------------------------------------------------------------------
#: A compiled parameter binding: (slot, coeff, offset).  ``slot`` is an
#: index into the replay vector (None for constants, whose value lives
#: in ``offset``); the bound value is ``coeff * vector[slot] + offset``
#: — exactly the arithmetic ParameterExpression.bind performs, so slot
#: replay is bit-identical to dict binding.
ParamBinding = Tuple[Optional[int], float, float]


class _FixedNode:
    """A gate whose matrix is fully known at compile time."""

    __slots__ = ("matrix", "qubits", "diagonal")

    def __init__(self, matrix: np.ndarray, qubits: Tuple[int, ...]) -> None:
        self.matrix = np.ascontiguousarray(matrix, dtype=complex)
        self.matrix.setflags(write=False)
        self.qubits = qubits
        self.diagonal = _is_diagonal(self.matrix)

    def matrix_for(self, vector: Optional[np.ndarray]) -> np.ndarray:
        return self.matrix

    def matrices_for(self, batch: np.ndarray) -> np.ndarray:
        # Value-independent: every row shares the one frozen matrix.
        return self.matrix


class _ParamNode:
    """A gate whose matrix depends on replay-time parameter values."""

    __slots__ = ("spec", "qubits", "bindings", "diagonal")

    def __init__(
        self, spec: GateSpec, qubits: Tuple[int, ...], bindings: Tuple[ParamBinding, ...]
    ) -> None:
        self.spec = spec
        self.qubits = qubits
        self.bindings = bindings
        #: True when diagonal for every parameter value; None = probe
        #: the materialised matrix at apply time.
        self.diagonal = True if spec.name in _ALWAYS_DIAGONAL else None

    def matrix_for(self, vector: Optional[np.ndarray]) -> np.ndarray:
        if vector is None:
            raise ValueError(
                f"compiled program has free parameters ({self.spec.name}); "
                "replay requires a parameter vector"
            )
        params = tuple(
            offset if slot is None else coeff * float(vector[slot]) + offset
            for slot, coeff, offset in self.bindings
        )
        return self.spec.matrix_factory(*params)

    def matrices_for(self, batch: np.ndarray) -> np.ndarray:
        # Row k runs the *scalar* binding arithmetic on batch[k], so the
        # stacked matrices are bitwise the ones per-probe replay builds.
        return np.stack([self.matrix_for(row) for row in batch])


class _FusedNode:
    """A run of adjacent single-qubit gates on one wire, composed into
    one 2x2 matrix at replay time (one full-state pass instead of k)."""

    __slots__ = ("qubits", "elements", "diagonal")

    def __init__(self, qubit: int, elements: List[object]) -> None:
        self.qubits = (qubit,)
        self.elements = elements  # in application order
        # A product of diagonal matrices is diagonal; anything else is
        # probed at apply time.
        self.diagonal = (
            True
            if all(element.diagonal is True for element in elements)
            else None
        )

    def matrix_for(self, vector: Optional[np.ndarray]) -> np.ndarray:
        return self.compose([element.matrix_for(vector) for element in self.elements])

    @staticmethod
    def compose(matrices: List[np.ndarray]) -> np.ndarray:
        """The run's 2x2 matrix from its elements' (application order)."""
        combined = matrices[0]
        for matrix in matrices[1:]:
            combined = matrix @ combined
        return combined

    def matrices_for(self, batch: np.ndarray) -> np.ndarray:
        # Composed per row with 2x2 ``@`` in the scalar order (a stacked
        # matmul may route through a different BLAS kernel and round the
        # last ulp differently; these matrices must match replay bitwise).
        return np.stack([self.matrix_for(row) for row in batch])


class CompiledProgram:
    """A circuit structure flattened into replayable gate-apply nodes.

    Compile once (circuit traversal, parameter-slot resolution, matrix
    memoization, single-qubit fusion all happen here), then
    :meth:`execute` with fresh parameter vectors — the classical
    analogue of the paper's parameter-only ``q_update`` delta path.
    """

    __slots__ = (
        "n_qubits",
        "ops",
        "measured",
        "n_slots",
        "source_gates",
        "key",
        "census",
    )

    def __init__(
        self,
        n_qubits: int,
        ops: List[object],
        measured: Tuple[int, ...],
        n_slots: int,
        source_gates: int,
        key: Optional[str] = None,
        census: Optional[GateCensus] = None,
    ) -> None:
        self.n_qubits = n_qubits
        self.ops = ops
        self.measured = measured
        self.n_slots = n_slots
        self.source_gates = source_gates
        self.key = key
        #: compile-time gate classification; the planner's input.
        self.census = census

    @property
    def n_nodes(self) -> int:
        return len(self.ops)

    def measured_qubits(self) -> List[int]:
        return list(self.measured)

    def execute(
        self,
        vector: Optional[np.ndarray] = None,
        state: Optional["Statevector"] = None,
        start: int = 0,
        stop: Optional[int] = None,
    ):
        """Replay nodes ``[start, stop)``; returns a ``Statevector``.

        The replay runs from |0...0> unless ``state`` is given, in which
        case it runs on a copy of it (``state`` itself is never
        mutated) — that is how a replay resumes from a checkpoint taken
        at node ``start`` by an earlier call that stopped there.
        """
        from repro.quantum.statevector import Statevector

        if self.n_slots and vector is None:
            raise ValueError(
                f"program has {self.n_slots} parameter slot(s); "
                "execute() needs a vector"
            )
        if vector is not None and len(vector) < self.n_slots:
            raise ValueError(
                f"parameter vector has {len(vector)} value(s); "
                f"program needs {self.n_slots}"
            )
        if state is None:
            amps = np.zeros(1 << self.n_qubits, dtype=complex)
            amps[0] = 1.0
        else:
            amps = state.amplitudes.copy()
        scratch = np.empty(scratch_size(self.n_qubits), dtype=complex)
        ops = self.ops[start:stop]
        for node in ops:
            matrix = node.matrix_for(vector)
            qubits = node.qubits
            if len(qubits) == 1:
                apply_1q(amps, matrix, qubits[0], scratch, node.diagonal)
            else:
                apply_2q(
                    amps, matrix, qubits[0], qubits[1], scratch, node.diagonal
                )
        _REPLAYS.increment()
        _GATES_APPLIED.increment(len(ops))
        return Statevector(amps, self.n_qubits)

    def execute_batch(
        self,
        vectors: np.ndarray,
        states: Optional[Sequence["Statevector"]] = None,
        start: int = 0,
        stop: Optional[int] = None,
    ) -> List["Statevector"]:
        """Replay nodes ``[start, stop)`` once over a ``(K, n_slots)`` batch.

        The K statevectors evolve together in one ``(K, 2**n)`` complex
        array: each node is applied to every row in a single broadcast
        pass (shared matrix → the whole batch is one flat state to the
        scalar kernel; per-row matrices → ``(K, 1, 1)`` column
        broadcast), so the program traversal, node dispatch and numpy
        call overhead are paid once per *batch* instead of once per
        probe — the cross-probe amortisation a gradient/SPSA step's
        ``2P + 1`` evaluations want.  ``states`` (one per row, copied,
        never mutated) resumes the rows from a batch replay that
        stopped at node ``start``; by default every row starts at
        |0...0>.

        Row ``k`` of the result is bit-identical to
        ``execute(vectors[k])`` up to the sign of zero amplitudes (see
        :func:`apply_1q_batch`), hence sampled histories are
        bit-identical.  A replay that reaches the last node computes
        the batch probabilities in one pass and the returned views
        adopt them.  The caller bounds ``K``: :func:`replay_groups`
        chunks rows to ``BATCH_AMPS_TARGET`` amplitudes.
        """
        from repro.quantum.statevector import Statevector, adopt_batch_probabilities

        batch = np.ascontiguousarray(vectors, dtype=np.float64)
        if batch.ndim != 2:
            raise ValueError(
                f"expected a (K, n_slots) batch, got shape {batch.shape}"
            )
        rows = batch.shape[0]
        if rows == 0:
            return []
        if batch.shape[1] < self.n_slots:
            raise ValueError(
                f"parameter batch has {batch.shape[1]} column(s); "
                f"program needs {self.n_slots}"
            )
        if states is None:
            amps = np.zeros((rows, 1 << self.n_qubits), dtype=complex)
            amps[:, 0] = 1.0
        else:
            amps = np.stack([state.amplitudes for state in states])
        scratch = np.empty(rows * scratch_size(self.n_qubits), dtype=complex)
        stop = len(self.ops) if stop is None else stop
        ops = self.ops[start:stop]
        for node in ops:
            matrices = node.matrices_for(batch)
            qubits = node.qubits
            if len(qubits) == 1:
                apply_1q_batch(amps, matrices, qubits[0], scratch, node.diagonal)
            else:
                apply_2q_batch(
                    amps, matrices, qubits[0], qubits[1], scratch, node.diagonal
                )
        _REPLAYS.increment(rows)
        _BATCH_REPLAYS.increment()
        _BATCH_ROWS.increment(rows)
        _GATES_APPLIED.increment(len(ops) * rows)
        states = [Statevector(amps[k], self.n_qubits) for k in range(rows)]
        if stop >= len(self.ops):
            adopt_batch_probabilities(states, amps)
        return states


# ----------------------------------------------------------------------
# shared-prefix replay: one trunk per spec, checkpointed per batch
# ----------------------------------------------------------------------
def _float_bits(value: float) -> bytes:
    # Bitwise, so -0.0 and 0.0 (which bind to different zero signs)
    # never compare equal.
    return np.float64(value).tobytes()


def _node_key(node: object) -> tuple:
    """Structural identity of a compiled node: two nodes with equal keys
    build bitwise-equal matrices for every vector."""
    if isinstance(node, _FixedNode):
        return ("fixed", node.qubits, node.matrix.tobytes())
    if isinstance(node, _ParamNode):
        bindings = tuple(
            (slot, _float_bits(coeff), _float_bits(offset))
            for slot, coeff, offset in node.bindings
        )
        return ("param", node.spec.name, node.qubits, bindings)
    return ("fused", node.qubits, tuple(_node_key(e) for e in node.elements))


def _node_slots(node: object) -> List[int]:
    """The replay-vector slots a node's matrix reads."""
    if isinstance(node, _ParamNode):
        return [slot for slot, _, _ in node.bindings if slot is not None]
    if isinstance(node, _FusedNode):
        return [slot for element in node.elements for slot in _node_slots(element)]
    return []


@dataclass(frozen=True, eq=False)
class Trunk:
    """The node prefix every group program of one spec shares.

    ``nodes`` is the length of the longest common node prefix (the
    whole ansatz up to the per-wire flush the basis change fuses into;
    the whole program when there is one group).  ``first_read[s]`` is
    the first trunk node that reads slot ``s``, or ``nodes`` when none
    does: a row that agrees bitwise with a reference vector on every
    slot read before node ``c`` has the reference's state at ``c``.
    """

    nodes: int
    first_read: np.ndarray


def find_trunk(programs: Sequence[CompiledProgram]) -> Trunk:
    """Compare the group programs node by node (structurally, see
    :func:`_node_key`) and record where each slot is first read."""
    nodes = min(program.n_nodes for program in programs)
    for index in range(nodes):
        key = _node_key(programs[0].ops[index])
        if any(_node_key(p.ops[index]) != key for p in programs[1:]):
            nodes = index
            break
    first_read = np.full(programs[0].n_slots, nodes, dtype=np.int64)
    for index in range(nodes - 1, -1, -1):
        first_read[_node_slots(programs[0].ops[index])] = index
    first_read.setflags(write=False)
    return Trunk(nodes=nodes, first_read=first_read)


def _column_majority(bits: np.ndarray) -> np.ndarray:
    """The most common exact bit pattern of each column of a ``(K, S)``
    int64 array; a tie goes to the value that occurs first."""
    reference = bits[0].copy()
    for column in np.flatnonzero((bits != bits[0]).any(axis=0)):
        values = bits[:, column]
        counts = (values[:, None] == values[None, :]).sum(axis=0)
        reference[column] = values[np.argmax(counts)]
    return reference


def replay_groups(
    programs: Sequence[CompiledProgram], trunk: Trunk, batch: np.ndarray
) -> Iterator[Tuple[int, List["Statevector"]]]:
    """Every row's final state under every group program.

    Yields ``(k, states)`` with one state per program, each
    bit-identical to ``programs[g].execute(batch[k])`` on the row
    schedule and to the full program's ``execute_batch`` row on the
    broadcast schedule.  A row replays the shared trunk once and forks
    a copy per group for its suffix; on the row schedule it also
    skips the trunk nodes it shares with the chunk's reference vector:

    * broadcast (states small enough for ``MIN_CHUNK_ROWS`` rows per
      ``BATCH_AMPS_TARGET`` chunk): the trunk runs once over each row
      chunk, then every group's suffix over a copy;
    * row by row (larger states): the reference is each column's
      majority bit pattern — a parameter-shift batch's base vector,
      even in a pool slice that does not hold it.  A row resumes at
      ``min(first_read[s])`` over the slots where it differs from the
      reference.  Rows are visited in resume order while the
      reference replay advances, so only one checkpoint is alive at a
      time; ``k`` therefore arrives out of order.

    A batch never applies more nodes than a full per-group replay:
    the reference replay stops at the deepest resume point, a prefix
    that some row would otherwise have replayed itself.
    """
    stem = programs[0]
    split = trunk.nodes
    rows = batch.shape[0]
    chunk = BATCH_AMPS_TARGET >> stem.n_qubits
    if chunk >= MIN_CHUNK_ROWS:
        for begin in range(0, rows, chunk):
            part = batch[begin:begin + chunk]
            stems = stem.execute_batch(part, stop=split)
            forks = [p.execute_batch(part, stems, start=split) for p in programs]
            for offset, states in enumerate(zip(*forks)):
                yield begin + offset, list(states)
        return
    bits = batch[:, :len(trunk.first_read)].view(np.int64)
    reference = _column_majority(bits)
    resume = np.where(bits != reference, trunk.first_read, split).min(
        axis=1, initial=split
    )
    checkpoint, at = None, 0
    for k in np.argsort(resume, kind="stable").tolist():
        cut = int(resume[k])
        if cut > at:
            checkpoint = stem.execute(reference.view(np.float64), checkpoint, at, cut)
            at = cut
        state = checkpoint
        if cut < split:
            state = stem.execute(batch[k], checkpoint, cut, split)
        yield k, [p.execute(batch[k], state, split) for p in programs]


def _compile_op(
    op: Operation, index: Dict[int, int]
) -> object:
    bindings: List[ParamBinding] = []
    symbolic = False
    for value in op.params:
        if isinstance(value, Parameter):
            slot = index.get(id(value))
            if slot is None:
                raise ValueError(
                    f"parameter {value.name!r} of {op.name} is not in the "
                    "compilation parameter order"
                )
            bindings.append((slot, 1.0, 0.0))
            symbolic = True
        elif isinstance(value, ParameterExpression):
            slot = index.get(id(value.parameter))
            if slot is None:
                raise ValueError(
                    f"parameter {value.parameter.name!r} of {op.name} is not "
                    "in the compilation parameter order"
                )
            bindings.append((slot, value.coeff, value.offset))
            symbolic = True
        else:
            bindings.append((None, 0.0, float(value)))
    if symbolic:
        return _ParamNode(op.spec, op.qubits, tuple(bindings))
    return _FixedNode(op.spec.matrix(*(b[2] for b in bindings)), op.qubits)


def _emit_run(nodes: List[object], run: List[object]) -> None:
    """Emit one per-wire run of 1q nodes, fusing when it pays."""
    if len(run) == 1:
        nodes.append(run[0])
        return
    _GATES_FUSED.increment(len(run) - 1)
    if all(isinstance(element, _FixedNode) for element in run):
        combined = run[0].matrix
        for element in run[1:]:
            combined = element.matrix @ combined
        nodes.append(_FixedNode(combined, run[0].qubits))
        return
    nodes.append(_FusedNode(run[0].qubits[0], list(run)))


def compile_circuit(
    circuit: QuantumCircuit,
    parameters: Optional[Sequence[Parameter]] = None,
    fuse: bool = True,
) -> CompiledProgram:
    """Compile a circuit's structure into a replayable program.

    ``parameters`` fixes the replay vector's slot order (defaults to the
    circuit's own first-appearance order).  Bound circuits compile to
    all-fixed programs that :meth:`CompiledProgram.execute` runs with no
    vector at all.
    """
    order = list(parameters) if parameters is not None else circuit.parameters
    index: Dict[int, int] = {id(p): i for i, p in enumerate(order)}
    nodes: List[object] = []
    measured: List[int] = []
    #: per-qubit run of unflushed 1q nodes, insertion-ordered for a
    #: deterministic end-of-circuit flush.
    pending: "OrderedDict[int, List[object]]" = OrderedDict()

    def flush(qubit: int) -> None:
        run = pending.pop(qubit, None)
        if run:
            _emit_run(nodes, run)

    source_gates = 0
    for op in circuit.operations:
        if op.is_measurement:
            measured.append(op.qubits[0])
            continue
        if op.spec.n_qubits > 2:  # pragma: no cover - no >2q gates exist
            raise NotImplementedError(f"{op.spec.n_qubits}-qubit gates")
        source_gates += 1
        node = _compile_op(op, index)
        if len(op.qubits) == 1 and fuse:
            pending.setdefault(op.qubits[0], []).append(node)
            continue
        for qubit in op.qubits:
            flush(qubit)
        nodes.append(node)
    while pending:
        qubit, run = pending.popitem(last=False)
        _emit_run(nodes, run)

    _PROGRAMS_COMPILED.increment()
    return CompiledProgram(
        n_qubits=circuit.n_qubits,
        ops=nodes,
        measured=tuple(measured),
        n_slots=len(order),
        source_gates=source_gates,
        census=gate_census(circuit),
    )


# ----------------------------------------------------------------------
# replay cache
# ----------------------------------------------------------------------
#: Default program-cache bound; programs are small (node lists + 2x2 /
#: 4x4 matrices), so this is a few MiB at most.
DEFAULT_MAX_PROGRAMS = 256


class ReplayCache:
    """Content-addressed LRU of circuit structure → compiled program.

    Keyed by the same structure digest :class:`repro.runtime.cache.EvalCache`
    uses for results, so two structurally identical circuits built from
    distinct :class:`Parameter` objects share one program.
    """

    def __init__(self, max_entries: int = DEFAULT_MAX_PROGRAMS) -> None:
        if max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, CompiledProgram]" = OrderedDict()
        #: key -> pin count.  Pinned programs (active sessions hold one
        #: per measurement group) are exempt from LRU eviction: an open
        #: session's whole point is that its compiled skeleton stays
        #: resident between parameter rebinds.
        self._pins: Dict[str, int] = {}
        self.stats = StatGroup("replay_cache")
        self._hits = self.stats.counter("hits")
        self._misses = self.stats.counter("misses")
        self._evictions = self.stats.counter("evictions")

    def __len__(self) -> int:
        return len(self._entries)

    def pin(self, key: str) -> None:
        """Exempt ``key`` from eviction (counted; pair with unpin)."""
        if key in self._entries:
            self._pins[key] = self._pins.get(key, 0) + 1

    def unpin(self, key: str) -> None:
        """Drop one pin on ``key``; the last unpin re-enables eviction."""
        count = self._pins.get(key, 0)
        if count <= 1:
            self._pins.pop(key, None)
        else:
            self._pins[key] = count - 1

    @property
    def pinned(self) -> int:
        return len(self._pins)

    def _evict_over_bound(self) -> None:
        """LRU-evict unpinned entries until the bound holds.

        When every resident entry is pinned the cache is allowed to
        overflow — evicting a pinned program would silently break an
        open session's compile-once contract.
        """
        while len(self._entries) > self.max_entries:
            victim = next(
                (key for key in self._entries if key not in self._pins), None
            )
            if victim is None:
                return
            del self._entries[victim]
            self._evictions.increment()

    def get_or_compile(
        self,
        circuit: QuantumCircuit,
        parameters: Optional[Sequence[Parameter]] = None,
    ) -> CompiledProgram:
        from repro.runtime.cache import circuit_structure_hash

        order = list(parameters) if parameters is not None else circuit.parameters
        # The structure hash names parameters by position only, so two
        # circuits share it when they differ just in slots no gate
        # reads; the replay vector's width still differs.
        key = f"{circuit_structure_hash(circuit, order)}/{len(order)}"
        program = self._entries.get(key)
        if program is not None:
            self._entries.move_to_end(key)
            self._hits.increment()
            _PROGRAM_CACHE_HITS.increment()
            return program
        self._misses.increment()
        program = compile_circuit(circuit, order)
        program.key = key
        self._entries[key] = program
        self._evict_over_bound()
        return program

    def adopt(self, key: str, program: CompiledProgram) -> CompiledProgram:
        """Insert an externally compiled program under ``key``.

        The persistent-worker path: workloads ship pre-compiled
        programs into long-lived workers, which adopt them here so
        repeated workloads hit instead of piling up — growth stays
        bounded by the same LRU budget as a local compile.  Returns the
        cached program when the key is already resident (the shipped
        duplicate is dropped), the adopted one otherwise.
        """
        existing = self._entries.get(key)
        if existing is not None:
            self._entries.move_to_end(key)
            self._hits.increment()
            _PROGRAM_CACHE_HITS.increment()
            return existing
        self._misses.increment()
        program.key = key
        self._entries[key] = program
        self._evict_over_bound()
        return program

    def trim(self) -> None:
        """Evict LRU entries until the cache fits ``max_entries``.

        Insertions self-trim; this is for when the *budget* shrinks
        after the fact — e.g. a forked pool worker inheriting the
        parent's populated cache along with a tighter ``replay_budget``.
        """
        self._evict_over_bound()

    def clear(self) -> None:
        self._entries.clear()
        self._pins.clear()


#: Process-wide program cache shared by samplers/backends.
PROGRAM_CACHE = ReplayCache()
