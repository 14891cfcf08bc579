"""Adjoint-mode analytic gradients over compiled programs.

Parameter-shift differentiation of a P-parameter ansatz costs ``2P``
full circuit executions per optimizer step.  The adjoint method gets
every partial derivative from *three* state-sized sweeps instead:

1. **forward** — replay the compiled program once, reusing the same
   in-place :func:`~repro.quantum.kernels.apply_1q` /
   :func:`~repro.quantum.kernels.apply_2q` kernels replay uses, to
   obtain ``|psi> = U_N ... U_1 |0>``;
2. **costate** — apply the observable term-by-term to build
   ``|lambda> = (H - c)|psi>`` (flat-array Pauli applies; the identity
   offset ``c`` is added to the energy directly).  The step energy
   ``E = c + Re<psi|lambda>`` falls out for free;
3. **reverse** — walk the node list backward.  At node ``k`` (with
   ``psi`` holding ``psi_k`` and ``lambda`` back-propagated to the same
   point) each parameterized rotation ``U = exp(-i theta G / 2)``
   contributes ``dE/dtheta = Im <lambda| G |psi>``; then *both* vectors
   are pulled back through ``U_k^†`` and the sweep continues.

Chain rule: a compiled binding ``theta = coeff * vector[slot] + offset``
contributes ``coeff *`` the gate partial to ``grad[slot]``; a slot
feeding several gates accumulates.  Fused single-qubit runs are
unrolled element-by-element in reverse, so partials land at the exact
interleaving point the source circuit had.

The per-step cost drops from ``O(2P * gates)`` state-sized passes to
``O(3 * gates)`` — independent of P.  Both estimators are exact at
``shots=0``, and the hypothesis tests pin agreement to <= 1e-10; with
``shots > 0`` adjoint is a *different* estimator (no sampling noise),
so the default parameter-shift path is left bit-identical to seed.

Supported parameterized gates are the library's Pauli rotations
(``rx``/``ry``/``rz``/``rzz``) — the whole native parameterized set.
Generators are applied as index gymnastics (bit flips, ``+-i`` phases,
parity signs), never as matrix products.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.quantum.kernels import (
    BATCH_AMPS_TARGET,
    MIN_CHUNK_ROWS,
    CompiledProgram,
    _FusedNode,
    _ParamNode,
    apply_1q,
    apply_1q_batch,
    apply_2q,
    apply_2q_batch,
    scratch_size,
)
from repro.quantum.pauli import PauliSum
from repro.sim.stats import StatGroup

#: Telemetry-visible adjoint counters (see repro.telemetry.bridge).
ADJOINT_STATS = StatGroup("adjoint")
_FORWARD_PASSES = ADJOINT_STATS.counter("forward_passes")
_REVERSE_SWEEPS = ADJOINT_STATS.counter("reverse_sweeps")
_PARTIALS = ADJOINT_STATS.counter("partials")
_BATCH_SWEEPS = ADJOINT_STATS.counter("batch_sweeps")
_BATCH_ROWS = ADJOINT_STATS.counter("batch_rows")
#: Optimizer steps that wanted adjoint but fell back to parameter
#: shift (no engine support on the chosen backend); incremented by
#: repro.vqa.optimizers.
SHIFT_FALLBACKS = ADJOINT_STATS.counter("shift_fallbacks")


# ----------------------------------------------------------------------
# flat-array Pauli / generator applies
# ----------------------------------------------------------------------
# Each helper treats ``arr`` as one or more contiguous little-endian
# statevectors flattened together (a (2**n,) state or a (K, 2**n)
# batch): because 2 * 2**qubit divides every row, the (-1, 2, 1<<q)
# reshape never straddles a row boundary — the same trick the batch
# kernels use for shared matrices.


def _gen_x(arr: np.ndarray, qubits: Tuple[int, ...]) -> np.ndarray:
    out = np.empty_like(arr)
    src = arr.reshape(-1, 2, 1 << qubits[0])
    dst = out.reshape(-1, 2, 1 << qubits[0])
    dst[:, 0, :] = src[:, 1, :]
    dst[:, 1, :] = src[:, 0, :]
    return out


def _gen_y(arr: np.ndarray, qubits: Tuple[int, ...]) -> np.ndarray:
    # Y = [[0, -i], [i, 0]]
    out = np.empty_like(arr)
    src = arr.reshape(-1, 2, 1 << qubits[0])
    dst = out.reshape(-1, 2, 1 << qubits[0])
    np.multiply(src[:, 1, :], -1j, out=dst[:, 0, :])
    np.multiply(src[:, 0, :], 1j, out=dst[:, 1, :])
    return out


def _gen_z(arr: np.ndarray, qubits: Tuple[int, ...]) -> np.ndarray:
    out = arr.copy()
    out.reshape(-1, 2, 1 << qubits[0])[:, 1, :] *= -1.0
    return out


def _gen_zz(arr: np.ndarray, qubits: Tuple[int, ...]) -> np.ndarray:
    q0, q1 = qubits
    hi, lo = (q0, q1) if q0 > q1 else (q1, q0)
    out = arr.copy()
    view = out.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
    view[:, 0, :, 1, :] *= -1.0
    view[:, 1, :, 0, :] *= -1.0
    return out


#: Pauli generator G of each supported rotation exp(-i theta G / 2).
_GENERATORS: Dict[str, Callable[[np.ndarray, Tuple[int, ...]], np.ndarray]] = {
    "rx": _gen_x,
    "ry": _gen_y,
    "rz": _gen_z,
    "rzz": _gen_zz,
}

_PAULI_APPLIES = {"X": _gen_x, "Y": _gen_y, "Z": _gen_z}


def supports_program(program: CompiledProgram) -> bool:
    """True when every parameterized node has a known generator."""
    for node in program.ops:
        elements = node.elements if isinstance(node, _FusedNode) else (node,)
        for element in elements:
            if isinstance(element, _ParamNode):
                if element.spec.name not in _GENERATORS:
                    return False
    return True


def _costate(amps: np.ndarray, observable: PauliSum) -> np.ndarray:
    """``(H - constant) @ amps``, term by term, rows independent."""
    lam = np.zeros_like(amps)
    for coeff, string in observable.terms:
        working = amps
        for qubit, pauli in string.terms:
            working = _PAULI_APPLIES[pauli](working, (qubit,))
        lam += coeff * working
    return lam


def _undo_matrix(matrix: np.ndarray) -> np.ndarray:
    return matrix.conj().T


def _reverse_step(
    psi: np.ndarray,
    lam: np.ndarray,
    node: object,
    vector: Optional[np.ndarray],
    grad: np.ndarray,
    scratch: np.ndarray,
) -> int:
    """Emit node's partials (if any) and pull psi/lam back through it.

    ``psi``/``lam`` must hold the *post-node* state and the costate
    back-propagated to the same point.  Returns partials emitted.
    """
    qubits = node.qubits
    emitted = 0
    if isinstance(node, _ParamNode):
        generator = _GENERATORS.get(node.spec.name)
        if generator is None:
            raise ValueError(
                "adjoint differentiation does not support parameterized "
                f"gate {node.spec.name!r}"
            )
        applied = generator(psi, qubits)
        partial = float(np.imag(np.vdot(lam, applied)))
        for slot, coeff, _offset in node.bindings:
            if slot is not None and coeff != 0.0:
                grad[slot] += coeff * partial
                emitted += 1
    dag = _undo_matrix(node.matrix_for(vector))
    # The dagger of a diagonal matrix is diagonal, so compile-time
    # ``True`` survives; ``None`` keeps the apply-time probe.
    if len(qubits) == 1:
        apply_1q(psi, dag, qubits[0], scratch, node.diagonal)
        apply_1q(lam, dag, qubits[0], scratch, node.diagonal)
    else:
        apply_2q(psi, dag, qubits[0], qubits[1], scratch, node.diagonal)
        apply_2q(lam, dag, qubits[0], qubits[1], scratch, node.diagonal)
    return emitted


def adjoint_gradient(
    program: CompiledProgram,
    observable: PauliSum,
    vector: Optional[np.ndarray] = None,
) -> Tuple[float, np.ndarray]:
    """One forward + one reverse sweep: ``(energy, grad)``.

    ``grad`` has one entry per compiled parameter slot (the program's
    replay-vector order).  The energy is the exact analytic
    ``<psi|H|psi>`` — the same value ``shots=0`` evaluation returns.
    """
    if program.n_slots and vector is None:
        raise ValueError(
            f"program has {program.n_slots} parameter slot(s); "
            "adjoint_gradient needs a vector"
        )
    if vector is not None:
        vector = np.asarray(vector, dtype=np.float64)
        if vector.size < program.n_slots:
            raise ValueError(
                f"parameter vector has {vector.size} value(s); "
                f"program needs {program.n_slots}"
            )
    n = program.n_qubits
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = 1.0
    scratch = np.empty(scratch_size(n), dtype=complex)
    for node in program.ops:
        matrix = node.matrix_for(vector)
        qubits = node.qubits
        if len(qubits) == 1:
            apply_1q(amps, matrix, qubits[0], scratch, node.diagonal)
        else:
            apply_2q(amps, matrix, qubits[0], qubits[1], scratch, node.diagonal)
    _FORWARD_PASSES.increment()

    lam = _costate(amps, observable)
    energy = observable.constant + float(np.real(np.vdot(amps, lam)))

    grad = np.zeros(program.n_slots, dtype=np.float64)
    partials = 0
    for node in reversed(program.ops):
        if isinstance(node, _FusedNode):
            for element in reversed(node.elements):
                partials += _reverse_step(
                    amps, lam, element, vector, grad, scratch
                )
        else:
            partials += _reverse_step(amps, lam, node, vector, grad, scratch)
    _REVERSE_SWEEPS.increment()
    _PARTIALS.increment(partials)
    return energy, grad


def _reverse_step_batch(
    psi: np.ndarray,
    lam: np.ndarray,
    node: object,
    batch: np.ndarray,
    grads: np.ndarray,
    scratch: np.ndarray,
) -> None:
    qubits = node.qubits
    if isinstance(node, _ParamNode):
        generator = _GENERATORS.get(node.spec.name)
        if generator is None:
            raise ValueError(
                "adjoint differentiation does not support parameterized "
                f"gate {node.spec.name!r}"
            )
        applied = generator(psi, qubits)
        # Row-contiguous vdot per probe: the same single BLAS reduction
        # the serial sweep runs on that row alone, so batch partials
        # are bit-identical to serial ones.
        for row in range(psi.shape[0]):
            partial = float(np.imag(np.vdot(lam[row], applied[row])))
            for slot, coeff, _offset in node.bindings:
                if slot is not None and coeff != 0.0:
                    grads[row, slot] += coeff * partial
    matrices = node.matrices_for(batch)
    if matrices.ndim == 2:
        dag = matrices.conj().T
    else:
        dag = matrices.conj().transpose(0, 2, 1)
    if len(qubits) == 1:
        apply_1q_batch(psi, dag, qubits[0], scratch, node.diagonal)
        apply_1q_batch(lam, dag, qubits[0], scratch, node.diagonal)
    else:
        apply_2q_batch(psi, dag, qubits[0], qubits[1], scratch, node.diagonal)
        apply_2q_batch(lam, dag, qubits[0], qubits[1], scratch, node.diagonal)


def adjoint_gradient_batch(
    program: CompiledProgram,
    observable: PauliSum,
    vectors: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Adjoint sweep over a ``(K, n_slots)`` probe batch.

    Returns ``(energies, grads)`` with shapes ``(K,)`` and
    ``(K, n_slots)``.  Row ``k`` equals ``adjoint_gradient(program,
    observable, vectors[k])`` exactly: forward/undo applies ride the
    batch kernels (bit-identical up to zero-amplitude signs, which
    cannot move a reduction — see :func:`apply_1q_batch`) and every
    energy/partial reduction runs per contiguous row in the serial
    order.  Chunking mirrors :func:`~repro.quantum.kernels.replay_groups`:
    small states batch, large states fall back to the serial sweep.
    """
    batch = np.ascontiguousarray(vectors, dtype=np.float64)
    if batch.ndim != 2:
        raise ValueError(f"expected a (K, n_slots) batch, got shape {batch.shape}")
    rows = batch.shape[0]
    n_slots = program.n_slots
    if rows == 0:
        return np.zeros(0), np.zeros((0, n_slots))
    if batch.shape[1] < n_slots:
        raise ValueError(
            f"parameter batch has {batch.shape[1]} column(s); "
            f"program needs {n_slots}"
        )
    n = program.n_qubits
    chunk = BATCH_AMPS_TARGET >> n
    # Below 3 qubits a two-qubit diagonal node's per-row blocks are
    # single elements, where numpy's broadcast in-place multiply rounds
    # the last ulp differently from the scalar loop — the one shape
    # that breaks batch-vs-serial bit-parity.  States this small have
    # nothing to amortize anyway; run them serially.
    if chunk < MIN_CHUNK_ROWS or n < 3:
        energies = np.empty(rows)
        grads = np.empty((rows, n_slots))
        for k in range(rows):
            energies[k], grads[k] = adjoint_gradient(program, observable, batch[k])
        return energies, grads
    if rows > chunk:
        pieces = [
            adjoint_gradient_batch(program, observable, batch[start:start + chunk])
            for start in range(0, rows, chunk)
        ]
        return (
            np.concatenate([p[0] for p in pieces]),
            np.concatenate([p[1] for p in pieces]),
        )

    amps = np.zeros((rows, 1 << n), dtype=complex)
    amps[:, 0] = 1.0
    scratch = np.empty(rows * scratch_size(n), dtype=complex)
    for node in program.ops:
        matrices = node.matrices_for(batch)
        qubits = node.qubits
        if len(qubits) == 1:
            apply_1q_batch(amps, matrices, qubits[0], scratch, node.diagonal)
        else:
            apply_2q_batch(amps, matrices, qubits[0], qubits[1], scratch, node.diagonal)
    _FORWARD_PASSES.increment(rows)

    lam = _costate(amps, observable)
    energies = np.empty(rows)
    for row in range(rows):
        energies[row] = observable.constant + float(
            np.real(np.vdot(amps[row], lam[row]))
        )

    grads = np.zeros((rows, n_slots), dtype=np.float64)
    for node in reversed(program.ops):
        if isinstance(node, _FusedNode):
            for element in reversed(node.elements):
                _reverse_step_batch(amps, lam, element, batch, grads, scratch)
        else:
            _reverse_step_batch(amps, lam, node, batch, grads, scratch)
    _REVERSE_SWEEPS.increment(rows)
    _PARTIALS.increment(rows * sum(
        1
        for node in program.ops
        for element in (node.elements if isinstance(node, _FusedNode) else (node,))
        if isinstance(element, _ParamNode)
    ))
    _BATCH_SWEEPS.increment()
    _BATCH_ROWS.increment(rows)
    return energies, grads


__all__ = [
    "ADJOINT_STATS",
    "SHIFT_FALLBACKS",
    "adjoint_gradient",
    "adjoint_gradient_batch",
    "supports_program",
]
