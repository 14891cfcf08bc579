"""Adjoint-mode analytic gradients over compiled programs.

Parameter-shift differentiation of a P-parameter ansatz costs ``2P``
full circuit executions per optimizer step.  The adjoint method gets
every partial derivative from *three* state-sized sweeps instead:

1. **forward** — replay the compiled program once, reusing the same
   in-place :func:`~repro.quantum.kernels.apply_1q` /
   :func:`~repro.quantum.kernels.apply_2q` kernels replay uses, to
   obtain ``|psi> = U_N ... U_1 |0>``, keeping every element's matrix;
2. **costate** — build ``|lambda> = (H - c)|psi>`` from the
   observable's compiled term plan
   (:meth:`~repro.quantum.pauli.PauliSum.costate_terms`, built once
   per process and width): per term one gather by its X/Y mask, ``1j``
   when it has an odd number of Y, one multiply by its exact real
   weight, then ``lambda += term`` in term order, through one reusable
   buffer.  Only the weight multiply rounds, as ``coeff *`` did in a
   per-factor apply, so the bits are the same.  The identity offset
   ``c`` is added to the energy directly, and the step energy
   ``E = c + Re<psi|lambda>`` falls out for free;
3. **reverse** — walk the node list backward.  At node ``k`` (with
   ``psi`` holding ``psi_k`` and ``lambda`` back-propagated to the same
   point) each parameterized rotation ``U = exp(-i theta G / 2)``
   contributes ``dE/dtheta = Im <lambda| G |psi>``; then *both* vectors
   are pulled back through ``U_k^†`` (the forward pass's matrix,
   conjugate-transposed) and the sweep continues.  psi and lambda share
   one stacked array, so a shared matrix pulls both back in one apply.

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
parity signs) into one reusable buffer, never as matrix products.
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
    apply_1q_batch,
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
# generator applies
# ----------------------------------------------------------------------
# Each helper writes ``G @ arr`` into ``out``, treating ``arr`` as one
# or more contiguous little-endian statevectors flattened together (a
# (K, 2**n) batch): because 2 * 2**qubit divides every row, the
# (-1, 2, 1<<q) reshape never straddles a row boundary — the same trick
# the batch kernels use for shared matrices.


def _gen_x(arr: np.ndarray, qubits: Tuple[int, ...], out: np.ndarray) -> None:
    src = arr.reshape(-1, 2, 1 << qubits[0])
    dst = out.reshape(-1, 2, 1 << qubits[0])
    dst[:, 0, :] = src[:, 1, :]
    dst[:, 1, :] = src[:, 0, :]


def _gen_y(arr: np.ndarray, qubits: Tuple[int, ...], out: np.ndarray) -> None:
    # Y = [[0, -i], [i, 0]]
    src = arr.reshape(-1, 2, 1 << qubits[0])
    dst = out.reshape(-1, 2, 1 << qubits[0])
    np.multiply(src[:, 1, :], -1j, out=dst[:, 0, :])
    np.multiply(src[:, 0, :], 1j, out=dst[:, 1, :])


def _gen_z(arr: np.ndarray, qubits: Tuple[int, ...], out: np.ndarray) -> None:
    np.copyto(out, arr)
    out.reshape(-1, 2, 1 << qubits[0])[:, 1, :] *= -1.0


def _gen_zz(arr: np.ndarray, qubits: Tuple[int, ...], out: np.ndarray) -> None:
    q0, q1 = qubits
    hi, lo = (q0, q1) if q0 > q1 else (q1, q0)
    np.copyto(out, arr)
    view = out.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
    view[:, 0, :, 1, :] *= -1.0
    view[:, 1, :, 0, :] *= -1.0


#: Pauli generator G of each supported rotation exp(-i theta G / 2).
_GENERATORS: Dict[str, Callable[[np.ndarray, Tuple[int, ...], np.ndarray], None]] = {
    "rx": _gen_x,
    "ry": _gen_y,
    "rz": _gen_z,
    "rzz": _gen_zz,
}


def supports_program(program: CompiledProgram) -> bool:
    """True when every parameterized node has a known generator."""
    for node in program.ops:
        elements = node.elements if isinstance(node, _FusedNode) else (node,)
        for element in elements:
            if isinstance(element, _ParamNode):
                if element.spec.name not in _GENERATORS:
                    return False
    return True


def _costate(amps: np.ndarray, observable: PauliSum, lam: np.ndarray) -> None:
    """Add ``(H - constant) @ amps`` into ``lam`` term by term from the
    observable's compiled plan, through one reusable buffer; rows of a
    ``(K, 2**n)`` batch are independent."""
    buf = np.empty_like(amps)
    width = amps.shape[-1].bit_length() - 1
    for gather, odd_y, weight in observable.costate_terms(width):
        if gather is None:
            np.multiply(_periods(amps, weight), weight, out=_periods(buf, weight))
        else:
            np.take(
                _periods(amps, gather), gather, axis=1, mode="clip",
                out=_periods(buf, gather),
            )
            if odd_y:
                buf *= 1j
            if isinstance(weight, float):
                buf *= weight
            else:
                np.multiply(_periods(buf, weight), weight, out=_periods(buf, weight))
        lam += buf


def _periods(arr: np.ndarray, plan_array: np.ndarray) -> np.ndarray:
    """``arr`` as rows of one plan array's period, a power of two that
    divides ``2**n``, so no row straddles two states."""
    return arr.reshape(-1, plan_array.size)


def _apply(amps: np.ndarray, matrix: np.ndarray, node: object, scratch: np.ndarray) -> None:
    qubits = node.qubits
    if len(qubits) == 1:
        apply_1q_batch(amps, matrix, qubits[0], scratch, node.diagonal)
    else:
        apply_2q_batch(amps, matrix, qubits[0], qubits[1], scratch, node.diagonal)


def _sweep(
    program: CompiledProgram,
    observable: PauliSum,
    rows: int,
    matrix_of: Callable[[object], np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """Forward, costate and reverse sweep over ``rows`` states.

    ``matrix_of(element)`` is one matrix shared by every row or a
    ``(rows, d, d)`` stack, as the batch kernels take them.  The
    forward pass keeps every element's matrix for the reverse sweep.
    psi and lambda share one ``(2, rows, 2**n)`` array, so a shared
    matrix pulls both back through one flat apply (whose reshape never
    straddles a row); a per-row stack takes one batch apply each.
    """
    n = program.n_qubits
    state = np.zeros((2, rows, 1 << n), dtype=complex)
    psi, lam = state
    psi[:, 0] = 1.0
    scratch = np.empty(2 * rows * scratch_size(n), dtype=complex)
    steps = []
    for node in program.ops:
        if isinstance(node, _FusedNode):
            matrices = [matrix_of(element) for element in node.elements]
            steps.extend(zip(node.elements, matrices))
            if all(m.ndim == 2 for m in matrices):
                matrix = node.compose(matrices)
            else:
                # Row by row in the scalar order, as ``matrices_for``.
                matrix = np.stack([
                    node.compose([m if m.ndim == 2 else m[k] for m in matrices])
                    for k in range(rows)
                ])
        else:
            matrix = matrix_of(node)
            steps.append((node, matrix))
        _apply(psi, matrix, node, scratch)
    _FORWARD_PASSES.increment(rows)

    _costate(psi, observable, lam)
    energies = np.array([
        observable.constant + float(np.real(np.vdot(psi[k], lam[k])))
        for k in range(rows)
    ])

    grads = np.zeros((rows, program.n_slots), dtype=np.float64)
    applied = np.empty_like(psi)
    partials = 0
    for element, matrix in reversed(steps):
        if isinstance(element, _ParamNode):
            generator = _GENERATORS.get(element.spec.name)
            if generator is None:
                raise ValueError(
                    "adjoint differentiation does not support parameterized "
                    f"gate {element.spec.name!r}"
                )
            generator(psi, element.qubits, applied)
            # One row-contiguous vdot per probe: the same single BLAS
            # reduction whatever the batch around the row.
            for row in range(rows):
                partial = float(np.imag(np.vdot(lam[row], applied[row])))
                for slot, coeff, _offset in element.bindings:
                    if slot is not None and coeff != 0.0:
                        grads[row, slot] += coeff * partial
                        partials += 1
        # The dagger of a diagonal matrix is diagonal, so compile-time
        # ``True`` survives; ``None`` keeps the apply-time probe.  Below
        # 3 qubits a row's innermost loop can be one element, which
        # numpy multiplies in place on a scalar path that rounds apart
        # from the vector loop a stacked apply would put it on.
        dag = np.swapaxes(matrix.conj(), -1, -2)
        if dag.ndim == 2 and n >= 3:
            _apply(state, dag, element, scratch)
        else:
            _apply(psi, dag, element, scratch)
            _apply(lam, dag, element, scratch)
    _REVERSE_SWEEPS.increment(rows)
    _PARTIALS.increment(partials)
    return energies, grads


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
    energies, grads = _sweep(
        program, observable, 1, lambda element: element.matrix_for(vector)
    )
    return float(energies[0]), grads[0]


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

    energies, grads = _sweep(
        program, observable, rows, lambda element: element.matrices_for(batch)
    )
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
