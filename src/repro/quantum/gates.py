"""Gate library.

The native gate set mirrors what the paper's controller generates
pulses for: single-qubit rotations (RX/RY/RZ), the fixed Cliffords
built from them (X/Y/Z/H/S/T), and two-qubit entanglers (CZ, CNOT).
Gate *durations* follow §7.1: 20 ns for single-qubit gates, 40 ns for
two-qubit gates; measurement is 600 ns and handled by the device model.

Each :class:`GateSpec` carries a unitary factory so the statevector
backend stays table-driven, plus a 4-bit ``type_code`` used by the
Qtenon program-entry encoding (Table 2: the ``type`` field is 4 bits).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Tuple

import numpy as np

SQRT2_INV = 1.0 / math.sqrt(2.0)


def _rx(theta: float) -> np.ndarray:
    half = theta / 2.0
    return np.array(
        [[math.cos(half), -1j * math.sin(half)], [-1j * math.sin(half), math.cos(half)]],
        dtype=complex,
    )


def _ry(theta: float) -> np.ndarray:
    half = theta / 2.0
    return np.array(
        [[math.cos(half), -math.sin(half)], [math.sin(half), math.cos(half)]],
        dtype=complex,
    )


def _rz(theta: float) -> np.ndarray:
    half = theta / 2.0
    return np.array(
        [[np.exp(-1j * half), 0.0], [0.0, np.exp(1j * half)]], dtype=complex
    )


def _fixed(matrix: Sequence[Sequence[complex]]) -> Callable[..., np.ndarray]:
    array = np.array(matrix, dtype=complex)

    def factory(*_: float) -> np.ndarray:
        return array

    return factory


#: Module-level memo of parameterless gate matrices, keyed by gate
#: name.  Fixed gates like H/CX are applied millions of times per
#: optimisation campaign; returning one shared read-only ndarray stops
#: every application from paying a factory call (and the read-only flag
#: turns accidental in-place mutation of a shared matrix into an error
#: instead of silent corruption of every later application).
_FIXED_MATRIX_CACHE: Dict[str, np.ndarray] = {}


@dataclass(frozen=True)
class GateSpec:
    """Static description of one gate kind."""

    name: str
    n_qubits: int
    n_params: int
    matrix_factory: Callable[..., np.ndarray]
    type_code: int
    duration_ns: float

    def matrix(self, *params: float) -> np.ndarray:
        if len(params) != self.n_params:
            raise ValueError(
                f"{self.name} takes {self.n_params} parameter(s), got {len(params)}"
            )
        if self.n_params == 0:
            cached = _FIXED_MATRIX_CACHE.get(self.name)
            if cached is None:
                cached = np.ascontiguousarray(self.matrix_factory(), dtype=complex)
                cached.setflags(write=False)
                _FIXED_MATRIX_CACHE[self.name] = cached
            return cached
        return self.matrix_factory(*params)

    def __reduce__(self):
        # Fixed gates close over their matrix, so a GateSpec cannot be
        # pickled field-by-field; reconstruct from the registry instead
        # (specs are interned singletons keyed by name).  This is what
        # lets circuits cross process boundaries for parallel
        # evaluation (repro.runtime).
        return (gate_spec, (self.name,))


#: Durations per paper §7.1.
ONE_QUBIT_NS = 20.0
TWO_QUBIT_NS = 40.0
MEASUREMENT_NS = 600.0

GATE_LIBRARY: Dict[str, GateSpec] = {}


def _register(spec: GateSpec) -> None:
    if spec.name in GATE_LIBRARY:
        raise ValueError(f"duplicate gate {spec.name}")
    codes = {g.type_code for g in GATE_LIBRARY.values()}
    if spec.type_code in codes:
        raise ValueError(f"duplicate type code {spec.type_code}")
    GATE_LIBRARY[spec.name] = spec


_register(GateSpec("rx", 1, 1, _rx, 0x0, ONE_QUBIT_NS))
_register(GateSpec("ry", 1, 1, _ry, 0x1, ONE_QUBIT_NS))
_register(GateSpec("rz", 1, 1, _rz, 0x2, ONE_QUBIT_NS))
_register(GateSpec("x", 1, 0, _fixed([[0, 1], [1, 0]]), 0x3, ONE_QUBIT_NS))
_register(GateSpec("y", 1, 0, _fixed([[0, -1j], [1j, 0]]), 0x4, ONE_QUBIT_NS))
_register(GateSpec("z", 1, 0, _fixed([[1, 0], [0, -1]]), 0x5, ONE_QUBIT_NS))
_register(
    GateSpec("h", 1, 0, _fixed([[SQRT2_INV, SQRT2_INV], [SQRT2_INV, -SQRT2_INV]]), 0x6, ONE_QUBIT_NS)
)
_register(GateSpec("s", 1, 0, _fixed([[1, 0], [0, 1j]]), 0x7, ONE_QUBIT_NS))
_register(
    GateSpec("t", 1, 0, _fixed([[1, 0], [0, np.exp(1j * math.pi / 4)]]), 0x8, ONE_QUBIT_NS)
)
_register(GateSpec("sdg", 1, 0, _fixed([[1, 0], [0, -1j]]), 0x9, ONE_QUBIT_NS))
_register(
    GateSpec("tdg", 1, 0, _fixed([[1, 0], [0, np.exp(-1j * math.pi / 4)]]), 0xD, ONE_QUBIT_NS)
)
_register(
    GateSpec(
        "cz",
        2,
        0,
        _fixed([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]]),
        0xA,
        TWO_QUBIT_NS,
    )
)
_register(
    GateSpec(
        "cx",
        2,
        0,
        _fixed([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
        0xB,
        TWO_QUBIT_NS,
    )
)
_register(
    GateSpec(
        "rzz",
        2,
        1,
        lambda theta: np.diag(
            [
                np.exp(-1j * theta / 2),
                np.exp(1j * theta / 2),
                np.exp(1j * theta / 2),
                np.exp(-1j * theta / 2),
            ]
        ),
        0xC,
        TWO_QUBIT_NS,
    )
)
# Measurement pseudo-gate — no unitary; handled by backends/device.
_register(
    GateSpec("measure", 1, 0, _fixed([[1, 0], [0, 1]]), 0xF, MEASUREMENT_NS)
)

#: The set the Qtenon controller generates pulses for directly:
#: single-qubit rotations plus the two-qubit interactions a
#: superconducting chip drives natively (CZ via flux pulses, RZZ via
#: the always-on ZZ coupling).  The transpiler rewrites everything
#: else into this set.
NATIVE_GATES: Tuple[str, ...] = ("rx", "ry", "rz", "cz", "rzz", "measure")


def gate_spec(name: str) -> GateSpec:
    """Look up a gate by name; raises ``KeyError`` with suggestions."""
    try:
        return GATE_LIBRARY[name]
    except KeyError:
        known = ", ".join(sorted(GATE_LIBRARY))
        raise KeyError(f"unknown gate {name!r}; known gates: {known}") from None
