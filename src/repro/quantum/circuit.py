"""Parameterised quantum circuits.

:class:`QuantumCircuit` is the IR shared by the whole stack: the VQA
ansatz builders produce it, the compiler lowers it to Qtenon program
entries, the backends execute it, and the device model schedules it to
compute the quantum execution time.

Qubits are indexed ``0..n-1``; bitstrings use the little-endian
convention (qubit 0 is the least significant bit), matching the
measurement segment layout where qubit *i* owns bit *i* of each shot
word.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.quantum.gates import GateSpec, gate_spec
from repro.quantum.parameters import (
    ParamValue,
    Parameter,
    free_parameter,
    is_symbolic,
    resolve,
)


@dataclass(frozen=True)
class Operation:
    """One gate application: spec, target qubits, parameter values."""

    spec: GateSpec
    qubits: Tuple[int, ...]
    params: Tuple[ParamValue, ...] = ()

    def __post_init__(self) -> None:
        if len(self.qubits) != self.spec.n_qubits:
            raise ValueError(
                f"{self.spec.name} acts on {self.spec.n_qubits} qubit(s), "
                f"got {self.qubits}"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"duplicate qubits in {self.spec.name}{self.qubits}")
        if len(self.params) != self.spec.n_params:
            raise ValueError(
                f"{self.spec.name} takes {self.spec.n_params} parameter(s), "
                f"got {len(self.params)}"
            )

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def is_measurement(self) -> bool:
        return self.spec.name == "measure"

    @property
    def is_symbolic(self) -> bool:
        return any(is_symbolic(p) for p in self.params)

    def bound_params(self, values: Dict[Parameter, float]) -> Tuple[float, ...]:
        return tuple(resolve(p, values) for p in self.params)

    def bind(self, values: Dict[Parameter, float]) -> "Operation":
        if not self.is_symbolic:
            return self
        return Operation(self.spec, self.qubits, self.bound_params(values))


class QuantumCircuit:
    """An ordered list of operations on ``n_qubits`` qubits."""

    def __init__(self, n_qubits: int, name: str = "circuit") -> None:
        if n_qubits <= 0:
            raise ValueError(f"need at least one qubit, got {n_qubits}")
        self.n_qubits = n_qubits
        self.name = name
        self.operations: List[Operation] = []

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def append(self, gate_name: str, qubits: Sequence[int], params: Sequence[ParamValue] = ()) -> "QuantumCircuit":
        spec = gate_spec(gate_name)
        qubits = tuple(int(q) for q in qubits)
        for qubit in qubits:
            if not 0 <= qubit < self.n_qubits:
                raise ValueError(
                    f"qubit {qubit} out of range for {self.n_qubits}-qubit circuit"
                )
        self.operations.append(Operation(spec, qubits, tuple(params)))
        return self

    # Fluent per-gate helpers ------------------------------------------------
    def rx(self, theta: ParamValue, qubit: int) -> "QuantumCircuit":
        return self.append("rx", (qubit,), (theta,))

    def ry(self, theta: ParamValue, qubit: int) -> "QuantumCircuit":
        return self.append("ry", (qubit,), (theta,))

    def rz(self, theta: ParamValue, qubit: int) -> "QuantumCircuit":
        return self.append("rz", (qubit,), (theta,))

    def rzz(self, theta: ParamValue, q0: int, q1: int) -> "QuantumCircuit":
        return self.append("rzz", (q0, q1), (theta,))

    def x(self, qubit: int) -> "QuantumCircuit":
        return self.append("x", (qubit,))

    def y(self, qubit: int) -> "QuantumCircuit":
        return self.append("y", (qubit,))

    def z(self, qubit: int) -> "QuantumCircuit":
        return self.append("z", (qubit,))

    def h(self, qubit: int) -> "QuantumCircuit":
        return self.append("h", (qubit,))

    def s(self, qubit: int) -> "QuantumCircuit":
        return self.append("s", (qubit,))

    def sdg(self, qubit: int) -> "QuantumCircuit":
        return self.append("sdg", (qubit,))

    def t(self, qubit: int) -> "QuantumCircuit":
        return self.append("t", (qubit,))

    def tdg(self, qubit: int) -> "QuantumCircuit":
        return self.append("tdg", (qubit,))

    def cz(self, q0: int, q1: int) -> "QuantumCircuit":
        return self.append("cz", (q0, q1))

    def cx(self, control: int, target: int) -> "QuantumCircuit":
        return self.append("cx", (control, target))

    def measure(self, qubit: int) -> "QuantumCircuit":
        return self.append("measure", (qubit,))

    def measure_all(self) -> "QuantumCircuit":
        for qubit in range(self.n_qubits):
            self.measure(qubit)
        return self

    def extend(self, other: "QuantumCircuit") -> "QuantumCircuit":
        """Append another circuit's operations (widths must match)."""
        if other.n_qubits != self.n_qubits:
            raise ValueError(
                f"cannot extend {self.n_qubits}-qubit circuit with "
                f"{other.n_qubits}-qubit circuit"
            )
        self.operations.extend(other.operations)
        return self

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.operations)

    def __iter__(self) -> Iterator[Operation]:
        return iter(self.operations)

    @property
    def parameters(self) -> List[Parameter]:
        """Free parameters in first-appearance order (deduplicated)."""
        seen: Dict[int, Parameter] = {}
        for op in self.operations:
            for value in op.params:
                if is_symbolic(value):
                    param = free_parameter(value)
                    seen.setdefault(id(param), param)
        return list(seen.values())

    @property
    def num_parameters(self) -> int:
        return len(self.parameters)

    @property
    def is_bound(self) -> bool:
        return not any(op.is_symbolic for op in self.operations)

    def gate_count(self, include_measure: bool = True) -> int:
        if include_measure:
            return len(self.operations)
        return sum(1 for op in self.operations if not op.is_measurement)

    def measured_qubits(self) -> List[int]:
        return [op.qubits[0] for op in self.operations if op.is_measurement]

    # ------------------------------------------------------------------
    # transformation
    # ------------------------------------------------------------------
    def bind(self, values: Dict[Parameter, float]) -> "QuantumCircuit":
        """Return a copy with parameters substituted by ``values``."""
        bound = QuantumCircuit(self.n_qubits, name=self.name)
        bound.operations = [op.bind(values) for op in self.operations]
        return bound

    def copy(self) -> "QuantumCircuit":
        duplicate = QuantumCircuit(self.n_qubits, name=self.name)
        duplicate.operations = list(self.operations)
        return duplicate

    def __repr__(self) -> str:
        return (
            f"<QuantumCircuit {self.name!r}: {self.n_qubits} qubits, "
            f"{len(self.operations)} ops, {self.num_parameters} params>"
        )


def parameter_vector(prefix: str, length: int) -> List[Parameter]:
    """A list of ``length`` fresh parameters named ``prefix[i]``."""
    return [Parameter(f"{prefix}[{i}]") for i in range(length)]
