"""Lowering circuits to Qtenon program entries (paper §6.1).

The key insight of the Qtenon ISA: the quantum program is *computable
data*.  A circuit lowers to per-qubit chunks of 65-bit program entries
(the 2D QCC layout) — the qubit index disappears from the encoding
because it is inherent in the chunk's QAddress range.  Parameterised
gates do not embed their angle; they carry a ``.regfile`` slot index
(``reg_flag = 1``) so a single ``q_update`` to the slot retargets every
gate that references it.  This is the mechanism behind the paper's
~100x instruction-count reduction (Table 1) and the incremental
compilation of §6.1.

A VQA evaluates its observable in one or more measurement bases; each
basis variant ("measurement group") is lowered after the shared ansatz
so the whole workload is uploaded once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # imported lazily to avoid a package cycle with repro.core
    from repro.core.config import QtenonConfig

from repro.isa.instructions import AnyInstruction, QSet, QUpdate
from repro.isa.program import ProgramEntry, STATUS_INVALID, encode_angle
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.gates import gate_spec
from repro.quantum.parameters import (
    Parameter,
    ParameterExpression,
    free_parameter,
    is_symbolic,
)

#: 65-bit entries travel as three 32-bit words on data path ❷.
WORDS_PER_ENTRY = 3


class LoweringError(ValueError):
    """Circuit does not fit the controller (capacity, gate set...)."""


@dataclass(frozen=True)
class RegfileSlot:
    """One ``.regfile`` register: an affine view of a free parameter."""

    index: int
    parameter: Parameter
    coeff: float = 1.0
    offset: float = 0.0

    def angle(self, value: float) -> float:
        return self.coeff * value + self.offset


@dataclass(frozen=True)
class LoweredGate:
    """Placement of one gate: which chunk entry it occupies."""

    qubit: int          #: owning chunk (lower operand for 2q gates)
    index: int          #: entry index within the chunk
    gate_type: int
    slot: Optional[int]  #: regfile slot when parameterised
    static_data: int    #: immediate payload when not parameterised
    group: int          #: measurement-group id this gate belongs to
    partner: Optional[int] = None  #: other operand of a 2q gate

    def program_entry(self) -> ProgramEntry:
        if self.slot is not None:
            return ProgramEntry(
                gate_type=self.gate_type,
                reg_flag=True,
                data=self.slot,
                status=STATUS_INVALID,
            )
        return ProgramEntry(
            gate_type=self.gate_type,
            reg_flag=False,
            data=self.static_data,
            status=STATUS_INVALID,
        )


@dataclass
class QtenonProgram:
    """A fully lowered hybrid workload."""

    config: QtenonConfig
    group_circuits: List[QuantumCircuit]
    gates: List[LoweredGate]
    slots: List[RegfileSlot]
    entries_per_qubit: List[int]
    #: slot index -> [positions in ``gates``] referencing it
    slot_gates: Dict[int, List[int]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def total_entries(self) -> int:
        return len(self.gates)

    @property
    def n_parameter_slots(self) -> int:
        return len(self.slots)

    @property
    def parameters(self) -> List[Parameter]:
        seen: Dict[int, Parameter] = {}
        for slot in self.slots:
            seen.setdefault(id(slot.parameter), slot.parameter)
        return list(seen.values())

    def gates_for_slot(self, slot_index: int) -> List[LoweredGate]:
        return [self.gates[i] for i in self.slot_gates.get(slot_index, [])]

    # ------------------------------------------------------------------
    # instruction generation
    # ------------------------------------------------------------------
    def upload_instructions(self, host_base_addr: int) -> List[AnyInstruction]:
        """One ``q_set`` per occupied qubit chunk (the initial upload)."""
        stream: List[AnyInstruction] = []
        host_cursor = host_base_addr
        for qubit, count in enumerate(self.entries_per_qubit):
            if count == 0:
                continue
            stream.append(
                QSet(
                    classical_addr=host_cursor,
                    quantum_addr=self.config.program_qaddr(qubit, 0),
                    length=count * WORDS_PER_ENTRY,
                )
            )
            host_cursor += count * WORDS_PER_ENTRY * 4
        return stream

    def regfile_update_instructions(
        self, slot_angles: Sequence[Tuple[int, float]]
    ) -> List[AnyInstruction]:
        """``q_update`` stream for the given (slot, angle) pairs."""
        return [
            QUpdate(
                quantum_addr=self.config.regfile_qaddr(slot_index),
                value=encode_angle(_wrap_angle(angle)),
            )
            for slot_index, angle in slot_angles
        ]

    def bind_group(self, group: int, values: Dict[Parameter, float]) -> QuantumCircuit:
        """Bind a measurement group's circuit for functional execution."""
        return self.group_circuits[group].bind(values)


def _wrap_angle(theta: float) -> float:
    """Wrap to (-2pi, 2pi] so the fixed-point encoding never overflows."""
    tau = 2 * math.pi
    wrapped = math.fmod(theta, 2 * tau)
    if wrapped > tau:
        wrapped -= 2 * tau
    elif wrapped < -tau:
        wrapped += 2 * tau
    return wrapped


def lower(
    group_circuits: Sequence[QuantumCircuit],
    config: QtenonConfig,
) -> QtenonProgram:
    """Lower native-gate measurement-group circuits to a program.

    Raises :class:`LoweringError` for non-native gates or chunk
    overflow (more than 1024 entries on one qubit).
    """
    if not group_circuits:
        raise LoweringError("no circuits to lower")
    n_qubits = group_circuits[0].n_qubits
    if n_qubits > config.n_qubits:
        raise LoweringError(
            f"circuit uses {n_qubits} qubits; controller has {config.n_qubits}"
        )

    gates: List[LoweredGate] = []
    slots: List[RegfileSlot] = []
    slot_gates: Dict[int, List[int]] = {}
    slot_lookup: Dict[Tuple[int, float, float], int] = {}
    next_index = [0] * config.n_qubits

    def slot_for(value) -> int:
        parameter = free_parameter(value)
        coeff, offset = 1.0, 0.0
        if isinstance(value, ParameterExpression):
            coeff, offset = value.coeff, value.offset
        key = (id(parameter), coeff, offset)
        if key not in slot_lookup:
            if len(slots) >= config.regfile_entries:
                raise LoweringError(
                    f"regfile exhausted ({config.regfile_entries} slots)"
                )
            slot = RegfileSlot(len(slots), parameter, coeff, offset)
            slot_lookup[key] = slot.index
            slots.append(slot)
        return slot_lookup[key]

    for group, circuit in enumerate(group_circuits):
        if circuit.n_qubits != n_qubits:
            raise LoweringError("measurement groups must share the qubit count")
        for op in circuit.operations:
            spec = gate_spec(op.name)
            if spec.n_qubits == 1:
                owner, partner = op.qubits[0], None
            else:
                owner, partner = min(op.qubits), max(op.qubits)
            index = next_index[owner]
            if index >= config.program_entries_per_qubit:
                raise LoweringError(
                    f"qubit {owner} chunk overflow "
                    f"(> {config.program_entries_per_qubit} entries)"
                )
            next_index[owner] += 1

            slot: Optional[int] = None
            static_data = 0
            if spec.n_params and op.params and is_symbolic(op.params[0]):
                slot = slot_for(op.params[0])
            elif spec.n_params and op.params:
                static_data = encode_angle(_wrap_angle(float(op.params[0])))
            elif partner is not None:
                static_data = partner  # 2q gate: encode the partner qubit

            position = len(gates)
            gates.append(
                LoweredGate(
                    qubit=owner,
                    index=index,
                    gate_type=spec.type_code,
                    slot=slot,
                    static_data=static_data,
                    group=group,
                    partner=partner,
                )
            )
            if slot is not None:
                slot_gates.setdefault(slot, []).append(position)

    return QtenonProgram(
        config=config,
        group_circuits=list(group_circuits),
        gates=gates,
        slots=slots,
        entries_per_qubit=next_index,
        slot_gates=slot_gates,
    )
