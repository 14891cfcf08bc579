"""Dynamic incremental compilation (paper §6.1).

Hybrid algorithms exhibit *quantum locality*: between consecutive
iterations only some parameters change while the program structure is
identical.  The :class:`IncrementalCompiler` tracks the last angle
written to every regfile slot and, given a new parameter assignment,
emits exactly the ``q_update`` instructions for slots whose angle
actually moved — plus the list of program entries whose cached pulses
those updates invalidate (the pipeline's work list for the next
``q_gen``).

The baseline's alternative — recompiling the whole program every
iteration — is modelled in :mod:`repro.baseline.jit`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.compiler.lowering import LoweredGate, QtenonProgram
from repro.isa.instructions import AnyInstruction
from repro.quantum.parameters import Parameter


@dataclass(frozen=True)
class UpdatePlan:
    """Result of one incremental compilation step."""

    slot_angles: Tuple[Tuple[int, float], ...]  #: (slot, new angle) pairs
    instructions: Tuple[AnyInstruction, ...]    #: the q_update stream
    invalidated_gates: Tuple[LoweredGate, ...]  #: pulses needing q_gen

    @property
    def n_updates(self) -> int:
        return len(self.slot_angles)


class IncrementalCompiler:
    """Stateful diff engine over a lowered program's regfile slots."""

    def __init__(self, program: QtenonProgram, tolerance: float = 0.0) -> None:
        if tolerance < 0:
            raise ValueError(f"tolerance must be non-negative, got {tolerance}")
        self.program = program
        self.tolerance = tolerance
        self._parameters = program.parameters
        self._last_angle: Dict[int, float] = {}

    # ------------------------------------------------------------------
    def initial_plan(self, values: Dict[Parameter, float]) -> UpdatePlan:
        """First binding: every slot is 'changed'."""
        self._last_angle.clear()
        return self.plan(values)

    def plan(self, values: Dict[Parameter, float]) -> UpdatePlan:
        """Diff ``values`` against the last written angles."""
        missing = [p.name for p in self._parameters if p not in values]
        if missing:
            raise KeyError(f"no values for parameters: {', '.join(missing)}")

        changed: List[Tuple[int, float]] = []
        for slot in self.program.slots:
            angle = slot.angle(values[slot.parameter])
            last = self._last_angle.get(slot.index)
            if last is None or abs(angle - last) > self.tolerance:
                changed.append((slot.index, angle))
                self._last_angle[slot.index] = angle

        invalidated: List[LoweredGate] = []
        for slot_index, _ in changed:
            invalidated.extend(self.program.gates_for_slot(slot_index))

        return UpdatePlan(
            slot_angles=tuple(changed),
            instructions=tuple(
                self.program.regfile_update_instructions(changed)
            ),
            invalidated_gates=tuple(invalidated),
        )

    # ------------------------------------------------------------------
    def reset(self) -> None:
        self._last_angle.clear()
