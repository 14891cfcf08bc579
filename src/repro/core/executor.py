"""Instruction-stream executor.

Runs an assembled Qtenon machine-code stream (``MachineTriple``s or
typed instructions) against a :class:`~repro.core.controller.QuantumController`,
advancing a timeline exactly the way the host core's RoCC dispatch
would — useful for writing custom controller-level experiments and
for testing hand-crafted streams (``examples/isa_programming.py`` runs
its assembled stream through it).

``q_run`` needs a circuit to execute; register them per run slot with
:meth:`StreamExecutor.bind_circuit` (the hardware analogue: the
``.program`` segment already holds the program, and the executor binds
the functional simulation side, whose shots its
:class:`~repro.quantum.sampler.Sampler` draws in place of the device).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Union

from repro.core.controller import QuantumController, RunResult
from repro.isa.assembler import MachineTriple
from repro.isa.encoding import RoccWord
from repro.isa.instructions import (
    AnyInstruction,
    QAcquire,
    QGen,
    QRun,
    QSet,
    QUpdate,
    decode_instruction,
)
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.draw import shot_words
from repro.quantum.sampler import Sampler


@dataclass
class ExecutionLog:
    """What one stream execution did, instruction by instruction."""

    entries: List[str] = field(default_factory=list)
    start_ps: int = 0
    end_ps: int = 0
    runs: List[RunResult] = field(default_factory=list)

    @property
    def duration_ps(self) -> int:
        return self.end_ps - self.start_ps

    def append(self, mnemonic: str, start: int, end: int) -> None:
        self.entries.append(f"{mnemonic} @{start}..{end}")


class StreamExecutor:
    """Executes instruction streams on a controller."""

    def __init__(
        self,
        controller: QuantumController,
        sampler: Sampler,
        result_addr: int = 0x2000_0000,
        batched: bool = True,
    ) -> None:
        self.controller = controller
        self.sampler = sampler
        self.result_addr = result_addr
        self.batched = batched
        self._run_circuits: List[QuantumCircuit] = []
        self._next_run = 0

    # ------------------------------------------------------------------
    def bind_circuit(self, circuit: QuantumCircuit) -> None:
        """Queue the bound circuit the next ``q_run`` will execute."""
        if not circuit.is_bound:
            raise ValueError("q_run circuits must be bound")
        self._run_circuits.append(circuit)

    # ------------------------------------------------------------------
    def execute(
        self,
        stream: Sequence[Union[AnyInstruction, MachineTriple]],
        start_ps: int = 0,
    ) -> ExecutionLog:
        """Run the stream to completion; returns the per-instruction log."""
        log = ExecutionLog(start_ps=start_ps, end_ps=start_ps)
        now = start_ps
        for item in stream:
            instruction = self._materialise(item)
            begin = now
            now = self._dispatch(instruction, now, log)
            log.append(instruction.mnemonic, begin, now)
        log.end_ps = now
        return log

    def _materialise(self, item: Union[AnyInstruction, MachineTriple]) -> AnyInstruction:
        if isinstance(item, MachineTriple):
            return decode_instruction(RoccWord.decode(item.word), item.rs1, item.rs2)
        return item

    def _dispatch(self, instruction: AnyInstruction, now: int, log: ExecutionLog) -> int:
        if isinstance(instruction, QSet):
            return self.controller.execute_q_set(instruction, now).end_ps
        if isinstance(instruction, QUpdate):
            return self.controller.execute_q_update(instruction, now)
        if isinstance(instruction, QGen):
            return self.controller.execute_q_gen(now).end_ps
        if isinstance(instruction, QRun):
            if self._next_run >= len(self._run_circuits):
                raise RuntimeError(
                    "q_run with no bound circuit; call bind_circuit() first"
                )
            circuit = self._run_circuits[self._next_run]
            self._next_run += 1
            counts = self.sampler.run(circuit, instruction.shots).counts
            result = self.controller.execute_q_run(
                circuit,
                instruction.shots,
                now,
                self.result_addr,
                batched=self.batched,
                outcomes=shot_words(counts),
            )
            log.runs.append(result)
            return result.timeline.last_put_response_ps
        if isinstance(instruction, QAcquire):
            return self.controller.execute_q_acquire(instruction, now).end_ps
        raise TypeError(f"cannot dispatch {type(instruction).__name__}")
