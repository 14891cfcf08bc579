"""Just-in-time full recompilation (the decoupled software model).

Decoupled ISAs encode qubit indices statically, so any parameter
change forces the host to rebuild and recompile the entire program
(paper §2.3/§6.1).  :class:`JitCompiler` models that: every
evaluation rebuilds the whole static binary (one instruction per gate
and per measurement; timing/wait instructions excluded, as in Table
1's note) and charges the host the full per-gate compile cost —
landing in Table 1's 1–100 ms recompilation band for 64-qubit
workloads.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.host.workloads import HostWorkloadModel
from repro.quantum.circuit import QuantumCircuit


@dataclass(frozen=True)
class JitOutput:
    """One recompilation: the binary, its size and its cost."""

    circuit: QuantumCircuit
    instruction_count: int
    binary_bytes: int
    compile_time_ps: int


class JitCompiler:
    """Recompiles the full program on every call (no incrementality)."""

    #: decoupled binaries carry opcode + static qubit index + immediate
    BYTES_PER_INSTRUCTION = 8

    def __init__(self, workload: HostWorkloadModel) -> None:
        self.workload = workload
        self.compilations = 0
        self.total_instructions_emitted = 0

    def compile(self, template: QuantumCircuit) -> JitOutput:
        """Cost and size of one full recompilation of ``template`` (they
        do not depend on parameter values, so no binding is needed)."""
        count = len(template.operations)
        self.compilations += 1
        self.total_instructions_emitted += count
        return JitOutput(
            circuit=template,
            instruction_count=count,
            binary_bytes=count * self.BYTES_PER_INSTRUCTION,
            compile_time_ps=self.workload.full_compile_ps(count),
        )
