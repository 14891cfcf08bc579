"""Compiler: transpilation, Qtenon lowering, incremental updates, QASM."""

from repro.compiler.incremental import IncrementalCompiler, UpdatePlan
from repro.compiler.lowering import (
    LoweredGate,
    LoweringError,
    QtenonProgram,
    RegfileSlot,
    WORDS_PER_ENTRY,
    lower,
)
from repro.compiler.qasm import (
    QasmError,
    campaign_instruction_count,
    emit_qasm,
    static_instruction_count,
)
from repro.compiler.transpile import TranspileError, is_native, transpile

__all__ = [
    "transpile",
    "is_native",
    "TranspileError",
    "lower",
    "QtenonProgram",
    "LoweredGate",
    "RegfileSlot",
    "LoweringError",
    "WORDS_PER_ENTRY",
    "IncrementalCompiler",
    "UpdatePlan",
    "emit_qasm",
    "static_instruction_count",
    "campaign_instruction_count",
    "QasmError",
]
