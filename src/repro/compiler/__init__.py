"""Compiler: transpilation, Qtenon lowering, incremental updates."""

from repro.compiler.incremental import IncrementalCompiler, UpdatePlan
from repro.compiler.lowering import (
    LoweredGate,
    LoweringError,
    QtenonProgram,
    RegfileSlot,
    WORDS_PER_ENTRY,
    lower,
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
]
