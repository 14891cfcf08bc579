"""Qtenon ISA: RoCC encoding, the five custom instructions, assembler."""

from repro.isa.assembler import (
    AssemblerError,
    MachineTriple,
    assemble,
    disassemble,
    emit,
    parse_line,
    parse_program,
)
from repro.isa.encoding import (
    CUSTOM0_OPCODE,
    EncodingError,
    QADDR_BITS,
    RoccWord,
    pack_qaddr_length,
    unpack_qaddr_length,
)
from repro.isa.instructions import (
    AnyInstruction,
    QAcquire,
    QGen,
    QRun,
    QSet,
    QtenonInstruction,
    QUpdate,
    decode_instruction,
    instruction_counts,
)
from repro.isa.program import (
    ENTRY_BITS,
    STATUS_INVALID,
    STATUS_VALID,
    ProgramEntry,
    decode_angle,
    encode_angle,
)

__all__ = [
    "RoccWord",
    "CUSTOM0_OPCODE",
    "EncodingError",
    "QADDR_BITS",
    "pack_qaddr_length",
    "unpack_qaddr_length",
    "QtenonInstruction",
    "QUpdate",
    "QSet",
    "QAcquire",
    "QGen",
    "QRun",
    "AnyInstruction",
    "decode_instruction",
    "instruction_counts",
    "ProgramEntry",
    "encode_angle",
    "decode_angle",
    "ENTRY_BITS",
    "STATUS_INVALID",
    "STATUS_VALID",
    "assemble",
    "disassemble",
    "emit",
    "parse_line",
    "parse_program",
    "MachineTriple",
    "AssemblerError",
]
