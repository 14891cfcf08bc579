"""Qtenon system configuration (paper Tables 2 and 4).

:class:`QtenonConfig` derives every size and address in the quantum
controller cache from the qubit count, reproducing Table 2 exactly for
the 64-qubit design (520 KB ``.program``, 5 MB ``.pulse``, 40 KB
``.measure``, 112 KB ``.slt``, 4 KB ``.regfile`` — 5.66 MB total) and
scaling linearly for the Fig. 17 study (22.63 MB at 256 qubits).

QAddresses are *entry-granular*, matching Fig. 4: qubit 0's program
chunk is ``0x0–0x3ff``, qubit 1's is ``0x400–0x7ff``, the regfile
starts at ``0x70000``, the measurement segment at ``0x71000`` and the
pulse segments at ``0x80000``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Tuple

from repro.isa.program import ENTRY_BITS


def _align_up(value: int, alignment: int) -> int:
    return -(-value // alignment) * alignment


@dataclass(frozen=True)
class QtenonConfig:
    """Controller + pipeline shape parameters."""

    n_qubits: int = 64

    # .program
    program_entries_per_qubit: int = 1024
    program_entry_bits: int = ENTRY_BITS  # 65 (Table 2: 4+1+27+3+30)

    # .pulse
    pulse_entries_per_qubit: int = 1024
    pulse_entry_bits: int = 640  # 10 x 64-bit buffers per entry

    # .measure
    measure_entries: int = 5120
    measure_entry_bits: int = 64

    # .slt (per qubit: 2 ways x 128 entries)
    slt_ways: int = 2
    slt_entries_per_way: int = 128
    slt_tag_bits: int = 20
    slt_qaddr_bits: int = 30
    slt_count_bits: int = 5

    # .regfile
    regfile_entries: int = 1024
    regfile_entry_bits: int = 32

    # pipeline (Table 4)
    n_pgus: int = 8
    pgu_latency_cycles: int = 1000  # @1 GHz -> 1 us per pulse (§7.1)
    #: design-choice ablation: disable the Skip Lookup Table entirely
    #: (every entry regenerates its pulse; used by the SLT ablation
    #: bench to quantify what reuse buys).
    slt_enabled: bool = True

    # QSpace spill region: 2^tag_bits entries x 4 B per qubit = 4 MB/qubit
    qspace_entry_bytes: int = 4

    def __post_init__(self) -> None:
        if self.n_qubits <= 0:
            raise ValueError(f"n_qubits must be positive, got {self.n_qubits}")
        if self.n_pgus <= 0:
            raise ValueError(f"n_pgus must be positive, got {self.n_pgus}")

    # ------------------------------------------------------------------
    # Table 2: segment sizes
    # ------------------------------------------------------------------
    def segment_size_bytes(self, segment: str) -> int:
        if segment == ".program":
            bits = self.n_qubits * self.program_entries_per_qubit * self.program_entry_bits
        elif segment == ".pulse":
            bits = self.n_qubits * self.pulse_entries_per_qubit * self.pulse_entry_bits
        elif segment == ".measure":
            bits = self.measure_entries * self.measure_entry_bits
        elif segment == ".slt":
            entry_bits = (
                self.slt_tag_bits + self.slt_qaddr_bits + 1 + self.slt_count_bits
            )
            bits = self.n_qubits * self.slt_ways * self.slt_entries_per_way * entry_bits
        elif segment == ".regfile":
            bits = self.regfile_entries * self.regfile_entry_bits
        else:
            raise KeyError(f"unknown segment {segment!r}")
        return bits // 8

    def segment_sizes(self) -> Dict[str, int]:
        return {
            name: self.segment_size_bytes(name)
            for name in (".program", ".pulse", ".measure", ".slt", ".regfile")
        }

    @property
    def total_cache_bytes(self) -> int:
        """Total quantum controller cache size (5.66 MB at 64 qubits)."""
        return sum(self.segment_sizes().values())

    @property
    def qspace_bytes_per_qubit(self) -> int:
        """4 MB per qubit: 2^20 tags x 4 bytes (Fig. 7 step ❸)."""
        return (1 << self.slt_tag_bits) * self.qspace_entry_bytes

    # ------------------------------------------------------------------
    # Fig. 4: QAddress map (entry-granular)
    #
    # The config is frozen, so each boundary is derived once per
    # instance and then read from the instance dict (cached_property
    # writes there directly, bypassing the frozen __setattr__).
    # ------------------------------------------------------------------
    @property
    def program_base(self) -> int:
        return 0x0

    @cached_property
    def program_end(self) -> int:
        return self.program_base + self.n_qubits * self.program_entries_per_qubit

    @cached_property
    def regfile_base(self) -> int:
        # 0x70000 in the 64-qubit design; pushed up for wider chips.
        return max(0x70000, _align_up(self.program_end, 0x1000))

    @cached_property
    def measure_base(self) -> int:
        return _align_up(self.regfile_base + self.regfile_entries, 0x1000)

    @cached_property
    def pulse_base(self) -> int:
        return max(0x80000, _align_up(self.measure_base + self.measure_entries, 0x10000))

    @cached_property
    def pulse_end(self) -> int:
        return self.pulse_base + self.n_qubits * self.pulse_entries_per_qubit

    def program_chunk(self, qubit: int) -> Tuple[int, int]:
        """(base, end) QAddress range of a qubit's program chunk."""
        self._check_qubit(qubit)
        base = self.program_base + qubit * self.program_entries_per_qubit
        return base, base + self.program_entries_per_qubit

    def pulse_chunk(self, qubit: int) -> Tuple[int, int]:
        """(base, end) QAddress range of a qubit's pulse chunk."""
        self._check_qubit(qubit)
        base = self.pulse_base + qubit * self.pulse_entries_per_qubit
        return base, base + self.pulse_entries_per_qubit

    def program_qaddr(self, qubit: int, index: int) -> int:
        base, end = self.program_chunk(qubit)
        if not 0 <= index < self.program_entries_per_qubit:
            raise ValueError(
                f"program index {index} out of range "
                f"(0..{self.program_entries_per_qubit - 1})"
            )
        return base + index

    def regfile_qaddr(self, index: int) -> int:
        if not 0 <= index < self.regfile_entries:
            raise ValueError(f"regfile index {index} out of range")
        return self.regfile_base + index

    def measure_qaddr(self, index: int) -> int:
        if not 0 <= index < self.measure_entries:
            raise ValueError(f"measure index {index} out of range")
        return self.measure_base + index

    def _check_qubit(self, qubit: int) -> None:
        if not 0 <= qubit < self.n_qubits:
            raise ValueError(f"qubit {qubit} out of range (0..{self.n_qubits - 1})")
