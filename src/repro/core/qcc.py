"""Quantum controller cache (unified memory space, paper §5.1, Fig. 4).

The QCC is an SRAM buffer at the same level as the host L1, organised
as a 2D space: five segments x per-qubit chunks.  ``.program``,
``.regfile`` and ``.measure`` are **public** (host-accessible through
data paths ❶/❷); ``.pulse`` and ``.slt`` are **private** — exposed
only to on-chip logic and the QSpace path ❸ (§5.1 explains why:
three-way synchronisation between .program/.pulse/.slt would otherwise
leak into software).

This model is functional *and* structural: entries live in typed
per-segment stores, QAddress resolution follows the Fig. 4 map, and
privacy violations raise :class:`PrivateSegmentError` — which the
tests use to verify the isolation property.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.core.config import QtenonConfig
from repro.isa.program import ProgramEntry


class QccAddressError(ValueError):
    """QAddress does not fall in any segment."""


class PrivateSegmentError(PermissionError):
    """Host-side access to a private segment (.pulse / .slt)."""


class ResolvedAddress(NamedTuple):
    """A QAddress resolved to (segment, qubit, index); tuple-backed,
    one per host access."""

    segment: str
    qubit: Optional[int]  #: None for the shared .regfile/.measure segments
    index: int


@dataclass
class PulseRecord:
    """One generated pulse: provenance + the 640-bit payload shape.

    Waveform samples are irrelevant to the architecture study, so the
    record stores the generating (gate_type, data) pair — exactly the
    information the SLT uses to decide reuse — plus the entry width.
    """

    gate_type: int
    data: int
    width_bits: int = 640


class QuantumControllerCache:
    """Functional model of the five QCC segments."""

    PUBLIC_SEGMENTS = (".program", ".regfile", ".measure")
    PRIVATE_SEGMENTS = (".pulse", ".slt")

    def __init__(self, config: QtenonConfig) -> None:
        self.config = config
        self._program: Dict[Tuple[int, int], ProgramEntry] = {}
        self._regfile: Dict[int, int] = {}
        self._measure: Dict[int, int] = {}
        self._pulse: Dict[int, PulseRecord] = {}
        #: next free pulse index per qubit (bump allocator; the SLT's
        #: replacement policy recycles through QSpace, not through here)
        self._pulse_next: List[int] = [0] * config.n_qubits

    # ------------------------------------------------------------------
    # address resolution (Fig. 4)
    # ------------------------------------------------------------------
    def resolve(self, qaddr: int) -> ResolvedAddress:
        cfg = self.config
        if cfg.program_base <= qaddr < cfg.program_end:
            offset = qaddr - cfg.program_base
            return ResolvedAddress(
                ".program",
                offset // cfg.program_entries_per_qubit,
                offset % cfg.program_entries_per_qubit,
            )
        if cfg.regfile_base <= qaddr < cfg.regfile_base + cfg.regfile_entries:
            return ResolvedAddress(".regfile", None, qaddr - cfg.regfile_base)
        if cfg.measure_base <= qaddr < cfg.measure_base + cfg.measure_entries:
            return ResolvedAddress(".measure", None, qaddr - cfg.measure_base)
        if cfg.pulse_base <= qaddr < cfg.pulse_end:
            offset = qaddr - cfg.pulse_base
            return ResolvedAddress(
                ".pulse",
                offset // cfg.pulse_entries_per_qubit,
                offset % cfg.pulse_entries_per_qubit,
            )
        raise QccAddressError(f"QAddress {qaddr:#x} maps to no segment")

    # ------------------------------------------------------------------
    # public access (host data paths ❶/❷)
    # ------------------------------------------------------------------
    def host_write(self, qaddr: int, value: int) -> None:
        """Host-side write of one entry-sized value."""
        where = self.resolve(qaddr)
        if where.segment not in self.PUBLIC_SEGMENTS:
            raise PrivateSegmentError(
                f"host write to private segment {where.segment} at {qaddr:#x}"
            )
        if where.segment == ".program":
            self._program[(where.qubit, where.index)] = ProgramEntry.unpack(value)
        elif where.segment == ".regfile":
            self._regfile[where.index] = value & 0xFFFF_FFFF
        else:  # .measure is host-readable; writes are legal but unusual
            self._measure[where.index] = value & 0xFFFF_FFFF_FFFF_FFFF

    # ------------------------------------------------------------------
    # controller-internal access
    # ------------------------------------------------------------------
    def program_entry(self, qubit: int, index: int) -> Optional[ProgramEntry]:
        return self._program.get((qubit, index))

    def link_pulse(self, qubit: int, index: int, qaddr: int) -> None:
        """Point a loaded program entry at its chunk-relative pulse
        ``qaddr`` (status→valid); entries never loaded stay absent."""
        key = (qubit, index)
        entry = self._program.get(key)
        if entry is not None:
            self._program[key] = entry.with_pulse(qaddr)

    def regfile_read(self, index: int) -> int:
        return self._regfile.get(index, 0)

    def measure_write(self, index: int, value: int) -> None:
        self.config.measure_qaddr(index)  # bounds check
        self._measure[index] = value & 0xFFFF_FFFF_FFFF_FFFF

    def measure_read(self, index: int) -> int:
        return self._measure.get(index, 0)

    # ------------------------------------------------------------------
    # pulse segment (private)
    # ------------------------------------------------------------------
    def allocate_pulse(self, qubit: int, record: PulseRecord) -> int:
        """Allocate the next pulse slot for ``qubit``; returns its QAddress.

        Slots recycle modulo the chunk size: the SLT guarantees at most
        2-way x 128 live pulses per qubit plus QSpace residents, well
        under the 1024-entry chunk, so wrap-around never clobbers a
        still-referenced pulse in practice.
        """
        base, _ = self.config.pulse_chunk(qubit)
        slot = self._pulse_next[qubit] % self.config.pulse_entries_per_qubit
        self._pulse_next[qubit] += 1
        qaddr = base + slot
        self._pulse[qaddr] = record
        return qaddr

    def pulse_record(self, qaddr: int) -> Optional[PulseRecord]:
        where = self.resolve(qaddr)
        if where.segment != ".pulse":
            raise QccAddressError(f"{qaddr:#x} is not a pulse address")
        return self._pulse.get(qaddr)

    @property
    def pulses_generated(self) -> int:
        return sum(self._pulse_next)

    # ------------------------------------------------------------------
    def reset(self) -> None:
        self._program.clear()
        self._regfile.clear()
        self._measure.clear()
        self._pulse.clear()
        self._pulse_next = [0] * self.config.n_qubits
