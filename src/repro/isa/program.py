"""Quantum program entries (the ``.program`` segment format, Table 2).

The paper's key software idea: the quantum program is *data*, not an
instruction stream.  Each 65-bit entry in a qubit's ``.program`` chunk
describes one gate::

    type (4b) | reg_flag (1b) | data (27b) | status (3b) | qaddr (30b)

* ``type`` — gate kind (the 4-bit codes from the gate library);
* ``reg_flag`` — when set, ``data`` is a ``.regfile`` index and the
  gate's parameter is fetched from the register file at pulse-
  generation time (this is what makes `q_update`-based incremental
  compilation possible);
* ``data`` — immediate payload: a fixed-point angle for rotations, or
  the partner-qubit index for two-qubit gates;
* ``status`` — validity of ``qaddr`` (0 = pulse not yet generated);
* ``qaddr`` — the ``.pulse`` address holding this gate's pulse, filled
  in by the SLT/pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

TYPE_BITS = 4
REG_FLAG_BITS = 1
DATA_BITS = 27
STATUS_BITS = 3
QADDR_BITS = 30
ENTRY_BITS = TYPE_BITS + REG_FLAG_BITS + DATA_BITS + STATUS_BITS + QADDR_BITS  # 65

#: status field values
STATUS_INVALID = 0      #: qaddr not yet assigned; pulse must be generated
STATUS_VALID = 1        #: qaddr points at a generated pulse

#: Fixed-point angle encoding: signed Q5.21 (range ±16 rad covers ±4π
#: with headroom; resolution ~4.8e-7 rad, far below pulse DAC precision).
_ANGLE_FRAC_BITS = 21
_ANGLE_SCALE = 1 << _ANGLE_FRAC_BITS
_ANGLE_MAX = (1 << (DATA_BITS - 1)) - 1
_ANGLE_MIN = -(1 << (DATA_BITS - 1))


def encode_angle(theta: float) -> int:
    """Encode a rotation angle into the 27-bit data field."""
    fixed = int(round(theta * _ANGLE_SCALE))
    if not _ANGLE_MIN <= fixed <= _ANGLE_MAX:
        raise ValueError(
            f"angle {theta} rad out of range for {DATA_BITS}-bit fixed point; "
            "normalise to (-16, 16) rad first"
        )
    return fixed & ((1 << DATA_BITS) - 1)


def decode_angle(data: int) -> float:
    """Inverse of :func:`encode_angle` (two's complement)."""
    if data >= (1 << (DATA_BITS - 1)):
        data -= 1 << DATA_BITS
    return data / _ANGLE_SCALE


@dataclass(frozen=True)
class ProgramEntry:
    """One gate slot in a qubit's ``.program`` chunk."""

    gate_type: int
    reg_flag: bool = False
    data: int = 0
    status: int = STATUS_INVALID
    qaddr: int = 0

    def __post_init__(self) -> None:
        if (
            0 <= self.gate_type < 1 << TYPE_BITS
            and 0 <= self.data < 1 << DATA_BITS
            and 0 <= self.status < 1 << STATUS_BITS
            and 0 <= self.qaddr < 1 << QADDR_BITS
        ):
            return
        for name, value, bits in (
            ("gate_type", self.gate_type, TYPE_BITS),
            ("data", self.data, DATA_BITS),
            ("status", self.status, STATUS_BITS),
            ("qaddr", self.qaddr, QADDR_BITS),
        ):
            if not 0 <= value < (1 << bits):
                raise ValueError(f"{name}={value} does not fit in {bits} bits")

    # ------------------------------------------------------------------
    def pack(self) -> int:
        """Pack into a 65-bit integer (stored as a 2-word SRAM entry)."""
        word = self.gate_type
        word = (word << REG_FLAG_BITS) | int(self.reg_flag)
        word = (word << DATA_BITS) | self.data
        word = (word << STATUS_BITS) | self.status
        word = (word << QADDR_BITS) | self.qaddr
        return word

    @classmethod
    def unpack(cls, word: int) -> "ProgramEntry":
        if not 0 <= word < (1 << ENTRY_BITS):
            raise ValueError(f"{word:#x} is not a {ENTRY_BITS}-bit entry")
        qaddr = word & ((1 << QADDR_BITS) - 1)
        word >>= QADDR_BITS
        status = word & ((1 << STATUS_BITS) - 1)
        word >>= STATUS_BITS
        data = word & ((1 << DATA_BITS) - 1)
        word >>= DATA_BITS
        reg_flag = bool(word & 1)
        word >>= REG_FLAG_BITS
        return cls(
            gate_type=word & ((1 << TYPE_BITS) - 1),
            reg_flag=reg_flag,
            data=data,
            status=status,
            qaddr=qaddr,
        )

    # ------------------------------------------------------------------
    @property
    def has_valid_pulse(self) -> bool:
        return self.status == STATUS_VALID

    def with_pulse(self, qaddr: int) -> "ProgramEntry":
        # Built directly rather than through dataclasses.replace: the
        # pulse pipeline patches one entry per swept gate.
        return ProgramEntry(self.gate_type, self.reg_flag, self.data, STATUS_VALID, qaddr)

    def invalidated(self) -> "ProgramEntry":
        return replace(self, status=STATUS_INVALID, qaddr=0)

    def angle(self) -> float:
        """Decode the immediate as a rotation angle (reg_flag must be 0)."""
        if self.reg_flag:
            raise ValueError("entry takes its parameter from the regfile")
        return decode_angle(self.data)
