"""Skip Lookup Table and QSpace (paper §5.3, Fig. 7).

The SLT is the controller's mechanism for skipping redundant pulse
computation: it maps a gate's (type, parameter) to the ``.pulse``
QAddress of an already-generated pulse.  Per qubit it holds 2 ways x
128 entries of ``tag(20b) | qaddr(30b) | valid(1b) | count(5b)`` and is
indexed by a 7-bit concatenation of the truncated type (3 bits) and a
4-bit slice of the parameter "two digits before and after the decimal
point" — in our binary fixed-point encoding, two bits either side of
the binary point.  The model keeps no ``valid`` bit: an invalid way is
an empty (``None``) slot, and every :class:`SltEntry` is valid.

Replacement is **Least Count (LC)**: invalid entries first, otherwise
evict the minimum-count way; valid victims are written back to
**QSpace**, a 4 MB-per-qubit DRAM region indexed by tag
(``base + tag << 4`` style translation), so a previously generated
pulse's address survives eviction and can be reloaded instead of
regenerated (Fig. 7 steps ❶–❹).

Matching is by 20-bit tag, i.e. the SLT deliberately identifies gate
parameters equal at tag granularity (~1e-3 rad here) — the same pulse
is reused for them, exactly the waveform-reuse behaviour QPulseLib-
style systems exploit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional

from repro.core.config import QtenonConfig
from repro.isa.program import DATA_BITS
from repro.sim.stats import StatGroup

TAG_BITS = 20
COUNT_MAX = (1 << 5) - 1  # 5-bit saturating counter


def slt_tag(gate_type: int, data: int) -> int:
    """20-bit tag: type (4b) ++ the 16 most significant data bits."""
    return ((gate_type & 0xF) << 16) | ((data >> (DATA_BITS - 16)) & 0xFFFF)


def slt_index(gate_type: int, data: int) -> int:
    """7-bit set index: type[2:0] ++ data bits around the binary point.

    With the Q5.21 angle encoding, bits [22:19] are the two lowest
    integer bits and the two highest fraction bits — the binary
    analogue of the paper's "two digits before and after the decimal
    point".
    """
    return ((gate_type & 0x7) << 4) | ((data >> 19) & 0xF)


@dataclass
class SltEntry:
    tag: int
    qaddr: int
    count: int = 1

    def bump(self) -> None:
        if self.count < COUNT_MAX:
            self.count += 1


class SltLookupResult(NamedTuple):
    """Outcome of one SLT query (tuple-backed: one per swept entry)."""

    qaddr: int
    hit: bool               #: tag matched a valid SLT way
    qspace_hit: bool = False  #: missed SLT but found in QSpace
    evicted: bool = False     #: a valid victim was written back
    allocated: bool = False   #: a brand-new pulse address was allocated


class QSpace:
    """Per-qubit DRAM spill region for evicted SLT entries.

    Functionally a tag → qaddr map; the 4 MB/qubit sizing (2^20 tags x
    4 B) means every possible tag has a slot, so there are no QSpace
    conflicts — matching the paper's direct ``B + tag`` translation.
    """

    def __init__(self, n_qubits: int, config: QtenonConfig) -> None:
        self.config = config
        self._slots: List[Dict[int, int]] = [dict() for _ in range(n_qubits)]
        self.stats = StatGroup("qspace")
        self._writebacks = self.stats.counter("writebacks")
        self._loads = self.stats.counter("loads")
        self._misses = self.stats.counter("misses")

    def store(self, qubit: int, tag: int, qaddr: int) -> None:
        self._slots[qubit][tag] = qaddr
        self._writebacks.increment()

    def load(self, qubit: int, tag: int) -> Optional[int]:
        qaddr = self._slots[qubit].get(tag)
        if qaddr is None:
            self._misses.increment()
        else:
            self._loads.increment()
        return qaddr


class SkipLookupTable:
    """One qubit's SLT (2-way, 128 sets, LC replacement)."""

    def __init__(self, qubit: int, config: QtenonConfig, qspace: QSpace) -> None:
        self.qubit = qubit
        self.config = config
        self.qspace = qspace
        self._sets: List[List[Optional[SltEntry]]] = [
            [None] * config.slt_ways for _ in range(config.slt_entries_per_way)
        ]
        self.stats = StatGroup(f"slt[{qubit}]")
        self._hits = self.stats.counter("hits")
        self._misses = self.stats.counter("misses")
        self._evictions = self.stats.counter("evictions")
        self._allocations = self.stats.counter("allocations")
        self._qspace_hits = self.stats.counter("qspace_hits")

    # ------------------------------------------------------------------
    def lookup_or_allocate(
        self,
        gate_type: int,
        data: int,
        allocate: Callable[[], int],
    ) -> SltLookupResult:
        """Fig. 7 workflow: hit → reuse; miss → QSpace → allocator."""
        index = slt_index(gate_type, data) % self.config.slt_entries_per_way
        tag = slt_tag(gate_type, data)
        ways = self._sets[index]

        # ❶ compare tags
        for entry in ways:
            if entry is not None and entry.tag == tag:
                entry.bump()
                self._hits.increment()
                return SltLookupResult(qaddr=entry.qaddr, hit=True)

        self._misses.increment()

        # ❷ Least-Count replacement: empty way first, else min count.
        victim_way = None
        for way, entry in enumerate(ways):
            if entry is None:
                victim_way = way
                break
        evicted = False
        if victim_way is None:
            victim_way = min(range(len(ways)), key=lambda w: ways[w].count)
            victim = ways[victim_way]
            self.qspace.store(self.qubit, victim.tag, victim.qaddr)
            self._evictions.increment()
            evicted = True

        # ❸ QSpace lookup for the requested tag.
        qspace_qaddr = self.qspace.load(self.qubit, tag)
        allocated = False
        if qspace_qaddr is None:
            qaddr = allocate()
            self._allocations.increment()
            allocated = True
        else:
            qaddr = qspace_qaddr
            self._qspace_hits.increment()

        # ❹ install the refreshed entry.
        self._sets[index][victim_way] = SltEntry(tag=tag, qaddr=qaddr)
        return SltLookupResult(
            qaddr=qaddr,
            hit=False,
            qspace_hit=not allocated,
            evicted=evicted,
            allocated=allocated,
        )

    # ------------------------------------------------------------------
    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
