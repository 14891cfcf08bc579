"""Properties the precomputed timing replay rests on.

* a run timeline computed from start 0 and shifted equals the one
  computed from the shifted start (so one per key can be kept);
* the pulse pipeline's once-per-sweep totals equal the sum of its
  per-entry outcomes;
* ``Counter.increment``'s exact-int fast path accepts and rejects the
  same values as the ``numbers.Integral`` check behind it;
* word-wise ``MemoryImage`` byte access touches the same words with
  the same values as a byte-at-a-time loop.
"""

from __future__ import annotations

import decimal
import enum
import fractions
from typing import Dict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    PipelineWorkItem,
    PulsePipeline,
    QSpace,
    QtenonConfig,
    QuantumControllerCache,
    SkipLookupTable,
    compute_run_timeline,
    plan_transmissions,
)
from repro.isa import ProgramEntry
from repro.memory import MemoryImage
from repro.sim.stats import Counter

# ----------------------------------------------------------------------
# run timelines are shift-invariant
# ----------------------------------------------------------------------


@st.composite
def _timeline_inputs(draw):
    n_qubits = draw(st.integers(1, 70))
    shots = draw(st.integers(1, 300))
    batches = plan_transmissions(n_qubits, shots, 0x2000_0000, draw(st.booleans()))
    faults = {}
    if draw(st.booleans()):
        faults["attempts_per_batch"] = draw(
            st.lists(st.integers(1, 4), min_size=len(batches), max_size=len(batches))
        )
    if draw(st.booleans()):
        faults["retry_penalty_ps"] = draw(st.integers(0, 10 ** 7))
    return dict(
        batches=batches,
        shot_duration_ps=draw(st.integers(1, 10 ** 7)),
        put_issue_overhead_ps=draw(st.integers(0, 10 ** 4)),
        put_response_latency_ps=draw(st.integers(0, 10 ** 6)),
        **faults,
    )


@settings(max_examples=80, deadline=None)
@given(inputs=_timeline_inputs(), start_ps=st.integers(0, 10 ** 15))
def test_run_timeline_is_shift_invariant(inputs, start_ps):
    relative = compute_run_timeline(start_ps=0, **inputs)
    direct = compute_run_timeline(start_ps=start_ps, **inputs)
    assert relative.shifted(start_ps) == direct
    assert relative.shifted(0) is relative


# ----------------------------------------------------------------------
# per-sweep pipeline totals == sum of per-entry outcomes
# ----------------------------------------------------------------------

#: data payloads that share SLT set 0 but not a tag (bits 23+ differ),
#: so a 2-way set overflows into QSpace, plus a few arbitrary ones.
_DATA = st.one_of(
    st.integers(0, 5).map(lambda k: k << 23),
    st.integers(0, (1 << 27) - 1),
)


def _pipeline():
    config = QtenonConfig(n_qubits=3, n_pgus=2)
    qcc = QuantumControllerCache(config)
    qspace = QSpace(config.n_qubits, config)
    slts = [SkipLookupTable(q, config, qspace) for q in range(config.n_qubits)]
    return PulsePipeline(config, qcc, slts), qcc, slts


def _items(qcc, specs):
    items = []
    for index, (qubit, gate_type, data) in enumerate(specs):
        entry = ProgramEntry(gate_type=gate_type, data=data)
        qcc.host_write(qcc.config.program_qaddr(qubit, index), entry.pack())
        items.append(PipelineWorkItem(qubit, index, gate_type, data))
    return items


@settings(max_examples=60, deadline=None)
@given(
    specs=st.lists(
        st.tuples(st.integers(0, 2), st.integers(1, 3), _DATA), max_size=40
    )
)
def test_sweep_totals_equal_per_entry_outcomes(specs):
    whole, whole_qcc, whole_slts = _pipeline()
    report = whole.sweep(_items(whole_qcc, specs), start_ps=0)

    # The same entries one sweep each: the SLT and QSpace see the same
    # lookups in the same order, so every per-entry outcome is the one
    # the combined sweep had.
    single, single_qcc, single_slts = _pipeline()
    outcomes = [single.sweep([item], start_ps=0) for item in _items(single_qcc, specs)]

    for field in ("entries_processed", "pulses_generated", "slt_hits", "qspace_hits"):
        assert getattr(report, field) == sum(getattr(o, field) for o in outcomes)
    assert report.entries_processed == len(specs)
    assert whole.stats.as_dict() == single.stats.as_dict() == {
        "pipeline.pulses_generated": report.pulses_generated,
        "pipeline.slt_hits": report.slt_hits,
    }
    assert report.slt_hits == sum(slt.hits for slt in whole_slts)
    assert report.pulses_generated == sum(
        slt.stats.counter("allocations").value for slt in whole_slts
    )
    assert [s.stats.as_dict() for s in whole_slts] == [
        s.stats.as_dict() for s in single_slts
    ]
    assert whole_qcc._program == single_qcc._program


# ----------------------------------------------------------------------
# Counter.increment accepts and rejects exactly what it always did
# ----------------------------------------------------------------------


class _Small(enum.IntEnum):
    TWO = 2


class _MyInt(int):
    pass


#: (increment, outcome): the count it adds, or the exception it raises.
INCREMENT_TABLE = [
    (0, 0),
    (1, 1),
    (7, 7),
    (2 ** 70, 2 ** 70),
    (np.int64(3), 3),
    (np.int64(0), 0),
    (np.uint8(4), 4),
    (_Small.TWO, 2),
    (_MyInt(5), 5),
    (-1, ValueError),
    (np.int32(-2), ValueError),
    (_MyInt(-1), ValueError),
    (True, TypeError),
    (False, TypeError),
    (np.bool_(True), TypeError),
    (1.0, TypeError),
    (0.0, TypeError),
    (np.float64(2.0), TypeError),
    (1 + 0j, TypeError),
    ("1", TypeError),
    (None, TypeError),
    (fractions.Fraction(2, 1), TypeError),
    (decimal.Decimal(1), TypeError),
]


@pytest.mark.parametrize(
    "by, outcome", INCREMENT_TABLE, ids=[repr(by) for by, _ in INCREMENT_TABLE]
)
def test_counter_increment_table(by, outcome):
    counter = Counter("events", value=10)
    if isinstance(outcome, type):
        with pytest.raises(outcome):
            counter.increment(by)
        assert counter.value == 10
    else:
        counter.increment(by)
        assert counter.value == 10 + outcome
        assert type(counter.value) is int


# ----------------------------------------------------------------------
# word-wise MemoryImage access == the byte loop
# ----------------------------------------------------------------------


class _ByteLoopImage:
    """Reference: the byte-at-a-time access word-wise access replaced."""

    def __init__(self) -> None:
        self.words: Dict[int, int] = {}

    def read_bytes(self, addr: int, length: int) -> bytes:
        out = bytearray(length)
        for offset in range(length):
            byte_addr = addr + offset
            word = self.words.get(byte_addr // 8 * 8, 0)
            out[offset] = (word >> (8 * (byte_addr % 8))) & 0xFF
        return bytes(out)

    def write_bytes(self, addr: int, data: bytes) -> None:
        for offset, byte in enumerate(data):
            byte_addr = addr + offset
            word_addr = byte_addr // 8 * 8
            shift = 8 * (byte_addr % 8)
            word = self.words.get(word_addr, 0)
            self.words[word_addr] = (word & ~(0xFF << shift)) | (byte & 0xFF) << shift


_ops = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.integers(0, 96), st.binary(max_size=40)),
        st.tuples(st.just("read"), st.integers(0, 96), st.integers(0, 40)),
    ),
    max_size=30,
)


@settings(max_examples=200, deadline=None)
@given(ops=_ops)
def test_word_wise_image_matches_byte_loop(ops):
    image, reference = MemoryImage(), _ByteLoopImage()
    for op, addr, arg in ops:
        if op == "write":
            image.write_bytes(addr, arg)
            reference.write_bytes(addr, arg)
        else:
            assert image.read_bytes(addr, arg) == reference.read_bytes(addr, arg)
        assert image._words == reference.words
