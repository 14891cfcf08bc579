"""The one stream frame codec (repro.faults.protocol), at both wires' bounds."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import wire as cluster_wire
from repro.faults.protocol import HEADER, MAX_PAYLOAD_BYTES, StreamDecoder, StreamError
from repro.faults.protocol import StreamWriter

FRAMES = st.lists(
    st.tuples(st.integers(0, 255), st.binary(max_size=48)), min_size=1, max_size=6
)


def encode_all(bound, frames):
    writer = StreamWriter(bound)
    return b"".join(writer.encode(kind, body) for kind, body in frames)


def numbered(frames):
    return [(seq, kind, body) for seq, (kind, body) in enumerate(frames)]


@pytest.mark.parametrize(
    "bound", [MAX_PAYLOAD_BYTES, cluster_wire.MAX_PAYLOAD_BYTES], ids=["session", "cluster"]
)
class TestFrameCodec:
    @given(frames=FRAMES, cuts=st.lists(st.integers(0, 400), max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_any_fragmentation_round_trips(self, bound, frames, cuts):
        data = encode_all(bound, frames)
        edges = sorted({0, len(data), *(c for c in cuts if c < len(data))})
        decoder = StreamDecoder(bound)
        decoded = []
        for start, stop in zip(edges, edges[1:]):
            decoded.extend(decoder.feed(data[start:stop]))
        assert decoded == numbered(frames)
        assert decoder.frames_accepted == len(frames)

    @given(frames=FRAMES, bit=st.integers(min_value=0))
    @settings(max_examples=200, deadline=None)
    def test_bit_flip_never_yields_a_wrong_frame(self, bound, frames, bit):
        data = bytearray(encode_all(bound, frames))
        bit %= 8 * len(data)
        data[bit // 8] ^= 1 << (bit % 8)
        try:
            decoded = StreamDecoder(bound).feed(bytes(data))
        except StreamError:
            return
        # A flipped length can leave the decoder waiting for bytes that
        # never come; whatever did decode must be a strict prefix.
        assert len(decoded) < len(frames)
        assert decoded == numbered(frames)[:len(decoded)]

    @given(skip=st.integers(1, 5))
    @settings(max_examples=10, deadline=None)
    def test_sequence_gap_rejected(self, bound, skip):
        writer = StreamWriter(bound)
        for _ in range(skip):
            writer.encode(0x01)  # frames never delivered
        with pytest.raises(StreamError, match="sequence gap"):
            StreamDecoder(bound).feed(writer.encode(0x01))

    def test_oversized_length_claim_rejected_before_buffering(self, bound):
        with pytest.raises(StreamError, match="desynchronised"):
            StreamDecoder(bound).feed(HEADER.pack(bound + 1, 0, 0))
        # A claim at the bound is legal: the decoder waits for its bytes.
        assert StreamDecoder(bound).feed(HEADER.pack(bound, 0, 0)) == []

    def test_oversized_payload_refused_at_encode(self, bound):
        writer = StreamWriter(bound)
        with pytest.raises(StreamError, match="frame bound"):
            writer.encode(0x01, bytes(bound))  # kind byte + bound > bound
        # The refused frame consumed no sequence number.
        assert StreamDecoder(bound).feed(writer.encode(0x01))[0][0] == 0

    def test_payload_without_kind_byte_rejected(self, bound):
        with pytest.raises(StreamError, match="no kind byte"):
            StreamDecoder(bound).feed(HEADER.pack(0, 0, 1))  # adler32(b"") == 1
