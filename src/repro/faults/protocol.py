"""Checksums, float codecs and the one stream frame codec.

:class:`StreamWriter` / :class:`StreamDecoder` frame every socket wire
— the session stream (:mod:`repro.service.stream`) and the cluster
link (:mod:`repro.cluster.wire`)::

    <u32 payload length> <u32 sequence> <u32 adler32> <kind byte> <body>

The codec validates framing only (length bound, per-direction sequence,
checksum, a kind byte present); on TCP any violation means a broken
peer, so it raises :class:`StreamError` and the connection is dropped.
Each wire owns its kind table and bodies and passes its own payload
bound (default: the session tier's :data:`MAX_PAYLOAD_BYTES`).

:class:`FrameServer` is the one TCP listener both socket tiers serve
from (:class:`repro.service.sessions.SessionServer`,
:class:`repro.cluster.server.MasterServer`): a blocking accept thread,
one reader thread per :class:`Connection`, a registry of live
connections, and a ``stop`` that wakes and joins all of them.  A tier
supplies only what a frame means (:meth:`FrameServer.on_frame`) and
what a lost connection means (:meth:`FrameServer.on_disconnect`).

:class:`PutFramer` / :class:`PutVerifier` model the measurement-PUT
path instead (§6.3): the controller streams batches to host memory and,
under injected faults, a batch can vanish or arrive corrupted, so each
gets a sequence number (a gap is NACKed) and a checksum (a corrupted
delivery is rejected, not consumed).  That framing is virtual: headers
are verified and counted while payload bytes land at their original
addresses, and a retransmission's cost is charged in sim time by
:func:`repro.core.scheduler.compute_run_timeline`.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

#: Stream frame header: payload length, sequence number, Adler-32.
HEADER = struct.Struct("<III")

#: Default payload bound, the session tier's: a parameter vector is a
#: few hundred doubles at most, so a length prefix beyond this is a
#: desynchronised stream (or garbage), not a real message.
MAX_PAYLOAD_BYTES = 4 * 1024 * 1024


def checksum32(payload: bytes) -> int:
    """Adler-32 of the payload (cheap enough for a controller FSM)."""
    return zlib.adler32(payload) & 0xFFFFFFFF


# -- shared wire encoders ----------------------------------------------
#
# Every wire in the tree (the PUT model below, the cluster messages,
# the session stream) encodes floats through exactly one of the two
# codecs below, so a double that crosses any boundary round-trips
# bit-exactly — including denormals, ``-0.0`` and the largest finite
# exponents — auditable in one place.

def dumps_wire(obj: object) -> str:
    """Canonical JSON for wire payloads (sorted keys, no whitespace).

    Python's ``repr`` has emitted shortest round-trip float literals
    since 3.1, so ``loads_wire(dumps_wire(x))`` reproduces every finite
    double bit for bit.  Non-finite floats are rejected: NaN/Infinity
    tokens are not JSON, and a peer's parser may silently coerce them.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def loads_wire(text: str) -> object:
    """Inverse of :func:`dumps_wire` (plain ``json.loads``)."""
    return json.loads(text)


def pack_doubles(values: Sequence[float]) -> bytes:
    """Little-endian IEEE-754 doubles — the binary-exact fast path."""
    return struct.pack(f"<{len(values)}d", *values)


def unpack_doubles(data: bytes) -> List[float]:
    """Inverse of :func:`pack_doubles`."""
    if len(data) % 8:
        raise ValueError(
            f"double payload of {len(data)} bytes is not a multiple of 8"
        )
    return list(struct.unpack(f"<{len(data) // 8}d", data))


# -- stream frame codec -------------------------------------------------
class StreamError(ValueError):
    """A frame or body failed validation (length, sequence, checksum,
    kind, body layout)."""


def pack_json(obj: Dict[str, object]) -> bytes:
    """A canonical-JSON object body (session control, cluster messages)."""
    return dumps_wire(obj).encode()


def unpack_json(body: bytes) -> Dict[str, object]:
    """Inverse of :func:`pack_json`; anything but a JSON object raises."""
    try:
        obj = loads_wire(body.decode())
    except (UnicodeDecodeError, ValueError) as exc:
        raise StreamError(f"body is not canonical JSON: {exc}")
    if not isinstance(obj, dict):
        raise StreamError("body is not a JSON object")
    return obj


class StreamWriter:
    """Sender side: stamps outgoing frames with the next sequence."""

    def __init__(self, max_payload_bytes: int = MAX_PAYLOAD_BYTES) -> None:
        self.max_payload_bytes = max_payload_bytes
        self._next_sequence = 0

    def encode(self, kind: int, body: bytes = b"") -> bytes:
        """One framed message, ready for ``sendall``."""
        payload = bytes((kind,)) + body
        if len(payload) > self.max_payload_bytes:
            raise StreamError(
                f"payload of {len(payload)} bytes exceeds the "
                f"{self.max_payload_bytes}-byte frame bound"
            )
        sequence = self._next_sequence
        self._next_sequence = (sequence + 1) & 0xFFFFFFFF
        return HEADER.pack(len(payload), sequence, checksum32(payload)) + payload


class StreamDecoder:
    """Incremental receiver: feed bytes, collect ``(seq, kind, body)``.

    One decoder per connection per direction.  Frames must arrive in
    sequence with valid checksums; a violation raises
    :class:`StreamError` and the connection should be dropped — on a
    reliable stream there is no point NACKing, the peer is broken.
    """

    def __init__(self, max_payload_bytes: int = MAX_PAYLOAD_BYTES) -> None:
        self.max_payload_bytes = max_payload_bytes
        self._buffer = bytearray()
        self._expected_sequence = 0
        self.frames_accepted = 0

    def feed(self, data: bytes) -> List[Tuple[int, int, bytes]]:
        """Consume bytes; return every complete, validated frame."""
        buffer = self._buffer
        buffer.extend(data)
        frames: List[Tuple[int, int, bytes]] = []
        while len(buffer) >= HEADER.size:
            length, sequence, checksum = HEADER.unpack_from(buffer)
            if length > self.max_payload_bytes:
                raise StreamError(
                    f"frame claims {length} payload bytes "
                    f"(bound {self.max_payload_bytes}); stream desynchronised"
                )
            end = HEADER.size + length
            if len(buffer) < end:
                break
            payload = bytes(buffer[HEADER.size:end])
            del buffer[:end]
            if sequence != self._expected_sequence:
                raise StreamError(
                    f"sequence gap: expected {self._expected_sequence}, "
                    f"got {sequence}"
                )
            if checksum32(payload) != checksum:
                raise StreamError(f"checksum mismatch on frame {sequence}")
            if not payload:
                raise StreamError(f"frame {sequence} has no kind byte")
            self._expected_sequence = (sequence + 1) & 0xFFFFFFFF
            self.frames_accepted += 1
            frames.append((sequence, payload[0], payload[1:]))
        return frames


def recv_frames(
    sock, decoder: StreamDecoder
) -> Optional[List[Tuple[int, int, bytes]]]:
    """Blocking read of one chunk from a socket into the decoder.

    Returns the decoded frames (possibly empty — a partial frame), or
    ``None`` when the peer closed the connection cleanly.
    """
    data = sock.recv(65536)
    if not data:
        return None
    return decoder.feed(data)


# -- the one TCP front door ---------------------------------------------
class Connection:
    """One accepted socket with its own codec pair.

    ``state`` belongs to the tier serving the connection (the session
    it opened, the node that said hello); the server never reads it.
    """

    def __init__(self, sock: socket.socket, max_payload_bytes: int) -> None:
        self.sock = sock
        self.writer = StreamWriter(max_payload_bytes)
        self.decoder = StreamDecoder(max_payload_bytes)
        self.state: object = None

    def send(self, kind: int, body: bytes) -> None:
        self.sock.sendall(self.writer.encode(kind, body))

    def hang_up(self) -> None:
        """Wake this connection's reader (blocked in ``recv(2)``, which
        ``close()`` would not wake) with a clean EOF."""
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass


class FrameServer:
    """Thread-per-connection TCP server over the stream frame codec.

    Binds at construction, so ``address`` holds the ephemeral port
    before :meth:`start`.  A reader exits on EOF, a socket error or a
    :class:`StreamError` (a broken peer), calls :meth:`on_disconnect`
    and removes itself from the registry.
    """

    def __init__(
        self, host: str, port: int, name: str, max_payload_bytes: int = MAX_PAYLOAD_BYTES
    ) -> None:
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(32)
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]
        self._name = name
        self._max_payload_bytes = max_payload_bytes
        self._accept_thread: Optional[threading.Thread] = None
        #: live connection -> the thread serving it (the thread removes
        #: its own entry on exit)
        self._conns: Dict[Connection, threading.Thread] = {}
        self._conns_lock = threading.Lock()

    def on_frame(self, conn: Connection, kind: int, body: bytes) -> bool:
        """Handle one inbound frame; return True to end the connection."""
        raise NotImplementedError

    def on_disconnect(self, conn: Connection) -> None:
        """The connection's reader is exiting (any cause)."""

    def start(self) -> "FrameServer":
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"{self._name}-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        """Wake the blocked ``accept(2)`` and every blocked ``recv(2)``
        with ``shutdown(2)`` and join them: prompt even with idle peers."""
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._listener.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        # The accept thread is gone, so the registry can only shrink.
        with self._conns_lock:
            live = list(self._conns.items())
        for conn, _thread in live:
            conn.hang_up()
        for _conn, thread in live:
            thread.join(timeout=5.0)

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                return  # listener shut down
            conn = Connection(sock, self._max_payload_bytes)
            thread = threading.Thread(
                target=self._serve, args=(conn,),
                name=f"{self._name}-conn", daemon=True,
            )
            with self._conns_lock:
                self._conns[conn] = thread
            thread.start()

    def _serve(self, conn: Connection) -> None:
        try:
            conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            while True:
                frames = recv_frames(conn.sock, conn.decoder)
                if frames is None:
                    return
                for _seq, kind, body in frames:
                    if self.on_frame(conn, kind, body):
                        return
        except (OSError, StreamError):
            pass  # broken or desynchronised peer: drop the connection
        finally:
            self.on_disconnect(conn)
            with self._conns_lock:
                self._conns.pop(conn, None)
            conn.sock.close()


# -- modelled measurement-PUT framing -----------------------------------

@dataclass(frozen=True)
class Frame:
    """One framed batch: header fields + the raw payload."""

    sequence: int
    checksum: int
    payload: bytes


class PutFramer:
    """Sender side: stamps outgoing batches with seq + checksum."""

    def __init__(self) -> None:
        self._next_sequence = 0

    def frame(self, payload: bytes) -> Frame:
        frame = Frame(
            sequence=self._next_sequence,
            checksum=checksum32(payload),
            payload=payload,
        )
        self._next_sequence += 1
        return frame


class PutVerifier:
    """Receiver side: validates order and integrity, counts rejects."""

    def __init__(self) -> None:
        self._expected_sequence = 0
        self.accepted = 0
        self.gap_nacks = 0
        self.checksum_nacks = 0

    def deliver(self, frame: Frame, corrupted: bool = False) -> bool:
        """Validate one delivery.

        ``corrupted=True`` models bit errors in flight: the payload's
        checksum no longer matches the header, so the receiver NACKs.
        A sequence gap (a dropped earlier frame) is also NACKed.
        Returns True when the frame is accepted.
        """
        if frame.sequence != self._expected_sequence:
            self.gap_nacks += 1
            return False
        payload = frame.payload
        if corrupted:
            # Flip one bit of a copy — the real verification runs.
            mutated = bytearray(payload or b"\x00")
            mutated[0] ^= 0x01
            payload = bytes(mutated)
        if checksum32(payload) != frame.checksum:
            self.checksum_nacks += 1
            return False
        self.accepted += 1
        self._expected_sequence = frame.sequence + 1
        return True
