"""Session-stream vocabulary: message kinds, body codecs, the client.

After ``open_session`` registered a circuit structure, every request is
*just a parameter vector*.  Frames use the stream codec of
:mod:`repro.faults.protocol` (``StreamWriter`` / ``StreamDecoder`` /
``StreamError``, imported here by name) at its default 4 MiB bound;
this module owns the kind byte's table and the bodies.  Float-carrying
bodies are little-endian IEEE-754 doubles, so vectors and energies are
bit-exact; control bodies are canonical JSON.

Payload layouts after the kind byte::

    OPEN    canonical JSON {"spec": <job-spec dict>, "tenant": str}
    OPENED  canonical JSON {"session_id", "n_params", "structure_hash",
                            "backend_id", "lease_s"}
    EVAL    <u32 shots> <u32 n_vectors> <u32 n_params> + f64[v*p]
            (shots == 0 means "the session's default")
    VALUE   f64[n_vectors] energies, request order
    GRAD    EVAL-shaped body (shots == 0: the adjoint pass is
            analytic; any other value is rejected by the server)
    GRADS   <u32 n_vectors> <u32 n_params> + f64[v*(1+p)] rows of
            (energy, gradient...), request order
    ERROR   canonical JSON {"code": str, "message": str}
    CLOSE   empty
    CLOSED  canonical JSON session stats

The codec does not know this table: a frame of any other kind decodes,
and the server answers it with an ``ERROR`` frame.
"""

from __future__ import annotations

import socket
import struct
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.faults.protocol import (
    StreamDecoder,
    StreamError,
    StreamWriter,
    pack_doubles,
    pack_json,
    recv_frames,
    unpack_json,
)

_EVAL_HEADER = struct.Struct("<III")

# -- message kinds (payload byte 0) -------------------------------------
KIND_OPEN = 0x01    #: client -> server: register structure, open session
KIND_OPENED = 0x02  #: server -> client: session handle
KIND_EVAL = 0x03    #: client -> server: parameter vector batch
KIND_VALUE = 0x04   #: server -> client: energies for one EVAL
KIND_ERROR = 0x05   #: server -> client: structured failure
KIND_CLOSE = 0x06   #: client -> server: release the session
KIND_CLOSED = 0x07  #: server -> client: final session stats
KIND_GRAD = 0x08    #: client -> server: adjoint-gradient vector batch
KIND_GRADS = 0x09   #: server -> client: energies + gradients for one GRAD

_GRADS_HEADER = struct.Struct("<II")


class StreamRemoteError(RuntimeError):
    """The server answered a request with a structured ERROR frame."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code


# -- bodies -------------------------------------------------------------
def _stack_rows(rows: Sequence[np.ndarray], what: str) -> np.ndarray:
    """Equal-length vectors as one little-endian ``(rows, params)`` matrix."""
    arrays = [np.asarray(row, dtype="<f8") for row in rows]
    n_params = arrays[0].size
    for array in arrays:
        if array.shape != (n_params,):
            raise StreamError(
                f"ragged {what} batch: {array.size} params after {n_params}"
            )
    return np.stack(arrays)


def pack_eval(vectors: Sequence[np.ndarray], shots: int = 0) -> bytes:
    """EVAL body: shot count + vector batch as packed doubles."""
    if not 0 <= shots < 2 ** 32:
        raise StreamError(f"shots must be in [0, 2**32), got {shots}")
    if not len(vectors):
        raise StreamError("an EVAL frame needs at least one vector")
    rows = _stack_rows(vectors, "vector")
    return _EVAL_HEADER.pack(int(shots), *rows.shape) + rows.tobytes()


def _unpack_rows(
    body: bytes, header: struct.Struct, name: str, lead: int
) -> Tuple[Tuple[int, ...], np.ndarray]:
    """Header fields + the ``(n_vectors, lead + n_params)`` doubles after them."""
    if len(body) < header.size:
        raise StreamError(f"{name} body shorter than its header")
    fields = header.unpack_from(body)
    n_vectors, width = fields[-2], lead + fields[-1]
    if n_vectors < 1 or len(body) != header.size + 8 * n_vectors * width:
        raise StreamError(
            f"{name} body of {len(body)} bytes does not hold "
            f"{n_vectors}x{width} doubles"
        )
    rows = np.frombuffer(body, dtype="<f8", offset=header.size)
    return fields, rows.reshape(n_vectors, width)


def unpack_eval(body: bytes) -> Tuple[np.ndarray, int]:
    """Inverse of :func:`pack_eval` → ``(vectors (v, p), shots)``."""
    (shots, _, _), rows = _unpack_rows(body, _EVAL_HEADER, "EVAL", 0)
    return rows.copy(), int(shots)


def pack_values(values: Sequence[float]) -> bytes:
    """VALUE body: energies as packed doubles (bit-exact)."""
    return pack_doubles([float(v) for v in values])


def unpack_values(body: bytes) -> List[float]:
    if len(body) % 8:
        raise StreamError(f"VALUE body of {len(body)} bytes is not doubles")
    return [float(v) for v in np.frombuffer(body, dtype="<f8")]


def pack_grads(
    energies: Sequence[float], grads: Sequence[np.ndarray]
) -> bytes:
    """GRADS body: per-vector rows of ``(energy, gradient...)``."""
    if len(energies) != len(grads):
        raise StreamError(
            f"got {len(energies)} energies for {len(grads)} gradients"
        )
    if not len(grads):
        raise StreamError("a GRADS frame needs at least one row")
    rows = _stack_rows(grads, "gradient")
    table = np.column_stack((np.asarray(energies, dtype="<f8"), rows))
    return _GRADS_HEADER.pack(*rows.shape) + table.tobytes()


def unpack_grads(body: bytes) -> Tuple[List[float], List[np.ndarray]]:
    """Inverse of :func:`pack_grads` → ``(energies, gradients)``."""
    _, rows = _unpack_rows(body, _GRADS_HEADER, "GRADS", 1)
    return [float(value) for value in rows[:, 0]], [row.copy() for row in rows[:, 1:]]


def pack_error(code: str, message: str) -> bytes:
    return pack_json({"code": code, "message": message})


def unpack_error(body: bytes) -> Tuple[str, str]:
    obj = unpack_json(body)
    return str(obj.get("code", "error")), str(obj.get("message", ""))


# -- client -------------------------------------------------------------
class SessionClient:
    """Blocking socket client for one streamed session.

    Protocol per connection: one OPEN, any number of EVALs and GRADs
    (each answered in order by VALUE / GRADS or ERROR), one CLOSE.
    ERROR answers raise :class:`StreamRemoteError` with the server's
    structured code; the session itself stays usable unless the code
    says otherwise.
    """

    def __init__(self, host: str, port: int, timeout_s: float = 30.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout_s)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._writer = StreamWriter()
        self._decoder = StreamDecoder()
        self._inbox: List[Tuple[int, int, bytes]] = []
        self.session: Optional[Dict[str, object]] = None

    def _recv_frame(self) -> Tuple[int, int, bytes]:
        while not self._inbox:
            frames = recv_frames(self._sock, self._decoder)
            if frames is None:
                raise StreamError("server closed the stream mid-request")
            self._inbox.extend(frames)
        return self._inbox.pop(0)

    def _request(self, kind: int, body: bytes, expect: int, name: str) -> bytes:
        """Send one request frame; return the body of its ``expect`` reply."""
        self._sock.sendall(self._writer.encode(kind, body))
        _seq, got, reply = self._recv_frame()
        if got == KIND_ERROR:
            raise StreamRemoteError(*unpack_error(reply))
        if got != expect:
            raise StreamError(f"expected {name}, got kind {got}")
        return reply

    def open(
        self, spec_dict: Dict[str, object], tenant: str = "default"
    ) -> Dict[str, object]:
        body = pack_json({"spec": spec_dict, "tenant": tenant})
        self.session = unpack_json(
            self._request(KIND_OPEN, body, KIND_OPENED, "OPENED")
        )
        return self.session

    def evaluate(
        self, vectors: Sequence[np.ndarray], shots: int = 0
    ) -> List[float]:
        """Stream one vector batch; block for its energies."""
        body = pack_eval(vectors, shots)
        values = unpack_values(self._request(KIND_EVAL, body, KIND_VALUE, "VALUE"))
        if len(values) != len(vectors):
            raise StreamError(
                f"server returned {len(values)} energies for "
                f"{len(vectors)} vectors"
            )
        return values

    def gradients(
        self, vectors: Sequence[np.ndarray], shots: int = 0
    ) -> Tuple[List[float], List[np.ndarray]]:
        """Stream one adjoint-gradient batch; block for its rows.

        Returns ``(energies, gradients)`` in request order — each
        energy is the analytic forward-pass value at its vector.  A
        session whose workload has no adjoint path answers with a
        structured ``adjoint_unsupported`` ERROR; the session stays
        usable (fall back to :meth:`evaluate` probes).
        """
        body = pack_eval(vectors, shots)
        energies, grads = unpack_grads(
            self._request(KIND_GRAD, body, KIND_GRADS, "GRADS")
        )
        if len(energies) != len(vectors):
            raise StreamError(
                f"server returned {len(energies)} gradient rows for "
                f"{len(vectors)} vectors"
            )
        return energies, grads

    def close(self) -> Optional[Dict[str, object]]:
        """Release the session; returns the server's final stats."""
        stats: Optional[Dict[str, object]] = None
        try:
            self._sock.sendall(self._writer.encode(KIND_CLOSE))
            _seq, kind, reply = self._recv_frame()
            if kind == KIND_CLOSED:
                stats = unpack_json(reply)
        except (OSError, StreamError):
            pass
        try:
            self._sock.close()
        except OSError:
            pass
        return stats

    def __enter__(self) -> "SessionClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
