"""Typed messages for the master↔worker link.

The cluster frames with the stream codec of :mod:`repro.faults.protocol`
under one kind, :data:`KIND_MESSAGE`, whose body is a canonical-JSON
object with a ``type`` field: debuggable at these message rates, and
floats round-trip bit-exactly through the shared encoder, which keeps
cost histories bit-identical across the wire.  This module owns the
message vocabulary, the cluster's payload bound and the body codec
(:func:`pack_message` / :func:`unpack_message`).
"""

from __future__ import annotations

from typing import Dict

from repro.faults.protocol import StreamError, pack_json, unpack_json

#: The one frame kind on the cluster wire (the session kinds end at 0x09).
KIND_MESSAGE = 0x0A

#: Upper bound on a single payload, for the cluster's writers and
#: decoders.  Larger than the session stream's: a result carries one
#: cost-history entry per iteration and ``JobSpec.iterations`` has no
#: upper limit.  A length prefix beyond this is a desynchronised stream
#: (or garbage), not a real message.
MAX_PAYLOAD_BYTES = 16 * 1024 * 1024

# -- message types ------------------------------------------------------
MSG_HELLO = "hello"          #: worker -> master: node_id, capacity
MSG_HEARTBEAT = "heartbeat"  #: worker -> master: lease renewal
MSG_DISPATCH = "dispatch"    #: master -> worker: job_id, spec, attempt
MSG_RESULT = "result"        #: worker -> master: job_id, result payload
MSG_ERROR = "error"          #: worker -> master: job_id, error string
MSG_SHUTDOWN = "shutdown"    #: master -> worker: drain and exit


#: :data:`KIND_MESSAGE` body: canonical JSON (byte-deterministic).
pack_message = pack_json


def unpack_message(kind: int, body: bytes) -> Dict[str, object]:
    """Inverse of :func:`pack_message` for one decoded frame.

    Only the envelope is checked — a JSON object with a ``type`` key;
    the fields stay untrusted and are validated by the consumer.
    """
    if kind != KIND_MESSAGE:
        raise StreamError(f"expected a cluster message, got kind {kind}")
    message = unpack_json(body)
    if "type" not in message:
        raise StreamError("cluster message is not a typed message object")
    return message


# -- message constructors ----------------------------------------------
def hello(node_id: str, capacity: int) -> Dict[str, object]:
    return {"type": MSG_HELLO, "node_id": node_id, "capacity": capacity}


def heartbeat(node_id: str) -> Dict[str, object]:
    return {"type": MSG_HEARTBEAT, "node_id": node_id}


def dispatch(
    job_id: str, spec_dict: Dict[str, object], attempt: int
) -> Dict[str, object]:
    return {
        "type": MSG_DISPATCH,
        "job_id": job_id,
        "spec": spec_dict,
        "attempt": attempt,
    }


def result(
    node_id: str, job_id: str, payload: Dict[str, object]
) -> Dict[str, object]:
    return {
        "type": MSG_RESULT,
        "node_id": node_id,
        "job_id": job_id,
        "payload": payload,
    }


def error(node_id: str, job_id: str, message: str) -> Dict[str, object]:
    return {
        "type": MSG_ERROR,
        "node_id": node_id,
        "job_id": job_id,
        "error": message,
    }


def shutdown() -> Dict[str, object]:
    return {"type": MSG_SHUTDOWN}
