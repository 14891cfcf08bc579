"""Socket front-end for the cluster master.

:class:`MasterServer` serves the cluster wire from the shared
:class:`repro.faults.protocol.FrameServer` (listener, one reader per
worker connection, prompt stop) and adds a ticker thread that drives
:meth:`ClusterMaster.tick` on a fixed cadence.  Every touch of the
master state machine happens under one lock: the machine itself stays
single-threaded (and therefore identical to the one the deterministic
harness exercises), the server is just its mailroom.

A connection error or close is reported to the master as a node loss;
lease expiry catches the cases TCP never reports (silent partition,
frozen peer).
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional

from repro.cluster import wire
from repro.cluster.master import ClusterMaster
from repro.faults.protocol import Connection, FrameServer

DEFAULT_TICK_INTERVAL_S = 0.1


class MasterServer(FrameServer):
    """Serve one :class:`ClusterMaster` over TCP."""

    def __init__(
        self,
        master: ClusterMaster,
        host: str = "127.0.0.1",
        port: int = 0,
        tick_interval_s: float = DEFAULT_TICK_INTERVAL_S,
    ) -> None:
        super().__init__(
            host, port, "repro-cluster", max_payload_bytes=wire.MAX_PAYLOAD_BYTES
        )
        self.host, self.port = self.address
        self.master = master
        self.tick_interval_s = tick_interval_s
        self._lock = threading.RLock()
        self._ticks_stopped = threading.Event()
        self._ticker: Optional[threading.Thread] = None
        #: node_id -> the connection that said hello for it
        self._links: Dict[str, Connection] = {}

    # ------------------------------------------------------------------
    def start(self) -> "MasterServer":
        super().start()
        self._ticker = threading.Thread(
            target=self._tick_loop, name="repro-cluster-tick", daemon=True
        )
        self._ticker.start()
        return self

    def on_frame(self, conn: Connection, kind: int, body: bytes) -> bool:
        message = wire.unpack_message(kind, body)
        with self._lock:
            # The wire layer only guarantees a well-framed dict with a
            # "type" key; fields are still untrusted.  An unknown type,
            # missing or wrongly-typed fields, or a refused hello is
            # counted and dropped — it must not kill the reader thread.
            try:
                msg_type = message["type"]
                if msg_type == wire.MSG_HELLO:
                    hello_id = str(message["node_id"])
                    self.master.register_node(hello_id, int(message["capacity"]))
                    stale = self._links.get(hello_id)
                    if stale is not None and stale is not conn:
                        # Reconnect with the same node id: wake the old
                        # connection's reader so it exits (the ownership
                        # check keeps it from touching the new link).
                        stale.hang_up()
                    self._links[hello_id] = conn
                    conn.state = hello_id
                elif msg_type == wire.MSG_HEARTBEAT:
                    self.master.heartbeat(str(message["node_id"]))
                elif msg_type == wire.MSG_RESULT:
                    self.master.handle_result(
                        str(message["node_id"]),
                        str(message["job_id"]),
                        dict(message["payload"]),
                    )
                elif msg_type == wire.MSG_ERROR:
                    self.master.handle_error(
                        str(message["node_id"]),
                        str(message["job_id"]),
                        str(message.get("error", "worker error")),
                    )
                else:
                    raise ValueError(f"unknown message type {msg_type!r}")
            except (KeyError, TypeError, ValueError):
                self.master.stats.counter("malformed_messages").increment()
        return False

    def on_disconnect(self, conn: Connection) -> None:
        node_id = conn.state
        if node_id is None:
            return
        with self._lock:
            # Only the connection that owns the stored link may retire
            # it: a reconnect replaces the link, and the stale reader's
            # exit must not declare the fresh, healthy connection lost.
            if self._links.get(node_id) is conn:
                del self._links[node_id]
                self.master.node_lost(node_id)

    def _tick_loop(self) -> None:
        while not self._ticks_stopped.wait(self.tick_interval_s):
            self.tick_once()

    def tick_once(self) -> None:
        """One master tick plus delivery of its dispatches."""
        with self._lock:
            outbox = self.master.tick()
            for target_node, message in outbox:
                link = self._links.get(target_node)
                if link is None:
                    # Connection vanished between tick and delivery:
                    # treat as a node loss so the job is redispatched.
                    self.master.node_lost(target_node)
                    continue
                try:
                    link.send(wire.KIND_MESSAGE, wire.pack_message(message))
                except OSError:
                    self._links.pop(target_node, None)
                    self.master.node_lost(target_node)

    # ------------------------------------------------------------------
    def wait_for_nodes(self, count: int, timeout_s: float = 30.0) -> bool:
        """Block until ``count`` workers said hello (or timeout)."""
        return self._wait_until(
            lambda: sum(1 for h in self.master.nodes.values() if h.alive) >= count,
            timeout_s,
        )

    def submit(self, spec, tenant: str = "default"):
        with self._lock:
            return self.master.submit(spec, tenant)

    def drain(self, timeout_s: float = 300.0) -> bool:
        """Block until every accepted job settles (or timeout)."""
        return self._wait_until(lambda: self.master.all_settled, timeout_s)

    def _wait_until(self, condition, timeout_s: float) -> bool:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            with self._lock:
                if condition():
                    return True
            time.sleep(0.02)
        return False

    def metrics_snapshot(self):
        with self._lock:
            return self.master.metrics_snapshot()

    def shutdown(self) -> None:
        """Tell workers to drain, then stop serving."""
        self._ticks_stopped.set()
        if self._ticker is not None:
            self._ticker.join(timeout=5.0)
        with self._lock:
            body = wire.pack_message(wire.shutdown())
            for link in self._links.values():
                try:
                    link.send(wire.KIND_MESSAGE, body)
                except OSError:
                    pass
            # Cleared before stop() wakes the readers: their exit is a
            # clean shutdown, not a node loss.
            self._links.clear()
        self.stop()
        self.master.close()
