"""Threaded socket front-end for the cluster master.

:class:`MasterServer` owns the listening socket and three kinds of
threads — an acceptor, one reader per worker connection, and a ticker
that drives :meth:`ClusterMaster.tick` on a fixed cadence.  Every
touch of the master state machine happens under one lock: the machine
itself stays single-threaded (and therefore identical to the one the
deterministic harness exercises), the server is just its mailroom.

A connection error or close is reported to the master as a node loss;
lease expiry catches the cases TCP never reports (silent partition,
frozen peer).
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Dict, Optional, Tuple

from repro.cluster import wire
from repro.cluster.master import ClusterMaster
from repro.faults.protocol import StreamDecoder, StreamError, StreamWriter, recv_frames

DEFAULT_TICK_INTERVAL_S = 0.1


class MasterServer:
    """Serve one :class:`ClusterMaster` over TCP."""

    def __init__(
        self,
        master: ClusterMaster,
        host: str = "127.0.0.1",
        port: int = 0,
        tick_interval_s: float = DEFAULT_TICK_INTERVAL_S,
    ) -> None:
        self.master = master
        self.tick_interval_s = tick_interval_s
        self._lock = threading.RLock()
        self._stop = threading.Event()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(32)
        self.host, self.port = self._listener.getsockname()[:2]
        #: node_id -> (socket, per-connection sequence stamper)
        self._links: Dict[str, Tuple[socket.socket, StreamWriter]] = {}
        self._threads: list = []

    # ------------------------------------------------------------------
    def start(self) -> "MasterServer":
        for target in (self._accept_loop, self._tick_loop):
            thread = threading.Thread(target=target, daemon=True)
            thread.start()
            self._threads.append(thread)
        return self

    def _accept_loop(self) -> None:
        self._listener.settimeout(0.2)
        while not self._stop.is_set():
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            thread = threading.Thread(
                target=self._reader, args=(conn,), daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def _reader(self, conn: socket.socket) -> None:
        decoder = StreamDecoder(wire.MAX_PAYLOAD_BYTES)
        node_id: Optional[str] = None
        try:
            while not self._stop.is_set():
                frames = recv_frames(conn, decoder)
                if frames is None:
                    break
                for _seq, kind, body in frames:
                    message = wire.unpack_message(kind, body)
                    node_id = self._handle(conn, message, node_id)
        except (OSError, StreamError):
            pass
        finally:
            if node_id is not None:
                with self._lock:
                    # Only the reader that owns the stored socket may
                    # retire the link: a reconnect replaces the link, and
                    # the stale reader's exit must not declare the fresh,
                    # healthy connection lost.
                    link = self._links.get(node_id)
                    if link is not None and link[0] is conn:
                        del self._links[node_id]
                        self.master.node_lost(node_id)
            try:
                conn.close()
            except OSError:
                pass

    def _handle(
        self,
        conn: socket.socket,
        message: Dict[str, object],
        node_id: Optional[str],
    ) -> Optional[str]:
        with self._lock:
            # The wire layer only guarantees a well-framed dict with a
            # "type" key; fields are still untrusted.  An unknown type,
            # missing or wrongly-typed fields, or a refused hello is
            # counted and dropped — it must not kill the reader thread.
            try:
                kind = message["type"]
                if kind == wire.MSG_HELLO:
                    hello_id = str(message["node_id"])
                    self.master.register_node(hello_id, int(message["capacity"]))
                    stale = self._links.get(hello_id)
                    if stale is not None and stale[0] is not conn:
                        # Reconnect with the same node id: retire the old
                        # socket so its reader exits (the ownership check
                        # above keeps it from touching the new link).
                        # shutdown(), not just close(): the stale reader
                        # blocked in recv() holds the socket open, and
                        # only shutdown(2) wakes it with a clean EOF.
                        try:
                            stale[0].shutdown(socket.SHUT_RDWR)
                        except OSError:
                            pass
                        try:
                            stale[0].close()
                        except OSError:
                            pass
                    self._links[hello_id] = (conn, StreamWriter(wire.MAX_PAYLOAD_BYTES))
                    node_id = hello_id
                elif kind == wire.MSG_HEARTBEAT:
                    self.master.heartbeat(str(message["node_id"]))
                elif kind == wire.MSG_RESULT:
                    self.master.handle_result(
                        str(message["node_id"]),
                        str(message["job_id"]),
                        dict(message["payload"]),
                    )
                elif kind == wire.MSG_ERROR:
                    self.master.handle_error(
                        str(message["node_id"]),
                        str(message["job_id"]),
                        str(message.get("error", "worker error")),
                    )
                else:
                    raise ValueError(f"unknown message type {kind!r}")
            except (KeyError, TypeError, ValueError):
                self.master.stats.counter("malformed_messages").increment()
        return node_id

    def _tick_loop(self) -> None:
        while not self._stop.wait(self.tick_interval_s):
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
                sock, writer = link
                frame = writer.encode(wire.KIND_MESSAGE, wire.pack_message(message))
                try:
                    sock.sendall(frame)
                except OSError:
                    self._links.pop(target_node, None)
                    self.master.node_lost(target_node)

    # ------------------------------------------------------------------
    def wait_for_nodes(self, count: int, timeout_s: float = 30.0) -> bool:
        """Block until ``count`` workers said hello (or timeout)."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            with self._lock:
                alive = sum(1 for h in self.master.nodes.values() if h.alive)
            if alive >= count:
                return True
            time.sleep(0.02)
        return False

    def submit_dict(self, payload, tenant: str = "default"):
        with self._lock:
            return self.master.submit_dict(payload, tenant)

    def submit(self, spec, tenant: str = "default"):
        with self._lock:
            return self.master.submit(spec, tenant)

    def drain(self, timeout_s: float = 300.0) -> bool:
        """Block until every accepted job settles (or timeout)."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            with self._lock:
                done = self.master.all_settled
            if done:
                return True
            time.sleep(0.02)
        return False

    def metrics_snapshot(self):
        with self._lock:
            return self.master.metrics_snapshot()

    def shutdown(self) -> None:
        """Tell workers to drain, then stop serving."""
        with self._lock:
            body = wire.pack_message(wire.shutdown())
            for node_id, (sock, writer) in list(self._links.items()):
                try:
                    sock.sendall(writer.encode(wire.KIND_MESSAGE, body))
                except OSError:
                    pass
        self._stop.set()
        try:
            self._listener.close()
        except OSError:
            pass
        with self._lock:
            for _node_id, (sock, _writer) in list(self._links.items()):
                try:
                    sock.close()
                except OSError:
                    pass
            self._links.clear()
        self.master.close()
