"""Tests for the parametric-compilation session tier.

Covers the wire codecs (bit-exact float round-trips, satellite of the
shared-encoder consolidation), the stream framing discipline, the
:class:`SessionManager` lifecycle (admission, leases, pinning,
failure), the TCP server/client pair, the resident
:class:`ServiceHost`, and the determinism contract: a streamed
optimisation reproduces the one-shot job's energy history bit for bit.
"""

import concurrent.futures
import gc
import json
import math
import struct
import threading
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import EvaluationEngine, HybridRunner, QtenonSystem
from repro.cluster.harness import ManualClock
from repro.faults.protocol import (
    HEADER,
    dumps_wire,
    loads_wire,
    pack_doubles,
    unpack_doubles,
)
from repro.quantum.kernels import PROGRAM_CACHE
from repro.service import (
    AdmissionController,
    JobSpec,
    ServiceConfig,
    ServiceHost,
    SessionError,
    SessionManager,
    SessionServer,
    drive_session,
)
from repro.service import stream as wire
from repro.service.service import WORKLOADS
from repro.service.sessions import (
    ERR_BAD_VECTOR,
    ERR_EMPTY_BATCH,
    ERR_SESSION_CLOSED,
    ERR_SESSION_EXPIRED,
    ERR_UNKNOWN_SESSION,
)
from repro.vqa import make_optimizer


def spec_for(seed: int = 3, **overrides) -> JobSpec:
    base = dict(
        workload="vqe", n_qubits=2, optimizer="spsa", shots=50,
        iterations=2, seed=seed, platform="qtenon",
    )
    base.update(overrides)
    return JobSpec(**base)


class FakeEngine:
    """Engine-shaped stand-in: deterministic values, no simulation."""

    def __init__(self) -> None:
        self.closed = False

    def prepare(self, ansatz, observable) -> None:
        pass

    def evaluate_vectors(self, parameters, vectors, shots):
        return [float(np.sum(v)) for v in vectors]

    def close(self) -> None:
        self.closed = True


def fake_manager(**kwargs) -> SessionManager:
    kwargs.setdefault("engine_factory", lambda spec: FakeEngine())
    return SessionManager(**kwargs)


# ----------------------------------------------------------------------
# shared wire codecs (repro.faults.protocol)
# ----------------------------------------------------------------------
#: The doubles every codec must survive: signed zeros, the smallest
#: subnormal, the largest finite exponents, and ugly decimals.
AWKWARD_DOUBLES = [
    0.0, -0.0,
    5e-324, -5e-324,                  # smallest subnormals
    2.2250738585072014e-308,          # smallest normal
    1.7976931348623157e308,           # largest finite
    -1.7976931348623157e308,
    0.1, 1 / 3, math.pi, -math.e,
]

finite_doubles = st.floats(
    allow_nan=False, allow_infinity=False, width=64,
    allow_subnormal=True,
)


class TestSharedCodecs:
    @given(st.lists(finite_doubles, max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_pack_doubles_round_trip_bit_exact(self, values):
        decoded = unpack_doubles(pack_doubles(values))
        assert len(decoded) == len(values)
        for sent, got in zip(values, decoded):
            # == would call -0.0 and 0.0 equal; compare the bits.
            assert struct.pack("<d", sent) == struct.pack("<d", got)

    @given(st.lists(finite_doubles, max_size=32))
    @settings(max_examples=200, deadline=None)
    def test_json_wire_round_trip_bit_exact(self, values):
        decoded = loads_wire(dumps_wire({"values": values}))["values"]
        for sent, got in zip(values, decoded):
            assert struct.pack("<d", sent) == struct.pack("<d", got)

    def test_awkward_doubles_survive_both_codecs(self):
        binary = unpack_doubles(pack_doubles(AWKWARD_DOUBLES))
        json_side = loads_wire(dumps_wire(AWKWARD_DOUBLES))
        for sent, via_binary, via_json in zip(
            AWKWARD_DOUBLES, binary, json_side
        ):
            reference = struct.pack("<d", sent)
            assert struct.pack("<d", via_binary) == reference
            assert struct.pack("<d", via_json) == reference

    def test_non_finite_rejected_on_the_json_path(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                dumps_wire({"v": bad})

    def test_unpack_doubles_rejects_ragged_payloads(self):
        with pytest.raises(ValueError, match="multiple of 8"):
            unpack_doubles(b"\x00" * 9)


# ----------------------------------------------------------------------
# session stream bodies (framing itself is in test_frames.py)
# ----------------------------------------------------------------------
#: Hex of one fixed OPEN/OPENED/EVAL/VALUE/GRAD/GRADS/CLOSE/CLOSED
#: exchange (client and server frames interleaved): pins the session
#: wire format byte for byte.
GOLDEN_EXCHANGE = (
    "3600000000000000b91120e8017b2273706563223a7b226e5f717562697473223a322c22776f726b"
    "6c6f6164223a22767165227d2c2274656e616e74223a2274227d2500000000000000360cd3e7027b"
    "226e5f706172616d73223a322c2273657373696f6e5f6964223a22736573732d31227d1d00000001"
    "000000e6012b1303400000000100000002000000000000000000e03f000000000000008009000000"
    "01000000b801d40204000000000000f4bf1d000000020000003a021b0e0800000000010000000200"
    "0000000000000000e03f000000000000d03f210000000200000023037822090100000002000000"
    "000000000000e83f000000000000f03f00000000000000c001000000030000000700070006"
    "0e000000030000008a04ff20077b2262617463686573223a327d"
)


class TestStreamFraming:
    def test_golden_exchange_bytes(self):
        client, server = wire.StreamWriter(), wire.StreamWriter()
        spec = {"workload": "vqe", "n_qubits": 2}
        data = b"".join((
            client.encode(wire.KIND_OPEN, wire.pack_json({"spec": spec, "tenant": "t"})),
            server.encode(wire.KIND_OPENED, wire.pack_json({"session_id": "sess-1", "n_params": 2})),
            client.encode(wire.KIND_EVAL, wire.pack_eval([np.array([0.5, -0.0])], shots=64)),
            server.encode(wire.KIND_VALUE, wire.pack_values([-1.25])),
            client.encode(wire.KIND_GRAD, wire.pack_eval([np.array([0.5, 0.25])])),
            server.encode(wire.KIND_GRADS, wire.pack_grads([0.75], [np.array([1.0, -2.0])])),
            client.encode(wire.KIND_CLOSE),
            server.encode(wire.KIND_CLOSED, wire.pack_json({"batches": 2})),
        ))
        assert data.hex() == GOLDEN_EXCHANGE

    def test_eval_round_trip(self):
        vectors = [np.array([0.1, -0.0, 5e-324]), np.array([1.0, 2.0, -3.5])]
        decoded, shots = wire.unpack_eval(wire.pack_eval(vectors, shots=80))
        assert shots == 80
        assert decoded.shape == (2, 3)
        np.testing.assert_array_equal(decoded[0], vectors[0])
        np.testing.assert_array_equal(decoded[1], vectors[1])

    def test_values_round_trip_bit_exact(self):
        body = wire.pack_values(AWKWARD_DOUBLES)
        decoded = wire.unpack_values(body)
        for sent, got in zip(AWKWARD_DOUBLES, decoded):
            assert struct.pack("<d", sent) == struct.pack("<d", got)

    def test_ragged_batch_rejected(self):
        with pytest.raises(wire.StreamError, match="ragged"):
            wire.pack_eval([np.zeros(3), np.zeros(4)])

    def test_empty_batch_rejected(self):
        with pytest.raises(wire.StreamError, match="at least one"):
            wire.pack_eval([])

    @pytest.mark.parametrize("shots", [-1, 2 ** 32])
    def test_out_of_range_shots_rejected(self, shots):
        with pytest.raises(wire.StreamError, match=r"\[0, 2\*\*32\)"):
            wire.pack_eval([np.zeros(3)], shots=shots)

    def test_oversized_claim_raises(self):
        # The session stream keeps the codec's default 4 MiB bound.
        with pytest.raises(wire.StreamError, match="desynchronised"):
            wire.StreamDecoder().feed(HEADER.pack(4 * 1024 * 1024 + 1, 0, 0))

    def test_error_frame_round_trip(self):
        code, message = wire.unpack_error(
            wire.pack_error("backend_unhealthy", "qtenon is down")
        )
        assert code == "backend_unhealthy"
        assert message == "qtenon is down"


# ----------------------------------------------------------------------
# session manager lifecycle
# ----------------------------------------------------------------------
class TestSessionManager:
    def test_open_evaluate_close(self):
        manager = fake_manager()
        session = manager.open(spec_for(), tenant="a")
        assert session.n_params > 0
        values = manager.evaluate(
            session.session_id, [np.zeros(session.n_params)]
        )
        assert values == [0.0]
        stats = manager.close(session.session_id)
        assert stats["state"] == "closed"
        assert stats["batches"] == 1
        assert session.engine.closed

    def test_dropped_manager_is_freed_without_the_cycle_collector(self):
        """A default manager holds no reference cycle, so it and the
        sessions it holds go as soon as the last reference does."""
        manager = SessionManager()
        ref = weakref.ref(manager)
        gc.disable()
        try:
            del manager
            assert ref() is None
        finally:
            gc.enable()

    def test_structured_error_codes(self):
        manager = fake_manager()
        with pytest.raises(SessionError) as err:
            manager.evaluate("sess-nope", [np.zeros(2)])
        assert err.value.code == ERR_UNKNOWN_SESSION

        session = manager.open(spec_for())
        with pytest.raises(SessionError) as err:
            manager.evaluate(session.session_id, [])
        assert err.value.code == ERR_EMPTY_BATCH
        with pytest.raises(SessionError) as err:
            manager.evaluate(
                session.session_id, [np.zeros(session.n_params + 1)]
            )
        assert err.value.code == ERR_BAD_VECTOR

        manager.close(session.session_id)
        with pytest.raises(SessionError) as err:
            manager.evaluate(session.session_id, [np.zeros(session.n_params)])
        assert err.value.code == ERR_SESSION_CLOSED

    def test_sessions_count_against_tenant_quota(self):
        admission = AdmissionController(tenant_quota=2)
        manager = fake_manager(admission=admission)
        first = manager.open(spec_for(1), tenant="a")
        manager.open(spec_for(2), tenant="a")
        with pytest.raises(SessionError) as err:
            manager.open(spec_for(3), tenant="a")
        assert err.value.code == "tenant_quota"
        # Closing releases the admission charge.
        manager.close(first.session_id)
        manager.open(spec_for(3), tenant="a")

    def test_open_failure_releases_admission(self):
        admission = AdmissionController(tenant_quota=1)

        def broken_factory(spec):
            raise RuntimeError("no engine for you")

        manager = SessionManager(
            admission=admission, engine_factory=broken_factory
        )
        with pytest.raises(SessionError):
            manager.open(spec_for(), tenant="a")
        # The failed open must not leak its quota charge.
        working = fake_manager(admission=admission)
        working.open(spec_for(), tenant="a")

    def test_failed_batch_fails_the_session_and_frees_quota(self):
        admission = AdmissionController(tenant_quota=1)

        class ExplodingEngine(FakeEngine):
            def evaluate_vectors(self, parameters, vectors, shots):
                raise RuntimeError("boom")

        manager = SessionManager(
            admission=admission, engine_factory=lambda spec: ExplodingEngine()
        )
        session = manager.open(spec_for(), tenant="a")
        with pytest.raises(SessionError) as err:
            manager.evaluate(session.session_id, [np.zeros(session.n_params)])
        assert err.value.code == "evaluation_failed"
        assert session.state == "failed"
        # Quota freed: the tenant can open a fresh session.
        fake_manager(admission=admission).open(spec_for(), tenant="a")

    def test_unhealthy_backend_blocks_streaming(self):
        manager = fake_manager()
        session = manager.open(spec_for())
        backend = manager.health.backend("qtenon")
        for _ in range(10):
            backend.record_failure("injected")
        with pytest.raises(SessionError) as err:
            manager.evaluate(session.session_id, [np.zeros(session.n_params)])
        assert err.value.code == "backend_unhealthy"


class TestLeaseExpiry:
    """The lease race contract: a renewal in the same tick as the
    expiry sweep wins deterministically (strictly-greater comparison on
    an injectable clock)."""

    def _manager_with_clock(self, timeout=10.0):
        clock = ManualClock()
        return fake_manager(clock=clock, lease_timeout_s=timeout), clock

    def test_renewal_in_same_tick_as_expiry_wins(self):
        manager, clock = self._manager_with_clock(timeout=10.0)
        session = manager.open(spec_for())
        clock.advance(10.0)
        # Renewal (every checkout renews) and sweep land on the same
        # tick: renewal wins.
        manager.checkout(session.session_id)
        assert manager.expire_idle(now=clock.now) == []
        assert session.state == "open"

    def test_exactly_timeout_idle_is_not_expired(self):
        manager, clock = self._manager_with_clock(timeout=10.0)
        session = manager.open(spec_for())
        # Idle for exactly the lease: strictly-greater spares it ...
        assert manager.expire_idle(now=clock.now + 10.0) == []
        assert session.state == "open"
        # ... one tick past it does not.
        assert manager.expire_idle(now=clock.now + 10.0 + 1e-9) == [
            session.session_id
        ]
        assert session.state == "expired"
        with pytest.raises(SessionError) as err:
            manager.checkout(session.session_id)
        assert err.value.code == ERR_SESSION_EXPIRED

    def test_each_batch_renews_the_lease(self):
        manager, clock = self._manager_with_clock(timeout=10.0)
        session = manager.open(spec_for())
        for _ in range(3):
            clock.advance(9.0)
            manager.evaluate(session.session_id, [np.zeros(session.n_params)])
        # 27s of wall time but never >10s idle: still open.
        assert manager.expire_idle(now=clock.now) == []

    def test_expiry_releases_quota_and_pins(self):
        admission = AdmissionController(tenant_quota=1)
        clock = ManualClock()
        manager = fake_manager(
            admission=admission, clock=clock, lease_timeout_s=1.0
        )
        manager.open(spec_for(), tenant="a")
        clock.advance(2.0)
        assert len(manager.expire_idle()) == 1
        # The expired session's charge is gone.
        fake_manager(admission=admission).open(spec_for(), tenant="a")


# ----------------------------------------------------------------------
# program pinning
# ----------------------------------------------------------------------
class TestProgramPinning:
    def test_open_session_pins_compiled_programs(self):
        spec = spec_for(seed=21)
        manager = SessionManager()  # real engine: programs get compiled
        before = PROGRAM_CACHE.pinned
        session = manager.open(spec)
        try:
            # vqe structures compile at prepare(); their cache entries
            # must be pinned for the session's lifetime.
            assert session.program_keys
            assert PROGRAM_CACHE.pinned > before
        finally:
            manager.close(session.session_id)
        assert PROGRAM_CACHE.pinned == before
        assert session.program_keys == []


# ----------------------------------------------------------------------
# determinism: streamed == one-shot
# ----------------------------------------------------------------------
class TestStreamedParity:
    def _direct_run(self, spec: JobSpec):
        workload = WORKLOADS[spec.workload](spec.n_qubits)
        engine = EvaluationEngine(
            QtenonSystem(spec.n_qubits, seed=spec.seed),
            max_workers=1,
            seed=spec.seed,
        )
        runner = HybridRunner(
            engine,
            workload.ansatz,
            workload.parameters,
            workload.observable,
            make_optimizer(spec.optimizer, seed=spec.seed),
            shots=spec.shots,
            iterations=spec.iterations,
        )
        result = runner.run(seed=spec.seed)
        engine.close()
        return result

    def test_drive_session_matches_one_shot_bit_for_bit(self):
        spec = spec_for(seed=5)
        direct = self._direct_run(spec)
        manager = SessionManager()
        session = manager.open(spec)
        try:
            _params, history = drive_session(
                spec,
                session.n_params,
                lambda vectors: manager.evaluate(session.session_id, vectors),
            )
        finally:
            manager.close(session.session_id)
        assert history == direct.cost_history

    def test_socket_session_matches_one_shot_bit_for_bit(self):
        spec = spec_for(seed=6)
        direct = self._direct_run(spec)
        with SessionServer() as server:
            host, port = server.address
            with wire.SessionClient(host, port) as client:
                handle = client.open(spec.as_dict())
                assert handle["n_params"] > 0
                _params, history = drive_session(
                    spec, int(handle["n_params"]), client.evaluate
                )
                stats = client.close()
        assert history == direct.cost_history
        assert stats["batches"] == 2 * spec.iterations

    def test_service_host_stream_matches_one_shot_bit_for_bit(self):
        spec = spec_for(seed=7)
        config = ServiceConfig(workers=1, cache_entries=0)
        with ServiceHost(config) as host:
            session = host.open_session(spec)
            _params, history = drive_session(
                spec,
                session.n_params,
                lambda vectors: host.evaluate(session.session_id, vectors),
            )
            host.close_session(session.session_id)
        direct = self._direct_run(spec)
        assert history == direct.cost_history


# ----------------------------------------------------------------------
# socket server error paths
# ----------------------------------------------------------------------
class TestSessionServerProtocol:
    def test_malformed_open_answers_error_frame(self):
        with SessionServer() as server:
            host, port = server.address
            with wire.SessionClient(host, port) as client:
                with pytest.raises(wire.StreamRemoteError) as err:
                    client.open({"workload": "no-such-workload"})
                assert err.value.code == "malformed_open"

    def test_eval_before_open_answers_error_frame(self):
        with SessionServer() as server:
            host, port = server.address
            with wire.SessionClient(host, port) as client:
                with pytest.raises(wire.StreamRemoteError) as err:
                    client.evaluate([np.zeros(4)])
                assert err.value.code == ERR_UNKNOWN_SESSION

    def test_dropped_connection_closes_the_session_server_side(self):
        manager = fake_manager()
        with SessionServer(manager) as server:
            host, port = server.address
            client = wire.SessionClient(host, port)
            client.open(spec_for().as_dict())
            assert manager.open_sessions == 1
            client._sock.close()  # vanish without CLOSE

            def drained():
                return manager.open_sessions == 0

            deadline = threading.Event()
            for _ in range(100):
                if drained():
                    break
                deadline.wait(0.05)
            assert drained()

    def test_unknown_kind_answers_error_frame(self):
        manager = fake_manager()
        with SessionServer(manager) as server:
            with wire.SessionClient(*server.address) as client:
                with pytest.raises(wire.StreamRemoteError) as err:
                    client._request(0x7F, b"", wire.KIND_CLOSED, "CLOSED")
                assert err.value.code == "malformed_open"
                assert client.open(spec_for().as_dict())  # same connection
        assert manager.stats.as_dict()["sessions.protocol_errors"] == 1

    def test_second_open_answers_error_and_keeps_the_session(self):
        manager = fake_manager()
        with SessionServer(manager) as server:
            client = wire.SessionClient(*server.address)
            first = client.open(spec_for().as_dict())
            with pytest.raises(wire.StreamRemoteError) as err:
                client.open(spec_for(seed=1).as_dict())
            assert err.value.code == "malformed_open"
            assert manager.open_sessions == 1
            # The stream still drives the first session ...
            assert len(client.evaluate([np.zeros(first["n_params"])])) == 1
            assert manager.get(first["session_id"]).batches == 1
            # ... and dropping it releases that one session.
            client._sock.close()
            deadline = time.monotonic() + 5.0
            while manager.open_sessions and time.monotonic() < deadline:
                time.sleep(0.02)
            assert manager.open_sessions == 0

    def test_stop_on_idle_server_is_prompt(self):
        manager = fake_manager()
        server = SessionServer(manager).start()
        accept_thread = server._accept_thread
        # An opened client that then idles: its connection thread sits
        # in recv(2) until stop() shuts the socket down.
        client = wire.SessionClient(*server.address)
        client.open(spec_for().as_dict())
        time.sleep(0.2)  # let the threads block in accept(2) and recv(2)
        conn_threads = list(server._conns.values())
        assert len(conn_threads) == 1
        started = time.perf_counter()
        server.stop()
        assert time.perf_counter() - started < 1.0
        assert not accept_thread.is_alive()
        assert not any(thread.is_alive() for thread in conn_threads)
        assert manager.open_sessions == 0
        client._sock.close()


# ----------------------------------------------------------------------
# resident service host
# ----------------------------------------------------------------------
class TestServiceHost:
    def test_start_is_idempotent(self):
        host = ServiceHost(ServiceConfig(workers=1, cache_entries=0))
        try:
            assert host.start() is host
            # A second start (e.g. ``with host:`` on a started host)
            # must not spawn a second pump on the same service.
            assert host.start() is host
            pumps = [
                t for t in threading.enumerate()
                if t.name == "repro-service-host"
            ]
            assert len(pumps) == 1
        finally:
            host.stop()

    def test_submit_and_stream_share_the_service(self):
        spec = spec_for(seed=9, iterations=1)
        with ServiceHost(ServiceConfig(workers=1, cache_entries=0)) as host:
            done: "concurrent.futures.Future" = concurrent.futures.Future()
            outcome = host.call(
                host.service.submit, spec, "jobs", done.set_result
            )
            assert outcome.accepted
            session = host.open_session(spec_for(seed=10), tenant="streams")
            values = host.evaluate(
                session.session_id, [np.zeros(session.n_params)]
            )
            assert len(values) == 1
            record = done.result(timeout=60)
            assert record.result is not None
            host.close_session(session.session_id)
            snapshot = host.metrics()
        sessions = snapshot["sessions"]["sessions"]
        assert sessions["sessions.stream_batches"] >= 1.0

    def test_session_batches_on_the_merged_trace(self):
        # Streamed batches share the service's one wall-clock timeline:
        # pid 1, one span per batch on the tenant's session row.
        with ServiceHost(ServiceConfig(workers=1, cache_entries=0)) as host:
            session = host.open_session(spec_for(seed=11), tenant="streams")
            for _ in range(3):
                host.evaluate(session.session_id, [np.zeros(session.n_params)])
            host.close_session(session.session_id)
            doc = json.loads(host.service.merged_chrome_trace())
        batches = [
            e for e in doc["traceEvents"]
            if e["ph"] == "X" and e["cat"] == "session/streams"
        ]
        assert len(batches) == 3
        assert {e["pid"] for e in batches} == {1}
        assert len({e["args"]["span_id"] for e in batches}) == 3
        assert {e["name"] for e in batches} == {
            f"{session.session_id}[{n}]" for n in (1, 2, 3)
        }
