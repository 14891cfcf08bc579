"""Tests for cluster mode (repro.cluster).

Three layers, mirroring the module split:

* **mechanisms** — wire framing (sequence + checksum discipline), the
  durable journal (torn tail vs mid-file corruption), rendezvous
  routing (determinism, minimal disruption);
* **master state machine** — driven with a manual clock and a fake
  transport: lease expiry, hang reaping, duplicate settlement, digest
  mismatch, breaker spill, max-attempts failure, journal recovery;
* **end to end** — the deterministic LocalCluster chaos properties
  (kill a node mid-load, results bit-identical to an unfaulted run)
  and a threaded socket smoke test.
"""

import socket
import threading
import time

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterMaster,
    JobJournal,
    JournalCorrupt,
    LocalCluster,
    ManualClock,
    MasterServer,
    rank_nodes,
    replay_journal,
    result_fingerprint,
    run_worker,
)
from repro.cluster import wire
from repro.faults.injector import FaultInjector
from repro.faults.protocol import HEADER, StreamDecoder, StreamError, StreamWriter
from repro.faults.plan import FaultPlan, NodeFaults
from repro.runtime.breaker import BreakerState
from repro.service.jobs import JobSpec, JobState


def make_spec(seed=0, **overrides):
    fields = dict(
        workload="qaoa",
        n_qubits=4,
        optimizer="spsa",
        shots=64,
        iterations=1,
        seed=seed,
    )
    fields.update(overrides)
    return JobSpec(**fields)


def fake_payload(spec, cost=1.5):
    """A wire-shaped result payload settling ``spec`` without executing."""
    return {
        "digest": spec.digest,
        "final_cost": cost,
        "best_cost": cost,
        "cost_history": [cost + 1.0, cost],
        "final_params": [0.25, -0.5],
    }


# ----------------------------------------------------------------------
# wire framing
# ----------------------------------------------------------------------
def frame(writer, message):
    return writer.encode(wire.KIND_MESSAGE, wire.pack_message(message))


class TestWire:
    """The cluster's message envelope; framing is in test_frames.py."""

    def test_roundtrip_chunked(self):
        messages = [
            wire.hello("node-0", 2),
            wire.heartbeat("node-0"),
            wire.dispatch("job-1", make_spec().as_dict(), 1),
            wire.result("node-0", "job-1", {"digest": "d", "final_cost": 0.125}),
            wire.error("node-0", "job-2", "ValueError: boom"),
            wire.shutdown(),
        ]
        writer = StreamWriter(wire.MAX_PAYLOAD_BYTES)
        stream = b"".join(frame(writer, m) for m in messages)
        decoder = StreamDecoder(wire.MAX_PAYLOAD_BYTES)
        decoded = []
        for offset in range(0, len(stream), 7):  # split headers and bodies
            decoded.extend(decoder.feed(stream[offset:offset + 7]))
        assert [wire.unpack_message(k, body) for _, k, body in decoded] == messages

    def test_float_bits_survive_json(self):
        values = [0.1 + 0.2, 1e-17, 2.0 ** -1074, -0.0, 3.141592653589793]
        body = wire.pack_message(wire.result("n", "j", {"digest": "d", "h": values}))
        message = wire.unpack_message(wire.KIND_MESSAGE, body)
        assert [v.hex() for v in message["payload"]["h"]] == [v.hex() for v in values]

    def test_untyped_payload_rejected(self):
        for body in (b'{"no_type": 1}', b"[1]", b"not json"):
            with pytest.raises(StreamError, match="typed message|JSON"):
                wire.unpack_message(wire.KIND_MESSAGE, body)
        with pytest.raises(StreamError, match="expected a cluster message"):
            wire.unpack_message(0x03, wire.pack_message(wire.shutdown()))

    def test_absurd_length_prefix_rejected_before_buffering(self):
        # The cluster keeps its own 16 MiB bound, above the session's.
        decoder = StreamDecoder(wire.MAX_PAYLOAD_BYTES)
        assert decoder.feed(HEADER.pack(16 * 1024 * 1024, 0, 0)) == []
        with pytest.raises(StreamError, match="desynchronised"):
            StreamDecoder(wire.MAX_PAYLOAD_BYTES).feed(HEADER.pack(16 * 1024 * 1024 + 1, 0, 0))


# ----------------------------------------------------------------------
# journal
# ----------------------------------------------------------------------
class TestJournal:
    def test_append_replay_roundtrip(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with JobJournal(path, fsync=False) as journal:
            journal.append("accepted", job_id="j1", tenant="t", spec={}, digest="d1")
            journal.append("accepted", job_id="j2", tenant="t", spec={}, digest="d2")
            journal.append("dispatched", job_id="j1", node="node-0", attempt=1)
            journal.append(
                "settled", job_id="j1", state="done", node="node-0",
                fingerprint="f1", error=None,
            )
        state = replay_journal(path)
        assert list(state.accepted) == ["j1", "j2"]
        assert state.dispatched == {"j1": "node-0"}
        assert state.settled["j1"]["fingerprint"] == "f1"
        assert state.open_jobs == ["j2"]
        assert state.torn_tail == 0

    def test_duplicate_settlements_collapse(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with JobJournal(path, fsync=False) as journal:
            journal.append("accepted", job_id="j1", tenant="t", spec={}, digest="d")
            journal.append("settled", job_id="j1", state="done", fingerprint="a")
            journal.append("settled", job_id="j1", state="done", fingerprint="b")
        state = replay_journal(path)
        assert state.settled["j1"]["fingerprint"] == "a"  # first wins
        assert state.duplicate_settlements == 1
        assert state.open_jobs == []

    def test_torn_tail_tolerated(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with JobJournal(path, fsync=False) as journal:
            journal.append("accepted", job_id="j1", tenant="t", spec={}, digest="d")
            journal.append("accepted", job_id="j2", tenant="t", spec={}, digest="d2")
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(data[:-10])  # the crash truncated the last record
        state = replay_journal(path)
        assert list(state.accepted) == ["j1"]
        assert state.torn_tail == 1

    def test_torn_tail_repaired_on_reopen(self, tmp_path):
        # Regression: reopening in append mode used to write the first
        # post-restart record straight onto the damaged partial line,
        # destroying it and turning the tolerable torn tail into
        # mid-file corruption on the next replay.
        path = str(tmp_path / "journal.jsonl")
        with JobJournal(path, fsync=False) as journal:
            journal.append("accepted", job_id="j1", tenant="t", spec={}, digest="d")
            journal.append("accepted", job_id="j2", tenant="t", spec={}, digest="d2")
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(data[:-10])  # crash tore the last record
        assert replay_journal(path).torn_tail == 1
        with JobJournal(path, fsync=False) as journal:
            assert journal.repaired_bytes > 0
            journal.append("accepted", job_id="j3", tenant="t", spec={}, digest="d3")
        state = replay_journal(path)  # replay → append → replay again
        assert list(state.accepted) == ["j1", "j3"]
        assert state.torn_tail == 0

    def test_missing_trailing_newline_completed_not_discarded(self, tmp_path):
        # A crash can eat only the newline: the final record is intact
        # and must survive the repair, with the next append on its own
        # line.
        path = str(tmp_path / "journal.jsonl")
        with JobJournal(path, fsync=False) as journal:
            journal.append("accepted", job_id="j1", tenant="t", spec={}, digest="d")
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(data[:-1])  # strip just the "\n"
        with JobJournal(path, fsync=False) as journal:
            assert journal.repaired_bytes == 0
            journal.append("accepted", job_id="j2", tenant="t", spec={}, digest="d2")
        assert list(replay_journal(path).accepted) == ["j1", "j2"]

    def test_reopen_refuses_midfile_damage(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with JobJournal(path, fsync=False) as journal:
            journal.append("accepted", job_id="j1", tenant="t", spec={}, digest="d")
            journal.append("accepted", job_id="j2", tenant="t", spec={}, digest="d2")
        with open(path, "rb") as handle:
            lines = handle.readlines()
        lines[0] = b"00000000 {garbage\n"
        with open(path, "wb") as handle:
            handle.writelines(lines)
        with pytest.raises(JournalCorrupt):
            JobJournal(path, fsync=False)

    def test_midfile_corruption_raises(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with JobJournal(path, fsync=False) as journal:
            journal.append("accepted", job_id="j1", tenant="t", spec={}, digest="d")
            journal.append("accepted", job_id="j2", tenant="t", spec={}, digest="d2")
        with open(path, "rb") as handle:
            lines = handle.readlines()
        lines[0] = b"00000000 {garbage\n"
        with open(path, "wb") as handle:
            handle.writelines(lines)
        with pytest.raises(JournalCorrupt):
            replay_journal(path)

    def test_unknown_kind_refused(self, tmp_path):
        with JobJournal(str(tmp_path / "j.jsonl"), fsync=False) as journal:
            with pytest.raises(ValueError, match="unknown journal kind"):
                journal.append("exploded", job_id="j1")


# ----------------------------------------------------------------------
# rendezvous routing
# ----------------------------------------------------------------------
class TestHashring:
    NODES = [f"node-{i}" for i in range(5)]

    def test_deterministic_and_order_independent(self):
        ranking = rank_nodes("digest-a", self.NODES)
        assert sorted(ranking) == sorted(self.NODES)
        assert rank_nodes("digest-a", list(reversed(self.NODES))) == ranking

    def test_distinct_digests_spread(self):
        preferred = {rank_nodes(f"digest-{i}", self.NODES)[0] for i in range(64)}
        assert len(preferred) > 1  # not everything on one node

    def test_minimal_disruption_on_node_loss(self):
        # Rendezvous property: removing one node must not reshuffle the
        # relative order of the survivors for any digest.
        for i in range(32):
            digest = f"digest-{i}"
            full = rank_nodes(digest, self.NODES)
            lost = full[0]
            survivors = [n for n in self.NODES if n != lost]
            assert rank_nodes(digest, survivors) == [
                n for n in full if n != lost
            ]


# ----------------------------------------------------------------------
# master state machine (manual clock, fake transport)
# ----------------------------------------------------------------------
def make_master(clock=None, **overrides):
    defaults = dict(
        lease_timeout_s=2.0,
        dispatch_timeout_s=5.0,
        redispatch_backoff_s=0.01,
        redispatch_backoff_max_s=0.1,
        breaker_cooldown_s=10.0,
    )
    defaults.update(overrides)
    return ClusterMaster(ClusterConfig(**defaults), clock=clock or ManualClock())


class TestMaster:
    def test_dispatch_result_settles(self):
        master = make_master()
        master.register_node("node-0", capacity=2)
        outcome = master.submit(make_spec(), "alice")
        assert outcome.accepted
        [(target, message)] = master.tick()
        assert target == "node-0"
        assert message["type"] == wire.MSG_DISPATCH
        job = master.jobs[message["job_id"]]
        payload = fake_payload(job.spec)
        assert master.handle_result("node-0", job.job_id, payload)
        assert job.state is JobState.DONE
        assert job.fingerprint == result_fingerprint(payload)
        assert master.all_settled
        assert master.open_jobs == 0

    def test_admission_quota_refuses(self):
        master = make_master(max_open_jobs=2, tenant_quota=2)
        assert master.submit(make_spec(1), "a").accepted
        assert master.submit(make_spec(2), "a").accepted
        refused = master.submit(make_spec(3), "a")
        assert not refused.accepted
        assert refused.rejection.code in ("tenant_quota", "queue_full")

    def test_lease_expiry_reassigns_in_flight(self):
        clock = ManualClock()
        master = make_master(clock)
        master.register_node("node-0", 1)
        master.register_node("node-1", 1)
        master.submit(make_spec(), "alice")
        [(first_node, message)] = master.tick()
        job = master.jobs[message["job_id"]]
        survivor = "node-1" if first_node == "node-0" else "node-0"
        # Only the survivor heartbeats across the lease window.
        for _ in range(3):
            clock.advance(1.0)
            master.heartbeat(survivor)
        dispatches = master.tick()
        counters = master.stats.as_dict()
        assert counters["cluster.nodes_lost"] == 1
        assert counters["cluster.reassigned"] == 1
        if not dispatches:  # parked on jittered backoff: tick past it
            clock.advance(0.2)
            dispatches = master.tick()
        [(second_node, redispatch)] = dispatches
        assert second_node == survivor
        assert redispatch["job_id"] == job.job_id
        assert redispatch["attempt"] == 2
        assert master.handle_result(survivor, job.job_id, fake_payload(job.spec))

    def test_hang_reaped_by_dispatch_timeout(self):
        clock = ManualClock()
        master = make_master(clock, dispatch_timeout_s=3.0, lease_timeout_s=100.0)
        master.register_node("node-0", 1)
        master.submit(make_spec(), "alice")
        [(_, message)] = master.tick()
        # The node heartbeats forever but never completes: the lease
        # stays valid, so only the dispatch timeout can reclaim the job.
        for _ in range(4):
            clock.advance(1.0)
            master.heartbeat("node-0")
            master.tick()
        counters = master.stats.as_dict()
        assert counters["cluster.hang_reassigned"] == 1
        assert counters.get("cluster.nodes_lost", 0) == 0
        handle = master.nodes["node-0"]
        assert message["job_id"] not in handle.in_flight
        assert not master.health.backend("node-0").healthy or True  # charged
        assert handle.stats.as_dict()["node.node-0.hang_reaps"] == 1

    def test_duplicate_result_dropped_after_settlement(self):
        master = make_master()
        master.register_node("node-0", 1)
        master.register_node("node-1", 1)
        master.submit(make_spec(), "alice")
        [(node_id, message)] = master.tick()
        job = master.jobs[message["job_id"]]
        payload = fake_payload(job.spec)
        assert master.handle_result(node_id, job.job_id, payload)
        assert not master.handle_result("node-1", job.job_id, payload)
        assert master.stats.as_dict()["cluster.duplicate_results"] == 1
        assert master.open_jobs == 0  # admission released exactly once

    def test_node_loss_releases_half_open_probe_and_rejoin_resets(self):
        # Regression: losing a node while its half-open probe dispatch
        # was in flight leaked the probe latch — the breaker sat in
        # half-open refusing every allow(), so the node stayed
        # unroutable even after it re-registered.
        clock = ManualClock()
        master = make_master(
            clock, breaker_failure_threshold=1, lease_timeout_s=100.0
        )
        master.register_node("node-0", 1)
        master.submit(make_spec(), "alice")
        handle = master.nodes["node-0"]
        handle.breaker.trip()
        clock.advance(master.config.breaker_cooldown_s)
        [(node_id, message)] = master.tick()  # the half-open probe dispatch
        assert node_id == "node-0"
        assert handle.breaker.state is BreakerState.HALF_OPEN
        master.node_lost("node-0")  # probe dispatch reaped, never reported
        assert handle.breaker.state is BreakerState.OPEN  # probe failed, not leaked
        master.register_node("node-0", 1)  # rejoin: clean slate
        assert handle.breaker.state is BreakerState.CLOSED
        clock.advance(0.2)  # past the jittered redispatch backoff
        [(node_id, redispatch)] = master.tick()
        assert node_id == "node-0"
        assert redispatch["job_id"] == message["job_id"]

    def test_duplicate_result_releases_half_open_probe(self):
        # A probe whose answer arrives after the job already settled
        # elsewhere (redispatch race) must still release the probe: the
        # node demonstrably works, so the breaker closes.
        clock = ManualClock()
        master = make_master(clock, breaker_failure_threshold=1)
        master.register_node("node-0", 1)
        master.register_node("node-1", 1)
        master.submit(make_spec(), "alice")
        [(node_id, message)] = master.tick()
        job = master.jobs[message["job_id"]]
        payload = fake_payload(job.spec)
        assert master.handle_result(node_id, job.job_id, payload)
        other = "node-1" if node_id == "node-0" else "node-0"
        breaker = master.nodes[other].breaker
        breaker.trip()
        clock.advance(master.config.breaker_cooldown_s)
        assert breaker.allow()  # the probe dispatch goes out
        assert not master.handle_result(other, job.job_id, payload)  # duplicate
        assert breaker.state is BreakerState.CLOSED
        assert master.stats.as_dict()["cluster.duplicate_results"] == 1

    def test_digest_mismatch_requeues_and_charges_node(self):
        master = make_master()
        master.register_node("node-0", 1)
        master.submit(make_spec(), "alice")
        [(_, message)] = master.tick()
        job = master.jobs[message["job_id"]]
        bogus = fake_payload(make_spec(seed=999))  # wrong content
        assert not master.handle_result("node-0", job.job_id, bogus)
        assert job.state is JobState.QUEUED
        assert master.stats.as_dict()["cluster.digest_mismatches"] == 1
        assert not master.health.backend("node-0").snapshot()["healthy"] or (
            master.health.backend("node-0").snapshot()["failures"] >= 1
        )

    def test_worker_errors_exhaust_attempts_to_failed(self):
        clock = ManualClock()
        master = make_master(clock, max_dispatch_attempts=2)
        master.register_node("node-0", 1)
        master.register_node("node-1", 1)
        master.submit(make_spec(), "alice")
        for _ in range(8):
            clock.advance(1.0)
            for node_id in ("node-0", "node-1"):
                master.heartbeat(node_id)
            for node_id, message in master.tick():
                master.handle_error(node_id, message["job_id"], "boom")
            if master.all_settled:
                break
        [job] = master.jobs.values()
        assert job.state is JobState.FAILED
        assert job.attempts == 2
        assert job.error == "boom"
        assert master.open_jobs == 0

    def test_breaker_open_spills_to_next_rank(self):
        master = make_master(breaker_failure_threshold=1)
        master.register_node("node-0", 1)
        master.register_node("node-1", 1)
        spec = make_spec()
        [preferred, fallback] = rank_nodes(spec.digest, ["node-0", "node-1"])
        master.nodes[preferred].breaker.record_failure()  # trips it open
        master.submit(spec, "alice")
        [(node_id, _)] = master.tick()
        assert node_id == fallback
        assert master.stats.as_dict()["cluster.spills"] == 1

    def test_spill_limit_bounds_routing(self):
        master = make_master(spill_limit=0, breaker_failure_threshold=1)
        master.register_node("node-0", 1)
        master.register_node("node-1", 1)
        spec = make_spec()
        preferred = rank_nodes(spec.digest, ["node-0", "node-1"])[0]
        master.nodes[preferred].breaker.record_failure()
        master.submit(spec, "alice")
        assert master.tick() == []  # nowhere admissible within the bound
        [job] = master.jobs.values()
        assert job.state is JobState.QUEUED

    def test_journal_recovery_readmits_open_jobs(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        clock = ManualClock()
        first = make_master(clock, journal_path=path)
        first.register_node("node-0", 1)
        specs = [make_spec(seed=i) for i in range(3)]
        job_ids = [first.submit(s, "alice").job_id for s in specs]
        [(_, message)] = first.tick()
        job = first.jobs[message["job_id"]]
        first.handle_result("node-0", job.job_id, fake_payload(job.spec))
        del first  # crash: no close(), journal file is all that survives

        second = make_master(ManualClock(), journal_path=path)
        assert second.recovered_state.as_dict()["accepted"] == 3
        assert second.recovered_state.as_dict()["open"] == 2
        recovered = [j for j in second.jobs.values() if j.recovered]
        assert sorted(j.job_id for j in recovered) == sorted(
            j for j in job_ids if j != job.job_id
        )
        # New submissions must not collide with replayed ids.
        fresh = second.submit(make_spec(seed=9), "alice")
        assert fresh.job_id not in job_ids
        second.close()

    def test_metrics_snapshot_shape(self):
        master = make_master()
        master.register_node("node-0", 1)
        master.submit(make_spec(), "alice")
        master.tick()
        snapshot = master.metrics_snapshot()
        assert snapshot["jobs_by_state"] == {"scheduled": 1}
        assert snapshot["nodes"]["node-0"]["in_flight"] == 1
        assert "node-0" in snapshot["node_health"]
        assert snapshot["scheduler"]["backlog"] == 0


# ----------------------------------------------------------------------
# deterministic chaos (LocalCluster)
# ----------------------------------------------------------------------
def run_local(events=None, jobs=6, node_capacity=1):
    injector = None
    if events:
        injector = FaultInjector(FaultPlan(node=NodeFaults(events=tuple(events))))
    cluster = LocalCluster(
        n_nodes=3, injector=injector, node_capacity=node_capacity,
        timing_only=True,
    )
    for index in range(jobs):
        assert cluster.submit(make_spec(seed=index), f"tenant{index % 2}").accepted
    assert cluster.run(max_rounds=300)
    fingerprints = cluster.fingerprints()
    snapshot = cluster.metrics_snapshot()
    cluster.close()
    return fingerprints, snapshot


class TestLocalClusterChaos:
    def test_clean_run_settles_everything(self):
        fingerprints, snapshot = run_local()
        assert len(fingerprints) == 6
        assert snapshot["jobs_by_state"] == {"done": 6}

    def test_kill_one_node_loses_nothing_bit_identical(self):
        clean, _ = run_local(node_capacity=2)
        chaotic, snapshot = run_local(
            events=[("kill", "node-1", 1, 0)], node_capacity=2
        )
        assert chaotic == clean  # zero loss AND bit-identical results
        counters = snapshot["cluster"]
        assert counters["cluster.nodes_lost"] == 1
        assert counters["cluster.reassigned"] >= 1

    def test_hang_reaped_bit_identical(self):
        clean, _ = run_local()
        chaotic, snapshot = run_local(events=[("hang", "node-0", 1, 0)])
        assert chaotic == clean
        assert snapshot["cluster"]["cluster.hang_reassigned"] >= 1

    def test_partition_heals_with_duplicate_settlement(self):
        # 8 jobs so the partitioned node is holding a queued dispatch
        # when the partition fires: it executes cut off, the master
        # redispatches, and the healed node's stale result collides.
        clean, _ = run_local(jobs=8, node_capacity=2)
        chaotic, snapshot = run_local(
            events=[("partition", "node-2", 1, 5)], jobs=8, node_capacity=2
        )
        assert chaotic == clean
        assert snapshot["cluster"]["cluster.duplicate_results"] >= 1

    def test_chaos_campaign_is_deterministic(self):
        events = [("kill", "node-1", 1, 0)]
        first_fps, first_snap = run_local(events=events, node_capacity=2)
        second_fps, second_snap = run_local(events=events, node_capacity=2)
        assert first_fps == second_fps
        assert first_snap["cluster"] == second_snap["cluster"]

    def test_master_crash_recovery_loses_nothing(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        first = LocalCluster(
            n_nodes=2, timing_only=True,
            config=ClusterConfig(journal_path=path),
        )
        for index in range(5):
            first.submit(make_spec(seed=index), "alice")
        first.step()
        pre = first.fingerprints()
        del first  # crash without close()

        second = LocalCluster(
            n_nodes=2, timing_only=True,
            config=ClusterConfig(journal_path=path),
        )
        recovery = second.metrics_snapshot()["recovery"]
        assert recovery["accepted"] == 5
        assert recovery["open"] == 5 - len(pre)
        assert second.run(max_rounds=300)
        combined = dict(pre)
        combined.update(second.fingerprints())
        second.close()

        clean, _ = run_local(jobs=5)
        # run_local uses two tenants; rebuild the clean reference with
        # the same single-tenant submissions for digest parity.
        reference = LocalCluster(n_nodes=2, timing_only=True)
        for index in range(5):
            reference.submit(make_spec(seed=index), "alice")
        assert reference.run(max_rounds=300)
        assert combined == reference.fingerprints()
        reference.close()


# ----------------------------------------------------------------------
# socket transport smoke
# ----------------------------------------------------------------------
class TestSocketCluster:
    def test_two_workers_drain_over_sockets(self):
        master = ClusterMaster(
            ClusterConfig(lease_timeout_s=10.0, dispatch_timeout_s=60.0)
        )
        server = MasterServer(master, tick_interval_s=0.02).start()
        threads = [
            threading.Thread(
                target=run_worker,
                kwargs=dict(
                    host="127.0.0.1", port=server.port,
                    node_id=f"node-{i}", timing_only=True,
                    heartbeat_interval_s=0.1,
                ),
                daemon=True,
            )
            for i in range(2)
        ]
        for thread in threads:
            thread.start()
        try:
            assert server.wait_for_nodes(2, timeout_s=30.0)
            for index in range(4):
                assert server.submit(make_spec(seed=index), "alice").accepted
            assert server.drain(timeout_s=120.0)
            assert len(master.fingerprints()) == 4
            assert master.all_settled
        finally:
            server.shutdown()
        for thread in threads:
            thread.join(timeout=10.0)
            assert not thread.is_alive()

    def test_malformed_messages_dropped_without_killing_reader(self):
        # Well-framed messages with bad fields (a hello the master
        # refuses, a result missing its job) used to raise out of the
        # reader thread and drop the connection; they must be counted
        # and dropped while the connection keeps working.
        master = ClusterMaster(
            ClusterConfig(lease_timeout_s=10.0, dispatch_timeout_s=60.0)
        )
        server = MasterServer(master, tick_interval_s=0.02).start()
        conn = None
        try:
            conn = socket.create_connection(("127.0.0.1", server.port))
            writer = StreamWriter(wire.MAX_PAYLOAD_BYTES)
            for message in (
                {"type": wire.MSG_HELLO, "node_id": "bad", "capacity": 0},
                {"type": wire.MSG_RESULT, "node_id": "bad"},
                {"type": "bogus"},
                wire.hello("node-good", 1),
            ):
                conn.sendall(frame(writer, message))
            assert server.wait_for_nodes(1, timeout_s=10.0)
            assert "bad" not in master.nodes
            assert master.nodes["node-good"].alive
            assert (
                master.stats.as_dict()["cluster.malformed_messages"] == 3
            )
        finally:
            if conn is not None:
                conn.close()
            server.shutdown()

    def test_reconnect_hello_does_not_kill_fresh_link(self):
        # A second hello for the same node id replaces the link; when
        # the stale first reader exits it must not pop the live link
        # and declare the healthy, newly connected node lost.
        master = ClusterMaster(
            ClusterConfig(lease_timeout_s=10.0, dispatch_timeout_s=60.0)
        )
        server = MasterServer(master, tick_interval_s=0.02).start()
        first = second = None
        try:
            first = socket.create_connection(("127.0.0.1", server.port))
            first.sendall(frame(StreamWriter(), wire.hello("node-0", 1)))
            assert server.wait_for_nodes(1, timeout_s=10.0)
            second = socket.create_connection(("127.0.0.1", server.port))
            second.sendall(frame(StreamWriter(), wire.hello("node-0", 1)))
            # The server retires the stale socket on the duplicate hello;
            # wait for that close to reach us, then the stale reader has
            # run (or is running) its cleanup.
            first.settimeout(10.0)
            try:
                leftover = first.recv(1)
            except OSError:
                leftover = b""
            assert leftover == b""
            deadline = time.monotonic() + 0.5
            while time.monotonic() < deadline:
                assert master.nodes["node-0"].alive
                time.sleep(0.05)
        finally:
            for sock in (first, second):
                if sock is not None:
                    sock.close()
            server.shutdown()

    def test_shutdown_with_idle_peers_is_prompt_and_loses_no_node(self):
        # Peers that never close their sockets: readers blocked in
        # recv(2) must be woken by shutdown(), and a clean shutdown
        # must not report the drained nodes as lost.
        master = ClusterMaster(
            ClusterConfig(lease_timeout_s=10.0, dispatch_timeout_s=60.0)
        )
        before = set(threading.enumerate())
        server = MasterServer(master, tick_interval_s=0.02).start()
        peers = []
        try:
            for index in range(2):
                peer = socket.create_connection(("127.0.0.1", server.port))
                peer.sendall(frame(StreamWriter(), wire.hello(f"node-{index}", 1)))
                peers.append(peer)
            peers.append(socket.create_connection(("127.0.0.1", server.port)))
            assert server.wait_for_nodes(2, timeout_s=10.0)
            # acceptor + ticker + one reader per peer
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                server_threads = set(threading.enumerate()) - before
                if len(server_threads) >= 5:
                    break
                time.sleep(0.02)
            assert len(server_threads) == 5
            lost_before = master.stats.as_dict().get("cluster.nodes_lost", 0)
            started = time.perf_counter()
            server.shutdown()
            assert time.perf_counter() - started < 1.0
            assert not any(thread.is_alive() for thread in server_threads)
            assert master.stats.as_dict().get("cluster.nodes_lost", 0) == lost_before
        finally:
            for peer in peers:
                peer.close()

    def test_socket_results_match_local_harness(self):
        # Same specs through the socket transport and the in-process
        # harness must fingerprint identically: the transport carries
        # float bits losslessly and execution is content-seeded.
        local = LocalCluster(n_nodes=1, timing_only=True)
        for index in range(2):
            local.submit(make_spec(seed=index), "alice")
        assert local.run()
        local_fps = local.fingerprints()
        local.close()

        master = ClusterMaster(
            ClusterConfig(lease_timeout_s=10.0, dispatch_timeout_s=60.0)
        )
        server = MasterServer(master, tick_interval_s=0.02).start()
        thread = threading.Thread(
            target=run_worker,
            kwargs=dict(
                host="127.0.0.1", port=server.port, node_id="node-0",
                timing_only=True, heartbeat_interval_s=0.1,
            ),
            daemon=True,
        )
        thread.start()
        try:
            assert server.wait_for_nodes(1, timeout_s=30.0)
            for index in range(2):
                server.submit(make_spec(seed=index), "alice")
            assert server.drain(timeout_s=120.0)
            assert master.fingerprints() == local_fps
        finally:
            server.shutdown()
        thread.join(timeout=10.0)


# ----------------------------------------------------------------------
# lease-renewal race (injectable clock)
# ----------------------------------------------------------------------
class TestLeaseRenewalRace:
    def test_heartbeat_in_same_tick_as_sweep_wins(self):
        clock = ManualClock()
        master = make_master(clock, lease_timeout_s=2.0)
        master.register_node("node-0", capacity=1)
        clock.advance(2.0)
        # Renewal and expiry sweep land on the same tick: the renewal
        # wins deterministically (strictly-greater comparison).
        master.heartbeat("node-0")
        master.tick()
        assert master.nodes["node-0"].alive

    def test_exactly_lease_idle_survives_one_tick_past_does_not(self):
        clock = ManualClock()
        master = make_master(clock, lease_timeout_s=2.0)
        master.register_node("node-0", capacity=1)
        master.tick(now=2.0)  # idle for exactly the lease: spared
        assert master.nodes["node-0"].alive
        master.tick(now=2.0 + 1e-9)
        assert not master.nodes["node-0"].alive
