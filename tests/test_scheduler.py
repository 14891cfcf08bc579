"""Tests for Algorithm 1 (batched transmission) and the run timeline."""

import pytest

from repro.core import (
    batch_interval,
    compute_run_timeline,
    plan_transmissions,
    shot_record_bytes,
)
from repro.sim.clock import ns


class TestBatchInterval:
    def test_paper_example(self):
        # 64 qubits on a 256-bit bus -> 4 shots per transmission (§6.3).
        assert batch_interval(64) == 4

    def test_small_registers_batch_more(self):
        assert batch_interval(8) == 32

    def test_wide_registers_floor_to_one(self):
        assert batch_interval(320) == 1

    def test_invalid_qubits(self):
        with pytest.raises(ValueError):
            batch_interval(0)


class TestShotRecord:
    def test_record_sizes(self):
        assert shot_record_bytes(64) == 8
        assert shot_record_bytes(8) == 1
        assert shot_record_bytes(65) == 9


class TestPlanTransmissions:
    def test_batched_plan_covers_all_shots(self):
        plan = plan_transmissions(64, 500, host_addr=0x1000, batched=True)
        assert sum(b.n_shots for b in plan) == 500
        assert len(plan) == 125  # 500 / 4

    def test_immediate_plan_one_put_per_shot(self):
        plan = plan_transmissions(64, 500, host_addr=0, batched=False)
        assert len(plan) == 500
        assert all(b.n_shots == 1 for b in plan)

    def test_tail_flush(self):
        # 10 shots at K=4 -> batches of 4, 4, 2 (Algorithm 1 lines 14-16).
        plan = plan_transmissions(64, 10, host_addr=0, batched=True)
        assert [b.n_shots for b in plan] == [4, 4, 2]

    def test_addresses_advance_by_record_times_interval(self):
        plan = plan_transmissions(64, 12, host_addr=0x1000, batched=True)
        # addr += ceil(64/8) * 4 = 32 bytes per batch (Algorithm 1 line 12).
        assert [b.host_addr for b in plan] == [0x1000, 0x1020, 0x1040]

    def test_payload_sizes(self):
        plan = plan_transmissions(64, 8, host_addr=0, batched=True)
        assert all(b.n_bytes == 32 for b in plan)

    def test_shot_indices_contiguous(self):
        plan = plan_transmissions(16, 100, host_addr=0, batched=True)
        cursor = 0
        for batch in plan:
            assert batch.first_shot == cursor
            cursor += batch.n_shots

    def test_zero_shots_rejected(self):
        with pytest.raises(ValueError):
            plan_transmissions(64, 0, 0, True)


class TestRunTimeline:
    def make_timeline(self, shots=8, batched=True, shot_ns=1000, put_latency_ns=50):
        plan = plan_transmissions(64, shots, host_addr=0, batched=batched)
        return compute_run_timeline(
            plan,
            start_ps=0,
            shot_duration_ps=ns(shot_ns),
            put_issue_overhead_ps=ns(1),
            put_response_latency_ps=ns(put_latency_ns),
        )

    def test_quantum_end_is_last_shot(self):
        timeline = self.make_timeline(shots=8)
        assert timeline.quantum_end_ps == 8 * ns(1000)

    def test_puts_issue_after_their_batch_completes(self):
        timeline = self.make_timeline(shots=8)
        # batches end at shots 4 and 8.
        assert timeline.put_issue_times[0] == 4 * ns(1000) + ns(1)
        assert timeline.put_issue_times[1] == 8 * ns(1000) + ns(1)

    def test_transmission_overlaps_quantum(self):
        timeline = self.make_timeline(shots=8)
        # first PUT responds before the run finishes: overlap achieved.
        assert timeline.put_response_times[0] < timeline.quantum_end_ps

    def test_comm_tail_is_only_the_last_batch(self):
        timeline = self.make_timeline(shots=8)
        # Transmission not hidden behind the quantum run.
        assert timeline.last_put_response_ps - timeline.quantum_end_ps == ns(1) + ns(50)

    def test_immediate_policy_issues_more_puts(self):
        batched = self.make_timeline(shots=8, batched=True)
        immediate = self.make_timeline(shots=8, batched=False)
        assert len(immediate.put_issue_times) == 4 * len(batched.put_issue_times)

    def test_port_serialisation_when_shots_faster_than_puts(self):
        # Very fast shots: PUT issues serialise on the output port.
        plan = plan_transmissions(64, 16, host_addr=0, batched=False)
        timeline = compute_run_timeline(
            plan,
            start_ps=0,
            shot_duration_ps=ns(1),
            put_issue_overhead_ps=ns(10),
            put_response_latency_ps=ns(5),
        )
        issues = timeline.put_issue_times
        assert all(b - a >= ns(10) for a, b in zip(issues, issues[1:]))

    def test_quantum_never_stalled_by_transmission(self):
        timeline = self.make_timeline(shots=8, put_latency_ns=100000)
        assert timeline.quantum_end_ps == 8 * ns(1000)

    def test_empty_plan_rejected(self):
        with pytest.raises(ValueError):
            compute_run_timeline([], 0, ns(1), 0, 0)

    def test_empty_plan_fast_fails_before_other_validation(self):
        # The guard sits at the top: an empty plan reports "no
        # transmission batches" even when later arguments are also bad.
        with pytest.raises(ValueError, match="no transmission batches"):
            compute_run_timeline([], 0, 0, 0, 0)

    def test_bad_shot_duration_rejected(self):
        plan = plan_transmissions(64, 4, 0, True)
        with pytest.raises(ValueError):
            compute_run_timeline(plan, 0, 0, 0, 0)
