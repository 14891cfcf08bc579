"""Tests for the deterministic fault-injection layer (repro.faults).

Two properties carry the whole module:

* **determinism** — every fault decision is a pure function of the
  plan digest and the decision's content, so identical plans replay
  identical campaigns no matter the call order or thread interleaving;
* **masking vs visibility** — resilience mechanisms (seq + checksum
  retransmits, NACK timeouts, the circuit breaker, capped-backoff
  retries) keep *functional* results bit-identical to fault-free runs
  while the *modelled timelines* degrade visibly.
"""

import pytest

from repro import DecoupledSystem, HybridRunner, QtenonFeatures, QtenonSystem
from repro.baseline.network import UDP_100GBE, LinkTracker
from repro.core.scheduler import compute_run_timeline, plan_transmissions
from repro.faults import (
    FaultInjector,
    FaultPlan,
    LinkDecision,
    LinkFaults,
    MeasurementFaults,
    PutDecision,
    PutFramer,
    PutVerifier,
    ReadoutDriftFaults,
    WorkerFaults,
    checksum32,
)
from repro.quantum.noise import ReadoutNoise
from repro.runtime.engine import EvaluationEngine
from repro.vqa import make_optimizer, qaoa_workload

QUBITS = 4
SHOTS = 64
SEED = 3


def run_vqa(platform, iterations=2, optimizer="spsa"):
    workload = qaoa_workload(QUBITS)
    runner = HybridRunner(
        platform,
        workload.ansatz,
        workload.parameters,
        workload.observable,
        make_optimizer(optimizer, seed=SEED),
        shots=SHOTS,
        iterations=iterations,
    )
    return runner.run(seed=SEED)


# ----------------------------------------------------------------------
# plans
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_digest_is_stable_across_instances(self):
        a = FaultPlan(seed=1, link=LinkFaults(loss_p=0.1))
        b = FaultPlan(seed=1, link=LinkFaults(loss_p=0.1))
        assert a.digest == b.digest
        assert a.digest_bytes == bytes.fromhex(a.digest)

    def test_every_field_enters_the_digest(self):
        base = FaultPlan(seed=1)
        assert base.digest != FaultPlan(seed=2).digest
        assert base.digest != FaultPlan(seed=1, link=LinkFaults(jitter_ps=1)).digest
        assert (
            base.digest
            != FaultPlan(seed=1, worker=WorkerFaults(crash_burst=1)).digest
        )

    def test_is_benign(self):
        # The default plan injects nothing: every decision is the
        # fault-free one.
        benign = FaultInjector(FaultPlan())
        base = ReadoutNoise(p01=0.02, p10=0.03)
        for i in range(50):
            assert benign.link_message(i, 64) == LinkDecision(0, 0, False)
            assert benign.measurement_put(i, 0) == PutDecision(1, 0, 0)
            assert benign.acquire_stuck(i) == 0
            assert benign.worker_event("site", i) is None
        assert benign.drifted_readout(base, 10) is base
        lossy = FaultInjector(FaultPlan(link=LinkFaults(loss_p=1.0)))
        assert lossy.link_message(0, 64).drops > 0
        burst = FaultInjector(FaultPlan(worker=WorkerFaults(crash_burst=1)))
        assert burst.worker_event("site", 0) == "crash"
        drift = FaultInjector(
            FaultPlan(readout=ReadoutDriftFaults(rate_per_evaluation=0.1))
        )
        assert drift.drifted_readout(base, 10) != base

    @pytest.mark.parametrize(
        "bad",
        [
            lambda: LinkFaults(loss_p=1.5),
            lambda: LinkFaults(jitter_ps=-1),
            lambda: LinkFaults(nack_timeout_ps=0),
            lambda: LinkFaults(max_retransmits=0),
            lambda: MeasurementFaults(drop_p=0.7, corrupt_p=0.7),
            lambda: MeasurementFaults(retry_timeout_ps=0),
            lambda: ReadoutDriftFaults(rate_per_evaluation=-0.1),
            lambda: ReadoutDriftFaults(max_scale=0.5),
            lambda: WorkerFaults(crash_p=0.5, hang_p=0.4, slowdown_p=0.2),
            lambda: WorkerFaults(crash_burst=-1),
            lambda: WorkerFaults(hang_s=-1.0),
        ],
    )
    def test_invalid_plans_rejected(self, bad):
        with pytest.raises(ValueError):
            bad()


# ----------------------------------------------------------------------
# injector
# ----------------------------------------------------------------------
class TestFaultInjector:
    PLAN = FaultPlan(seed=11, link=LinkFaults(loss_p=0.2, reorder_p=0.1,
                                              jitter_ps=100))

    def test_identical_plans_replay_identical_decisions(self):
        a, b = FaultInjector(self.PLAN), FaultInjector(self.PLAN)
        decisions_a = [a.link_message(i, 256) for i in range(1, 200)]
        decisions_b = [b.link_message(i, 256) for i in range(1, 200)]
        assert decisions_a == decisions_b

    def test_decisions_are_order_independent(self):
        a, b = FaultInjector(self.PLAN), FaultInjector(self.PLAN)
        forward = {i: a.link_message(i, 64) for i in range(1, 50)}
        backward = {i: b.link_message(i, 64) for i in reversed(range(1, 50))}
        assert forward == backward

    def test_different_seeds_give_different_schedules(self):
        other = FaultPlan(seed=12, link=self.PLAN.link)
        a = [FaultInjector(self.PLAN).link_message(i, 64) for i in range(1, 100)]
        b = [FaultInjector(other).link_message(i, 64) for i in range(1, 100)]
        assert a != b

    def test_benign_plan_never_injects(self):
        injector = FaultInjector(FaultPlan(seed=5))
        for i in range(1, 50):
            decision = injector.link_message(i, 128)
            assert (decision.drops, decision.jitter_ps, decision.reordered) == (
                0, 0, False,
            )
            put = injector.measurement_put(i, 0)
            assert (put.attempts, put.dropped_attempts) == (1, 0)
            assert injector.acquire_stuck(i) == 0
            assert injector.worker_event("pool", i) is None

    def test_certain_loss_is_bounded_by_max_retransmits(self):
        plan = FaultPlan(link=LinkFaults(loss_p=1.0, max_retransmits=3))
        decision = FaultInjector(plan).link_message(1, 64)
        assert decision.drops == 3

    def test_certain_put_drop_bounded(self):
        plan = FaultPlan(
            measurement=MeasurementFaults(drop_p=1.0, max_retransmits=4)
        )
        put = FaultInjector(plan).measurement_put(0, 0)
        assert put.dropped_attempts == 4
        assert put.attempts == 5

    def test_loss_rate_approaches_plan_probability(self):
        plan = FaultPlan(seed=0, link=LinkFaults(loss_p=0.05))
        injector = FaultInjector(plan)
        drops = sum(
            injector.link_message(i, 1000).drops for i in range(1, 2001)
        )
        assert 0.02 < drops / 2000 < 0.10

    def test_drifted_readout_scales_and_saturates(self):
        plan = FaultPlan(
            readout=ReadoutDriftFaults(rate_per_evaluation=0.5, max_scale=2.0)
        )
        injector = FaultInjector(plan)
        base = ReadoutNoise(p01=0.02, p10=0.04)
        assert injector.drifted_readout(base, 0) == base
        drifted = injector.drifted_readout(base, 1)
        assert drifted.p01 == pytest.approx(0.03)
        capped = injector.drifted_readout(base, 100)  # scale hits max_scale
        assert capped.p01 == pytest.approx(0.04)
        assert injector.drifted_readout(None, 5) is None

    def test_drift_probabilities_never_exceed_half(self):
        plan = FaultPlan(
            readout=ReadoutDriftFaults(rate_per_evaluation=10.0, max_scale=100.0)
        )
        noisy = FaultInjector(plan).drifted_readout(
            ReadoutNoise(p01=0.3, p10=0.4), 50
        )
        assert noisy.p01 == 0.5 and noisy.p10 == 0.5

    def test_crash_burst_consumed_per_site(self):
        plan = FaultPlan(worker=WorkerFaults(crash_burst=2))
        injector = FaultInjector(plan)
        assert injector.worker_event("pool", 0) == "crash"
        assert injector.worker_event("service", 0) == "crash"  # separate budget
        assert injector.worker_event("pool", 1) == "crash"
        assert injector.worker_event("pool", 2) is None  # burst spent
        assert injector.stats.counter("worker_crashes").value == 3

    def test_certain_crash_probability(self):
        injector = FaultInjector(FaultPlan(worker=WorkerFaults(crash_p=1.0)))
        assert injector.worker_event("service", "job-1", 1) == "crash"


# ----------------------------------------------------------------------
# seq + checksum protocol
# ----------------------------------------------------------------------
class TestPutProtocol:
    def test_in_order_clean_frames_accepted(self):
        framer, verifier = PutFramer(), PutVerifier()
        for payload in (b"abc", b"", b"xyz" * 100):
            assert verifier.deliver(framer.frame(payload)) is True
        assert verifier.accepted == 3
        assert verifier.gap_nacks == verifier.checksum_nacks == 0

    def test_sequence_gap_nacked(self):
        framer, verifier = PutFramer(), PutVerifier()
        framer.frame(b"lost")  # never delivered
        late = framer.frame(b"after-gap")
        assert verifier.deliver(late) is False
        assert verifier.gap_nacks == 1

    def test_corruption_rejected_then_retransmit_accepted(self):
        framer, verifier = PutFramer(), PutVerifier()
        frame = framer.frame(b"\x00\x01\x02\x03")
        assert verifier.deliver(frame, corrupted=True) is False
        assert verifier.checksum_nacks == 1
        assert verifier.deliver(frame) is True  # retransmission

    def test_checksum_is_payload_addressed(self):
        assert checksum32(b"abc") != checksum32(b"abd")


# ----------------------------------------------------------------------
# baseline link under loss
# ----------------------------------------------------------------------
class TestLinkTrackerFaults:
    def test_benign_injector_is_bit_identical_to_none(self):
        ideal = LinkTracker(UDP_100GBE)
        benign = LinkTracker(UDP_100GBE, fault_injector=FaultInjector(FaultPlan()))
        for n_bytes in (64, 496, 4096):
            assert benign.send(n_bytes) == ideal.send(n_bytes)
        assert benign.retransmits == 0 and benign.recovery_ps == 0

    def test_certain_loss_charges_nack_and_resend(self):
        plan = FaultPlan(
            link=LinkFaults(loss_p=1.0, max_retransmits=2, nack_timeout_ps=500)
        )
        tracker = LinkTracker(UDP_100GBE, fault_injector=FaultInjector(plan))
        clean = UDP_100GBE.transfer_ps(100)
        assert tracker.send(100) == clean + 2 * (500 + clean)
        assert tracker.retransmits == 2
        assert tracker.bytes_moved == 300  # original + two re-sends

    def test_reorder_holds_one_message_slot(self):
        plan = FaultPlan(link=LinkFaults(reorder_p=1.0))
        tracker = LinkTracker(UDP_100GBE, fault_injector=FaultInjector(plan))
        clean = UDP_100GBE.transfer_ps(64)
        assert tracker.send(64) == clean + UDP_100GBE.per_message_latency_ps

    def test_jitter_is_bounded_and_deterministic(self):
        plan = FaultPlan(seed=2, link=LinkFaults(jitter_ps=1000))
        a = LinkTracker(UDP_100GBE, fault_injector=FaultInjector(plan))
        b = LinkTracker(UDP_100GBE, fault_injector=FaultInjector(plan))
        clean = UDP_100GBE.transfer_ps(64)
        latencies = [a.send(64) for _ in range(20)]
        assert latencies == [b.send(64) for _ in range(20)]
        assert all(clean <= lat <= clean + 1000 for lat in latencies)


# ----------------------------------------------------------------------
# scheduler retransmit timing
# ----------------------------------------------------------------------
class TestTimelineRetries:
    def _timeline(self, **kwargs):
        batches = plan_transmissions(
            n_qubits=4, shots=100, host_addr=0x1000, batched=True,
            bus_width_bits=128,
        )
        assert len(batches) > 1  # the retry tests need a queue
        return batches, compute_run_timeline(
            batches,
            start_ps=0,
            shot_duration_ps=1_000,
            put_issue_overhead_ps=10,
            put_response_latency_ps=50,
            **kwargs,
        )

    def test_default_is_bit_identical_to_all_single_attempts(self):
        batches, plain = self._timeline()
        _, unit = self._timeline(
            attempts_per_batch=[1] * len(batches), retry_penalty_ps=123
        )
        assert plain == unit

    def test_failed_attempts_serialise_the_output_port(self):
        batches, plain = self._timeline()
        attempts = [1] * len(batches)
        attempts[0] = 3
        _, lossy = self._timeline(
            attempts_per_batch=attempts, retry_penalty_ps=1_000
        )
        # Two failed attempts on batch 0 push its issue (and every
        # later PUT that queues behind the port) by 2 * penalty.
        assert lossy.put_issue_times[0] == plain.put_issue_times[0] + 2_000
        assert lossy.last_put_response_ps >= plain.last_put_response_ps

    def test_attempt_validation(self):
        batches, _ = self._timeline()
        with pytest.raises(ValueError, match="entries"):
            self._timeline(attempts_per_batch=[1])
        with pytest.raises(ValueError, match="at least one"):
            self._timeline(attempts_per_batch=[0] * len(batches))
        with pytest.raises(ValueError, match="retry_penalty_ps"):
            self._timeline(
                attempts_per_batch=[1] * len(batches), retry_penalty_ps=-1
            )


# ----------------------------------------------------------------------
# systems under faults: masked results, visible timelines
# ----------------------------------------------------------------------
class TestSystemsUnderFaults:
    def test_benign_injector_leaves_qtenon_bit_identical(self):
        plain = run_vqa(QtenonSystem(QUBITS, seed=SEED))
        benign = run_vqa(
            QtenonSystem(
                QUBITS, seed=SEED, fault_injector=FaultInjector(FaultPlan())
            )
        )
        assert benign.cost_history == plain.cost_history
        assert benign.report.end_to_end_ps == plain.report.end_to_end_ps

    def test_put_faults_mask_results_but_inflate_timeline(self):
        plain = run_vqa(QtenonSystem(QUBITS, seed=SEED))
        plan = FaultPlan(
            seed=SEED,
            measurement=MeasurementFaults(drop_p=0.5, corrupt_p=0.25),
        )
        faulty_system = QtenonSystem(
            QUBITS, seed=SEED, fault_injector=FaultInjector(plan)
        )
        faulty = run_vqa(faulty_system)
        # Retransmitted batches deliver correct data: the optimizer
        # cannot see the faults ...
        assert faulty.cost_history == plain.cost_history
        # ... but the modelled timeline pays for every retry, and the
        # receiver actually rejected the corrupted deliveries.
        assert faulty.report.extra["put_retransmits"] > 0
        assert faulty.report.end_to_end_ps > plain.report.end_to_end_ps
        verifier = faulty_system.controller.put_verifier
        assert verifier.checksum_nacks > 0
        assert verifier.accepted > 0

    def test_engine_wrapped_platform_counts_put_retransmits(self):
        # The engine replays the timeline without moving measurement
        # bytes; the retransmissions it pays for must still be counted.
        plan = FaultPlan(
            seed=SEED,
            measurement=MeasurementFaults(drop_p=0.2, corrupt_p=0.1),
        )
        injector = FaultInjector(plan)
        engine = EvaluationEngine(
            QtenonSystem(QUBITS, seed=SEED, fault_injector=injector),
            seed=SEED,
        )
        report = run_vqa(engine, iterations=3).report
        faults = injector.stats.as_dict()
        injected = faults["faults.put_drops"] + faults["faults.put_corruptions"]
        assert injected > 0
        assert report.extra["put_retransmits"] == injected

    def test_stuck_acquire_recovered_by_watchdog(self):
        # q_acquire is the FENCE path: only without fine-grained sync.
        features = QtenonFeatures(fine_grained_sync=False)
        plain = run_vqa(
            QtenonSystem(QUBITS, features=features, seed=SEED), iterations=1
        )
        plan = FaultPlan(
            seed=SEED, measurement=MeasurementFaults(stuck_acquire_p=0.9)
        )
        stuck = run_vqa(
            QtenonSystem(
                QUBITS,
                features=features,
                seed=SEED,
                fault_injector=FaultInjector(plan),
            ),
            iterations=1,
        )
        assert stuck.cost_history == plain.cost_history
        assert stuck.report.extra["acquire_watchdog_fires"] > 0
        assert stuck.report.end_to_end_ps > plain.report.end_to_end_ps

    def test_baseline_link_loss_inflates_latency_not_results(self):
        plain = run_vqa(DecoupledSystem(QUBITS, seed=SEED))
        plan = FaultPlan(seed=SEED, link=LinkFaults(loss_p=0.5))
        lossy = run_vqa(
            DecoupledSystem(QUBITS, seed=SEED, fault_injector=FaultInjector(plan))
        )
        assert lossy.cost_history == plain.cost_history
        assert lossy.report.extra["link_retransmits"] > 0
        assert lossy.report.extra["link_recovery_ps"] > 0
        assert lossy.report.end_to_end_ps > plain.report.end_to_end_ps

    def test_readout_drift_changes_sampled_energies(self):
        base = ReadoutNoise(p01=0.02, p10=0.05)
        clean = run_vqa(DecoupledSystem(QUBITS, seed=SEED, readout_noise=base))
        plan = FaultPlan(
            seed=SEED, readout=ReadoutDriftFaults(rate_per_evaluation=0.5)
        )

        def run_drifted():
            return run_vqa(
                DecoupledSystem(
                    QUBITS,
                    seed=SEED,
                    readout_noise=base,
                    fault_injector=FaultInjector(plan),
                )
            )

        drifted = run_drifted()
        # The scaled assignment errors move the sampled energies ...
        assert drifted.cost_history != clean.cost_history
        # ... deterministically: the drift schedule replays exactly.
        assert run_drifted().cost_history == drifted.cost_history
