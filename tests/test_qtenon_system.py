"""Tests for the QtenonSystem platform model."""

import numpy as np
import pytest

from repro.core import QtenonFeatures, QtenonSystem, RunResult, RunTimeline
from repro.host import ROCKET
from repro.vqa import qaoa_workload


def run_evaluations(system, workload, n_evals=3, shots=50, seed=0):
    rng = np.random.default_rng(seed)
    system.prepare(workload.ansatz, workload.observable)
    vectors = rng.uniform(-1, 1, size=(n_evals, workload.n_parameters))
    values = []
    for vector in vectors:
        mapping = {p: float(v) for p, v in zip(workload.parameters, vector)}
        values.append(system.evaluate(mapping, shots))
    return system.finish(), values


class TestLifecycle:
    def test_evaluate_before_prepare_raises(self):
        system = QtenonSystem(4)
        with pytest.raises(RuntimeError, match="prepare"):
            system.evaluate({}, 10)

    def test_wrong_width_rejected(self):
        wl = qaoa_workload(8, n_layers=1)
        system = QtenonSystem(4)
        with pytest.raises(ValueError, match="qubits"):
            system.prepare(wl.ansatz, wl.observable)

    def test_negative_shots_rejected(self):
        # shots=0 is the analytic-expectation path; only negatives die.
        wl = qaoa_workload(4, n_layers=1)
        system = QtenonSystem(4)
        system.prepare(wl.ansatz, wl.observable)
        with pytest.raises(ValueError):
            system.evaluate({p: 0.0 for p in wl.parameters}, -1)


class TestReportConsistency:
    def test_breakdown_sums_to_end_to_end(self):
        wl = qaoa_workload(6, n_layers=2)
        report, _ = run_evaluations(QtenonSystem(6), wl)
        assert report.breakdown.total_ps == report.end_to_end_ps

    def test_busy_at_least_exposed_for_classical(self):
        wl = qaoa_workload(6, n_layers=2)
        report, _ = run_evaluations(QtenonSystem(6), wl)
        assert report.busy.host_compute_ps >= report.breakdown.host_compute_ps
        assert report.busy.comm_ps >= report.breakdown.comm_ps

    def test_quantum_dominates_with_full_features(self):
        wl = qaoa_workload(6, n_layers=2)
        report, _ = run_evaluations(QtenonSystem(6), wl, shots=200)
        assert report.quantum_fraction > 0.8

    def test_instruction_counts_present(self):
        wl = qaoa_workload(6, n_layers=2)
        report, _ = run_evaluations(QtenonSystem(6), wl, n_evals=2)
        assert report.instruction_counts["q_set"] >= 1
        assert report.instruction_counts["q_gen"] == 2
        assert report.instruction_counts["q_run"] == 2
        assert report.instruction_counts["q_update"] > 0

    def test_evaluations_counted(self):
        wl = qaoa_workload(6, n_layers=2)
        report, _ = run_evaluations(QtenonSystem(6), wl, n_evals=4)
        assert report.evaluations == 4
        assert len(report.energies) == 4

    def test_slt_hit_rate_reported(self):
        wl = qaoa_workload(6, n_layers=2)
        report, _ = run_evaluations(QtenonSystem(6), wl)
        assert 0.0 <= report.extra["slt_hit_rate"] <= 1.0


class TestEnergiesArePhysical:
    def test_qaoa_energy_within_spectrum(self):
        wl = qaoa_workload(6, n_layers=2, seed=1)
        report, values = run_evaluations(QtenonSystem(6), wl, shots=300)
        n_edges = sum(1 for _ in wl.observable.terms)
        for value in values:
            # MAX-CUT cost lies in [-|E|, 0].
            assert -n_edges - 1e-6 <= value <= 1e-6

    def test_matches_direct_sampler_estimate(self):
        from repro.quantum import Sampler
        from repro.quantum.pauli import measurement_circuits

        wl = qaoa_workload(5, n_layers=1, seed=2)
        system = QtenonSystem(5, seed=3)
        system.prepare(wl.ansatz, wl.observable)
        mapping = {p: 0.4 for p in wl.parameters}
        platform_value = system.evaluate(mapping, 4000)
        groups = wl.observable.grouped_qubitwise()
        sampler = Sampler(seed=9)
        direct_value = wl.observable.constant + sum(
            group.expectation_from_counts(sampler.run(circuit, 4000).counts)
            for group, circuit in zip(
                groups, measurement_circuits(wl.ansatz.bind(mapping), groups)
            )
        )
        assert platform_value == pytest.approx(direct_value, abs=0.3)


class TestIncrementalBehaviour:
    def test_repeat_evaluation_sends_no_updates(self):
        wl = qaoa_workload(6, n_layers=2)
        system = QtenonSystem(6)
        system.prepare(wl.ansatz, wl.observable)
        mapping = {p: 0.25 for p in wl.parameters}
        system.evaluate(mapping, 20)
        before = system.report.instruction_counts["q_update"]
        system.evaluate(mapping, 20)
        assert system.report.instruction_counts["q_update"] == before

    def test_single_parameter_change_sends_one_update(self):
        wl = qaoa_workload(6, n_layers=2)
        system = QtenonSystem(6)
        system.prepare(wl.ansatz, wl.observable)
        mapping = {p: 0.25 for p in wl.parameters}
        system.evaluate(mapping, 20)
        before = system.report.instruction_counts["q_update"]
        mapping[wl.parameters[0]] = 0.9
        system.evaluate(mapping, 20)
        delta = system.report.instruction_counts["q_update"] - before
        # gamma[0] appears as one regfile slot (coefficient 2.0).
        assert delta == 1

    def test_non_incremental_reuploads_each_time(self):
        wl = qaoa_workload(6, n_layers=2)
        features = QtenonFeatures(incremental_compile=False)
        system = QtenonSystem(6, features=features)
        system.prepare(wl.ansatz, wl.observable)
        mapping = {p: 0.25 for p in wl.parameters}
        uploads_after_prepare = system.report.instruction_counts["q_set"]
        system.evaluate(mapping, 20)
        assert system.report.instruction_counts["q_set"] > uploads_after_prepare


class TestAblationOrdering:
    """The paper's software features must each help (Fig. 13/16)."""

    def _run(self, features, seed=0):
        wl = qaoa_workload(8, n_layers=2, seed=1)
        system = QtenonSystem(8, features=features, seed=seed, timing_only=True)
        report, _ = run_evaluations(system, wl, n_evals=4, shots=200)
        return report

    def test_full_faster_than_hardware_only(self):
        full = self._run(QtenonFeatures.full())
        hw = self._run(QtenonFeatures.hardware_only())
        assert full.end_to_end_ps < hw.end_to_end_ps

    def test_fine_grained_sync_reduces_comm(self):
        full = self._run(QtenonFeatures.full())
        fence = self._run(QtenonFeatures(fine_grained_sync=False))
        assert full.breakdown.comm_ps < fence.breakdown.comm_ps

    def test_batching_reduces_host_busy_time(self):
        batched = self._run(QtenonFeatures.full())
        immediate = self._run(QtenonFeatures(batched_transmission=False))
        assert batched.busy.host_compute_ps < immediate.busy.host_compute_ps

    def test_incremental_compile_reduces_host_time(self):
        full = self._run(QtenonFeatures.full())
        jit = self._run(QtenonFeatures(incremental_compile=False))
        assert full.busy.host_compute_ps < jit.busy.host_compute_ps


class TestOverlapModes:
    @staticmethod
    def _timeline(responses, start_ps=0):
        end = responses[-1] if responses else start_ps
        return RunTimeline(
            start_ps=start_ps,
            quantum_end_ps=end,
            last_put_issue_ps=end,
            last_put_response_ps=end,
            put_issue_times=(),
            put_response_times=tuple(responses),
        )

    def test_host_overlap_matches_hand_computed_case(self):
        # 1 GHz host: each barrier query costs 1 000 ps, then 2 000 ps
        # of post-processing per batch on one serial host.
        #   batch 1: ready  2 000, host busy  2 000 ->  4 000
        #   batch 2: ready  2 500, host backs up     ->  6 000
        #   batch 3: ready 11 000, host idles first  -> 13 000
        system = QtenonSystem(4)
        assert system.clock.period_ps == 1_000
        timeline = self._timeline([1_000, 1_500, 10_000])
        assert system._overlapped_host_done(timeline, 2_000) == 13_000
        # Stopping after batch 2 exposes the backlog the idle gap hides.
        timeline = self._timeline([1_000, 1_500])
        assert system._overlapped_host_done(timeline, 2_000) == 6_000

    def test_kept_overlap_matches_direct_computation(self):
        # Fault-free runs keep host-done and comm-busy per timeline key
        # and per-batch host cost: a shifted run, or the same timeline
        # with another host cost, gets what the direct loop gives.
        system = QtenonSystem(4)
        relative = RunTimeline(
            start_ps=0,
            quantum_end_ps=9_000,
            last_put_issue_ps=9_500,
            last_put_response_ps=10_000,
            put_issue_times=(600, 1_100, 9_500),
            put_response_times=(1_000, 1_500, 10_000),
        )
        for start, cost in ((0, 2_000), (50_000, 2_000), (50_000, 9_000), (7, 2_000)):
            timeline = relative.shifted(start)
            run = RunResult(
                timeline=timeline, n_batches=3, timeline_key=("plan", 1, 2),
            )
            assert system._overlap(run, cost) == (
                system._overlapped_host_done(timeline, cost), 400 + 400 + 500
            )

    def test_no_batches_returns_start(self):
        system = QtenonSystem(4)
        timeline = self._timeline([], start_ps=7_000)
        assert system._overlapped_host_done(timeline, 2_000) == 7_000


class TestCores:
    def test_rocket_slower_host_compute(self):
        wl = qaoa_workload(6, n_layers=2)
        boom, _ = run_evaluations(QtenonSystem(6), wl)
        rocket, _ = run_evaluations(QtenonSystem(6, core=ROCKET), wl)
        assert rocket.busy.host_compute_ps > boom.busy.host_compute_ps
