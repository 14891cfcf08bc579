"""Tests for the decoupled baseline platform."""

import numpy as np
import pytest

from repro.baseline import DecoupledSystem, ETHERNET_1GBE, USB
from repro.vqa import qaoa_workload, qnn_workload


def run_evaluations(system, workload, n_evals=3, shots=50, seed=0):
    rng = np.random.default_rng(seed)
    system.prepare(workload.ansatz, workload.observable)
    for vector in rng.uniform(-1, 1, size=(n_evals, workload.n_parameters)):
        mapping = {p: float(v) for p, v in zip(workload.parameters, vector)}
        system.evaluate(mapping, shots)
    return system.finish()


class TestLifecycle:
    def test_evaluate_before_prepare_raises(self):
        with pytest.raises(RuntimeError):
            DecoupledSystem(4).evaluate({}, 10)

    def test_width_check(self):
        wl = qaoa_workload(8, n_layers=1)
        with pytest.raises(ValueError):
            DecoupledSystem(4).prepare(wl.ansatz, wl.observable)


class TestSequentialExecution:
    def test_breakdown_sums_to_end_to_end(self):
        wl = qaoa_workload(6, n_layers=2)
        report = run_evaluations(DecoupledSystem(6), wl)
        assert report.breakdown.total_ps == report.end_to_end_ps

    def test_busy_equals_exposed(self):
        wl = qaoa_workload(6, n_layers=2)
        report = run_evaluations(DecoupledSystem(6), wl)
        assert report.busy.as_dict() == report.breakdown.as_dict()

    def test_quantum_is_minor_fraction(self):
        """Fig. 1(a): quantum execution is a small share on decoupled HW."""
        wl = qaoa_workload(6, n_layers=2)
        report = run_evaluations(DecoupledSystem(6), wl, shots=200)
        assert report.quantum_fraction < 0.35

    def test_comm_dominated_by_link_latency(self):
        wl = qaoa_workload(6, n_layers=2)
        report = run_evaluations(DecoupledSystem(6), wl)
        # two messages per evaluation, >= per-message latency each
        assert report.breakdown.comm_ps >= 6 * 400_000_000  # 6 msgs x 0.4ms

    def test_recompiles_every_evaluation(self):
        wl = qaoa_workload(6, n_layers=2)
        system = DecoupledSystem(6)
        report = run_evaluations(system, wl, n_evals=4)
        assert report.extra["jit_compilations"] == 4.0  # one group per eval

    def test_no_pulse_reuse(self):
        wl = qaoa_workload(6, n_layers=2)
        report = run_evaluations(DecoupledSystem(6), wl)
        assert report.compute_reduction == 0.0

    def test_static_instruction_counts_accumulate(self):
        wl = qaoa_workload(6, n_layers=2)
        report = run_evaluations(DecoupledSystem(6), wl, n_evals=2)
        total = report.instruction_counts["static_quantum"]
        # full program re-emitted per evaluation: count is exactly 2x
        # the per-evaluation program length.
        assert total % 2 == 0
        assert total // 2 > wl.ansatz.gate_count()  # transpiled + measures


class TestLinkSensitivity:
    def test_slower_links_increase_comm(self):
        wl = qaoa_workload(6, n_layers=1)
        fast = run_evaluations(DecoupledSystem(6), wl)
        usb = run_evaluations(DecoupledSystem(6, link=USB), wl)
        ethernet = run_evaluations(DecoupledSystem(6, link=ETHERNET_1GBE), wl)
        assert fast.breakdown.comm_ps < usb.breakdown.comm_ps < ethernet.breakdown.comm_ps

    def test_link_messages_tracked(self):
        wl = qaoa_workload(6, n_layers=1)
        report = run_evaluations(DecoupledSystem(6), wl, n_evals=2)
        # upload + download per evaluation per group (1 group for QAOA)
        assert report.extra["link_messages"] == 4.0


class TestFunctionalResults:
    def test_energy_within_maxcut_spectrum(self):
        wl = qaoa_workload(6, n_layers=2, seed=1)
        system = DecoupledSystem(6)
        system.prepare(wl.ansatz, wl.observable)
        mapping = {p: 0.3 for p in wl.parameters}
        value = system.evaluate(mapping, 300)
        n_edges = len(wl.observable.terms)
        assert -n_edges <= value <= 0.0

    def test_matches_qtenon_estimate(self):
        """Both platforms estimate the same physics (different seeds ->
        statistical tolerance)."""
        from repro.core import QtenonSystem

        wl = qnn_workload(5, n_layers=1)
        mapping = {p: 0.2 for p in wl.parameters}

        baseline = DecoupledSystem(5, seed=1)
        baseline.prepare(wl.ansatz, wl.observable)
        value_b = baseline.evaluate(mapping, 4000)

        qtenon = QtenonSystem(5, seed=2)
        qtenon.prepare(wl.ansatz, wl.observable)
        value_q = qtenon.evaluate(mapping, 4000)

        assert value_b == pytest.approx(value_q, abs=0.15)

    def test_timing_only_skips_sampling(self, monkeypatch):
        from repro.runtime import engine

        def refuse(*args, **kwargs):
            raise AssertionError("a timing-only evaluation built a spec")

        monkeypatch.setattr(engine, "build_spec", refuse)
        wl = qaoa_workload(6, n_layers=1)
        system = DecoupledSystem(6, timing_only=True)
        system.prepare(wl.ansatz, wl.observable)
        system.evaluate({p: 0.1 for p in wl.parameters}, 50)
        assert system.report.evaluations == 1
