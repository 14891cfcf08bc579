"""Tests for report flattening (the cluster's report payload)."""

import json

from repro.analysis import ExecutionReport, TimeBreakdown, report_to_dict
from repro.faults.protocol import dumps_wire, loads_wire


def make_report():
    report = ExecutionReport(platform="qtenon-test")
    report.breakdown = TimeBreakdown(quantum_ps=900, comm_ps=50, host_compute_ps=30, pulse_gen_ps=20)
    report.busy = TimeBreakdown(quantum_ps=900, comm_ps=500, host_compute_ps=300, pulse_gen_ps=20)
    report.end_to_end_ps = 1000
    report.iterations = 3
    report.evaluations = 9
    report.total_shots = 4500
    report.comm_by_instruction = {"q_set": 10, "q_update": 5, "q_acquire": 35}
    report.instruction_counts = {"q_run": 9, "q_gen": 9}
    report.pulses_generated = 42
    report.pulse_entries_processed = 100
    report.slt_hits = 58
    report.energies = [-1.0, -1.5, -1.8]
    report.extra = {"slt_hit_rate": 0.58}
    return report


class TestJsonRoundTrip:
    def test_round_trip_preserves_everything(self):
        report = make_report()
        data = report_to_dict(report)
        assert loads_wire(dumps_wire(data)) == data
        assert data["platform"] == report.platform
        assert data["end_to_end_ps"] == report.end_to_end_ps
        assert data["breakdown_ps"] == report.breakdown.as_dict()
        assert data["busy_ps"] == report.busy.as_dict()
        assert data["comm_by_instruction_ps"] == report.comm_by_instruction
        assert data["instruction_counts"] == report.instruction_counts
        assert data["energies"] == report.energies
        assert data["extra"] == report.extra

    def test_json_is_valid_and_sorted(self):
        text = dumps_wire(report_to_dict(make_report()))
        data = json.loads(text)
        assert data["platform"] == "qtenon-test"
        assert list(data) == sorted(data)
