"""Tests for the analysis layer: breakdowns, reports, tables."""

import pytest

from repro.analysis import (
    CATEGORIES,
    ExecutionReport,
    TimeBreakdown,
    format_table,
    format_time_ps,
    geometric_mean,
)
from repro.sim.clock import ms, ns, us


class TestTimeBreakdown:
    def test_categories(self):
        assert CATEGORIES == ("quantum", "pulse_gen", "host_compute", "comm")

    def test_add_and_total(self):
        breakdown = TimeBreakdown()
        breakdown.add("quantum", 900)
        breakdown.add("comm", 100)
        assert breakdown.total_ps == 1000
        assert breakdown.classical_ps == 100

    def test_fractions_and_percentages(self):
        breakdown = TimeBreakdown(quantum_ps=75, comm_ps=25)
        assert breakdown.fraction("quantum") == pytest.approx(0.75)
        assert breakdown.percentages()["comm"] == pytest.approx(25.0)

    def test_unknown_category_rejected(self):
        with pytest.raises(KeyError):
            TimeBreakdown().add("cooking", 1)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            TimeBreakdown().add("quantum", -1)

    def test_merged(self):
        a = TimeBreakdown(quantum_ps=10)
        b = TimeBreakdown(quantum_ps=5, comm_ps=3)
        merged = a.merged(b)
        assert merged.quantum_ps == 15
        assert merged.comm_ps == 3
        assert a.quantum_ps == 10  # originals untouched

    def test_as_dict_round_trip(self):
        breakdown = TimeBreakdown(quantum_ps=1, pulse_gen_ps=2, host_compute_ps=3, comm_ps=4)
        assert breakdown.as_dict() == {
            "quantum": 1, "pulse_gen": 2, "host_compute": 3, "comm": 4
        }

    def test_empty_fraction_is_zero(self):
        assert TimeBreakdown().fraction("quantum") == 0.0


class TestExecutionReport:
    def make(self, quantum=800, comm=100, host=50, pulse=50):
        report = ExecutionReport(platform="test")
        report.breakdown = TimeBreakdown(
            quantum_ps=quantum, comm_ps=comm, host_compute_ps=host, pulse_gen_ps=pulse
        )
        report.busy = TimeBreakdown(
            quantum_ps=quantum, comm_ps=comm * 2, host_compute_ps=host * 3,
            pulse_gen_ps=pulse,
        )
        report.end_to_end_ps = report.breakdown.total_ps
        return report

    def test_speedup_over(self):
        fast, slow = self.make(), self.make(quantum=8000, comm=1000, host=500, pulse=500)
        assert fast.speedup_over(slow) == pytest.approx(10.0)

    def test_classical_speedup_uses_busy_time(self):
        fast = self.make()
        slow = self.make(comm=1000, host=500, pulse=500)
        expected = slow.busy.classical_ps / fast.busy.classical_ps
        assert fast.classical_speedup_over(slow) == pytest.approx(expected)

    def test_compute_reduction(self):
        report = self.make()
        report.pulse_entries_processed = 100
        report.pulses_generated = 30
        assert report.compute_reduction == pytest.approx(0.7)

    def test_compute_reduction_empty(self):
        assert self.make().compute_reduction == 0.0

    def test_summary_contains_key_numbers(self):
        report = self.make()
        report.evaluations = 5
        text = report.summary()
        assert "test" in text
        assert "5 evaluations" in text

    def test_zero_time_speedup_raises(self):
        report = ExecutionReport(platform="x")
        with pytest.raises(ZeroDivisionError):
            report.speedup_over(self.make())


class TestFormatting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, "xyz"], [22, "q"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a ")
        # columns align
        assert lines[2].index("xyz") == lines[3].index("q")

    def test_format_table_title(self):
        text = format_table(["x"], [[1]], title="T")
        assert text.splitlines()[0] == "T"

    def test_format_table_row_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_format_time_scales(self):
        assert format_time_ps(ns(5)) == "5.0ns"
        assert format_time_ps(us(3)) == "3.0us"
        assert format_time_ps(ms(2)) == "2.00ms"
        assert format_time_ps(ms(2500)) == "2.500s"

    def test_format_time_negative_rejected(self):
        with pytest.raises(ValueError):
            format_time_ps(-1)

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            geometric_mean([])
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])
