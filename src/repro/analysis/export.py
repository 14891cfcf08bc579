"""Report flattening: an :class:`ExecutionReport` as plain data.

The cluster executor ships a job's report to the master as the
JSON-ready dictionary :func:`report_to_dict` builds.
"""

from __future__ import annotations

from typing import Dict

from repro.analysis.breakdown import ExecutionReport, TimeBreakdown


def breakdown_to_dict(breakdown: TimeBreakdown) -> Dict[str, int]:
    return breakdown.as_dict()


def report_to_dict(report: ExecutionReport) -> Dict[str, object]:
    """Flatten a report to JSON-serialisable primitives."""
    return {
        "platform": report.platform,
        "end_to_end_ps": report.end_to_end_ps,
        "breakdown_ps": breakdown_to_dict(report.breakdown),
        "busy_ps": breakdown_to_dict(report.busy),
        "iterations": report.iterations,
        "evaluations": report.evaluations,
        "total_shots": report.total_shots,
        "comm_by_instruction_ps": dict(report.comm_by_instruction),
        "instruction_counts": dict(report.instruction_counts),
        "pulses_generated": report.pulses_generated,
        "pulse_entries_processed": report.pulse_entries_processed,
        "slt_hits": report.slt_hits,
        "energies": list(report.energies),
        "extra": dict(report.extra),
    }
