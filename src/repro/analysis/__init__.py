"""Reports, breakdowns, and paper-style table rendering."""

from repro.analysis.breakdown import CATEGORIES, ExecutionReport, TimeBreakdown
from repro.analysis.export import report_to_dict
from repro.analysis.resilience import campaign_digest, render_campaign
from repro.analysis.tables import format_table, format_time_ps, geometric_mean

__all__ = [
    "ExecutionReport",
    "TimeBreakdown",
    "CATEGORIES",
    "format_table",
    "format_time_ps",
    "geometric_mean",
    "report_to_dict",
    "campaign_digest",
    "render_campaign",
]
