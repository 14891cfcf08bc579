"""Reports, breakdowns, and paper-style table rendering."""

from repro.analysis.breakdown import CATEGORIES, ExecutionReport, TimeBreakdown
from repro.analysis.export import (
    from_json,
    report_from_dict,
    report_to_dict,
    reports_to_csv,
    to_json,
)
from repro.analysis.resilience import campaign_digest, render_campaign
from repro.analysis.tables import (
    format_percentage_breakdown,
    format_speedup,
    format_table,
    format_time_ps,
    geometric_mean,
)

__all__ = [
    "ExecutionReport",
    "TimeBreakdown",
    "CATEGORIES",
    "format_table",
    "format_speedup",
    "format_time_ps",
    "format_percentage_breakdown",
    "geometric_mean",
    "to_json",
    "from_json",
    "report_to_dict",
    "report_from_dict",
    "reports_to_csv",
    "campaign_digest",
    "render_campaign",
]
