"""Paper-style table and series rendering for the benchmark harness.

Every bench prints rows matching the corresponding paper table/figure
so EXPERIMENTS.md can record paper-vs-measured side by side.  The
helpers here are deliberately plain-text (no plotting dependencies).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Fixed-width ASCII table."""
    materialised: List[List[str]] = [[_cell(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialised:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, header has {len(headers)}"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    out: List[str] = []
    if title:
        out.append(title)
    out.append(line(list(headers)))
    out.append(line(["-" * w for w in widths]))
    out.extend(line(row) for row in materialised)
    return "\n".join(out)


def _cell(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1000 or magnitude < 0.01:
            return f"{value:.3g}"
        return f"{value:.2f}"
    return str(value)


def format_time_ps(ps: int) -> str:
    """Human scale: picks ns/us/ms/s like the paper's figures."""
    if ps < 0:
        raise ValueError(f"negative duration {ps}")
    if ps < 1_000_000:
        return f"{ps / 1_000:.1f}ns"
    if ps < 1_000_000_000:
        return f"{ps / 1_000_000:.1f}us"
    if ps < 1_000_000_000_000:
        return f"{ps / 1_000_000_000:.2f}ms"
    return f"{ps / 1_000_000_000_000:.3f}s"


def geometric_mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("no values")
    product = 1.0
    for value in values:
        if value <= 0:
            raise ValueError(f"geometric mean needs positive values, got {value}")
        product *= value
    return product ** (1.0 / len(values))
