"""Result containers, the reductions tables share, and plain-text
rendering for experiments."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence


@dataclass
class ExperimentResult:
    """A reproduced table/figure: rows of named columns plus notes.

    ``paper_reference`` states what the paper reports for the same
    artefact so EXPERIMENTS.md comparisons are self-contained.
    """

    name: str
    title: str
    columns: Sequence[str]
    rows: List[Dict[str, Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    paper_reference: Optional[str] = None

    def add_row(self, **values: Any) -> None:
        self.rows.append(values)

    def column(self, name: str) -> List[Any]:
        return [row.get(name) for row in self.rows]

    def row_for(self, **match: Any) -> Dict[str, Any]:
        """First row whose items include all of ``match``."""
        for row in self.rows:
            if all(row.get(k) == v for k, v in match.items()):
                return row
        raise KeyError(f"no row matching {match}")


def geometric_mean(values) -> float:
    """Geometric mean, accumulated in log-space.

    A running product underflows (or overflows) for long lists of
    small (large) ratios; summing logarithms is exact in the float
    range instead.  Any zero value makes the mean zero, matching the
    limit of the product form; negative values are rejected (the
    product form would silently return NaN or a complex-rooted
    garbage value).
    """
    values = list(values)
    if not values:
        return 0.0
    total = 0.0
    for v in values:
        if v < 0:
            raise ValueError(
                f"geometric mean undefined for negative value {v!r}"
            )
        if v == 0:
            return 0.0
        total += math.log(v)
    return math.exp(total / len(values))


def average(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def savings(baseline: float, ours: float) -> float:
    """Fractional reduction of ``ours`` relative to ``baseline``."""
    return 1.0 - ours / baseline if baseline else 0.0


def format_cell(value: Any) -> str:
    """The one cell formatter every table renderer shares.

    Floats print with three decimals, everything else verbatim; both
    the aligned text tables (:func:`render`) and the markdown report
    (:mod:`repro.experiments.report`) format through here, so the two
    surfaces can never drift apart.
    """
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def render(result: ExperimentResult) -> str:
    """Render an :class:`ExperimentResult` as an aligned text table."""
    header = list(result.columns)
    body = [
        [format_cell(row.get(col, "")) for col in header]
        for row in result.rows
    ]
    widths = [
        max(len(header[i]), *(len(r[i]) for r in body)) if body
        else len(header[i])
        for i in range(len(header))
    ]
    lines = [f"== {result.title} =="]
    if result.paper_reference:
        lines.append(f"   paper: {result.paper_reference}")
    lines.append(
        "  ".join(h.ljust(w) for h, w in zip(header, widths))
    )
    lines.append("  ".join("-" * w for w in widths))
    for r in body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    for note in result.notes:
        lines.append(f"   note: {note}")
    return "\n".join(lines)


def bar_chart(
    labels: Sequence[str], values: Sequence[float], width: int = 40,
    unit: str = "",
) -> str:
    """A quick ASCII horizontal bar chart (for figure experiments)."""
    peak = max(values) if values else 1.0
    lines = []
    label_w = max((len(l) for l in labels), default=0)
    for label, value in zip(labels, values):
        bar = "#" * max(int(round(width * value / peak)), 0) if peak else ""
        lines.append(f"{label.ljust(label_w)} |{bar} {value:.2f}{unit}")
    return "\n".join(lines)
