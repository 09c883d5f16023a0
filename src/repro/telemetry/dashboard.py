"""The experiment analytics dashboard behind ``GET /v1/reports/``.

One server-rendered HTML page — stdlib only, no javascript frameworks,
charts as inline SVG — summarizing everything the stack knows about
itself:

* per-experiment tables, tabulated **from the result store alone**
  (via :meth:`ResultStore.peek_many`, which neither bumps counters nor
  stamps recency — a dashboard view never perturbs the numbers it
  displays, and never triggers a simulation);
* the perf trend over ``BENCH_history.jsonl`` as a line chart (plus an
  accessible table view of the same data);
* store hit-rate (lifetime and process), queue depth/retries and
  worker-pool statistics as handed in by the service.

Everything computes lazily and at most once per page render through
:class:`DashboardContext` — the FuzzBench ``ExperimentResults``
pattern: each figure/table is a ``cached_property``, so the page costs
exactly the queries for the panels it actually renders.
"""

from __future__ import annotations

import html
import json
from functools import cached_property
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

#: Default perf-history file (written by the bench harness at repo root).
BENCH_HISTORY = "BENCH_history.jsonl"

# Validated categorical palette (fixed slot order, never cycled) and
# chart chrome, light/dark — see the data-viz reference palette.  Dark
# steps are the same hues re-stepped for the dark surface, not a flip.
_SERIES_LIGHT = ("#2a78d6", "#eb6834", "#1baf7a", "#eda100",
                 "#e87ba4", "#008300", "#4a3aa7", "#e34948")
_SERIES_DARK = ("#3987e5", "#d95926", "#199e70", "#c98500",
                "#d55181", "#008300", "#9085e9", "#e66767")

_CSS = """
:root { color-scheme: light dark; }
.viz-root {
  color-scheme: light;
  --surface-1: #fcfcfb; --page: #f9f9f7;
  --text-primary: #0b0b0b; --text-secondary: #52514e;
  --muted: #898781; --grid: #e1e0d9; --baseline: #c3c2b7;
  --border: rgba(11,11,11,0.10);
%LIGHT_SERIES%
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
    color-scheme: dark;
    --surface-1: #1a1a19; --page: #0d0d0d;
    --text-primary: #ffffff; --text-secondary: #c3c2b7;
    --muted: #898781; --grid: #2c2c2a; --baseline: #383835;
    --border: rgba(255,255,255,0.10);
%DARK_SERIES%
  }
}
:root[data-theme="dark"] .viz-root {
  color-scheme: dark;
  --surface-1: #1a1a19; --page: #0d0d0d;
  --text-primary: #ffffff; --text-secondary: #c3c2b7;
  --muted: #898781; --grid: #2c2c2a; --baseline: #383835;
  --border: rgba(255,255,255,0.10);
%DARK_SERIES%
}
.viz-root {
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  background: var(--page); color: var(--text-primary);
  margin: 0; padding: 24px; line-height: 1.45;
}
.viz-root h1 { font-size: 1.35rem; margin: 0 0 2px; }
.viz-root h2 { font-size: 1.05rem; margin: 0 0 8px; }
.viz-root .sub { color: var(--text-secondary); font-size: 0.85rem;
  margin: 0 0 20px; }
.panel { background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 16px 18px; margin: 0 0 18px; }
.panel p.note { color: var(--text-secondary); font-size: 0.82rem;
  margin: 8px 0 0; }
table.data { border-collapse: collapse; font-size: 0.85rem; }
table.data th { text-align: left; color: var(--text-secondary);
  font-weight: 600; padding: 3px 14px 3px 0;
  border-bottom: 1px solid var(--baseline); }
table.data td { padding: 3px 14px 3px 0;
  border-bottom: 1px solid var(--grid);
  font-variant-numeric: tabular-nums; }
table.data tr:last-child td { border-bottom: none; }
.legend { display: flex; flex-wrap: wrap; gap: 4px 16px;
  font-size: 0.8rem; color: var(--text-secondary); margin: 6px 0 2px; }
.legend .swatch { display: inline-block; width: 10px; height: 10px;
  border-radius: 3px; margin-right: 5px; vertical-align: -1px; }
.kv { display: grid; grid-template-columns: max-content max-content;
  gap: 2px 18px; font-size: 0.85rem; }
.kv .k { color: var(--text-secondary); }
.kv .v { font-variant-numeric: tabular-nums; }
details.tablev { margin-top: 8px; font-size: 0.82rem; }
details.tablev summary { color: var(--text-secondary); cursor: pointer; }
svg .gridline { stroke: var(--grid); stroke-width: 1; }
svg .baseline { stroke: var(--baseline); stroke-width: 1; }
svg text { fill: var(--muted); font-size: 11px;
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif; }
svg .marker:hover { stroke-width: 3; }
"""


def _series_css(colors: Sequence[str], indent: str) -> str:
    return "\n".join(
        f"{indent}--series-{i + 1}: {color};"
        for i, color in enumerate(colors)
    )


def _style_block() -> str:
    return (
        _CSS
        .replace("%LIGHT_SERIES%", _series_css(_SERIES_LIGHT, "  "))
        .replace("%DARK_SERIES%", _series_css(_SERIES_DARK, "    "))
    )


def _esc(value: Any) -> str:
    return html.escape(str(value), quote=True)


def _fmt(value: Any) -> str:
    from repro.experiments.reporting import format_cell

    return format_cell(value)


def _html_table(
    columns: Sequence[str], rows: Sequence[Sequence[Any]]
) -> str:
    parts = ['<table class="data"><thead><tr>']
    parts += [f"<th>{_esc(col)}</th>" for col in columns]
    parts.append("</tr></thead><tbody>")
    for row in rows:
        parts.append("<tr>")
        parts += [f"<td>{_esc(cell)}</td>" for cell in row]
        parts.append("</tr>")
    parts.append("</tbody></table>")
    return "".join(parts)


# ----------------------------------------------------------------------
# trend chart (inline SVG, one axis, fixed palette order)
# ----------------------------------------------------------------------

_CHART_W, _CHART_H = 680, 300
_M_LEFT, _M_RIGHT, _M_TOP, _M_BOTTOM = 46, 14, 12, 34

#: Line-chart series cap: eight validated categorical slots.
MAX_SERIES = 8


def _nice_ticks(peak: float, count: int = 4) -> List[float]:
    if peak <= 0:
        return [0.0, 1.0]
    raw = peak / count
    magnitude = 10 ** len(str(int(raw))) / 10 if raw >= 1 else 1
    step = max(round(raw / magnitude) * magnitude, magnitude) or 1
    ticks, tick = [0.0], 0.0
    while tick < peak:      # top tick always clears the peak
        tick += step
        ticks.append(round(tick, 6))
    return ticks


def trend_chart_svg(
    labels: Sequence[str],
    series: Mapping[str, Sequence[Optional[float]]],
    y_title: str = "speedup (x)",
) -> str:
    """A line chart of named series over run labels, as one SVG string.

    ``series`` values align with ``labels``; ``None`` gaps a point.
    Hue slots assign in iteration order and never re-assign when a
    series is absent from one render — pass a stably-ordered mapping.
    Over :data:`MAX_SERIES` series, the extras are dropped (the
    caller's table view still carries them).
    """
    names = list(series)[:MAX_SERIES]
    points = max(len(labels), 1)
    peak = max(
        (v for name in names for v in series[name] if v is not None),
        default=1.0,
    )
    ticks = _nice_ticks(peak)
    top = ticks[-1]
    plot_w = _CHART_W - _M_LEFT - _M_RIGHT
    plot_h = _CHART_H - _M_TOP - _M_BOTTOM

    def x_at(index: int) -> float:
        if points == 1:
            return _M_LEFT + plot_w / 2
        return _M_LEFT + plot_w * index / (points - 1)

    def y_at(value: float) -> float:
        return _M_TOP + plot_h * (1 - value / top)

    parts = [
        f'<svg viewBox="0 0 {_CHART_W} {_CHART_H}" role="img" '
        f'aria-label="trend chart" '
        f'style="width:100%;max-width:{_CHART_W}px;height:auto;'
        f'background:var(--surface-1)">'
    ]
    for tick in ticks:
        y = y_at(tick)
        css = "baseline" if tick == 0 else "gridline"
        parts.append(
            f'<line class="{css}" x1="{_M_LEFT}" y1="{y:.1f}" '
            f'x2="{_CHART_W - _M_RIGHT}" y2="{y:.1f}"/>'
        )
        text = str(int(tick)) if float(tick).is_integer() else f"{tick:g}"
        parts.append(
            f'<text x="{_M_LEFT - 6}" y="{y + 4:.1f}" '
            f'text-anchor="end">{text}</text>'
        )
    step = max(points // 8, 1)   # label every run while they fit
    for index, label in enumerate(labels):
        if index % step and index != points - 1:
            continue
        parts.append(
            f'<text x="{x_at(index):.1f}" y="{_CHART_H - 14}" '
            f'text-anchor="middle">{_esc(label)}</text>'
        )
    parts.append(
        f'<text x="12" y="{_M_TOP + plot_h / 2:.1f}" '
        f'text-anchor="middle" '
        f'transform="rotate(-90 12 {_M_TOP + plot_h / 2:.1f})">'
        f"{_esc(y_title)}</text>"
    )
    for slot, name in enumerate(names, start=1):
        color = f"var(--series-{slot})"
        coords = [
            (x_at(i), y_at(v))
            for i, v in enumerate(series[name])
            if v is not None
        ]
        if len(coords) > 1:
            path = " ".join(
                f"{'M' if i == 0 else 'L'}{x:.1f},{y:.1f}"
                for i, (x, y) in enumerate(coords)
            )
            parts.append(
                f'<path d="{path}" fill="none" stroke="{color}" '
                f'stroke-width="2" stroke-linejoin="round"/>'
            )
        for index, value in enumerate(series[name]):
            if value is None:
                continue
            parts.append(
                f'<circle class="marker" cx="{x_at(index):.1f}" '
                f'cy="{y_at(value):.1f}" r="4" fill="{color}" '
                f'stroke="var(--surface-1)" stroke-width="2">'
                f"<title>{_esc(name)} @ {_esc(labels[index])}: "
                f"{_fmt(float(value))}</title></circle>"
            )
    parts.append("</svg>")
    return "".join(parts)


def _legend(names: Sequence[str]) -> str:
    items = [
        f'<span><span class="swatch" '
        f'style="background:var(--series-{slot})"></span>'
        f"{_esc(name)}</span>"
        for slot, name in enumerate(names[:MAX_SERIES], start=1)
    ]
    return f'<div class="legend">{"".join(items)}</div>'


# ----------------------------------------------------------------------
# lazy report context
# ----------------------------------------------------------------------


def load_bench_history(
    path: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """Parse ``BENCH_history.jsonl`` (missing file → empty history)."""
    target = Path(path or BENCH_HISTORY)
    if not target.exists():
        return []
    entries: List[Dict[str, Any]] = []
    for line in target.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(entry, dict):
            entries.append(entry)
    return entries


class DashboardContext:
    """Everything ``/v1/reports/`` can show, computed lazily.

    Each panel is a ``cached_property`` so one page render performs
    each store query / tabulation at most once and only for panels it
    includes; a fresh context per request keeps the data current.
    ``queue_stats`` / ``pool_stats`` / ``service_info`` are plain
    dicts the service hands in (the dashboard never reaches into
    server internals).
    """

    def __init__(
        self,
        store=None,
        bench_history_path: Optional[str] = None,
        queue_stats: Optional[Mapping[str, Any]] = None,
        pool_stats: Optional[Mapping[str, Any]] = None,
        service_info: Optional[Mapping[str, Any]] = None,
    ):
        self._store = store
        self._bench_path = bench_history_path
        self.queue_stats = dict(queue_stats or {})
        self.pool_stats = dict(pool_stats or {})
        self.service_info = dict(service_info or {})

    @cached_property
    def store_stats(self) -> Optional[Dict[str, Any]]:
        if self._store is None:
            return None
        try:
            return self._store.stats()
        except Exception:
            return None

    @cached_property
    def hit_rate(self) -> Optional[float]:
        """Lifetime hit rate across every process, or None when unknown."""
        stats = self.store_stats
        if not stats:
            return None
        reads = (
            stats.get("lifetime_hits", 0)
            + stats.get("lifetime_misses", 0)
        )
        if not reads:
            return None
        return stats.get("lifetime_hits", 0) / reads

    @cached_property
    def bench_history(self) -> List[Dict[str, Any]]:
        return load_bench_history(self._bench_path)

    @cached_property
    def bench_series(
        self,
    ) -> Tuple[List[str], Dict[str, List[Optional[float]]]]:
        """``(labels, {series: values})`` for the trend chart.

        Labels are short commits; series are every ``speedup`` key
        seen anywhere in the history (sorted, so hue slots are stable
        across renders), plus ``replay`` when recorded.
        """
        history = self.bench_history
        labels = [
            str(entry.get("commit", "?"))[:7] for entry in history
        ]
        names = sorted(
            {
                key
                for entry in history
                for key in (entry.get("speedup") or {})
            }
        )
        series: Dict[str, List[Optional[float]]] = {
            name: [
                (entry.get("speedup") or {}).get(name)
                for entry in history
            ]
            for name in names
        }
        if any("replay_speedup" in entry for entry in history):
            series["replay"] = [
                entry.get("replay_speedup") for entry in history
            ]
        return labels, series

    @cached_property
    def experiment_panels(self) -> List[Dict[str, Any]]:
        """Per-experiment dashboard state, report order.

        Each entry: ``name``, ``title``, ``category``, ``covered`` /
        ``declared`` design-point counts, and ``result`` (a tabulated
        :class:`ExperimentResult`) when the store fully covers the
        experiment — analytic experiments always tabulate (no specs),
        and every other one as soon as the store holds all its
        declared specs.
        """
        from repro.experiments.registry import (
            EXPERIMENTS,
            get_experiment,
            keyed_results,
        )

        panels: List[Dict[str, Any]] = []
        for name in EXPERIMENTS:
            experiment = get_experiment(name)
            specs = experiment.specs()
            panel: Dict[str, Any] = {
                "name": name,
                "title": experiment.title,
                "category": experiment.category,
                "declared": len(specs),
                "covered": 0,
                "result": None,
            }
            found: Dict[str, Any] = {}
            if specs and self._store is not None:
                try:
                    found = self._store.peek_many(specs)
                except Exception:
                    found = {}
            panel["covered"] = len(found)
            if len(found) == len(specs):
                try:
                    panel["result"] = experiment.tabulate(
                        keyed_results(
                            specs,
                            [found[s.key()] for s in specs],
                        )
                    )
                except Exception:
                    panel["result"] = None
            panels.append(panel)
        return panels

    # -- rendering -----------------------------------------------------

    def _service_panel(self) -> str:
        rows: List[Tuple[str, Any]] = []
        for key in ("fingerprint", "result_schema", "uptime_seconds",
                    "draining", "read_only"):
            if key in self.service_info:
                rows.append((key, self.service_info[key]))
        for key, value in sorted(self.queue_stats.items()):
            rows.append((f"queue {key}", value))
        for key, value in sorted(self.pool_stats.items()):
            rows.append((f"pool {key}", value))
        if not rows:
            return ""
        grid = "".join(
            f'<div class="k">{_esc(k)}</div>'
            f'<div class="v">{_esc(_fmt(v))}</div>'
            for k, v in rows
        )
        return (
            '<section class="panel"><h2>Service</h2>'
            f'<div class="kv">{grid}</div></section>'
        )

    def _store_panel(self) -> str:
        stats = self.store_stats
        if not stats:
            return (
                '<section class="panel"><h2>Result store</h2>'
                '<p class="note">no result store configured</p>'
                "</section>"
            )
        order = (
            "path", "entries", "entries_current_code", "file_bytes",
            "lifetime_hits", "lifetime_misses", "lifetime_puts",
            "lifetime_evictions", "lifetime_quarantines",
            "process_hits", "process_misses", "process_puts",
        )
        grid = "".join(
            f'<div class="k">{_esc(key)}</div>'
            f'<div class="v">{_esc(stats[key])}</div>'
            for key in order if key in stats
        )
        rate = self.hit_rate
        note = (
            f"lifetime hit rate {rate * 100:.1f}%"
            if rate is not None else "no lifetime reads recorded yet"
        )
        return (
            '<section class="panel"><h2>Result store</h2>'
            f'<div class="kv">{grid}</div>'
            f'<p class="note">{_esc(note)}</p></section>'
        )

    def _bench_panel(self) -> str:
        labels, series = self.bench_series
        if not labels or not series:
            return (
                '<section class="panel"><h2>Performance trend</h2>'
                '<p class="note">no BENCH_history.jsonl entries</p>'
                "</section>"
            )
        names = list(series)
        table = _html_table(
            ["commit"] + names,
            [
                [labels[i]]
                + [
                    "" if series[n][i] is None
                    else _fmt(float(series[n][i]))
                    for n in names
                ]
                for i in range(len(labels))
            ],
        )
        return (
            '<section class="panel"><h2>Performance trend</h2>'
            f"{_legend(names)}"
            f"{trend_chart_svg(labels, series)}"
            '<details class="tablev"><summary>table view</summary>'
            f"{table}</details>"
            '<p class="note">speedup vs the pure-python reference '
            "simulator, per bench run (BENCH_history.jsonl)</p>"
            "</section>"
        )

    def _experiment_section(self) -> str:
        parts = ['<section class="panel"><h2>Experiments</h2>']
        summary_rows = []
        for panel in self.experiment_panels:
            if panel["result"] is not None:
                status = "rendered below"
            elif panel["declared"]:
                status = (
                    f"{panel['covered']}/{panel['declared']} "
                    "design points in store"
                )
            else:
                status = "analytic"
            summary_rows.append(
                [panel["name"], panel["category"], status]
            )
        parts.append(
            _html_table(["experiment", "category", "status"],
                        summary_rows)
        )
        parts.append("</section>")
        for panel in self.experiment_panels:
            result = panel["result"]
            if result is None:
                continue
            header = list(result.columns)
            parts.append(
                f'<section class="panel">'
                f"<h2>{_esc(result.title)}</h2>"
            )
            if result.paper_reference:
                parts.append(
                    f'<p class="note">paper: '
                    f"{_esc(result.paper_reference)}</p>"
                )
            parts.append(
                _html_table(
                    header,
                    [
                        [_fmt(row.get(col, "")) for col in header]
                        for row in result.rows
                    ],
                )
            )
            for note in result.notes:
                parts.append(f'<p class="note">{_esc(note)}</p>')
            parts.append("</section>")
        return "".join(parts)

    def render_html(self) -> str:
        """The complete dashboard page."""
        subtitle = "way-memoization reproduction analytics"
        fingerprint = self.service_info.get("fingerprint")
        if fingerprint:
            subtitle += f" · code {fingerprint}"
        return (
            "<!doctype html>\n"
            '<html lang="en"><head><meta charset="utf-8">'
            '<meta name="viewport" '
            'content="width=device-width, initial-scale=1">'
            "<title>repro dashboard</title>"
            f"<style>{_style_block()}</style></head>"
            '<body class="viz-root">'
            "<h1>repro dashboard</h1>"
            f'<p class="sub">{_esc(subtitle)}</p>'
            f"{self._service_panel()}"
            f"{self._store_panel()}"
            f"{self._bench_panel()}"
            f"{self._experiment_section()}"
            "</body></html>"
        )


def render_dashboard(**kwargs: Any) -> str:
    """Build a fresh :class:`DashboardContext` and render it."""
    return DashboardContext(**kwargs).render_html()
