"""Gantt renderers for evaluated timelines (SVG and fixed-width ASCII).

One row per pipeline stage, in pipeline order, drawn from its
`StageTiming.phases`: three solid bar kinds (load, comm, comp) plus a
hatched gap for obstructive waits (device loaded, input not yet arrived).
Both renderers are deterministic string builders.
"""

from __future__ import annotations

import math
from html import escape
from typing import Sequence

from .timeline import Timeline

FILLS = {
    "load": "#4C72B0",
    "wait": "url(#wait)",
    "comm": "#DD8452",
    "comp": "#55A868",
}
_LEGEND = (("load", "load"), ("comm", "comm"), ("comp", "compute"), ("wait", "wait"))

_ROW_H = 34
_BAR_H = 20
_LEFT = 130
_RIGHT = 30
_TOP = 58
_BOTTOM = 64
_CHART_W = 640


def _nice_step(span: float, target_ticks: int = 6) -> float:
    raw = span / target_ticks
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if mag * mult >= raw:
            return mag * mult
    return mag * 10.0


def render_svg(timeline: Timeline, device_labels: Sequence[str],
               title: str = "Cold-start schedule") -> str:
    """Standalone SVG document for one timeline."""
    total = timeline.makespan_s
    scale = _CHART_W / total if total > 0 else 1.0
    height = _TOP + _ROW_H * len(timeline.stages) + _BOTTOM
    width = _LEFT + _CHART_W + _RIGHT

    def x(t: float) -> float:
        return _LEFT + t * scale

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" '
        'font-family="Helvetica, Arial, sans-serif">',
        '<defs><pattern id="wait" width="6" height="6" '
        'patternUnits="userSpaceOnUse" patternTransform="rotate(45)">'
        '<rect width="6" height="6" fill="#f2f2f2"/>'
        '<line x1="0" y1="0" x2="0" y2="6" stroke="#999999" stroke-width="2"/>'
        '</pattern></defs>',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{_LEFT}" y="24" font-size="15" font-weight="bold">'
        f'{escape(title, quote=False)}</text>',
        f'<text x="{_LEFT}" y="42" font-size="12" fill="#444444">'
        f'total T = {total:.4f} s</text>',
    ]

    def bar(px0: float, px1: float, y: float, fill: str) -> None:
        w = px1 - px0
        if w <= 0:
            return
        parts.append(f'<rect x="{px0:.2f}" y="{y:.2f}" width="{w:.2f}" '
                     f'height="{_BAR_H}" fill="{fill}" stroke="#333333" '
                     'stroke-width="0.5"/>')

    for row, stage in enumerate(timeline.stages):
        y = _TOP + row * _ROW_H
        label = (f"{device_labels[stage.device]}  "
                 f"L{stage.start_layer}-{stage.end_layer}")
        parts.append(f'<text x="{_LEFT - 8}" y="{y + _BAR_H - 5}" font-size="11" '
                     f'text-anchor="end">{escape(label, quote=False)}</text>')
        for kind, t0, t1 in stage.phases:
            bar(x(t0), x(t1), y, FILLS[kind])

    axis_y = _TOP + _ROW_H * len(timeline.stages) + 8
    parts.append(f'<line x1="{_LEFT}" y1="{axis_y}" x2="{_LEFT + _CHART_W}" '
                 f'y2="{axis_y}" stroke="#333333" stroke-width="1"/>')
    step = _nice_step(total) if total > 0 else 1.0
    tick = 0.0
    while tick <= total * (1 + 1e-9):
        px = x(tick)
        parts.append(f'<line x1="{px:.2f}" y1="{axis_y}" x2="{px:.2f}" '
                     f'y2="{axis_y + 5}" stroke="#333333" stroke-width="1"/>')
        parts.append(f'<text x="{px:.2f}" y="{axis_y + 18}" font-size="10" '
                     f'text-anchor="middle">{tick:g}</text>')
        tick += step
    parts.append(f'<text x="{_LEFT + _CHART_W / 2:.2f}" y="{axis_y + 34}" '
                 'font-size="11" text-anchor="middle">time (s)</text>')

    ly = axis_y + 44
    for n, (kind, text) in enumerate(_LEGEND):
        lx = _LEFT + 90 * n
        parts.append(f'<rect x="{lx}" y="{ly - 10}" width="14" height="10" '
                     f'fill="{FILLS[kind]}" stroke="#333333" stroke-width="0.5"/>')
        parts.append(f'<text x="{lx + 18}" y="{ly}" font-size="11">{text}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


ASCII_WIDTH = 80
_ASCII_LABEL = 16
_ASCII_BARS = ASCII_WIDTH - _ASCII_LABEL - 2
_GLYPHS = {"load": "=", "wait": ".", "comm": "~", "comp": "#"}


def render_ascii(timeline: Timeline, device_labels: Sequence[str],
                 title: str = "Cold-start schedule") -> str:
    """Fixed 80-column chart: '=' load, '.' wait, '~' comm, '#' compute."""
    total = timeline.makespan_s
    scale = _ASCII_BARS / total if total > 0 else 1.0

    def col(t: float) -> int:
        return min(_ASCII_BARS, round(t * scale))

    lines = [f"{title}  (T = {total:.4f} s)"]
    for stage in timeline.stages:
        row = [" "] * _ASCII_BARS
        for kind, t0, t1 in stage.phases:
            c0, c1 = col(t0), col(t1)
            if t1 > t0 and c1 == c0 and c1 < _ASCII_BARS:
                c1 += 1  # keep sub-column phases visible
            for c in range(c0, c1):
                row[c] = _GLYPHS[kind]
        label = (f"{device_labels[stage.device]} "
                 f"L{stage.start_layer}-{stage.end_layer}")[:_ASCII_LABEL - 1]
        lines.append(f"{label:<{_ASCII_LABEL}}|{''.join(row)}|")
    end_label = f"{total:.3f} s"
    pad = max(1, _ASCII_BARS - len(end_label) - 1)
    lines.append(f"{'':<{_ASCII_LABEL}}0{'':<{pad}}{end_label}")
    lines.append(f"{'':<{_ASCII_LABEL}}legend: = load   . wait   ~ comm   # compute")
    return "\n".join(lines) + "\n"
