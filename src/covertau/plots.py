"""Self-contained SVG plots for cover and pass curves.

Hand-rolled rather than delegated to a plotting library: the CLI contract
requires byte-identical output for a fixed input, and the documents must
render without fetching anything.  Styling is inline, coordinates are
formatted with a fixed precision, and series are drawn in model-name order.
"""

from __future__ import annotations

import math
from typing import Sequence

from .curves import CoverCurve, PassCurve

WIDTH, HEIGHT = 720, 460
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 160, 36, 52

PALETTE = (
    "#4477aa",
    "#ee6677",
    "#228833",
    "#ccbb44",
    "#66ccee",
    "#aa3377",
    "#bbbbbb",
    "#222222",
)


def escape(text: str) -> str:
    """&, < and > as entities, for SVG text content (what `html.escape` does with quote=False)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _svg(
    title: str,
    x_label: str,
    y_label: str,
    x_ticks: Sequence[tuple[float, str]],
    lines: Sequence[tuple[str, Sequence[tuple[float, float]]]],
) -> str:
    """The whole document: labels, axes, y ticks at the quarters of [0, 1],
    the given (x pixel, label) x ticks, one polyline per (model,
    [(x pixel, value)]) in model order, and the legend."""
    x0, x1, y0, y1 = MARGIN_L, WIDTH - MARGIN_R, HEIGHT - MARGIN_B, MARGIN_T
    mid_y = f"{(MARGIN_T + HEIGHT - MARGIN_B) / 2:.0f}"

    def to_y(value: float) -> float:
        return y0 + (y1 - y0) * value

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{(x0 + x1) / 2:.0f}" y="22" font-family="sans-serif" '
        f'font-size="15" text-anchor="middle">{escape(title)}</text>',
        f'<text x="{(x0 + x1) / 2:.0f}" y="{HEIGHT - 12}" '
        f'font-family="sans-serif" font-size="13" text-anchor="middle">{escape(x_label)}</text>',
        f'<text x="18" y="{mid_y}" font-family="sans-serif" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 18 {mid_y})">{escape(y_label)}</text>',
        f'<path d="M {x0} {y1} L {x0} {y0} L {x1} {y0}" fill="none" stroke="black" stroke-width="1"/>',
    ]
    for t in (0, 0.25, 0.5, 0.75, 1.0):
        y = to_y(t)
        parts.append(f'<line x1="{x0 - 4}" y1="{_fmt(y)}" x2="{x0}" y2="{_fmt(y)}" stroke="black"/>')
        parts.append(
            f'<text x="{x0 - 8}" y="{_fmt(y + 4)}" font-family="sans-serif" '
            f'font-size="11" text-anchor="end">{t:g}</text>'
        )
    for x, label in x_ticks:
        parts.append(f'<line x1="{_fmt(x)}" y1="{y0}" x2="{_fmt(x)}" y2="{y0 + 4}" stroke="black"/>')
        parts.append(
            f'<text x="{_fmt(x)}" y="{y0 + 18}" font-family="sans-serif" font-size="11" '
            f'text-anchor="middle">{escape(label)}</text>'
        )
    legend = []
    for i, (model, points) in enumerate(sorted(lines, key=lambda line: line[0])):
        color = PALETTE[i % len(PALETTE)]
        coords = " ".join(f"{_fmt(x)},{_fmt(to_y(v))}" for x, v in points)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.8"/>')
        x, y = x1 + 12, y1 + 16 + 20 * i
        legend.append(f'<line x1="{x}" y1="{y}" x2="{x + 22}" y2="{y}" stroke="{color}" stroke-width="3"/>')
        legend.append(
            f'<text x="{x + 28}" y="{y + 4}" font-family="sans-serif" font-size="12">{escape(model)}</text>'
        )
    return "\n".join(parts + legend + ["</svg>"]) + "\n"


def cover_curves_svg(curves: Sequence[CoverCurve]) -> str:
    """One step line per model, tau on a linear [0, 1] axis."""
    if not curves:
        raise ValueError("no curves to plot")
    x0, x1 = MARGIN_L, WIDTH - MARGIN_R

    def to_x(tau: float) -> float:
        return x0 + (x1 - x0) * tau

    lines = []
    for curve in curves:
        bps = [to_x(float(b)) for b in curve.breakpoints]
        vals = [float(v) for v in curve.values]
        # step rendering: hold each value across its interval, drop vertically
        pts = [(bps[0], vals[0])]
        for j in range(1, len(bps)):
            pts += [(bps[j], vals[j - 1]), (bps[j], vals[j])]
        lines.append((curve.model, pts))
    ticks = [(to_x(t), f"{t:g}") for t in (0, 0.25, 0.5, 0.75, 1.0)]
    return _svg("Coverage vs reliability threshold", "reliability threshold", "covered fraction of tasks",
                ticks, lines)


def pass_curves_svg(curves: Sequence[PassCurve]) -> str:
    """One line per model, k on a log-scaled axis."""
    if not curves:
        raise ValueError("no curves to plot")
    x0, x1 = MARGIN_L, WIDTH - MARGIN_R
    k_max = max(max(c.ks) for c in curves)
    k_min = min(min(c.ks) for c in curves)
    span = math.log2(k_max) - math.log2(k_min) or 1.0

    def to_x(k: int) -> float:
        return x0 + (x1 - x0) * (math.log2(k) - math.log2(k_min)) / span

    ticks = []
    k = k_min
    while k <= k_max:
        ticks.append((to_x(k), str(k)))
        k *= 4
    lines = [(c.model, [(to_x(k), v) for k, v in zip(c.ks, c.values)]) for c in curves]
    return _svg("pass@k vs sampling budget", "k (log scale)", "pass@k", ticks, lines)
