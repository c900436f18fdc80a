"""Self-contained SVG plots for cover and pass curves.

Hand-rolled rather than delegated to a plotting library: the CLI contract
requires byte-identical output for a fixed input, and the documents must
render without fetching anything.  Styling is inline, coordinates are
formatted with a fixed precision, and series are drawn in model-name order.
"""

from __future__ import annotations

import html
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
    """&, < and > as entities, for SVG text content."""
    return html.escape(text, quote=False)


def _fmt(x: float) -> str:
    return f"{x:.2f}"


class _Canvas:
    def __init__(self, title: str, x_label: str, y_label: str) -> None:
        self.parts: list[str] = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
            f'viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
            f'<text x="{(MARGIN_L + WIDTH - MARGIN_R) / 2:.0f}" y="22" font-family="sans-serif" '
            f'font-size="15" text-anchor="middle">{escape(title)}</text>',
            f'<text x="{(MARGIN_L + WIDTH - MARGIN_R) / 2:.0f}" y="{HEIGHT - 12}" '
            f'font-family="sans-serif" font-size="13" text-anchor="middle">{escape(x_label)}</text>',
            f'<text x="18" y="{(MARGIN_T + HEIGHT - MARGIN_B) / 2:.0f}" font-family="sans-serif" '
            f'font-size="13" text-anchor="middle" transform="rotate(-90 18 '
            f'{(MARGIN_T + HEIGHT - MARGIN_B) / 2:.0f})">{escape(y_label)}</text>',
        ]

    def axes(self) -> None:
        x0, x1 = MARGIN_L, WIDTH - MARGIN_R
        y0, y1 = HEIGHT - MARGIN_B, MARGIN_T
        self.parts.append(
            f'<path d="M {x0} {y1} L {x0} {y0} L {x1} {y0}" fill="none" stroke="black" stroke-width="1"/>'
        )

    def y_ticks(self, ticks: Sequence[float], to_y) -> None:
        for t in ticks:
            y = to_y(t)
            self.parts.append(
                f'<line x1="{MARGIN_L - 4}" y1="{_fmt(y)}" x2="{MARGIN_L}" y2="{_fmt(y)}" stroke="black"/>'
            )
            self.parts.append(
                f'<text x="{MARGIN_L - 8}" y="{_fmt(y + 4)}" font-family="sans-serif" '
                f'font-size="11" text-anchor="end">{t:g}</text>'
            )

    def x_tick(self, x: float, label: str) -> None:
        y0 = HEIGHT - MARGIN_B
        self.parts.append(f'<line x1="{_fmt(x)}" y1="{y0}" x2="{_fmt(x)}" y2="{y0 + 4}" stroke="black"/>')
        self.parts.append(
            f'<text x="{_fmt(x)}" y="{y0 + 18}" font-family="sans-serif" font-size="11" '
            f'text-anchor="middle">{escape(label)}</text>'
        )

    def polyline(self, points: Sequence[tuple[float, float]], color: str) -> None:
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
        self.parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.8"/>'
        )

    def legend(self, labels: Sequence[tuple[str, str]]) -> None:
        x = WIDTH - MARGIN_R + 12
        for i, (name, color) in enumerate(labels):
            y = MARGIN_T + 16 + 20 * i
            self.parts.append(
                f'<line x1="{x}" y1="{y}" x2="{x + 22}" y2="{y}" stroke="{color}" stroke-width="3"/>'
            )
            self.parts.append(
                f'<text x="{x + 28}" y="{y + 4}" font-family="sans-serif" font-size="12">{escape(name)}</text>'
            )

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def _scale_y(value: float) -> float:
    y0, y1 = HEIGHT - MARGIN_B, MARGIN_T
    return y0 + (y1 - y0) * value


def cover_curves_svg(curves: Sequence[CoverCurve]) -> str:
    """One step line per model, tau on a linear [0, 1] axis."""
    if not curves:
        raise ValueError("no curves to plot")
    canvas = _Canvas("Coverage vs reliability threshold", "reliability threshold", "covered fraction of tasks")
    x0, x1 = MARGIN_L, WIDTH - MARGIN_R

    def to_x(tau: float) -> float:
        return x0 + (x1 - x0) * tau

    canvas.axes()
    canvas.y_ticks([0, 0.25, 0.5, 0.75, 1.0], _scale_y)
    for t in (0, 0.25, 0.5, 0.75, 1.0):
        canvas.x_tick(to_x(t), f"{t:g}")

    legend = []
    for i, curve in enumerate(sorted(curves, key=lambda c: c.model)):
        color = PALETTE[i % len(PALETTE)]
        pts: list[tuple[float, float]] = []
        bps = [float(b) for b in curve.breakpoints]
        vals = [float(v) for v in curve.values]
        # step rendering: hold each value across its interval, drop vertically
        pts.append((to_x(bps[0]), _scale_y(vals[0])))
        for j in range(1, len(bps)):
            pts.append((to_x(bps[j]), _scale_y(vals[j - 1])))
            pts.append((to_x(bps[j]), _scale_y(vals[j])))
        canvas.polyline(pts, color)
        legend.append((curve.model, color))
    canvas.legend(legend)
    return canvas.render()


def pass_curves_svg(curves: Sequence[PassCurve]) -> str:
    """One line per model, k on a log-scaled axis."""
    if not curves:
        raise ValueError("no curves to plot")
    canvas = _Canvas("pass@k vs sampling budget", "k (log scale)", "pass@k")
    x0, x1 = MARGIN_L, WIDTH - MARGIN_R
    k_max = max(max(c.ks) for c in curves)
    k_min = min(min(c.ks) for c in curves)
    span = math.log2(k_max) - math.log2(k_min) or 1.0

    def to_x(k: int) -> float:
        return x0 + (x1 - x0) * (math.log2(k) - math.log2(k_min)) / span

    canvas.axes()
    canvas.y_ticks([0, 0.25, 0.5, 0.75, 1.0], _scale_y)
    k = k_min
    while k <= k_max:
        canvas.x_tick(to_x(k), str(k))
        k *= 4
    legend = []
    for i, curve in enumerate(sorted(curves, key=lambda c: c.model)):
        color = PALETTE[i % len(PALETTE)]
        pts = [(to_x(k), _scale_y(v)) for k, v in zip(curve.ks, curve.values)]
        canvas.polyline(pts, color)
        legend.append((curve.model, color))
    canvas.legend(legend)
    return canvas.render()
