"""Self-contained SVG scatter plots; no fonts, scripts, or external refs.

Coordinates are written with fixed precision so identical inputs produce
identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .analytic import normal_quantile

WIDTH = 640.0
HEIGHT = 480.0
MARGIN_L = 70.0
MARGIN_R = 20.0
MARGIN_T = 40.0
MARGIN_B = 70.0

ACC_TICKS = (0.02, 0.1, 0.25, 0.5, 0.75, 0.9, 0.98)


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _xml_text(text: str) -> str:
    """Text escaped for an SVG element or a double-quoted attribute."""
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


@dataclass
class ScatterPlot:
    title: str
    xlabel: str
    ylabel: str
    probit_axes: bool = False
    points: list = field(default_factory=list)   # (x, y, css_color)
    lines: list = field(default_factory=list)    # (x0, y0, x1, y1, color, dash)

    def add_points(self, xs, ys, color: str = "#1f6fb2") -> None:
        xs = np.asarray(xs, dtype=np.float64).tolist()
        ys = np.asarray(ys, dtype=np.float64).tolist()
        self.points.extend((x, y, color) for x, y in zip(xs, ys))

    def add_line(self, x0, y0, x1, y1, color: str = "#444444",
                 dash: str | None = None) -> None:
        self.lines.append((float(x0), float(y0), float(x1), float(y1), color, dash))

    def _ranges(self) -> tuple[float, float, float, float]:
        xs = [p[0] for p in self.points] or [0.0, 1.0]
        ys = [p[1] for p in self.points] or [0.0, 1.0]
        x_lo, x_hi = min(xs), max(xs)
        y_lo, y_hi = min(ys), max(ys)
        x_pad = 0.08 * (x_hi - x_lo) or 1.0
        y_pad = 0.08 * (y_hi - y_lo) or 1.0
        return x_lo - x_pad, x_hi + x_pad, y_lo - y_pad, y_hi + y_pad

    def render(self) -> str:
        x_lo, x_hi, y_lo, y_hi = self._ranges()
        plot_w = WIDTH - MARGIN_L - MARGIN_R
        plot_h = HEIGHT - MARGIN_T - MARGIN_B

        def sx(x: float) -> float:
            return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

        def sy(y: float) -> float:
            return HEIGHT - MARGIN_B - (y - y_lo) / (y_hi - y_lo) * plot_h

        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH:.0f}" '
            f'height="{HEIGHT:.0f}" viewBox="0 0 {WIDTH:.0f} {HEIGHT:.0f}">',
            f'<rect x="0" y="0" width="{WIDTH:.0f}" height="{HEIGHT:.0f}" fill="#ffffff"/>',
            f'<text x="{WIDTH / 2:.0f}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{_xml_text(self.title)}</text>',
        ]

        # frame
        parts.append(
            f'<rect x="{_fmt(MARGIN_L)}" y="{_fmt(MARGIN_T)}" '
            f'width="{_fmt(plot_w)}" height="{_fmt(plot_h)}" '
            f'fill="none" stroke="#222222" stroke-width="1"/>')

        # ticks: probit axes carry the probit value plus a secondary label
        # giving the raw accuracy at that position
        if self.probit_axes:
            ticks = [(q, f"{q:.2f}", f"({a:g})") for q, a in
                     zip(normal_quantile(np.array(ACC_TICKS)).tolist(), ACC_TICKS)]
        else:
            ticks = None

        def axis_ticks(lo: float, hi: float) -> list[tuple[float, str, str]]:
            span = hi - lo
            step = 10.0 ** round(_log10_floor(span / 4.0))
            if step == 0.0:  # a subnormal span: no decimal step fits
                return []
            if span / step > 8:
                step *= 2.0
            out = []
            t = step * round(lo / step)
            # the caller keeps the ticks in [lo, hi]; a step too small to
            # move t ends the loop
            while t <= hi:
                out.append((t, f"{t:g}", ""))
                if t + step == t:
                    break
                t += step
            return out

        x_ticks = [t for t in (ticks or axis_ticks(x_lo, x_hi)) if x_lo <= t[0] <= x_hi]
        y_ticks = [t for t in (ticks or axis_ticks(y_lo, y_hi)) if y_lo <= t[0] <= y_hi]

        for xv, label, sub_label in x_ticks:
            px = sx(xv)
            parts.append(f'<line x1="{_fmt(px)}" y1="{_fmt(HEIGHT - MARGIN_B)}" '
                         f'x2="{_fmt(px)}" y2="{_fmt(HEIGHT - MARGIN_B + 5)}" '
                         f'stroke="#222222" stroke-width="1"/>')
            parts.append(f'<text x="{_fmt(px)}" y="{_fmt(HEIGHT - MARGIN_B + 18)}" '
                         f'text-anchor="middle" font-family="sans-serif" '
                         f'font-size="11">{_xml_text(label)}</text>')
            if sub_label:
                parts.append(f'<text x="{_fmt(px)}" '
                             f'y="{_fmt(HEIGHT - MARGIN_B + 31)}" '
                             f'text-anchor="middle" font-family="sans-serif" '
                             f'font-size="9" fill="#777777">{_xml_text(sub_label)}</text>')
        for yv, label, sub_label in y_ticks:
            py = sy(yv)
            parts.append(f'<line x1="{_fmt(MARGIN_L - 5)}" y1="{_fmt(py)}" '
                         f'x2="{_fmt(MARGIN_L)}" y2="{_fmt(py)}" '
                         f'stroke="#222222" stroke-width="1"/>')
            parts.append(f'<text x="{_fmt(MARGIN_L - 9)}" y="{_fmt(py)}" '
                         f'text-anchor="end" font-family="sans-serif" '
                         f'font-size="11">{_xml_text(label)}</text>')
            if sub_label:
                parts.append(f'<text x="{_fmt(MARGIN_L - 9)}" y="{_fmt(py + 11)}" '
                             f'text-anchor="end" font-family="sans-serif" '
                             f'font-size="9" fill="#777777">{_xml_text(sub_label)}</text>')

        parts.append(f'<text x="{WIDTH / 2:.0f}" y="{HEIGHT - 18:.0f}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="13">{_xml_text(self.xlabel)}</text>')
        parts.append(f'<text x="18" y="{HEIGHT / 2:.0f}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="13" '
                     f'transform="rotate(-90 18 {HEIGHT / 2:.0f})">{_xml_text(self.ylabel)}</text>')

        def clip_segment(x0, y0, x1, y1):
            # segments come from reference lines across the full range
            return (max(min(x0, x_hi), x_lo), max(min(y0, y_hi), y_lo),
                    max(min(x1, x_hi), x_lo), max(min(y1, y_hi), y_lo))

        for x0, y0, x1, y1, color, dash in self.lines:
            x0, y0, x1, y1 = clip_segment(x0, y0, x1, y1)
            dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
            parts.append(f'<line x1="{_fmt(sx(x0))}" y1="{_fmt(sy(y0))}" '
                         f'x2="{_fmt(sx(x1))}" y2="{_fmt(sy(y1))}" '
                         f'stroke="{color}" stroke-width="1.5"{dash_attr}/>')

        # sx and sy written out: three calls per point cost more than the rest
        # of the plot
        x_span, y_span = x_hi - x_lo, y_hi - y_lo
        y_base = HEIGHT - MARGIN_B
        parts += [f'<circle cx="{MARGIN_L + (x - x_lo) / x_span * plot_w:.2f}" '
                  f'cy="{y_base - (y - y_lo) / y_span * plot_h:.2f}" r="3" '
                  f'fill="{color}" fill-opacity="0.75"/>'
                  for x, y, color in self.points]

        parts.append("</svg>")
        return "\n".join(parts) + "\n"

    def line_over_x(self, slope: float, intercept: float, color: str = "#c23b22",
                    dash: str | None = None) -> None:
        x_lo, x_hi, _, _ = self._ranges()
        self.add_line(x_lo, intercept + slope * x_lo,
                      x_hi, intercept + slope * x_hi, color=color, dash=dash)


def _log10_floor(v: float) -> int:
    import math
    if v <= 0:
        return 0
    return math.floor(math.log10(v))
