"""Self-contained SVG scatter plots; no fonts, scripts, or external refs.

`_text` writes each label and `_line` each tick and each reference line, clipped
to the frame. Fixed-precision coordinates make equal inputs equal bytes.

Points are kept as one group per `add_points` call: a float64 array of x, one
of y, and the group's colour. `render` maps a group to the frame with numpy in
the operation order of the scalar map `sx`/`sy`, and writes its circles with
one `%` over a repeated `"%.2f"` template. Elementwise IEEE `+ - * /` give the
doubles the scalar code gives, numpy's min and max pick the same extremes as
Python's (a signed zero aside, which the padding absorbs), and `%.2f` and
`f"{v:.2f}"` share CPython's float formatter, so the bytes are those of a
per-point loop.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .analytic import normal_quantile

WIDTH = 640.0
HEIGHT = 480.0
MARGIN_L = 70.0
MARGIN_R = 20.0
MARGIN_T = 40.0
MARGIN_B = 70.0
PLOT_W = WIDTH - MARGIN_L - MARGIN_R
PLOT_H = HEIGHT - MARGIN_T - MARGIN_B
BASE = HEIGHT - MARGIN_B   # y of the x axis

ACC_TICKS = (0.02, 0.1, 0.25, 0.5, 0.75, 0.9, 0.98)

# what XML 1.0 forbids; a string, so re compiles it at first use, not at import
_NOT_XML = r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]"


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _xml_text(text: str) -> str:
    """Text escaped for an SVG element or a double-quoted attribute: what XML
    forbids becomes U+FFFD, and CR a reference (parsers read a bare CR as LF)."""
    return (re.sub(_NOT_XML, "\ufffd", text).replace("&", "&amp;")
            .replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")
            .replace("\r", "&#13;"))


def _text(x, y, anchor, size, text, extra=""):
    """A <text> element; x and y are strings, so the caller picks the precision."""
    return (f'<text x="{x}" y="{y}" text-anchor="{anchor}" font-family="sans-serif" '
            f'font-size="{size}"{extra}>{_xml_text(text)}</text>')


def _line(x0, y0, x1, y1, stroke="#222222", width="1", extra=""):
    return (f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x1)}" y2="{_fmt(y1)}" '
            f'stroke="{stroke}" stroke-width="{width}"{extra}/>')


def _axis_ticks(lo: float, hi: float) -> list[tuple[float, str, str]]:
    """Decimal ticks from about lo up to hi; the caller keeps those in [lo, hi]."""
    span = hi - lo
    step = 10.0 ** (0 if span / 4.0 <= 0 else math.floor(math.log10(span / 4.0)))
    if step == 0.0:  # a subnormal span: no decimal step fits
        return []
    if span / step > 8:
        step *= 2.0
    out = []
    t = step * round(lo / step)
    # a step too small to move t ends the loop
    while t <= hi:
        out.append((t, f"{t:g}", ""))
        if t + step == t:
            break
        t += step
    return out


class _Points:
    """The non-empty groups ``(xs, ys, css_color)`` of a plot; ``len`` is the
    number of points, kept as a count."""

    def __init__(self):
        self.groups: list[tuple[np.ndarray, np.ndarray, str]] = []
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def add(self, xs: np.ndarray, ys: np.ndarray, color: str) -> None:
        if len(xs):
            self.groups.append((xs, ys, color))
            self._count += len(xs)


@dataclass
class ScatterPlot:
    title: str
    xlabel: str
    ylabel: str
    probit_axes: bool = False
    points: _Points = field(default_factory=_Points, init=False)
    lines: list = field(default_factory=list, init=False)    # (x0, y0, x1, y1, color, dash)

    def add_points(self, xs, ys, color: str = "#1f6fb2") -> None:
        """One group of points; a ValueError, before anything is kept, if xs
        and ys are not 1-d and of equal length or a coordinate is not finite."""
        xs = np.array(xs, dtype=np.float64)
        ys = np.array(ys, dtype=np.float64)
        if xs.ndim != 1 or xs.shape != ys.shape:
            raise ValueError("plot points must be 1-d and of equal length, "
                             f"got shapes {xs.shape} and {ys.shape}")
        finite = np.isfinite(xs) & np.isfinite(ys)
        if not finite.all():
            k = int(np.argmin(finite))
            raise ValueError(f"plot point {k} is not finite: "
                             f"({float(xs[k])!r}, {float(ys[k])!r})")
        self.points.add(xs, ys, color)

    def add_line(self, x0, y0, x1, y1, color: str = "#444444",
                 dash: str | None = None) -> None:
        self.lines.append((float(x0), float(y0), float(x1), float(y1), color, dash))

    def _ranges(self) -> tuple[float, float, float, float]:
        """The padded frame (x_lo, x_hi, y_lo, y_hi); a ValueError if a
        padded span overflows float64, which no map to the frame survives."""
        groups = self.points.groups
        if groups:
            x_lo = min(float(xs.min()) for xs, _, _ in groups)
            x_hi = max(float(xs.max()) for xs, _, _ in groups)
            y_lo = min(float(ys.min()) for _, ys, _ in groups)
            y_hi = max(float(ys.max()) for _, ys, _ in groups)
        else:
            x_lo, x_hi, y_lo, y_hi = 0.0, 1.0, 0.0, 1.0
        x_pad = 0.08 * (x_hi - x_lo) or 1.0
        y_pad = 0.08 * (y_hi - y_lo) or 1.0
        x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
        y_lo, y_hi = y_lo - y_pad, y_hi + y_pad
        if not (math.isfinite(x_hi - x_lo) and math.isfinite(y_hi - y_lo)):
            raise ValueError(f"plot extent x [{x_lo!r}, {x_hi!r}], "
                             f"y [{y_lo!r}, {y_hi!r}] overflows float64")
        return x_lo, x_hi, y_lo, y_hi

    def render(self) -> str:
        x_lo, x_hi, y_lo, y_hi = self._ranges()
        x_span, y_span = x_hi - x_lo, y_hi - y_lo

        def sx(x: float) -> float:
            return MARGIN_L + (x - x_lo) / x_span * PLOT_W

        def sy(y: float) -> float:
            return BASE - (y - y_lo) / y_span * PLOT_H

        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH:.0f}" '
            f'height="{HEIGHT:.0f}" viewBox="0 0 {WIDTH:.0f} {HEIGHT:.0f}">',
            f'<rect x="0" y="0" width="{WIDTH:.0f}" height="{HEIGHT:.0f}" fill="#ffffff"/>',
            _text(f"{WIDTH / 2:.0f}", "24", "middle", 15, self.title),
            f'<rect x="{_fmt(MARGIN_L)}" y="{_fmt(MARGIN_T)}" width="{_fmt(PLOT_W)}" '
            f'height="{_fmt(PLOT_H)}" fill="none" stroke="#222222" stroke-width="1"/>',
        ]

        # a probit tick's second label is the raw accuracy at that position
        if self.probit_axes:
            qs = normal_quantile(np.array(ACC_TICKS)).tolist()
            x_ticks = y_ticks = [(q, f"{q:.2f}", f"({a:g})") for q, a in zip(qs, ACC_TICKS)]
        else:
            x_ticks, y_ticks = _axis_ticks(x_lo, x_hi), _axis_ticks(y_lo, y_hi)
        for xv, label, sub_label in x_ticks:
            if x_lo <= xv <= x_hi:
                px = sx(xv)
                parts += [_line(px, BASE, px, BASE + 5),
                          _text(_fmt(px), _fmt(BASE + 18), "middle", 11, label)]
                if sub_label:
                    parts.append(_text(_fmt(px), _fmt(BASE + 31), "middle", 9,
                                       sub_label, ' fill="#777777"'))
        for yv, label, sub_label in y_ticks:
            if y_lo <= yv <= y_hi:
                py = sy(yv)
                parts += [_line(MARGIN_L - 5, py, MARGIN_L, py),
                          _text(_fmt(MARGIN_L - 9), _fmt(py), "end", 11, label)]
                if sub_label:
                    parts.append(_text(_fmt(MARGIN_L - 9), _fmt(py + 11), "end", 9,
                                       sub_label, ' fill="#777777"'))

        parts += [_text(f"{WIDTH / 2:.0f}", f"{HEIGHT - 18:.0f}", "middle", 13, self.xlabel),
                  _text("18", f"{HEIGHT / 2:.0f}", "middle", 13, self.ylabel,
                        f' transform="rotate(-90 18 {HEIGHT / 2:.0f})"')]

        # a reference line may run past the frame; each end is clipped to it
        for x0, y0, x1, y1, color, dash in self.lines:
            x0, x1 = (max(min(x, x_hi), x_lo) for x in (x0, x1))
            y0, y1 = (max(min(y, y_hi), y_lo) for y in (y0, y1))
            parts.append(_line(sx(x0), sy(y0), sx(x1), sy(y1), color, "1.5",
                               f' stroke-dasharray="{dash}"' if dash else ""))

        for xs, ys, color in self.points.groups:
            xy = np.empty(2 * len(xs))
            xy[0::2] = (xs - x_lo) / x_span * PLOT_W + MARGIN_L
            xy[1::2] = BASE - (ys - y_lo) / y_span * PLOT_H
            circle = ('<circle cx="%.2f" cy="%.2f" r="3" fill="'
                      + color.replace("%", "%%") + '" fill-opacity="0.75"/>')
            parts.append("\n".join([circle] * len(xs)) % tuple(xy.tolist()))
        return "\n".join(parts) + "\n</svg>\n"

    def line_over_x(self, slope: float, intercept: float) -> None:
        x_lo, x_hi, _, _ = self._ranges()
        self.add_line(x_lo, intercept + slope * x_lo,
                      x_hi, intercept + slope * x_hi, color="#c23b22")
