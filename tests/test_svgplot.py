"""Byte pins of every plot kind, and text that any caller may put on a plot."""

import hashlib
from xml.dom import minidom

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shiftspec.analytic import normal_quantile
from shiftspec.cli import main
from shiftspec.ingest import AccuracyTable, TableRow, save_accuracy_table
from shiftspec.svgplot import BASE, MARGIN_L, PLOT_H, PLOT_W, ScatterPlot


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _probit_plot() -> ScatterPlot:
    # the audit figure: probit points, a fitted line and y = x
    rng = np.random.default_rng(5)
    x = normal_quantile(rng.uniform(0.5, 0.95, 40))
    y = normal_quantile(np.clip(rng.uniform(0.3, 0.9, 40), 0.01, 0.99))
    plot = ScatterPlot(title="probit", xlabel="ID (probit)",
                       ylabel="OOD (probit)", probit_axes=True)
    plot.add_points(x, y)
    plot.line_over_x(0.8, -0.1)
    lo, hi = float(min(x.min(), y.min())), float(max(x.max(), y.max()))
    plot.add_line(lo, lo, hi, hi, color="#888888", dash="4,3")
    return plot


def _linear_plot() -> ScatterPlot:
    # every reference line runs past the frame on at least one side
    rng = np.random.default_rng(6)
    plot = ScatterPlot(title='R&D <v2> "b"', xlabel="x < 0", ylabel="y > 0")
    plot.add_points(rng.normal(0.0, 2.0, 25), rng.normal(0.0, 0.3, 25))
    plot.add_points([0.5, -0.5], [0.1, -0.1], color="#7d2181")
    plot.add_line(0.0, -10.0, 0.0, 10.0, color="#888888", dash="4,3")
    plot.add_line(-50.0, 0.0, 50.0, 0.0, color="#888888", dash="4,3")
    plot.line_over_x(3.0, 0.5)
    return plot


def _empty_plot() -> ScatterPlot:
    return ScatterPlot(title="empty", xlabel="x", ylabel="y")


def _one_point_plot() -> ScatterPlot:
    plot = ScatterPlot(title="one", xlabel="x", ylabel="y")
    plot.add_points([0.3], [0.7])
    return plot


@pytest.mark.parametrize("make, digest", [
    (_probit_plot,
     "bc80204c1fd3d0cc45fc42f29cbf31c1b3d1f17e6c051c51bb42c2156f7beb9c"),
    (_linear_plot,
     "08f64810cff6d0edb3f3b8a6ea3376c0c7e0c1471889062af6c81f1f95c9dddd"),
    (_empty_plot,
     "00ed26f4a6b5f2495ebf3d2984c3d19fe50dd4bbab90890305a57ce2b58baccc"),
    (_one_point_plot,
     "f24da6d97d4add44ed1bb2f4c6175757564368cdd2a9a7751c858de7f749dc1d"),
], ids=["probit", "linear_clipped", "empty", "one_point"])
def test_plot_bytes_pinned(make, digest):
    assert _digest(make().render()) == digest


def test_cli_scatter_bytes_pinned(tmp_path):
    # the audit and cmnist commands of acceptance criterion 9
    accs = np.random.default_rng(0).uniform(0.4, 0.95, (150, 2))
    rows = tuple(TableRow(f"m{i}", (float(a), float(b)))
                 for i, (a, b) in enumerate(accs))
    table = tmp_path / "table.csv"
    save_accuracy_table(AccuracyTable(("e0", "e1"), rows), table)
    assert main(["audit", "--table", str(table), "--mode", "pairwise",
                 "--id-env", "e0", "--ood-env", "e1",
                 "--out", str(tmp_path / "audit")]) == 0
    assert main(["cmnist", "--train-pe", "0.9", "--test-grid", "0.8,0.9",
                 "--n-train", "800", "--seeds-per-sigma", "1", "--seed", "3",
                 "--out", str(tmp_path / "cmnist")]) == 0
    digests = {name: _digest(next(tmp_path.glob(f"*/{name}")).read_text(encoding="utf-8"))
               for name in ("audit_scatter.svg", "cmnist_scatter.svg")}
    assert digests == {
        "audit_scatter.svg":
            "3e2e97eff0d92379c2e91d036fd259db708cb8187e7f3bc9dfa8fada6014f79f",
        "cmnist_scatter.svg":
            "9e39baa9fbc925cb0bd1a264e32d847279229746f279c0a1119f9ceb31e4e8f2"}


def _drawn(text: str) -> str:
    """text with each character XML 1.0 forbids replaced by U+FFFD."""
    return "".join("\ufffd" if (c < " " and c not in "\t\n\r")
                   or "\ud800" <= c <= "\udfff" or c in "\ufffe\uffff" else c
                   for c in text)


# any code point, surrogates included, with the ones escaping must handle
# drawn often
_ANY_TEXT = st.text(st.one_of(st.characters(exclude_categories=()),
                              st.sampled_from('&<>"\r\n\t\x00\x0b\ud800\ufffe\uffff')))


@settings(max_examples=200, deadline=None)
@given(title=_ANY_TEXT, xlabel=_ANY_TEXT, ylabel=_ANY_TEXT,
       probit_axes=st.booleans())
def test_any_label_reads_back(title, xlabel, ylabel, probit_axes):
    svg = ScatterPlot(title, xlabel, ylabel, probit_axes).render()
    doc = minidom.parseString(svg.encode("utf-8"))
    texts = ["".join(node.data for node in t.childNodes)
             for t in doc.getElementsByTagName("text")]
    assert [texts[0], texts[-2], texts[-1]] == [_drawn(title), _drawn(xlabel),
                                                _drawn(ylabel)]


class _TupleReference(ScatterPlot):
    """The per-point drawing that the grouped arrays replaced: one (x, y,
    colour) tuple per point, Python min and max, and one f-string per
    circle. The frame, ticks and lines come from ScatterPlot itself, drawn
    over these ranges with no points of its own."""

    def __init__(self, *args):
        super().__init__(*args)
        self.tuples = []

    def add_points(self, xs, ys, color="#1f6fb2"):
        xs = np.asarray(xs, dtype=np.float64).tolist()
        ys = np.asarray(ys, dtype=np.float64).tolist()
        self.tuples.extend((x, y, color) for x, y in zip(xs, ys))

    def _ranges(self):
        xs = [p[0] for p in self.tuples] or [0.0, 1.0]
        ys = [p[1] for p in self.tuples] or [0.0, 1.0]
        x_lo, x_hi = min(xs), max(xs)
        y_lo, y_hi = min(ys), max(ys)
        x_pad = 0.08 * (x_hi - x_lo) or 1.0
        y_pad = 0.08 * (y_hi - y_lo) or 1.0
        return x_lo - x_pad, x_hi + x_pad, y_lo - y_pad, y_hi + y_pad

    def render(self):
        frame = super().render().removesuffix("\n</svg>\n")
        x_lo, x_hi, y_lo, y_hi = self._ranges()
        x_span, y_span = x_hi - x_lo, y_hi - y_lo
        circles = [f'<circle cx="{MARGIN_L + (x - x_lo) / x_span * PLOT_W:.2f}" '
                   f'cy="{BASE - (y - y_lo) / y_span * PLOT_H:.2f}" r="3" '
                   f'fill="{color}" fill-opacity="0.75"/>'
                   for x, y, color in self.tuples]
        return "\n".join([frame, *circles]) + "\n</svg>\n"


_COORD = st.one_of(st.floats(-1e6, 1e6), st.sampled_from((0.0, -0.0, 5e-324)))


@st.composite
def _group(draw):
    n = draw(st.integers(0, 6))
    xs = draw(st.lists(_COORD, min_size=n, max_size=n))
    ys = draw(st.lists(_COORD, min_size=n, max_size=n))
    # all-equal coordinates take the pad of 1.0
    if n and draw(st.booleans()):
        xs = [xs[0]] * n
    if n and draw(st.booleans()):
        ys = [ys[0]] * n
    color = draw(st.text("#%0123456789abcdefs()", max_size=8))
    return xs, ys, color


@settings(max_examples=300, deadline=None)
@given(groups=st.lists(_group(), max_size=4), probit_axes=st.booleans(),
       fitted=st.none() | st.tuples(st.floats(-3, 3), st.floats(-3, 3)))
def test_render_matches_per_point_reference(groups, probit_axes, fitted):
    plots = [cls("t", "x", "y", probit_axes) for cls in (ScatterPlot, _TupleReference)]
    for plot in plots:
        for xs, ys, color in groups:
            plot.add_points(xs, ys, color)
        if fitted is not None:
            plot.line_over_x(*fitted)
    got, want = (plot.render() for plot in plots)
    assert got == want
    assert len(plots[0].points) == sum(len(xs) for xs, _, _ in groups)


@pytest.mark.parametrize("xs, ys", [
    ([0.1, np.nan], [0.2, 0.3]),
    ([0.1, 0.2], [np.inf, 0.3]),
    ([-np.inf], [np.nan]),
], ids=["nan_x", "inf_y", "both"])
def test_non_finite_point_is_rejected_before_it_is_kept(xs, ys):
    plot = _one_point_plot()
    with pytest.raises(ValueError, match="is not finite"):
        plot.add_points(xs, ys)
    assert len(plot.points) == 1
    assert _digest(plot.render()) == _digest(_one_point_plot().render())


# finite points whose padded span overflows float64: no map to the frame
# survives it, so every use of the frame is a ValueError
_OVERFLOWING = [([-1e308, 1e308], [0.0, 1.0]),
                ([0.0, 1.0], [-1.7e308, 1.7e308]),
                ([1.6e308, 1.79e308], [0.0, 1.0])]


@pytest.mark.parametrize("xs, ys", _OVERFLOWING,
                         ids=["x_span", "y_span", "x_pad"])
def test_overflowing_extent_fails_render(xs, ys):
    plot = ScatterPlot(title="t", xlabel="x", ylabel="y")
    plot.add_points(xs, ys)
    with pytest.raises(ValueError, match="overflows float64"):
        plot.render()


@pytest.mark.parametrize("xs, ys", _OVERFLOWING[:2], ids=["x_span", "y_span"])
def test_overflowing_extent_fails_probit_render(xs, ys):
    # without the check this wrote nan coordinates under a RuntimeWarning
    plot = ScatterPlot(title="t", xlabel="x", ylabel="y", probit_axes=True)
    plot.add_points(xs, ys)
    with pytest.raises(ValueError, match="overflows float64"):
        plot.render()


def test_overflowing_extent_fails_line_over_x():
    plot = ScatterPlot(title="t", xlabel="x", ylabel="y")
    plot.add_points(*_OVERFLOWING[0])
    with pytest.raises(ValueError, match="overflows float64"):
        plot.line_over_x(1.0, 0.0)
    assert plot.lines == []


def test_widest_finite_extent_still_renders():
    # a span just inside the range pads to a finite frame
    plot = ScatterPlot(title="t", xlabel="x", ylabel="y")
    plot.add_points([-7e307, 7e307], [-7e307, 7e307])
    plot.line_over_x(1.0, 0.0)
    svg = plot.render()
    assert "nan" not in svg and "inf" not in svg
    minidom.parseString(svg)

