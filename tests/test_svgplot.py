"""Byte pins of every plot kind, and text that any caller may put on a plot."""

import hashlib
from xml.dom import minidom

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shiftspec.analytic import normal_quantile
from shiftspec.cli import main
from shiftspec.ingest import AccuracyTable, TableRow, save_accuracy_table
from shiftspec.svgplot import ScatterPlot


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
