"""The benchmark's traced mode wraps shiftspec functions by name; every name
it lists must still exist, or ``perfbench/run.py --trace 1`` breaks."""

import importlib
import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    tracer = _load_tracer()
    missing = []
    for layer, names in tracer.WRAPPED.items():
        module = importlib.import_module(f"shiftspec.{layer}")
        for qual in names:
            if "." in qual:
                cls_name, meth = qual.split(".")
                found = meth in vars(getattr(module, cls_name, object))
            else:
                found = callable(getattr(module, qual, None))
            if not found:
                missing.append(f"{layer}.{qual}")
    assert missing == []


def test_every_measured_name_is_wrapped():
    tracer = _load_tracer()
    wrapped = {f"{layer}.{qual}" for layer, names in tracer.WRAPPED.items()
               for qual in names}
    assert set(tracer.MEASURES) <= wrapped


def test_simulate_and_mincount_map_items_through_parallel_map(tmp_path,
                                                              monkeypatch):
    # perfbench's test_counts_repeat_across_runs_and_thread_counts asserts
    # util.map_items > 0 on both workloads (simulate on paper, mincount on
    # audit); that suite is not in Tier-1, so this guard fails here first
    # when either command stops passing items through the map.
    from shiftspec import cli, util
    from shiftspec.config import default_config, dumps_config
    from shiftspec.ingest import AccuracyTable, TableRow, save_accuracy_table

    mapped = []  # the length of each item list passed to the map
    orig = util.parallel_map

    def counting(fn, seq):
        mapped.append(len(seq))
        return orig(fn, seq)

    for name, module in list(sys.modules.items()):
        if name == "shiftspec" or name.startswith("shiftspec."):
            for attr, value in list(vars(module).items()):
                if value is orig:
                    monkeypatch.setattr(module, attr, counting)

    base = default_config()
    config = tmp_path / "tiny.ini"
    config.write_text(dumps_config(replace(
        base, sweep=replace(base.sweep, n_shifts=3, n_per_domain=200))),
        encoding="utf-8")
    assert cli.main(["simulate", "--config", str(config),
                     "--out", str(tmp_path / "sim")]) == 0
    assert sum(mapped) == 3  # one report per shift

    mapped.clear()
    acc = np.random.default_rng(0).uniform(0.2, 0.9, (30, 2))
    table = tmp_path / "table.csv"
    save_accuracy_table(AccuracyTable(("env_0", "env_1"), tuple(
        TableRow(f"m{i}", tuple(row)) for i, row in enumerate(acc.tolist()))),
        table)
    assert cli.main(["mincount", "--table", str(table), "--ood-env", "env_0",
                     "--start", "10", "--step", "10", "--resamples", "100",
                     "--out", str(tmp_path / "mc")]) == 0
    assert sum(mapped) > 0


def test_render_measure_counts_points_and_bytes():
    # svgplot.points and svgplot.bytes of a traced pass come from this measure
    from shiftspec.svgplot import ScatterPlot

    measure = _load_tracer().MEASURES["svgplot.ScatterPlot.render"]
    plot = ScatterPlot("t", "x", "y", probit_axes=True)
    plot.add_points([0.1, 0.2, 0.3], [0.3, 0.2, 0.1])
    plot.add_points([], [], color="#7d2181")
    plot.add_points([0.0, 0.5], [-0.5, 0.0], color="#7d2181")
    svg = plot.render()
    assert measure((plot,), {}, svg) == (5, len(svg.encode("utf-8")))
