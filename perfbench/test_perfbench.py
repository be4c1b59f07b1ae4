"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

They run real workload passes, so they take a few minutes; they sit outside
the package's test paths on purpose.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def traced_counts(name: str, seed: int, threads: str, tmp: Path) -> dict:
    inputs = tmp / "inputs"
    inputs.mkdir(parents=True)
    workload = workloads.WORKLOADS[name](seed, inputs)
    ops = workload.ops(tmp / "out")
    tr = tracer.Tracer()
    tr.install()
    try:
        with bench.threads_env(threads):
            result = bench.run_pass(workload, ops, None, tr)
    finally:
        tr.uninstall()
    assert not result.failed
    metrics = tracer.pass_metrics(result.spans, result.fits)
    return {name: metrics[name] for name in tracer.EXACT_COUNTS}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_repeat_across_runs_and_thread_counts(name, tmp_path):
    one = traced_counts(name, 5, "1", tmp_path / "one")
    two = traced_counts(name, 5, "2", tmp_path / "two")
    again = traced_counts(name, 5, "2", tmp_path / "again")
    assert one == two == again
    assert one["util.map_items"] > 0


def test_wrappers_are_removed():
    import shiftspec.aline
    import shiftspec.analytic
    before = shiftspec.aline.normal_quantile
    tr = tracer.Tracer()
    tr.install()
    assert shiftspec.aline.normal_quantile is not before
    assert shiftspec.analytic.normal_quantile is shiftspec.aline.normal_quantile
    tr.uninstall()
    assert shiftspec.aline.normal_quantile is before
    assert shiftspec.analytic.normal_quantile is before


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [(1, None, 1, "cli.main", "cli", 0, 0.0, 10.0, 0, 0),
             (2, 1, 1, "cli.task", "cli", 1, 1.0, 5.0, 1, 0),
             (3, 1, 1, "cli.task", "cli", 2, 3.0, 8.0, 1, 0),
             (4, 3, 1, "analytic.normal_cdf", "analytic", 2, 4.0, 6.0, 9, 0)]
    own = tracer.self_times(spans)
    assert own == {1: 3.0, 2: 4.0, 3: 3.0, 4: 2.0}


def test_zoo_table_follows_the_seed_and_gives_both_verdicts():
    first = workloads.dump_accuracy_table(workloads.zoo_table(3))
    assert first == workloads.dump_accuracy_table(workloads.zoo_table(3))
    assert first != workloads.dump_accuracy_table(workloads.zoo_table(4))

    table = workloads.zoo_table(3)
    acc = np.array([row.accuracies for row in table.rows])
    loo = [workloads.oracle_r(np.delete(acc, j, axis=1).mean(axis=1), acc[:, j])
           for j in range(workloads.N_ENVS)]
    assert min(loo[:6]) > 0.6          # on the line: misspecified
    assert loo[6] < -0.6               # inverse line: well specified
    assert abs(loo[7]) < 0.15          # independent: well specified


def _run(cwd: Path, trace: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", "audit",
                           "--seed", "2", "--seconds", "1", "--trace", trace],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_carries_the_declared_metrics(trace, key):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    done = _run(ROOT, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in declared[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run(tmp_path, "0")
    assert done.returncode != 0
    assert done.stdout == ""
