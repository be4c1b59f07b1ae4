"""shiftspec benchmark: seeded workloads, end-to-end latencies, traced layers.

    python3 perfbench/run.py --workload {audit,paper} --seed N \
        --seconds S --trace {0,1}

Run from a shiftspec checkout; the package is imported from ``src/``. Each
run writes its workload's inputs from the seed, runs one untimed reference
pass at the other worker count (1 against 2; it also warms caches), then
repeats timed passes for ``--seconds``. Every operation's output is
checked, and CLI outputs (.csv/.json bytes) must equal those of the
reference pass.

``--trace 0`` reports the end-to-end metrics: per-operation latency medians
in three slots per workload (see workloads.py; every kind of operation is
also printed under its own name), seconds per pass, peak RSS and
``setup_s``, the median time a fresh interpreter takes to import
``shiftspec.cli``, sampled before the first pass and after each pass.
Every latency is divided by the run's slowdown, which a speed probe
sampled between operations measures against a fixed reference (see
speed.py); the lines also print each median as measured. ``--trace 1``
spends half the time on untraced passes and half on traced ones, and
reports per-layer metrics from the traced passes plus
``trace.overhead_s``, all as measured. Spans are written to
``.perfbench_out/trace-<workload>-seed<seed>.tsv``.

Human-readable lines go to stdout first; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_START = 3     # setup_s samples before the first pass
SETUP_PER_PASS = 2  # setup_s samples after each pass
IMPORT_PROBE = ("import time; t = time.perf_counter(); import shiftspec.cli; "
                "print(repr(time.perf_counter() - t))")


@dataclass
class PassResult:
    latencies: dict[str, list[float]]
    pass_s: float
    attempted: int
    failed: dict[str, list[str]]
    spans: list = field(default_factory=list)
    fits: list = field(default_factory=list)


@contextlib.contextmanager
def threads_env(value: str | None):
    old = os.environ.pop("SHIFTSPEC_THREADS", None)
    if value is not None:
        os.environ["SHIFTSPEC_THREADS"] = value
    try:
        yield
    finally:
        os.environ.pop("SHIFTSPEC_THREADS", None)
        if old is not None:
            os.environ["SHIFTSPEC_THREADS"] = old


def import_time() -> float:
    """Seconds a fresh interpreter takes to import shiftspec.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("SHIFTSPEC_THREADS", None)
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=60, check=True)
    return float(done.stdout)


def run_pass(workload, ops, reference, tracer=None, probe=None) -> PassResult:
    """Run every operation once, timed, then check what each produced.
    A speed probe, if given, is sampled after each operation, untimed."""
    from workloads import output_bytes
    latencies = {op.kind: [] for op in ops}
    values, errors, times = [], [], []
    with contextlib.redirect_stdout(io.StringIO()):
        for op in ops:
            gc.collect()   # each operation stands for a fresh command: no
            # operation pays for the garbage of the one before it
            span = contextlib.nullcontext()
            if tracer is not None:
                tracer.op += 1
                span = tracer.span("bench." + op.name, "bench")
            t0 = perf_counter()
            try:
                with span:
                    value = op.run()
                error = None
            except (Exception, SystemExit) as exc:
                value, error = None, f"{type(exc).__name__}: {exc}"
            times.append(perf_counter() - t0)
            values.append(value)
            errors.append(error)
            if probe is not None:
                probe.sample()

    failed = {}
    for op, value, error, seconds in zip(ops, values, errors, times):
        problems = [error] if error else op.check(value)
        if not problems and reference is not None and op.out is not None:
            if output_bytes(op.out) != reference.get(op.name):
                problems = ["output bytes differ from the reference pass"]
        if problems:
            failed[op.name] = problems
        else:
            latencies[op.kind].append(seconds)
    if workload.check_pass is not None:
        for name in workload.check_pass(ops, values):
            failed.setdefault(name, ["pass-level check failed"])
    spans, fits = tracer.take() if tracer is not None else ([], [])
    return PassResult(latencies, sum(times), len(ops), failed, spans, fits)


def timed_passes(workload, ops, reference, seconds: float, tracer=None,
                 between=None, probe=None) -> list[PassResult]:
    """Repeat passes while the next one is expected to end within `seconds`;
    `between` runs after each pass, outside the timed operations."""
    results = []
    start = perf_counter()
    while True:
        with threads_env(workload.threads):
            results.append(run_pass(workload, ops, reference, tracer, probe))
        if between is not None:
            between()
        if perf_counter() - start + results[-1].pass_s > seconds:
            return results


def tail_text(samples: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it."""
    n = len(samples)
    for p in (99.9, 99, 95, 90, 75):
        if n * (1.0 - p / 100.0) >= 10:
            return f"p{p:g} {float(np.percentile(samples, p)):.4f} s"
    return "no tail percentile (n < 40)"


def timing_line(name: str, alias: str, samples: list[float], slowdown: float) -> str:
    """Median and tail at reference speed, then the median as measured."""
    if not samples:
        return f"{name:<9} {alias:<20} no successful samples"
    scaled = [t / slowdown for t in samples]
    return (f"{name:<9} {alias:<20} median {statistics.median(scaled):.4f} s  "
            f"{tail_text(scaled)}  n={len(samples)}  "
            f"(measured median {statistics.median(samples):.4f} s)")


def end_to_end(workload, passes: list[PassResult], setup: list[float],
               probe: speed.SpeedProbe, lines: list[str]) -> dict[str, dict]:
    """Every latency is divided by the machine's slowdown in this run."""
    slowdown = probe.slowdown()
    parts = "  ".join(f"{name} {statistics.median(v) * 1e3:.3f} ms"
                      for name, v in probe.samples.items())
    lines.append(f"slowdown  {slowdown:.4f} against the reference speed, from "
                 f"{len(probe.samples['python'])} probes: {parts}")
    slot_of = {kind: slot for slot, kind in workload.slots.items()}
    rows = [("setup_s", "import shiftspec.cli", setup)]
    rows += [(slot_of.get(kind, ""), kind, [t for p in passes for t in p.latencies[kind]])
             for kind in passes[0].latencies]
    rows.append(("pass_s", "whole pass", [p.pass_s for p in passes]))
    metrics = {}
    for name, alias, values in rows:
        lines.append(timing_line(name, alias, values, slowdown))
        if name:
            # no sample means every such operation failed: the run is incorrect
            metrics[name] = (statistics.median(values) / slowdown if values else 0.0, "s")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lines.append(f"peak_rss_mb {peak:.1f} MB")
    metrics["peak_rss_mb"] = (peak, "MB")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def per_layer(untraced: list[PassResult], traced: list[PassResult],
              lines: list[str]) -> tuple[dict[str, dict], list[str]]:
    import tracer
    per_pass = [tracer.pass_metrics(p.spans, p.fits) for p in traced]
    problems = []
    metrics = {}
    for name, unit in tracer.LAYER_METRICS.items():
        values = [m[name] for m in per_pass]
        if name in tracer.EXACT_COUNTS:
            if len(set(values)) != 1:
                problems.append(f"{name} differs between traced passes: {values}")
            value = values[0]
        elif name == "trainer.max_grad_norm":
            value = max(values)
        else:
            value = statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"{name:<32} {value:.6g} {unit}")
    overhead = (statistics.median(p.pass_s for p in traced)
                - statistics.median(p.pass_s for p in untraced))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    lines.append(f"{'trace.overhead_s':<32} {overhead:.6g} s")
    return metrics, problems


def run(args, work: Path, lines: list[str]) -> dict:
    import workloads
    setup = []
    if not args.trace:
        import_time()   # compiles the bytecode, which users pay only once
        setup.extend(import_time() for _ in range(SETUP_START))
    inputs = work / "inputs"
    inputs.mkdir()
    workload = workloads.WORKLOADS[args.workload](args.seed, inputs)
    lines.append(f"workload {workload.name}  seed {args.seed}  "
                 f"SHIFTSPEC_THREADS={workload.threads or 'unset'}  "
                 f"inputs {workload.inputs}")

    # The reference pass runs at the other worker count, so comparing bytes
    # also checks that outputs do not depend on SHIFTSPEC_THREADS.
    ref_ops = workload.ops(work / "ref")
    with threads_env("2" if workload.threads in (None, "1") else "1"):
        ref = run_pass(workload, ref_ops, None)
    reference = {op.name: workloads.output_bytes(op.out)
                 for op in ref_ops if op.out is not None and op.out.is_dir()}
    ops = workload.ops(work / "run")

    problems = []
    if args.trace:
        untraced = timed_passes(workload, ops, reference, args.seconds / 2)
        import tracer as tracing
        tr = tracing.Tracer()
        tr.install()
        try:
            traced = timed_passes(workload, ops, reference, args.seconds / 2, tr)
        finally:
            tr.uninstall()
        passes = untraced + traced
        metrics, problems = per_layer(untraced, traced, lines)
        tracing.write_spans([s for p in traced for s in p.spans],
                            OUT / f"trace-{workload.name}-seed{args.seed}.tsv")
    else:
        probe = speed.SpeedProbe()
        # setup_s samples are spread over the run, so that they see the same
        # machine conditions as the operations
        passes = timed_passes(workload, ops, reference, args.seconds,
                              between=lambda: setup.extend(import_time()
                                                      for _ in range(SETUP_PER_PASS)),
                              probe=probe)
        metrics = end_to_end(workload, passes, setup, probe, lines)

    attempted = ref.attempted + sum(p.attempted for p in passes)
    failures = {**ref.failed}
    for p in passes:
        for name, why in p.failed.items():
            failures.setdefault(name, why)
    failed = len(ref.failed) + sum(len(p.failed) for p in passes)
    lines.append(f"passes {len(passes)}  fail_ratio {failed}/{attempted} = "
                 f"{failed / attempted:.4g}")
    for name, why in sorted(failures.items()):
        lines.append(f"FAILED {name}: {'; '.join(why)}")
    lines.extend(f"FAILED {p}" for p in problems)
    return {"correct": failed == 0 and not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("audit", "paper"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "shiftspec" / "__init__.py").is_file():
        print(f"error: {SRC / 'shiftspec'} not found; run from a shiftspec "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    lines: list[str] = []
    try:
        result = run(args, work, lines)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
