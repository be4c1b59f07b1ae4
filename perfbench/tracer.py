"""Span tracer for the benchmark's traced run.

The tracer replaces the public functions of each shiftspec layer with
wrappers, at every name a caller looks up: the defining module, every
shiftspec module that imported the name, and the package namespace. A
wrapper records one span per call: name, layer, start, end, parent span,
operation id, thread, and up to two work counts taken from the arguments or
the result. Helpers that a layer only calls internally (``erfc``,
``betainc_reg``, ``parse_config``, ...) stay unwrapped, so their time is the
self time of the wrapped function that called them.

Work submitted through ``util.parallel_map`` runs in task spans whose layer
is the layer that submitted the map, so time inside a task is charged to
the submitter. Spans stay in memory until ``pass_metrics`` reduces them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import os
import sys
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("analytic", "rng", "synthgen", "trainer", "conditions", "cmnist",
          "aline", "ingest", "svgplot", "report", "config", "util", "cli")

# Wrapped callables per layer: those the workloads reach across a layer
# boundary, plus every function a per-layer metric names.
WRAPPED = {
    "analytic": ("normal_cdf", "normal_quantile", "pearson_p_value"),
    "rng": ("RandomStream.__init__", "RandomStream.substream",
            "RandomStream.uniform", "RandomStream.standard_normal",
            "RandomStream.integers", "RandomStream.bernoulli_signs",
            "RandomStream.flat_simplex"),
    "synthgen": ("sample_domain", "random_shift", "interpolation_mixture"),
    "trainer": ("fit_logistic", "evaluate_accuracy", "evaluate_risk"),
    "conditions": ("accuracy_under_shift", "condition_report",
                   "lipschitz_of_linear", "gaussian_kappa", "kappa_of_mixture",
                   "shift_moments", "classifier_sweep", "zero_measure_experiment"),
    "cmnist": ("generate_cmnist", "linear_rule_accuracy", "cmnist_model_table"),
    "aline": ("probit_points", "fit_probit_line", "classify_split",
              "correlation_epsilon", "min_model_count"),
    "ingest": ("load_accuracy_table", "dump_accuracy_table",
               "leave_one_out_pairs", "pairwise_pairs"),
    "svgplot": ("ScatterPlot.add_points", "ScatterPlot.add_line",
                "ScatterPlot.line_over_x", "ScatterPlot.render"),
    "report": ("write_json_report",),
    "config": ("load_config", "default_config"),
    "util": ("parallel_map",),
    "cli": ("main",),
}

# Span fields, in record order.
SID, PARENT, OP, NAME, LAYER, THREAD, T0, T1, N, N2 = range(10)


def _first_size(args, kwargs, result):
    return int(np.size(args[0])), 0


def _result_size(args, kwargs, result):
    return int(np.size(result)), 0


def _file_size(path) -> int:
    try:
        return os.stat(path).st_size
    except OSError:
        return 0


# Work counts recorded on a span: name -> fn(args, kwargs, result) -> (n, n2).
MEASURES = {
    "analytic.normal_cdf": _first_size,
    "analytic.normal_quantile": _first_size,
    "rng.RandomStream.uniform": _result_size,
    "rng.RandomStream.standard_normal": _result_size,
    "rng.RandomStream.integers": _result_size,
    "rng.RandomStream.bernoulli_signs": _result_size,
    "synthgen.sample_domain": lambda a, k, r: (r.n, 0),
    "trainer.fit_logistic": lambda a, k, r: ((a[0] if a else k["data"]).n, 0),
    "ingest.load_accuracy_table":
        lambda a, k, r: (len(r.rows), _file_size(a[0] if a else k["path"])),
    "svgplot.ScatterPlot.render": lambda a, k, r: (len(a[0].points), len(r)),
    "report.write_json_report":
        lambda a, k, r: (0, _file_size(a[1] if len(a) > 1 else k["path"])),
}


class Tracer:
    """Installs span-recording wrappers and reduces spans to layer metrics."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.fits: list[tuple[float, float]] = []   # (gradient norm, tol)
        self.op = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, layer: str, parent: int | None = None):
        """Push a new span on this thread's stack; return (stack, id, parent)."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if parent is None and stack:
            parent = stack[-1][0]
        sid = next(self._ids)
        stack.append((sid, layer))
        return stack, sid, parent

    def _close(self, stack, sid, parent, name, layer, t0, n=0, n2=0, t1=None):
        if t1 is None:
            t1 = perf_counter()
        stack.pop()
        self.spans.append((sid, parent, self.op, name, layer,
                           threading.get_ident(), t0, t1, n, n2))

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        """A span opened by the benchmark itself."""
        stack, sid, parent = self._open(layer)
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(stack, sid, parent, name, layer, t0)

    def _wrap(self, name: str, layer: str, fn):
        tracer = self
        measure = MEASURES.get(name)
        after = self._check_fit if name == "trainer.fit_logistic" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, sid, parent = tracer._open(layer)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(stack, sid, parent, name, layer, t0)
                raise
            t1 = perf_counter()
            n, n2 = (0, 0) if measure is None else measure(args, kwargs, result)
            tracer._close(stack, sid, parent, name, layer, t0, n, n2, t1)
            if after is not None:
                after(fn, args, kwargs, result)
            return result
        return wrapper

    def _wrap_map(self, fn):
        """parallel_map wrapper: tasks become spans of the submitting layer."""
        tracer = self
        from shiftspec.util import thread_count

        @functools.wraps(fn)
        def wrapper(task_fn, items):
            outer = getattr(tracer._local, "stack", None)
            submitter = outer[-1][1] if outer else "bench"
            stack, sid, parent = tracer._open("util")

            def task(item):
                task_stack, tid, _ = tracer._open(submitter, parent=sid)
                t0 = perf_counter()
                try:
                    return task_fn(item)
                finally:
                    tracer._close(task_stack, tid, sid, submitter + ".task",
                                  submitter, t0, 1)

            workers = thread_count()
            t0 = perf_counter()
            try:
                return fn(task, items)
            finally:
                tracer._close(stack, sid, parent, "util.parallel_map", "util",
                              t0, len(items), workers)
        return wrapper

    def _check_fit(self, fn, args, kwargs, model):
        """Gradient norm of the fitted objective at the returned weights.

        Recomputed from fit_logistic's own arguments, inside a benchmark span
        so that the caller's self time does not absorb it.
        """
        with self.span("bench.fit_check", "bench"):
            bound = inspect.signature(fn).bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            self.fits.append((gradient_norm(a["data"], a["mask"], a["l2"],
                                            a["opts"], model),
                              float(a["opts"].tol)))

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "shiftspec" or name.startswith("shiftspec.")]
        for layer, names in WRAPPED.items():
            module = importlib.import_module(f"shiftspec.{layer}")
            for qual in names:
                name = f"{layer}.{qual}"
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    cls = getattr(module, cls_name)
                    orig = cls.__dict__[meth]
                    self._set(cls, meth, self._wrap(name, layer, orig))
                    continue
                orig = getattr(module, qual)
                wrapped = (self._wrap_map(orig) if name == "util.parallel_map"
                           else self._wrap(name, layer, orig))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._set(mod, attr, wrapped)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def take(self) -> tuple[list[tuple], list[tuple[float, float]]]:
        """Return and clear the spans and fit checks recorded so far."""
        spans, fits = self.spans, self.fits
        self.spans, self.fits = [], []
        return spans, fits


def gradient_norm(data, mask, l2, opts, model) -> float:
    """Norm of the gradient of fit_logistic's documented objective."""
    from shiftspec.core import Mask
    if mask is Mask.DOMAIN_GENERAL:
        x, w = data.z_c, np.asarray(model.w_c, dtype=np.float64)
    else:
        x, w = data.x, np.concatenate([model.w_c, model.w_e])
    penalty = np.full(x.shape[1], float(l2))
    if mask is Mask.FULL and opts.spurious_l2_scale != 1.0:
        penalty[data.k:data.k + data.l] *= opts.spurious_l2_scale
    if opts.bias:
        x = np.hstack([x, np.ones((data.n, 1))])
        w = np.append(w, model.bias)
        penalty = np.append(penalty, 0.0)
    y = np.asarray(data.y)
    margins = y * (x @ w)
    sig = 0.5 * (1.0 - np.tanh(0.5 * margins))
    grad = -(x.T @ (y * sig)) / len(y) + penalty * w
    return float(np.linalg.norm(grad))


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals.

    Children from pool threads overlap each other, so their intervals are
    merged before they are subtracted.
    """
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append((s[T0], s[T1]))
    out = {}
    for s in spans:
        t0, t1 = s[T0], s[T1]
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s[SID], ())):
            lo, hi = max(lo, t0), min(hi, t1)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s[SID]] = (t1 - t0) - covered
    return out


# Per-layer metrics: name -> unit.
LAYER_METRICS = {
    "analytic.cdf_calls": "count", "analytic.cdf_elems": "count",
    "analytic.cdf_self_s": "s", "analytic.cdf_ns_per_elem": "ns",
    "analytic.quantile_calls": "count", "analytic.quantile_elems": "count",
    "analytic.quantile_self_s": "s", "analytic.quantile_ns_per_elem": "ns",
    "analytic.pvalue_self_s": "s",
    "rng.streams": "count", "rng.uniforms": "count",
    "synthgen.rows": "count",
    "trainer.fits": "count", "trainer.fit_rows": "count",
    "trainer.fit_self_s": "s", "trainer.eval_self_s": "s",
    "trainer.converged_ratio": "ratio", "trainer.max_grad_norm": "1",
    "conditions.accuracy_calls": "count", "conditions.accuracy_self_s": "s",
    "conditions.report_calls": "count", "conditions.report_self_s": "s",
    "conditions.lipschitz_self_s": "s",
    "cmnist.rule_calls": "count", "cmnist.rule_self_s": "s",
    "cmnist.gen_self_s": "s",
    "aline.probit_calls": "count", "aline.probit_self_s": "s",
    "aline.fit_self_s": "s", "aline.bootstrap_draws": "count",
    "aline.bootstrap_s": "s", "aline.draw_us": "us",
    "ingest.rows_read": "count", "ingest.bytes_read": "B",
    "ingest.load_self_s": "s", "ingest.pairs_self_s": "s",
    "ingest.dump_self_s": "s",
    "svgplot.points": "count", "svgplot.bytes": "B",
    "svgplot.render_self_s": "s",
    "report.bytes": "B", "report.write_self_s": "s",
    "config.load_self_s": "s",
    "util.map_calls": "count", "util.map_items": "count",
    "util.workers": "count", "util.map_s": "s", "util.pool_busy_ratio": "ratio",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
}

# Counts that depend only on the seed; util.workers follows SHIFTSPEC_THREADS.
EXACT_COUNTS = tuple(name for name, unit in LAYER_METRICS.items()
                     if unit in ("count", "B") and name != "util.workers")


def pass_metrics(spans: list[tuple], fits: list[tuple[float, float]]) -> dict[str, float]:
    """Reduce one traced pass to the per-layer metrics."""
    own = self_times(spans)
    calls = defaultdict(int)
    n = defaultdict(int)
    n2 = defaultdict(int)
    self_by_name = defaultdict(float)
    self_by_layer = defaultdict(float)
    dur_by_name = defaultdict(float)
    names = {s[SID]: s[NAME] for s in spans}
    for s in spans:
        name = s[NAME]
        calls[name] += 1
        n[name] += s[N]
        n2[name] += s[N2]
        self_by_name[name] += own[s[SID]]
        self_by_layer[s[LAYER]] += own[s[SID]]
        dur_by_name[name] += s[T1] - s[T0]

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    maps = [s for s in spans if s[NAME] == "util.parallel_map"]
    draws = sum(s[N] for s in maps
                if names.get(s[PARENT]) == "aline.min_model_count")
    map_capacity = sum((s[T1] - s[T0]) * max(1, min(s[N2], s[N]))
                       for s in maps)
    task_time = sum(s[T1] - s[T0] for s in spans if s[NAME].endswith(".task"))
    cdf, qtl = "analytic.normal_cdf", "analytic.normal_quantile"
    rng_counted = ("uniform", "standard_normal", "integers", "bernoulli_signs")
    out = {
        "analytic.cdf_calls": calls[cdf], "analytic.cdf_elems": n[cdf],
        "analytic.cdf_self_s": self_by_name[cdf],
        "analytic.cdf_ns_per_elem": ratio(self_by_name[cdf], n[cdf], 1e9),
        "analytic.quantile_calls": calls[qtl], "analytic.quantile_elems": n[qtl],
        "analytic.quantile_self_s": self_by_name[qtl],
        "analytic.quantile_ns_per_elem": ratio(self_by_name[qtl], n[qtl], 1e9),
        "analytic.pvalue_self_s": self_by_name["analytic.pearson_p_value"],
        "rng.streams": calls["rng.RandomStream.__init__"],
        "rng.uniforms": sum(n[f"rng.RandomStream.{m}"] for m in rng_counted),
        "synthgen.rows": n["synthgen.sample_domain"],
        "trainer.fits": calls["trainer.fit_logistic"],
        "trainer.fit_rows": n["trainer.fit_logistic"],
        "trainer.fit_self_s": self_by_name["trainer.fit_logistic"],
        "trainer.eval_self_s": (self_by_name["trainer.evaluate_accuracy"]
                                + self_by_name["trainer.evaluate_risk"]),
        "trainer.converged_ratio": ratio(sum(g < tol for g, tol in fits), len(fits)),
        "trainer.max_grad_norm": max((g for g, _ in fits), default=0.0),
        "conditions.accuracy_calls": calls["conditions.accuracy_under_shift"],
        "conditions.accuracy_self_s": self_by_name["conditions.accuracy_under_shift"],
        "conditions.report_calls": calls["conditions.condition_report"],
        "conditions.report_self_s": self_by_name["conditions.condition_report"],
        "conditions.lipschitz_self_s": self_by_name["conditions.lipschitz_of_linear"],
        "cmnist.rule_calls": calls["cmnist.linear_rule_accuracy"],
        "cmnist.rule_self_s": self_by_name["cmnist.linear_rule_accuracy"],
        "cmnist.gen_self_s": self_by_name["cmnist.generate_cmnist"],
        "aline.probit_calls": calls["aline.probit_points"],
        "aline.probit_self_s": self_by_name["aline.probit_points"],
        "aline.fit_self_s": self_by_name["aline.fit_probit_line"],
        "aline.bootstrap_draws": draws,
        "aline.bootstrap_s": dur_by_name["aline.min_model_count"],
        "aline.draw_us": ratio(dur_by_name["aline.min_model_count"], draws, 1e6),
        "ingest.rows_read": n["ingest.load_accuracy_table"],
        "ingest.bytes_read": n2["ingest.load_accuracy_table"],
        "ingest.load_self_s": self_by_name["ingest.load_accuracy_table"],
        "ingest.pairs_self_s": (self_by_name["ingest.leave_one_out_pairs"]
                                + self_by_name["ingest.pairwise_pairs"]),
        "ingest.dump_self_s": self_by_name["ingest.dump_accuracy_table"],
        "svgplot.points": n["svgplot.ScatterPlot.render"],
        "svgplot.bytes": n2["svgplot.ScatterPlot.render"],
        "svgplot.render_self_s": self_by_name["svgplot.ScatterPlot.render"],
        "report.bytes": n2["report.write_json_report"],
        "report.write_self_s": self_by_name["report.write_json_report"],
        "config.load_self_s": self_by_name["config.load_config"],
        "util.map_calls": len(maps),
        "util.map_items": sum(s[N] for s in maps),
        "util.workers": max((s[N2] for s in maps), default=0),
        "util.map_s": sum(s[T1] - s[T0] for s in maps),
        "util.pool_busy_ratio": ratio(task_time, map_capacity),
        **{f"{layer}.self_s": self_by_layer[layer] for layer in LAYERS},
    }
    return out


def write_spans(spans: list[tuple], path) -> None:
    """Write spans as tab-separated rows, one per span."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("sid\tparent\top\tname\tlayer\tthread\tstart\tend\tn\tn2\n")
        for s in spans:
            fh.write("\t".join("" if v is None else repr(v) if isinstance(v, float)
                               else str(v) for v in s) + "\n")
