"""Property tests of the CLI's exit codes and of the config round trip,
fuzzed with hypothesis.

Each exit-code property states exactly which inputs are invalid: those exit
2 with one `error:` line, and every other input exits 0 with a strict-JSON
report (or 3 where a test pins a numeric error).
"""

import contextlib
import io
import json
import math
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from shiftspec.cli import main
from shiftspec.config import (OptimizerConfig, RunConfig, SweepConfig,
                              default_config, dumps_config, parse_config)
from shiftspec.core import DomainSpec, LinearShift
from shiftspec.ingest import AccuracyTable, TableRow, save_accuracy_table



def _mostly(valid, other):
    """Draws from valid 15 times in 16, else from other, so that examples
    with every argument valid stay common."""
    return st.integers(0, 15).flatmap(lambda i: other if i == 0 else valid)


_CLIP_ALPHAS = _mostly(st.floats(0.0, 0.5), st.floats())
_THRESHOLDS = _mostly(st.floats(0.0, 2.0), st.floats())
_PROBABILITIES = _mostly(st.floats(0.0, 1.0), st.floats())


def _clip_alpha_ok(a):
    return 2.0**-54 < a < 0.5


def _threshold_ok(t):
    return 0.0 < t < math.inf


def _reject_constant(name):
    raise ValueError(f"report holds {name}, which is not JSON")


def _run(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    return rc, err.getvalue()


def _assert_contract(rc, err, invalid, report):
    if invalid:
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert rc == 0
        assert err == ""
        json.loads(report.read_text(encoding="utf-8"),
                   parse_constant=_reject_constant)


# about a quarter to a third of the examples are valid and run the
# bootstrap; the rest exit 2
@settings(max_examples=40, deadline=None)
@given(accs=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                     min_size=1, max_size=40),
       data=st.data(), step=st.integers(1, 30),
       resamples=st.sampled_from([100, 130, 99]),
       rel_tol=st.sampled_from(["0.01", "1e-12", "0.5", "inf", "nan", "0"]),
       confidence=st.sampled_from(["0.95", "0.5", "1", "nan"]),
       seed=st.integers(-3, 3))
def test_mincount_exit_code_contract(accs, data, step, resamples, rel_tol,
                                     confidence, seed):
    start = data.draw(st.integers(1, len(accs) + 1), label="start")
    invalid = (rel_tol in ("inf", "nan", "0") or confidence in ("1", "nan")
               or resamples < 100 or start > len(accs))
    rows = tuple(TableRow(f"m{i}", pair) for i, pair in enumerate(accs))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        out = Path(tmp) / "out"
        save_accuracy_table(AccuracyTable(("e0", "e1"), rows), path)
        rc, err = _run(["mincount", "--table", str(path), "--ood-env", "e1",
                        f"--start={start}", f"--step={step}",
                        f"--resamples={resamples}", f"--rel-tol={rel_tol}",
                        f"--confidence={confidence}", f"--seed={seed}",
                        "--out", str(out)])
        _assert_contract(rc, err, invalid, out / "mincount_report.json")


@settings(max_examples=40, deadline=None)
@given(accs=st.lists(st.tuples(*[st.floats(0.0, 1.0)] * 3), max_size=12),
       bad_cell=_mostly(st.none(), st.sampled_from([-0.25, 1.5, math.nan])),
       mode=st.sampled_from(["loo", "pairwise"]),
       ood_env=_mostly(st.sampled_from(["e0", "e1", "e2"]), st.just("e9")),
       id_env=_mostly(st.sampled_from(["e0", "e1"]), st.sampled_from([None, "e9"])),
       clip_alpha=_CLIP_ALPHAS, threshold=_THRESHOLDS)
def test_audit_exit_code_contract(accs, bad_cell, mode, ood_env, id_env,
                                  clip_alpha, threshold):
    # an all-0 and an all-1 model keep every ID column from being constant,
    # so no valid input is a degenerate sweep
    accs = [(0.0, 0.0, 0.0), (1.0, 1.0, 1.0)] + accs
    if bad_cell is not None:
        accs.append((0.5, bad_cell, 0.5))
    invalid = (bad_cell is not None or len(accs) < 3
               or not _clip_alpha_ok(clip_alpha)
               or not _threshold_ok(threshold) or ood_env == "e9"
               or (mode == "pairwise"
                   and id_env in (None, "e9", ood_env)))
    rows = tuple(TableRow(f"m{i}", acc) for i, acc in enumerate(accs))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        out = Path(tmp) / "out"
        save_accuracy_table(AccuracyTable(("e0", "e1", "e2"), rows), path)
        argv = ["audit", "--table", str(path), "--mode", mode,
                "--ood-env", ood_env, f"--clip-alpha={clip_alpha!r}",
                f"--threshold={threshold!r}", "--out", str(out)]
        if id_env is not None:
            argv += ["--id-env", id_env]
        rc, err = _run(argv)
        _assert_contract(rc, err, invalid, out / "audit_report.json")


@settings(max_examples=15, deadline=None)
@given(train_pe=_PROBABILITIES,
       label_noise=_mostly(st.sampled_from([0.25, 0.1]),
                           st.sampled_from([-0.1, 1.5, math.nan])),
       grid=st.lists(_PROBABILITIES, max_size=4),
       seeds_per_sigma=_mostly(st.just(1), st.integers(-1, 0)),
       clip_alpha=_CLIP_ALPHAS, threshold=_THRESHOLDS)
def test_cmnist_exit_code_contract(train_pe, label_noise, grid,
                                   seeds_per_sigma, clip_alpha, threshold):
    # grid values are columns p_{p:g}; two that print alike collide
    invalid = (any(not 0.0 <= p <= 1.0 for p in [train_pe, label_noise, *grid])
               or len({f"{p:g}" for p in grid}) < len(grid)
               or seeds_per_sigma < 1 or not _clip_alpha_ok(clip_alpha)
               or not _threshold_ok(threshold))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        rc, err = _run(["cmnist", f"--train-pe={train_pe!r}",
                        f"--label-noise={label_noise!r}",
                        "--test-grid=" + ",".join(repr(p) for p in grid),
                        "--n-train=400", f"--seeds-per-sigma={seeds_per_sigma}",
                        f"--clip-alpha={clip_alpha!r}",
                        f"--threshold={threshold!r}", "--out", str(out)])
        if not invalid and (len(grid) < 2 or clip_alpha > 0.1 and rc == 3):
            # a one-point grid is a degenerate sweep, and so can be a clip
            # wide enough to flatten the ID column
            assert rc == 3
            assert err.startswith("error: degenerate sweep")
            assert err.count("\n") == 1
        else:
            _assert_contract(rc, err, invalid, out / "cmnist_report.json")


@settings(max_examples=20, deadline=None)
@given(delta=_mostly(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                    st.sampled_from([0.0, 1.0, 1.5, math.nan, math.inf])),
       shift_scale=_mostly(st.floats(0.1, 5.0),
                          st.sampled_from([0.0, -1.0, math.nan, math.inf])),
       tol=_mostly(st.sampled_from([1e-8, 1e-6]),
                   st.sampled_from([0.0, -1.0, math.nan, math.inf])),
       l2=_mostly(st.sampled_from([1e-3, 0.0, 0.5]),
                  st.sampled_from([-1.0, math.nan, math.inf])),
       max_iters=_mostly(st.just(10_000), st.sampled_from([0, -5])),
       label_prior=_mostly(st.sampled_from([0.5, 0.3]),
                           st.sampled_from([0.0, 1.0, 1.5, math.nan])),
       mu_c_len=_mostly(st.just(2), st.sampled_from([1, 3])),
       ood_mode=_mostly(st.sampled_from(["random", "interpolation"]),
                        st.just("sideways")),
       n_shifts=_mostly(st.integers(1, 3), st.just(0)), seed=st.integers(0, 5))
def test_simulate_exit_code_contract(delta, shift_scale, tol, l2, max_iters,
                                     label_prior, mu_c_len, ood_mode,
                                     n_shifts, seed):
    invalid = (not 0.0 < delta < 1.0 or not 0.0 < shift_scale < math.inf
               or not 0.0 < tol < math.inf or not 0.0 <= l2 < math.inf
               or max_iters < 1 or not 0.0 < label_prior < 1.0
               or mu_c_len != 2 or ood_mode == "sideways" or n_shifts < 1)
    base = default_config()
    cfg = replace(
        base, delta=delta,
        domain=replace(base.domain, mu_c=np.ones(mu_c_len),
                       label_prior=label_prior),
        optimizer=OptimizerConfig(tol=tol, max_iters=max_iters, l2=l2),
        sweep=SweepConfig(n_shifts=n_shifts, shift_scale=shift_scale,
                          n_per_domain=200, ood_mode=ood_mode))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.ini"
        out = Path(tmp) / "out"
        path.write_text(dumps_config(cfg), encoding="utf-8")
        rc, err = _run(["simulate", "--config", str(path), f"--seed={seed}",
                        "--out", str(out)])
        _assert_contract(rc, err, invalid, out / "simulate_report.json")


def _vectors(n):
    return st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=n, max_size=n).map(np.array)


def _variances(n):
    return st.lists(st.floats(1e-6, 1e6), min_size=n, max_size=n).map(np.diag)


_POSITIVE = st.floats(0.0, exclude_min=True, allow_infinity=False)


@settings(max_examples=30, deadline=None)
@given(k=st.integers(1, 3), l=st.integers(1, 3), data=st.data(),
       label_prior=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       delta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       tol=_POSITIVE, l2=st.floats(0.0, allow_infinity=False),
       max_iters=st.integers(1, 10**6), bias=st.booleans(),
       n_shifts=st.integers(1, 10**4), shift_scale=_POSITIVE,
       n_per_domain=st.integers(1, 10**6),
       ood_mode=st.sampled_from(["random", "interpolation"]))
def test_config_round_trip_is_exact(k, l, data, label_prior, delta, tol, l2,
                                    max_iters, bias, n_shifts, shift_scale,
                                    n_per_domain, ood_mode):
    matrix = _vectors(l * l).map(lambda v: v.reshape(l, l))
    shift = data.draw(st.one_of(st.none(), matrix.map(LinearShift)), "shift")
    spec = DomainSpec(k=k, l=l, mu_c=data.draw(_vectors(k), "mu_c"),
                      sigma_c=data.draw(_variances(k), "sigma_c"),
                      mu_e=data.draw(_vectors(l), "mu_e"),
                      sigma_e=data.draw(_variances(l), "sigma_e"),
                      label_prior=label_prior,
                      **({"shift": shift} if shift is not None else {}))
    base = tuple(data.draw(st.lists(matrix, max_size=3), "base_components"))
    cfg = RunConfig(domain=spec, delta=delta,
                    optimizer=OptimizerConfig(tol=tol, max_iters=max_iters,
                                              l2=l2, bias=bias),
                    sweep=SweepConfig(n_shifts=n_shifts, shift_scale=shift_scale,
                                      n_per_domain=n_per_domain,
                                      ood_mode=ood_mode, base_components=base))
    text = dumps_config(cfg)
    again = parse_config(text)
    assert (again.delta, again.optimizer) == (cfg.delta, cfg.optimizer)
    assert len(again.sweep.base_components) == len(base)
    assert all(np.array_equal(a, b)
               for a, b in zip(again.sweep.base_components, base))
    assert dumps_config(again) == text
