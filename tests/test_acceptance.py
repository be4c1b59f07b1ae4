"""Acceptance suite: one test per exit criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are pinned here and nowhere else.
"""

import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from shiftspec.aline import AlineFit, Verdict, classify_split, fit_probit_line
from shiftspec.analytic import normal_quantile, pearson_p_value, probit
from shiftspec.cmnist import CmnistSpec, cmnist_model_table, generate_cmnist
from shiftspec.conditions import (classifier_sweep, condition_report,
                                  sweep_pairs, zero_measure_experiment)
from shiftspec.config import default_config, dumps_config
from shiftspec.core import Dataset, LinearShift, Mask, MixtureShift, default_spec
from shiftspec.ingest import AccuracyTable, TableRow, pairwise_pairs, save_accuracy_table
from shiftspec.synthgen import interpolation_mixture, random_shift, sample_domain
from shiftspec.trainer import evaluate_accuracy, evaluate_risk, fit_logistic

SEED = 11


def report(criterion: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def test_criterion_1_figure_2a_reversal_property():
    t0 = time.time()
    spec = default_spec()
    train = sample_domain(spec, 1000, seed=SEED)
    full = fit_logistic(train, Mask.FULL, l2=1e-3)
    dg = fit_logistic(train, Mask.DOMAIN_GENERAL, l2=1e-3)
    qualifying = 0
    dg_wins = 0
    for s in range(50):
        m = random_shift(2, 2.0, seed=SEED * 31 + 1000 + s)
        rep = condition_report(full, spec, m, delta=0.5)
        if rep.theorem1_margin < 0.0:
            qualifying += 1
            test = sample_domain(spec.with_shift(LinearShift(m)), 1000,
                                 seed=SEED * 31 + 7_000_000 + s)
            if evaluate_accuracy(dg, test) > evaluate_accuracy(full, test):
                dg_wins += 1
    elapsed = time.time() - t0
    ok = (qualifying > 0 and dg_wins >= math.ceil(0.95 * qualifying)
          and elapsed < 60.0)
    report("criterion 1 (figure 2a)",
           ok,
           f"margin<0 in {qualifying}/50 shifts; domain-general wins "
           f"{dg_wins}/{qualifying}; runtime {elapsed:.1f}s < 60s")


def test_criterion_2_figure_2c_interpolation_gap():
    spec = default_spec()
    components = [f * np.eye(2) for f in (1.5, 0.5, -0.5, -1.5)]
    id_shift = MixtureShift(tuple((0.25, m) for m in components))
    spec_mix = spec.with_shift(id_shift)
    train = sample_domain(spec_mix, 1000, seed=SEED)
    full = fit_logistic(train, Mask.FULL, l2=1e-3)
    dg = fit_logistic(train, Mask.DOMAIN_GENERAL, l2=1e-3)
    gaps = []
    for s in range(50):
        ood = interpolation_mixture(components, seed=SEED * 31 + 4000 + s)
        test = sample_domain(spec_mix.with_shift(ood), 1000,
                             seed=SEED * 31 + 9_000_000 + s)
        gaps.append(abs(evaluate_accuracy(dg, test) - evaluate_accuracy(full, test)))
    mean_gap = float(np.mean(gaps))
    report("criterion 2 (figure 2c)", mean_gap < 0.03,
           f"mean |acc_dg - acc_ds| = {mean_gap:.4f} < 0.03 over 50 mixtures")


def test_criterion_3_figure_3_correlation_regimes():
    t0 = time.time()
    spec = default_spec()
    grid = tuple(float(x) for x in np.geomspace(1e-3, 1e3, 13))
    models = classifier_sweep(spec, 1000, seed=42, reliance_grid=grid, n_seeds=3)

    pos_rs = {}
    for a in (0.3, 0.5, 1.0):
        fit = fit_probit_line(*sweep_pairs(models, spec, LinearShift(a * np.eye(2))))
        pos_rs[a] = fit.pearson_r
    neg_rs = {}
    for a in (-0.5, -1.0, -2.0):
        fit = fit_probit_line(*sweep_pairs(models, spec, LinearShift(a * np.eye(2))))
        neg_rs[a] = fit.pearson_r

    # random shifts paired per classifier, kept when the SNR condition holds
    from shiftspec.conditions import accuracy_under_shift
    id_accs, ood_accs = [], []
    draw = 0
    for model in models:
        while True:
            m = random_shift(2, 2.0, seed=9000 + draw)
            draw += 1
            rep = condition_report(model, spec, m, delta=0.1)
            if rep.theorem2_well_specified:
                id_accs.append(accuracy_under_shift(model, spec))
                ood_accs.append(accuracy_under_shift(model, spec, LinearShift(m)))
                break
    random_r = fit_probit_line(id_accs, ood_accs).pearson_r
    elapsed = time.time() - t0

    ok = (all(r >= 0.9 for r in pos_rs.values())
          and all(r <= -0.9 for r in neg_rs.values())
          and abs(random_r) < 0.5 and elapsed < 120.0)
    pos_txt = ", ".join(f"a={a:g}: R={r:.3f}" for a, r in pos_rs.items())
    neg_txt = ", ".join(f"a={a:g}: R={r:.3f}" for a, r in neg_rs.items())
    report("criterion 3 (figure 3)", ok,
           f"{pos_txt}; {neg_txt}; random well-specified M: |R|={abs(random_r):.3f} "
           f"< 0.5; runtime {elapsed:.1f}s < 120s")


def test_criterion_4_cmnist_analytics():
    spec = CmnistSpec(label_noise=0.25, p_e=(0.9, 0.8, 0.1))
    n = 50_000
    train = generate_cmnist(spec, env=0, n=n, seed=4)
    digit_model = fit_logistic(Dataset(x=train.x[:, :1], y=train.y, k=1, l=0),
                               Mask.FULL, l2=1e-3)
    color_model = fit_logistic(Dataset(x=train.x[:, 1:], y=train.y, k=1, l=0),
                               Mask.FULL, l2=1e-3)

    held = generate_cmnist(spec, env=0, n=n, seed=5)
    digit_acc = evaluate_accuracy(digit_model,
                                  Dataset(x=held.x[:, :1], y=held.y, k=1, l=0))
    color_errs = []
    for env, p_e in enumerate(spec.p_e):
        test = generate_cmnist(spec, env=env, n=n, seed=6 + env)
        acc = evaluate_accuracy(color_model,
                                Dataset(x=test.x[:, 1:], y=test.y, k=1, l=0))
        color_errs.append(abs(acc - p_e))

    from shiftspec.cmnist import color_classifier_accuracy, digit_classifier_accuracy
    crossover_ok = all(
        (color_classifier_accuracy(float(p), 1) > digit_classifier_accuracy(spec))
        == (p > 0.75)
        for p in np.linspace(0.0, 1.0, 101))

    ok = (abs(digit_acc - 0.75) <= 0.01 and max(color_errs) <= 0.01
          and crossover_ok)
    report("criterion 4 (cmnist analytics)", ok,
           f"digit acc {digit_acc:.4f} (|err| <= 0.01), color |err| max "
           f"{max(color_errs):.4f} <= 0.01, crossover at 0.75 verified on 101 points")


TABLE1_ROWS = [
    # (dataset, OOD env, published probit-scale Pearson R, well-specified?)
    ("ColoredMNIST", "Env 2", -0.74, True),
    ("CXR", "Env 1", -0.48, True),
    ("SpawriousO2O hard", "Env 0", 0.50, False),
    ("SpawriousM2M hard", "Env 0", 0.94, False),
    ("SpawriousO2O easy", "Env 0", 0.74, False),
    ("SpawriousM2M easy", "Env 0", 0.60, False),
    ("PACS", "Env 1", 0.84, False),
    ("TerraIncognita", "Env 1", 0.74, False),
    ("Camelyon", "Env 2", 0.78, False),
    ("CivilComments", "Env 1", -0.47, True),
    ("WaterBirds", "Env 0", -0.13, True),
    ("FMoW", "Env 5", 0.87, False),
]


def test_criterion_5_table_1_verdicts():
    mismatches = []
    for dataset, env, r, expect_well in TABLE1_ROWS:
        fit = AlineFit(slope=0.0, intercept=0.0, pearson_r=r, p_value=0.0,
                       std_err=0.0, n=1000, clip_alpha=1e-4)
        verdict = classify_split(fit, threshold=0.3)
        got_well = verdict is Verdict.WELL_SPECIFIED
        if got_well != expect_well:
            mismatches.append(f"{dataset} {env}")
    report("criterion 5 (table 1 verdict rule)", not mismatches,
           f"all {len(TABLE1_ROWS)} published R values reproduce their "
           f"check/cross marks" + (f"; mismatches: {mismatches}" if mismatches else ""))


def test_criterion_6_statistical_oracles():
    from scipy import stats

    # probit line vs an independent OLS oracle
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(30):
        n = int(rng.integers(5, 80))
        x = rng.uniform(-1.2, 1.2, n)
        y = rng.uniform(-1.2, 1.2, n)
        from shiftspec.analytic import normal_cdf
        fit = fit_probit_line(normal_cdf(x), normal_cdf(y), clip_alpha=1e-7)
        ref = stats.linregress(x, y)
        worst = max(worst,
                    abs(fit.slope - ref.slope),
                    abs(fit.intercept - ref.intercept),
                    abs(fit.pearson_r - ref.rvalue))
    ols_ok = worst < 1e-10

    # probit against stdlib and scipy high-precision oracles
    grid = np.linspace(1e-6, 1 - 1e-6, 30_001)
    ours = normal_quantile(grid)
    err_scipy = float(np.max(np.abs(ours - stats.norm.ppf(grid))))
    nd = statistics.NormalDist()
    sample = grid[:: 300]
    err_stdlib = max(abs(float(probit(p)) - nd.inv_cdf(p)) for p in sample)
    probit_ok = err_scipy < 1e-8 and err_stdlib < 1e-8

    p_val = pearson_p_value(0.5, 20)
    p_ok = abs(p_val - 0.0249) <= 0.0005

    ok = ols_ok and probit_ok and p_ok
    report("criterion 6 (statistical oracles)", ok,
           f"OLS max err {worst:.2e} < 1e-10; probit max err "
           f"{max(err_scipy, err_stdlib):.2e} < 1e-8; p(n=20, r=0.5) = "
           f"{p_val:.4f} within 0.0249 +- 0.0005")


def test_criterion_7_zero_measure():
    res = zero_measure_experiment(default_spec(), [0.0, 0.5, 1.0, 1.5, 2.0],
                                  trials=500, n_per_domain=1000, seed=3,
                                  delta=0.5)
    nondecreasing = all(a <= b for a, b in zip(res.fractions, res.fractions[1:]))
    zero_ok = res.fractions[0] <= 1.0 / res.trials
    grew = res.fractions[-1] > res.fractions[0]
    ok = nondecreasing and zero_ok and grew
    report("criterion 7 (theorem 3 empirical)", ok,
           f"fractions {tuple(round(f, 3) for f in res.fractions)} nondecreasing; "
           f"eps=0 fraction {res.fractions[0]:.4f} <= {1.0 / res.trials}")


def test_criterion_8_lemma_1_risk_gap():
    spec = default_spec()
    wins = 0
    for seed in range(100):
        train = sample_domain(spec, 10_000, seed=seed)
        heldout = sample_domain(spec, 10_000, seed=seed + 100_000)
        full = fit_logistic(train, Mask.FULL, l2=1e-3)
        dg = fit_logistic(train, Mask.DOMAIN_GENERAL, l2=1e-3)
        if evaluate_risk(full, heldout, 1e-3) < evaluate_risk(dg, heldout, 1e-3):
            wins += 1
    report("criterion 8 (lemma 1 risk gap)", wins >= 95,
           f"full-feature fit beats domain-general fit on held-out risk in "
           f"{wins}/100 seeded evaluations (needs >= 95)")


def _run_cli(args, threads, out):
    env = dict(os.environ, SHIFTSPEC_THREADS=threads)
    subprocess.run([sys.executable, "-m", "shiftspec.cli", *args,
                    "--out", str(out)],
                   env=env, check=True, capture_output=True)
    blobs = {}
    for path in sorted(out.glob("*")):
        if path.suffix in (".csv", ".json"):
            blobs[path.name] = path.read_bytes()
    return blobs


def test_criterion_9_cli_determinism(tmp_path):
    cfg = default_config()
    cfg = replace(cfg, sweep=replace(cfg.sweep, n_shifts=10, n_per_domain=300))
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(dumps_config(cfg), encoding="utf-8")

    rng = np.random.default_rng(0)
    accs = rng.uniform(0.4, 0.95, (150, 2))
    rows = tuple(TableRow(f"m{i}", (float(a), float(b)))
                 for i, (a, b) in enumerate(accs))
    table_path = tmp_path / "table.csv"
    save_accuracy_table(AccuracyTable(("e0", "e1"), rows), table_path)

    commands = {
        "simulate": ["simulate", "--config", str(cfg_path), "--seed", "4"],
        "audit": ["audit", "--table", str(table_path), "--mode", "pairwise",
                  "--id-env", "e0", "--ood-env", "e1"],
        "mincount": ["mincount", "--table", str(table_path), "--ood-env", "e1",
                     "--resamples", "150", "--seed", "2"],
        "cmnist": ["cmnist", "--train-pe", "0.9", "--test-grid", "0.8,0.9",
                   "--n-train", "800", "--seeds-per-sigma", "1", "--seed", "3"],
    }
    mismatched = []
    for name, args in commands.items():
        runs = [_run_cli(args, threads, tmp_path / f"{name}_{i}")
                for i, threads in enumerate(("1", "1", "8"))]
        if not (runs[0] == runs[1] == runs[2]):
            mismatched.append(name)
    report("criterion 9 (determinism)", not mismatched,
           "all four commands byte-identical across reruns and thread counts 1/8"
           + (f"; mismatches: {mismatched}" if mismatched else ""))


def test_cmnist_four_panel_structure():
    # supporting check for criteria 3/4: figure-7 sign structure end to end
    spec = CmnistSpec(label_noise=0.25, p_e=(0.9,))
    sigmas = tuple(float(s) for s in np.geomspace(0.25, 8.0, 12))
    hi = cmnist_model_table(spec, 0, tuple(np.round(np.linspace(0.8, 0.99, 8), 4)),
                            4000, sigmas, 2, seed=17)
    lo = cmnist_model_table(spec, 0, tuple(np.round(np.linspace(0.01, 0.2, 8), 4)),
                            4000, sigmas, 2, seed=17)
    hi_rs = [fit_probit_line(*pairwise_pairs(hi, "env_id", env)).pearson_r
             for env in hi.env_names[1:]]
    lo_rs = [fit_probit_line(*pairwise_pairs(lo, "env_id", env)).pearson_r
             for env in lo.env_names[1:]]
    ok = min(hi_rs) > 0.9 and max(lo_rs) < -0.9
    report("figure 7 sign structure", ok,
           f"test p_e > 0.75 sweeps give R in [{min(hi_rs):.3f}, {max(hi_rs):.3f}] "
           f"(> 0.9); p_e < 0.25 sweeps give R in [{min(lo_rs):.3f}, "
           f"{max(lo_rs):.3f}] (< -0.9)")
