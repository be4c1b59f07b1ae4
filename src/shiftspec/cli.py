"""Command-line surface: simulate, audit, mincount, cmnist.

Exit codes: 0 success, 2 input error (an InputError for bad arguments,
tables, configs or environments, or an OSError reading input or writing
--out), 3 numeric or degeneracy error (any other ValueError: degenerate
sweeps, a shifted covariance that is not PSD, fits that do not converge).
main() alone maps exceptions to these codes.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from pathlib import Path

import numpy as np

from .aline import (DEFAULT_CLIP_ALPHA, DEFAULT_THRESHOLD, check_clip_alpha,
                    check_threshold, classify_split, correlation_epsilon,
                    fit_probit_points, min_model_count, probit_points)
from .cmnist import CmnistSpec, DEFAULT_NOISE_SIGMAS, cmnist_model_table
from .conditions import (ShiftStack, accuracies_under_shifts, condition_reports,
                         require_finite)
from .config import default_config, load_config
from .core import IdentityShift, InputError, Mask, MixtureShift
from .ingest import (dump_accuracy_table, leave_one_out_pairs,
                     load_accuracy_table, pairwise_pairs)
from .report import write_json_report
from .svgplot import ScatterPlot
from .synthgen import interpolation_mixture, random_shifts, sample_domain
from .trainer import OptimizerSettings, fit_logistic

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3


def _out_dir(path_text: str) -> Path:
    out = Path(path_text)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _fmt_row(values) -> str:
    cells = []
    for v in values:
        if isinstance(v, bool):
            cells.append("true" if v else "false")
        elif isinstance(v, float):
            cells.append(f"{v:.17g}")
        else:
            cells.append(str(v))
    return ",".join(cells)


def cmd_simulate(args) -> int:
    cfg = load_config(args.config) if args.config else default_config()
    seed = args.seed

    spec = cfg.domain
    sweep = cfg.sweep
    if sweep.ood_mode == "interpolation":
        if isinstance(spec.shift, MixtureShift) and not sweep.base_components:
            # reweight the ID mixture's own components
            components = spec.shift.matrices(spec.l)
        else:
            components = sweep.components_or_default(spec.l)
        if isinstance(spec.shift, IdentityShift):
            weight = 1.0 / len(components)
            spec = spec.with_shift(MixtureShift(tuple((weight, m) for m in components)))

    opt = cfg.optimizer
    fit_opts = OptimizerSettings(tol=opt.tol, max_iters=opt.max_iters, bias=opt.bias)
    train = sample_domain(spec, sweep.n_per_domain, seed)
    full = fit_logistic(train, Mask.FULL, opt.l2, fit_opts)
    dg = fit_logistic(train, Mask.DOMAIN_GENERAL, opt.l2, fit_opts)

    shift_seeds = [seed * 31 + 1000 + i for i in range(sweep.n_shifts)]
    if sweep.ood_mode == "interpolation":
        shifts = ShiftStack.of([interpolation_mixture(components, seed=s)
                                for s in shift_seeds], spec.l)
    else:
        shifts = ShiftStack.linear(random_shifts(spec.l, sweep.shift_scale,
                                                 shift_seeds))
    with np.errstate(over="ignore", invalid="ignore"):
        reports = condition_reports(full, spec, shifts, cfg.delta)
        acc = accuracies_under_shifts([dg, full], spec, shifts).T
    for name, values in (("theorem1_margin", [r.theorem1_margin for r in reports]),
                         ("snr_ood", [r.snr_ood for r in reports]),
                         ("acc_ood_domain_general", acc[0]),
                         ("acc_ood_full", acc[1])):
        require_finite(name, values)
    acc_dg, acc_full = acc.tolist()
    gaps = [a - b for a, b in zip(acc_dg, acc_full)]
    out = _out_dir(args.out)

    header = ["shift_index", "reversal_term", "theorem1_margin",
              "theorem1_well_specified", "snr_id", "snr_ood",
              "theorem2_well_specified", "acc_ood_domain_general",
              "acc_ood_full", "acc_gap"]
    lines = [",".join(header)]
    for i, rep in enumerate(reports):
        lines.append(_fmt_row([i, rep.reversal_term, rep.theorem1_margin,
                               rep.theorem1_well_specified, rep.snr_id,
                               rep.snr_ood, rep.theorem2_well_specified,
                               acc_dg[i], acc_full[i], gaps[i]]))
    (out / "simulate.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    negative = [i for i, rep in enumerate(reports) if rep.theorem1_margin < 0.0]
    payload = {
        "seed": seed,
        "n_shifts": sweep.n_shifts,
        "ood_mode": sweep.ood_mode,
        "delta": cfg.delta,
        "mean_abs_gap": float(np.mean([abs(g) for g in gaps])),
        "margin_negative_count": len(negative),
        "dg_wins_given_margin_negative": sum(1 for i in negative
                                             if acc_dg[i] > acc_full[i]),
        "theorem2_agreement_count": sum(1 for i in negative
                                        if reports[i].theorem2_well_specified),
    }
    write_json_report(payload, out / "simulate_report.json",
                      "simulate_report.schema.json")

    plot = ScatterPlot(title="OOD accuracy gap vs. spurious reversal term",
                       xlabel="w_e . M mu_e (dark points: reversal margin < 0)",
                       ylabel="OOD accuracy: domain-general minus full")
    x_vals = [rep.reversal_term for rep in reports]
    rest = [i for i, rep in enumerate(reports) if rep.theorem1_margin >= 0.0]
    plot.add_points([x_vals[i] for i in rest], [gaps[i] for i in rest])
    plot.add_points([x_vals[i] for i in negative], [gaps[i] for i in negative],
                    color="#7d2181")
    plot.add_line(0.0, -1.0, 0.0, 1.0, color="#888888", dash="4,3")
    plot.add_line(min(x_vals), 0.0, max(x_vals), 0.0, color="#888888", dash="4,3")
    (out / "simulate.svg").write_text(plot.render(), encoding="utf-8")
    print(f"simulate: wrote {out / 'simulate.csv'} "
          f"({len(reports)} shifts, {len(negative)} with negative margin)")
    return EXIT_OK


def _audit_pairs(args) -> tuple[np.ndarray, np.ndarray, str | None]:
    table = load_accuracy_table(args.table)
    if args.mode == "loo":
        if args.id_env is not None:
            raise InputError("--id-env is read only in pairwise mode")
        return *leave_one_out_pairs(table, args.ood_env), None
    if args.id_env is None:
        raise InputError("pairwise mode requires --id-env")
    return *pairwise_pairs(table, args.id_env, args.ood_env), args.id_env


def cmd_audit(args) -> int:
    """Probit fit, verdict and Definition 6 of one split; definition6 is
    correlation_epsilon in the direction probit(ID) ≈ a·probit(OOD)."""
    check_clip_alpha(args.clip_alpha)
    check_threshold(args.threshold)
    id_acc, ood_acc, id_env = _audit_pairs(args)
    x, y = probit_points(id_acc, ood_acc, args.clip_alpha)
    fit = fit_probit_points(x, y, clip_alpha=args.clip_alpha)
    verdict = classify_split(fit, threshold=args.threshold)
    a6, eps6 = (float(v[0]) for v in correlation_epsilon(x, y))
    out = _out_dir(args.out)

    payload = {
        "mode": args.mode,
        "ood_env": args.ood_env,
        "threshold": args.threshold,
        "n_models": len(x),
        "fit": dataclasses.asdict(fit),
        "verdict": verdict.value,
        "definition6": {"a": a6, "epsilon": eps6},
    }
    if id_env is not None:
        payload["id_env"] = id_env
    write_json_report(payload, out / "audit_report.json", "audit_report.schema.json")

    # Table-1 column order: slope, offset, R, p-value, std error
    csv = ("slope,offset,R,p-value,std error\n"
           + _fmt_row([fit.slope, fit.intercept, fit.pearson_r,
                       fit.p_value, fit.std_err]) + "\n")
    (out / "audit_row.csv").write_text(csv, encoding="utf-8")

    plot = ScatterPlot(title=f"ID vs OOD accuracy (probit scale), OOD={args.ood_env}",
                       xlabel="ID accuracy (probit)",
                       ylabel="OOD accuracy (probit)", probit_axes=True)
    plot.add_points(x, y)
    plot.line_over_x(fit.slope, fit.intercept)
    lo = float(min(x.min(), y.min()))
    hi = float(max(x.max(), y.max()))
    plot.add_line(lo, lo, hi, hi, color="#888888", dash="4,3")
    (out / "audit_scatter.svg").write_text(plot.render(), encoding="utf-8")
    print(f"audit: R={fit.pearson_r:.4f} verdict={verdict.value} "
          f"({len(x)} models)")
    return EXIT_OK


def cmd_mincount(args) -> int:
    id_acc, ood_acc = leave_one_out_pairs(load_accuracy_table(args.table),
                                          args.ood_env)
    minimum = min_model_count(id_acc, ood_acc, rel_tol=args.rel_tol,
                              resamples=args.resamples,
                              confidence=args.confidence,
                              start=args.start, step=args.step,
                              clip_alpha=args.clip_alpha, seed=args.seed)
    out = _out_dir(args.out)

    payload = {
        "ood_env": args.ood_env,
        "rel_tol": args.rel_tol,
        "resamples": args.resamples,
        "confidence": args.confidence,
        "total_models": len(id_acc),
        "reached": minimum is not None,
    }
    if minimum is not None:
        payload["minimum_models"] = minimum
    write_json_report(payload, out / "mincount_report.json",
                      "mincount_report.schema.json")

    min_text = str(minimum) if minimum is not None else "not_reached"
    (out / "mincount.csv").write_text(
        "minimum_models,total_models\n" + f"{min_text},{len(id_acc)}\n",
        encoding="utf-8")
    print(f"mincount: minimum={min_text} total={len(id_acc)}")
    return EXIT_OK


def _parse_grid(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise InputError(f"--test-grid {text!r} is not a list of numbers") from None


def cmd_cmnist(args) -> int:
    check_clip_alpha(args.clip_alpha)
    check_threshold(args.threshold)
    spec = CmnistSpec(label_noise=args.label_noise, p_e=(args.train_pe,))
    grid = _parse_grid(args.test_grid)
    table = cmnist_model_table(spec, train_env=0, test_grid=grid,
                               n_train=args.n_train,
                               noise_sigmas=DEFAULT_NOISE_SIGMAS,
                               seeds_per_sigma=args.seeds_per_sigma,
                               seed=args.seed)
    out = _out_dir(args.out)
    (out / "cmnist_table.csv").write_text(dump_accuracy_table(table),
                                          encoding="utf-8")

    splits = [pairwise_pairs(table, "env_id", env) for env in table.env_names[1:]]
    # pooled split: the per-env arrays (one entry per model each) concatenated
    # in env order; each env is fit on its own slice of the pooled probits
    id_acc, ood_acc = map(np.concatenate, zip(*splits))
    x, y = probit_points(id_acc, ood_acc, args.clip_alpha)
    per_env = []
    for env, p_test, env_x, env_y in zip(table.env_names[1:], grid,
                                         np.split(x, len(splits)),
                                         np.split(y, len(splits))):
        fit = fit_probit_points(env_x, env_y, clip_alpha=args.clip_alpha)
        per_env.append({
            "env": env,
            "test_p_e": p_test,
            "pearson_r": fit.pearson_r,
            "slope": fit.slope,
            "verdict": classify_split(fit, args.threshold).value,
        })
    pooled_fit = fit_probit_points(x, y, clip_alpha=args.clip_alpha)

    payload = {
        "train_p_e": args.train_pe,
        "label_noise": args.label_noise,
        "n_models": len(table.rows),
        "per_env": per_env,
        "pooled": {
            "pearson_r": pooled_fit.pearson_r,
            "slope": pooled_fit.slope,
            "verdict": classify_split(pooled_fit, args.threshold).value,
        },
    }
    write_json_report(payload, out / "cmnist_report.json",
                      "cmnist_report.schema.json")

    plot = ScatterPlot(title=f"ColoredMNIST sweep: train p_e={args.train_pe:g}",
                       xlabel="ID accuracy (probit)",
                       ylabel="OOD accuracy (probit)", probit_axes=True)
    plot.add_points(x, y)
    plot.line_over_x(pooled_fit.slope, pooled_fit.intercept)
    (out / "cmnist_scatter.svg").write_text(plot.render(), encoding="utf-8")
    rs = ", ".join(f"{e['env']}:{e['pearson_r']:.2f}" for e in per_env)
    print(f"cmnist: pooled R={pooled_fit.pearson_r:.4f}; per-env [{rs}]")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The four-command parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="shiftspec",
        description="Simulate spurious-correlation shifts and audit "
                    "accuracy tables for accuracy on the line.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the shift-sweep simulation")
    sim.add_argument("--config", default=None, help="INI config path")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", default="out_simulate")
    sim.set_defaults(func=cmd_simulate)

    aud = sub.add_parser("audit", help="audit an accuracy table")
    aud.add_argument("--table", required=True, help="accuracy-table CSV path")
    aud.add_argument("--mode", choices=("loo", "pairwise"), default="loo")
    aud.add_argument("--ood-env", required=True)
    aud.add_argument("--id-env", default=None)
    aud.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    aud.add_argument("--clip-alpha", type=float, default=DEFAULT_CLIP_ALPHA)
    aud.add_argument("--out", default="out_audit")
    aud.set_defaults(func=cmd_audit)

    mc = sub.add_parser("mincount", help="minimum models for a stable R")
    mc.add_argument("--table", required=True)
    mc.add_argument("--ood-env", required=True)
    mc.add_argument("--rel-tol", type=float, default=0.01)
    mc.add_argument("--resamples", type=int, default=1000)
    mc.add_argument("--confidence", type=float, default=0.95)
    mc.add_argument("--start", type=int, default=10)
    mc.add_argument("--step", type=int, default=100)
    mc.add_argument("--clip-alpha", type=float, default=DEFAULT_CLIP_ALPHA)
    mc.add_argument("--seed", type=int, default=0)
    mc.add_argument("--out", default="out_mincount")
    mc.set_defaults(func=cmd_mincount)

    cm = sub.add_parser("cmnist", help="ColoredMNIST sweep and audit")
    cm.add_argument("--train-pe", type=float, default=0.9)
    cm.add_argument("--test-grid", default="0.8,0.85,0.9,0.95,0.99")
    cm.add_argument("--label-noise", type=float, default=0.25)
    cm.add_argument("--n-train", type=int, default=4000)
    cm.add_argument("--seeds-per-sigma", type=int, default=2)
    cm.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    cm.add_argument("--clip-alpha", type=float, default=DEFAULT_CLIP_ALPHA)
    cm.add_argument("--seed", type=int, default=0)
    cm.add_argument("--out", default="out_cmnist")
    cm.set_defaults(func=cmd_cmnist)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, MemoryError) as exc:
        # one line, whatever the message holds
        message = " ".join(str(exc).split())
        if isinstance(exc, MemoryError):
            message = "out of memory" + (f": {message}" if message else "")
        print("error: " + message, file=sys.stderr)
        return EXIT_INPUT if isinstance(exc, (InputError, OSError)) else EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
