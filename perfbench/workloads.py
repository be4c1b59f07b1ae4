"""Seeded workloads: input generators, one pass of operations, output checks.

A workload turns the benchmark seed into input files, then defines one pass
as a list of operations. Each operation calls shiftspec through a public
entry point, looked up at call time so the traced run sees its wrappers:
``shiftspec.cli.main([...])`` for CLI commands, or a public library
function. Every operation has an output check; an operation fails on a
nonzero return code, an exception or a failed check.

Every operation has a kind, the name of its latency (``cmnist_s``,
``audit_s``, ...). Each workload reports three kinds in the slots op1_s,
op2_s and op3_s; ``Workload.slots`` names the kind behind each slot.

The seed only drives inputs whose cost does not depend on their values.
Every operation that fits a model runs on a fixed problem instance, because
the gradient-descent fit's iteration count depends on the sample: across
six seeds one simulate call ranged 1.8-2.8 s, across ten seeds a cmnist
call ranged 0.4-5.4 s, and a lemma-1 seed took 0.05-4.4 s, which would make
the spread across seeds wider than any bound. The fixed
instances are the repository's documented ones: the README's example seed
11 for simulate, the CLI default seed 0 for cmnist, criterion 7's seed 3 for
the zero-measure experiment and criterion 8's seeds 0-9 for lemma-1 fits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.special import ndtr, ndtri

import shiftspec
import shiftspec.cli
from shiftspec.config import default_config, dumps_config
from shiftspec.ingest import AccuracyTable, TableRow, dump_accuracy_table
from shiftspec.report import load_schema, validate_schema

N_MODELS = 2000
N_ENVS = 8
MINCOUNT_ROWS = 1010
SIM_SHIFTS = 200
SIM_ROWS = 5000
SIMULATE_SEED = 11
ZERO_MEASURE_SEED = 3
LEMMA_SEEDS = range(10)
LEMMA_ROWS = 10_000
ZERO_MEASURE_EPS = (0.0, 0.5, 1.0, 1.5, 2.0)
ZERO_MEASURE_TRIALS = 500
CMNIST_MODELS = 24           # 12 noise levels x 2 seeds, the CLI defaults
# cmnist runs twice a pass: with one call a run had too few samples for a
# steady median (13% IQR/median over five seeds, against 2-5% for the rest)
CMNIST_CALLS = 2
AUDIT_THRESHOLD = 0.3
ORACLE_TOL = 1e-9


@dataclass
class Op:
    """One timed operation and the check of what it produced."""

    kind: str                      # name of its latency, e.g. "cmnist_s"
    name: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    out: Path | None = None        # CLI output directory, compared across threads


@dataclass
class Workload:
    name: str
    threads: str | None            # SHIFTSPEC_THREADS for timed passes
    slots: dict[str, str]          # slot -> the kind of operation it times
    inputs: dict[str, int]
    ops: Callable[[Path], list[Op]]    # one pass, writing under the given dir
    # names of the operations a pass-level check fails
    check_pass: Callable[[list[Op], list[object]], list[str]] | None = None


def _cli(argv: list[str]) -> Callable[[], int]:
    return lambda: shiftspec.cli.main(argv)


def _schema_problems(path: Path, schema: str) -> list[str]:
    if not path.is_file():
        return [f"{path.name} missing"]
    return validate_schema(json.loads(path.read_text(encoding="utf-8")),
                           load_schema(schema))


def _rc_ok(rc) -> list[str]:
    return [] if rc == 0 else [f"exit code {rc}"]


def interleave(short: list[Op], long: list[Op]) -> list[Op]:
    """Split the short operations into even groups around the long ones.

    The machine's speed swings within seconds, so short operations are
    sampled at several moments of a pass rather than in one burst.
    """
    groups = np.array_split(np.arange(len(short)), len(long) + 1)
    ops = [short[i] for i in groups[0]]
    for op, group in zip(long, groups[1:]):
        ops += [op] + [short[i] for i in group]
    return ops


def output_bytes(out: Path) -> dict[str, bytes]:
    """The .csv and .json files of one CLI run, by name."""
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())
            if p.suffix in (".csv", ".json")}


# -- simulate ----------------------------------------------------------------

def simulate_config(seed_dir: Path) -> Path:
    """The random-mode simulate config, written through dumps_config.

    A config that lists only [sweep] is rejected ("config must have a
    [domain] section") although the README says omitted sections fall back
    to defaults, so the config spells out every section.
    """
    base = default_config()
    sweep = replace(base.sweep, n_shifts=SIM_SHIFTS, n_per_domain=SIM_ROWS)
    path = seed_dir / "random.ini"
    path.write_text(dumps_config(replace(base, sweep=sweep)), encoding="utf-8")
    return path


def _check_simulate(out: Path, n_shifts: int) -> Callable[[object], list[str]]:
    def check(rc) -> list[str]:
        problems = _rc_ok(rc)
        csv_path = out / "simulate.csv"
        if not csv_path.is_file():
            return problems + ["simulate.csv missing"]
        rows = csv_path.read_text(encoding="utf-8").splitlines()[1:]
        if len(rows) != n_shifts:
            problems.append(f"simulate.csv has {len(rows)} rows, want {n_shifts}")
        return problems + _schema_problems(out / "simulate_report.json",
                                           "simulate_report.schema.json")
    return check


# -- audit -------------------------------------------------------------------

def zoo_table(seed: int) -> AccuracyTable:
    """2000 models x 8 envs on a latent quality z, in probit space.

    env_0..env_5 lie on the line (slope 0.6..1.1), env_6 is inverse and
    env_7 is independent of z, so leave-one-out audits give both verdicts.
    """
    rng = np.random.default_rng([seed, 2])
    z = rng.standard_normal(N_MODELS)
    cols = [(0.6 + 0.1 * j) * z + 0.3 + 0.1 * j + 0.25 * rng.standard_normal(N_MODELS)
            for j in range(6)]
    cols.append(-0.8 * z + 0.4 + 0.25 * rng.standard_normal(N_MODELS))
    cols.append(0.5 + 0.8 * rng.standard_normal(N_MODELS))
    acc = ndtr(np.column_stack(cols))
    rows = tuple(TableRow(f"model_{i:04d}", tuple(float(a) for a in acc[i]))
                 for i in range(N_MODELS))
    return AccuracyTable(tuple(f"env_{j}" for j in range(N_ENVS)), rows)


def oracle_r(id_acc: np.ndarray, ood_acc: np.ndarray, clip_alpha: float = 1e-4) -> float:
    """Pearson R of the clipped, probit-transformed pairs (scipy ndtri)."""
    x = ndtri(np.clip(id_acc, clip_alpha, 1.0 - clip_alpha))
    y = ndtri(np.clip(ood_acc, clip_alpha, 1.0 - clip_alpha))
    return float(np.corrcoef(x, y)[0, 1])


def _check_audit(out: Path, r_oracle: float) -> Callable[[object], list[str]]:
    want = "well_specified" if r_oracle < AUDIT_THRESHOLD else "misspecified"

    def check(rc) -> list[str]:
        problems = _rc_ok(rc) + _schema_problems(out / "audit_report.json",
                                                 "audit_report.schema.json")
        if problems:
            return problems
        report = json.loads((out / "audit_report.json").read_text(encoding="utf-8"))
        r = report["fit"]["pearson_r"]
        if not abs(r - r_oracle) <= ORACLE_TOL:
            problems.append(f"R {r!r} differs from oracle {r_oracle!r}")
        if report["verdict"] != want:
            problems.append(f"verdict {report['verdict']} with oracle R {r_oracle:.4f}")
        return problems
    return check


def _check_mincount(out: Path) -> Callable[[object], list[str]]:
    want = f"minimum_models,total_models\nnot_reached,{MINCOUNT_ROWS}\n"

    def check(rc) -> list[str]:
        problems = _rc_ok(rc)
        path = out / "mincount.csv"
        if not path.is_file() or path.read_text(encoding="utf-8") != want:
            problems.append("mincount.csv does not read not_reached,1010")
        return problems + _schema_problems(out / "mincount_report.json",
                                           "mincount_report.schema.json")
    return check


def audit_workload(seed: int, inputs: Path) -> Workload:
    """Loo and pairwise audits of a seeded table, and one full mincount scan.

    Timed at one worker. At two, mincount's 10k tiny pool tasks cost
    3.4-4.6 s a call, and that cost drifted by 25% over 40 minutes while
    single-threaded work, the speed probe included, did not; one worker
    takes about 1.5 s. The reference pass runs at two workers.
    """
    rng = np.random.default_rng([seed, 3])
    mincount_seed = int(rng.integers(0, 2**31))
    table = zoo_table(seed)
    zoo = inputs / "zoo.csv"
    zoo.write_text(dump_accuracy_table(table), encoding="utf-8")
    head = inputs / "zoo_head.csv"
    head.write_text(dump_accuracy_table(AccuracyTable(table.env_names,
                                                      table.rows[:MINCOUNT_ROWS])),
                    encoding="utf-8")
    acc = np.array([row.accuracies for row in table.rows])
    loo_r = [oracle_r(np.delete(acc, j, axis=1).mean(axis=1), acc[:, j])
             for j in range(N_ENVS)]
    pair_r = [oracle_r(acc[:, j], acc[:, (j + 1) % N_ENVS]) for j in range(N_ENVS)]

    def make_ops(out: Path) -> list[Op]:
        short = []
        for j in range(N_ENVS):
            d = out / f"audit_loo_env_{j}"
            argv = ["audit", "--table", str(zoo), "--mode", "loo",
                    "--ood-env", f"env_{j}", "--out", str(d)]
            short.append(Op("audit_s", f"audit_loo_env_{j}", _cli(argv),
                            _check_audit(d, loo_r[j]), d))
            k = (j + 1) % N_ENVS
            d = out / f"audit_pairwise_env_{j}_{k}"
            argv = ["audit", "--table", str(zoo), "--mode", "pairwise",
                    "--id-env", f"env_{j}", "--ood-env", f"env_{k}", "--out", str(d)]
            short.append(Op("audit_pairwise_s", f"audit_pairwise_env_{j}_{k}", _cli(argv),
                            _check_audit(d, pair_r[j]), d))
        d = out / "mincount"
        argv = ["mincount", "--table", str(head), "--ood-env", "env_0",
                "--rel-tol", "1e-12", "--seed", str(mincount_seed), "--out", str(d)]
        return interleave(short, [Op("mincount_s", "mincount", _cli(argv),
                                          _check_mincount(d), d)])

    return Workload(
        name="audit", threads="1",
        slots={"op1_s": "audit_s", "op2_s": "mincount_s",
               "op3_s": "audit_pairwise_s"},
        inputs={"models": N_MODELS, "envs": N_ENVS, "mincount_rows": MINCOUNT_ROWS},
        ops=make_ops)


# -- paper -------------------------------------------------------------------

def _check_cmnist(out: Path) -> Callable[[object], list[str]]:
    def check(rc) -> list[str]:
        problems = _rc_ok(rc) + _schema_problems(out / "cmnist_report.json",
                                                 "cmnist_report.schema.json")
        if problems:
            return problems
        report = json.loads((out / "cmnist_report.json").read_text(encoding="utf-8"))
        bad = [e["env"] for e in report["per_env"] if e["verdict"] != "misspecified"]
        if bad:
            problems.append(f"grid envs not misspecified: {bad}")
        rows = (out / "cmnist_table.csv").read_text(encoding="utf-8").splitlines()[1:]
        if len(rows) != CMNIST_MODELS:
            problems.append(f"cmnist_table.csv has {len(rows)} rows")
        return problems
    return check


def _check_zero_measure(res) -> list[str]:
    fr = res.fractions
    problems = []
    if any(a > b for a, b in zip(fr, fr[1:])):
        problems.append(f"fractions {fr} not nondecreasing")
    if fr[0] > 1.0 / res.trials:
        problems.append(f"fraction at eps=0 is {fr[0]} > 1/trials")
    return problems


def lemma1_seed(train_seed: int, heldout_seed: int) -> tuple[float, float]:
    """Held-out risks (full, domain-general) for one lemma-1 seed."""
    spec = shiftspec.default_spec()
    train = shiftspec.sample_domain(spec, LEMMA_ROWS, train_seed)
    heldout = shiftspec.sample_domain(spec, LEMMA_ROWS, heldout_seed)
    full = shiftspec.fit_logistic(train, shiftspec.Mask.FULL, 1e-3)
    dg = shiftspec.fit_logistic(train, shiftspec.Mask.DOMAIN_GENERAL, 1e-3)
    return (shiftspec.evaluate_risk(full, heldout, 1e-3),
            shiftspec.evaluate_risk(dg, heldout, 1e-3))


def _finite_risks(risks) -> list[str]:
    return [] if all(np.isfinite(risks)) else [f"non-finite risks {risks}"]


def _check_lemma_pass(ops: list[Op], values: list[object]) -> list[str]:
    """Lemma 1: the full model wins held-out risk on at least 95% of seeds."""
    risks = [v for op, v in zip(ops, values) if op.name.startswith("lemma1")]
    wins = sum(1 for v in risks if v is not None and v[0] < v[1])
    if wins < 0.95 * len(risks):
        return [op.name for op in ops if op.name.startswith("lemma1")]
    return []


def paper_workload(seed: int, inputs: Path) -> Workload:
    """Default cmnist (twice), criterion 7's zero-measure run, lemma-1 over
    10 seeds and one large random-mode simulate from a config file.

    The seed draws the lemma-1 held-out samples, whose evaluation cost does
    not depend on their values.
    """
    rng = np.random.default_rng([seed, 4])
    heldout_seeds = [int(s) for s in rng.integers(0, 2**31, size=len(LEMMA_SEEDS))]
    config = simulate_config(inputs)

    def make_ops(out: Path) -> list[Op]:
        sim = out / "simulate_random"
        simulate = Op("simulate_random_s", "simulate_random",
                      _cli(["simulate", "--config", str(config), "--seed",
                            str(SIMULATE_SEED), "--out", str(sim)]),
                      _check_simulate(sim, SIM_SHIFTS), sim)
        cmnist = [Op("cmnist_s", f"cmnist_{i}",
                     _cli(["cmnist", "--out", str(out / f"cmnist_{i}")]),
                     _check_cmnist(out / f"cmnist_{i}"), out / f"cmnist_{i}")
                  for i in range(CMNIST_CALLS)]
        zero_measure = Op("zero_measure_s", "zero_measure",
                          lambda: shiftspec.zero_measure_experiment(
                              shiftspec.default_spec(), ZERO_MEASURE_EPS,
                              trials=ZERO_MEASURE_TRIALS, n_per_domain=1000,
                              seed=ZERO_MEASURE_SEED, delta=0.5),
                          _check_zero_measure)
        long_ops = [cmnist[0], zero_measure, cmnist[1], simulate]
        lemma = [Op("lemma1_s", f"lemma1_{s}", lambda s=s, h=h: lemma1_seed(s, h),
                    _finite_risks)
                 for s, h in zip(LEMMA_SEEDS, heldout_seeds)]
        return interleave(lemma, long_ops)

    return Workload(
        name="paper", threads=None,
        slots={"op1_s": "cmnist_s", "op2_s": "zero_measure_s",
               "op3_s": "lemma1_s"},
        inputs={"zero_measure_trials": ZERO_MEASURE_TRIALS,
                "lemma1_seeds": len(LEMMA_SEEDS), "lemma1_rows": LEMMA_ROWS,
                "n_shifts": SIM_SHIFTS, "n_per_domain": SIM_ROWS},
        ops=make_ops, check_pass=_check_lemma_pass)


WORKLOADS = {"audit": audit_workload, "paper": paper_workload}
