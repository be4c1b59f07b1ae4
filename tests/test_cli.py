import configparser
import hashlib
import io
import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from xml.dom import minidom

import numpy as np
import pytest

from shiftspec.cli import main
from shiftspec.config import _TABLE, default_config, dumps_config
from shiftspec.core import LinearShift, MixtureShift, default_spec
from shiftspec.ingest import (AccuracyTable, TableRow, load_accuracy_table,
                              save_accuracy_table)
from shiftspec.report import load_schema, validate_schema


@pytest.fixture()
def small_config(tmp_path):
    cfg = default_config()
    cfg = replace(cfg, sweep=replace(cfg.sweep, n_shifts=12, n_per_domain=300))
    path = tmp_path / "cfg.ini"
    path.write_text(dumps_config(cfg), encoding="utf-8")
    return path


@pytest.fixture()
def identity_table(tmp_path):
    rows = [TableRow(f"m{i}", (float(a), float(a)))
            for i, a in enumerate(np.linspace(0.55, 0.95, 12))]
    table = AccuracyTable(env_names=("env_id", "env_ood"), rows=tuple(rows))
    path = tmp_path / "identity.csv"
    save_accuracy_table(table, path)
    return path


@pytest.fixture()
def inverse_table(tmp_path):
    # pairs from a simulated sweep under a reversing shift
    from shiftspec.conditions import classifier_sweep, sweep_pairs
    spec = default_spec()
    models = classifier_sweep(spec, 600, seed=3,
                              reliance_grid=np.geomspace(1e-3, 1e3, 9),
                              n_seeds=2)
    id_acc, ood_acc = sweep_pairs(models, spec, LinearShift(-np.eye(2)))
    rows = tuple(TableRow(f"model_{i:04d}", pair) for i, pair
                 in enumerate(zip(id_acc.tolist(), ood_acc.tolist())))
    table = AccuracyTable(env_names=("env_id", "env_ood"), rows=rows)
    path = tmp_path / "inverse.csv"
    save_accuracy_table(table, path)
    return path


class TestSimulate:
    def test_csv_row_count_and_schema(self, small_config, tmp_path):
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(small_config), "--seed", "2",
                   "--out", str(out)])
        assert rc == 0
        lines = (out / "simulate.csv").read_text().strip().splitlines()
        assert len(lines) == 13  # header + one row per shift
        payload = json.loads((out / "simulate_report.json").read_text())
        assert validate_schema(payload, load_schema("simulate_report.schema.json")) == []
        assert (out / "simulate.svg").read_text().startswith("<svg")

    def test_byte_identical_reruns(self, small_config, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(small_config), "--seed", "5",
              "--out", str(out_a)])
        main(["simulate", "--config", str(small_config), "--seed", "5",
              "--out", str(out_b)])
        assert (out_a / "simulate.csv").read_bytes() == \
            (out_b / "simulate.csv").read_bytes()
        assert (out_a / "simulate_report.json").read_bytes() == \
            (out_b / "simulate_report.json").read_bytes()

    def test_default_report_counts(self, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", "--seed", "11", "--out", str(out)]) == 0
        payload = json.loads((out / "simulate_report.json").read_text())
        assert payload["margin_negative_count"] == 6
        assert payload["dg_wins_given_margin_negative"] == 6
        assert payload["theorem2_agreement_count"] == 6

    def test_missing_config_is_input_error(self, tmp_path):
        rc = main(["simulate", "--config", str(tmp_path / "nope.ini"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_interpolation_mode_gap_is_small(self, tmp_path):
        cfg = default_config()
        cfg = replace(cfg, sweep=replace(cfg.sweep, ood_mode="interpolation",
                                         n_shifts=25, n_per_domain=800))
        path = tmp_path / "interp.ini"
        path.write_text(dumps_config(cfg), encoding="utf-8")
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(path), "--seed", "5",
                   "--out", str(out)])
        assert rc == 0
        payload = json.loads((out / "simulate_report.json").read_text())
        assert payload["ood_mode"] == "interpolation"
        assert payload["mean_abs_gap"] < 0.03

    @pytest.mark.parametrize("id_shift, digest", [
        (MixtureShift(((0.3, np.diag([1.5, 0.5])),
                       (0.7, np.array([[-1.0, 0.4], [0.2, -2.0]])))),
         "af7ddbe525f8d865ae4eb6ffc20cc0b35f9f610f59b020da8e543352408de117"),
        (LinearShift(np.array([[1.0, 0.2], [0.0, -0.5]])),
         "3a10dcbf05bfc74ab09600c0c70d8122d653213aebafab6a30fc1a6c0683a553"),
    ], ids=["mixture_id", "linear_id"])
    def test_interpolation_csv_bytes_pinned(self, id_shift, digest, tmp_path):
        # the ID mixture's own components, or the default ones for a linear ID
        cfg = default_config()
        cfg = replace(cfg, domain=cfg.domain.with_shift(id_shift),
                      sweep=replace(cfg.sweep, ood_mode="interpolation",
                                    n_shifts=12, n_per_domain=300))
        path = tmp_path / "interp.ini"
        path.write_text(dumps_config(cfg), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--seed", "5",
                     "--out", str(out)]) == 0
        csv = (out / "simulate.csv").read_bytes()
        assert hashlib.sha256(csv).hexdigest() == digest

    @pytest.mark.parametrize("n_shifts, n_per_domain, digests", [
        (None, None,
         {"simulate.csv": "d40e6d3fdd90af744a519b74e60d958cfbffd2fab2f8401a458c74442206fb75",
          "simulate_report.json": "66d4f3c1101ba076a135cda580a25971bdc57b8baceaab3ceb067205c63ebd96",
          "simulate.svg": "3fc7e73ecd69d1e1fa2b3b3a527d43fbd933f29430283d8635ff57f001d65605"}),
        (200, 5000,
         {"simulate.csv": "72bee502e93e9d7f5b3a3987257af80253993df04afc354e5a4d55687893ce8b",
          "simulate_report.json": "33c99d0458ae25f8fbec4a6a2bb33e7a2dd9697c6bb59f37f56a779cba59e258",
          "simulate.svg": "1acb991d44f7434d563b4dacb6e148715e1926e6b95b4a73dfc90fcfd3a7f750"}),
    ], ids=["readme_example", "200_shifts"])
    def test_random_mode_bytes_pinned(self, n_shifts, n_per_domain, digests,
                                      tmp_path):
        # the README example (default config) and the 200 x 5000 sweep, seed 11
        argv = ["simulate", "--seed", "11", "--out", str(tmp_path / "out")]
        if n_shifts is not None:
            cfg = default_config()
            cfg = replace(cfg, sweep=replace(cfg.sweep, n_shifts=n_shifts,
                                             n_per_domain=n_per_domain))
            path = tmp_path / "random.ini"
            path.write_text(dumps_config(cfg), encoding="utf-8")
            argv += ["--config", str(path)]
        assert main(argv) == 0
        assert {name: hashlib.sha256((tmp_path / "out" / name).read_bytes())
                .hexdigest() for name in digests} == digests

    @staticmethod
    def _scaled_config(tmp_path, shift_scale, n_shifts=50):
        cfg = default_config()
        cfg = replace(cfg, sweep=replace(cfg.sweep, shift_scale=shift_scale,
                                         n_shifts=n_shifts, n_per_domain=300))
        path = tmp_path / "scaled.ini"
        path.write_text(dumps_config(cfg), encoding="utf-8")
        return path

    @pytest.mark.parametrize("shift_scale", [1e-300, 5e-324])
    def test_tiny_shift_scale_plots_few_ticks(self, shift_scale, tmp_path):
        # the axis spans ~1e-300 (or a subnormal) around zero
        out = tmp_path / "out"
        assert main(["simulate", "--config",
                     str(self._scaled_config(tmp_path, shift_scale)),
                     "--out", str(out)]) == 0
        svg = (out / "simulate.svg").read_text()
        x_ticks = svg.count('y1="410.00" x2=')
        y_ticks = svg.count('<line x1="65.00"')
        assert x_ticks <= 20 and y_ticks <= 20
        assert y_ticks > 0

    @pytest.mark.parametrize("shift_scale", [1e154, 1e160, 1e200])
    def test_overflowing_shift_scale_is_numeric_error(self, shift_scale,
                                                      tmp_path, capsys):
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["simulate", "--config",
                       str(self._scaled_config(tmp_path, shift_scale)),
                       "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "is not finite" in err and "overflow float64" in err
        assert not (out / "simulate.csv").exists()

    def test_overflowing_id_shift_is_one_numeric_error_line(self, tmp_path):
        # m sigma_e m' overflows while the training rows are sampled
        text = dumps_config(default_config()).replace(
            "variant = identity", "variant = linear\nmatrix = 1e160, 0; 0, 1")
        path = tmp_path / "id_shift.ini"
        path.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        proc = subprocess.run([sys.executable, "-m", "shiftspec.cli", "simulate",
                               "--config", str(path), "--out", str(out)],
                              capture_output=True, text=True)
        assert proc.returncode == 3
        assert proc.stderr == ("error: shifted sigma_e is not finite: "
                               "the ID shift overflows float64\n")
        assert not out.exists()

    def test_overflowing_fit_is_one_numeric_error_line(self, tmp_path):
        # the sampled rows are finite, but X' X overflows in the fit
        text = dumps_config(default_config()).replace(
            "variant = identity", "variant = linear\nmatrix = 1e154, 0; 0, 1")
        path = tmp_path / "fit_overflow.ini"
        path.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        proc = subprocess.run([sys.executable, "-m", "shiftspec.cli", "simulate",
                               "--config", str(path), "--out", str(out)],
                              capture_output=True, text=True)
        assert proc.returncode == 3
        assert proc.stderr == ("error: diverged: the fit's products overflow "
                               "float64\n")
        assert not out.exists()

    @pytest.mark.parametrize("ood_mode", ["random", "interpolation"])
    def test_one_kernel_and_svd_call_for_all_shifts(self, ood_mode, tmp_path,
                                                    monkeypatch):
        from shiftspec import conditions
        calls = {"kernel": 0, "svd": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(conditions, "_accuracy_kernel",
                            counted("kernel", conditions._accuracy_kernel))
        monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
        for n_shifts in (10, 100):
            calls.update(kernel=0, svd=0)
            cfg = default_config()
            cfg = replace(cfg, sweep=replace(cfg.sweep, n_shifts=n_shifts,
                                             n_per_domain=300,
                                             ood_mode=ood_mode))
            path = tmp_path / f"{n_shifts}.ini"
            path.write_text(dumps_config(cfg), encoding="utf-8")
            assert main(["simulate", "--config", str(path),
                         "--out", str(tmp_path / f"out{n_shifts}")]) == 0
            assert calls == {"kernel": 1, "svd": 1}

    @pytest.mark.parametrize("text", [
        "k = 2\n",
        "[domain]\nk = 2\nk = 3\n",
        dumps_config(default_config()).replace("n_shifts = 50", "n_shifts = 0"),
        dumps_config(default_config()).replace("n_per_domain = 1000",
                                               "n_per_domain = 0"),
        dumps_config(default_config()).replace("n_shifts = 50", "n_shift = 3"),
        dumps_config(default_config()).replace("[sweep]", "[sweeps]"),
        dumps_config(default_config()).replace("tol = 1e-08", "tol = -1"),
        dumps_config(default_config()).replace("l2 = 0.001", "l2 = -1"),
        dumps_config(default_config()).replace("max_iters = 10000",
                                               "max_iters = 0"),
        dumps_config(default_config()).replace("mu_c = 1.0, 1.0",
                                               "mu_c = 1.0, 1.0, 1.0"),
        dumps_config(default_config()).replace("label_prior = 0.5",
                                               "label_prior = 1.5"),
        dumps_config(default_config()).replace("delta = 0.5", "delta = 1.5"),
        dumps_config(default_config()).replace("shift_scale = 2.0",
                                               "shift_scale = -1"),
        dumps_config(default_config()).replace("delta = 0.5",
                                               "delta = 0.5\nkappa = 1.0"),
        dumps_config(default_config()).replace(
            "ood_mode = random", "ood_mode = interpolation\n"
            "base_components = 1.5, 0.0; 0.0, 1.5"),
        dumps_config(default_config()).replace(
            "variant = identity", "variant = mixture\n"
            "components = nan : 1,0;0,1 | 1.0 : -1,0;0,-1"),
        dumps_config(default_config()).replace("mu_e = 1.0, 1.0",
                                               "mu_e = inf, 1.0"),
        dumps_config(default_config()).replace("mu_c = 1.0, 1.0",
                                               "mu_c = nan, 1.0"),
        dumps_config(default_config()).replace(
            "variant = identity", "variant = linear\nmatrix = 1, 0; nan, 1"),
        dumps_config(default_config()).replace(
            "ood_mode = random", "ood_mode = interpolation\n"
            "base_components = 1,0;0,1 | nan,0;0,1"),
    ], ids=["no_section_header", "duplicate_key", "zero_shifts",
            "zero_per_domain", "unknown_key", "unknown_section",
            "negative_tol", "negative_l2", "zero_max_iters", "mu_c_length",
            "label_prior", "delta", "negative_shift_scale", "deleted_key",
            "one_interpolation_component", "nan_mixture_weight", "inf_mu_e",
            "nan_mu_c", "nan_linear_matrix", "nan_base_component"])
    def test_bad_config_is_one_line_input_error(self, text, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text(text, encoding="utf-8")
        rc = main(["simulate", "--config", str(path),
                   "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("old, new, message", [
        ("variant = identity", "variant = linear\nmatrix = 1,0;0",
         "[domain.shift] matrix = '1,0;0': rows must have equal length"),
        ("mu_c = 1.0, 1.0", "mu_c = 1, x",
         "[domain] mu_c = '1, x': expected numbers separated by ','"),
        ("sigma_e = 1.0, 0.0; 0.0, 1.0", "sigma_e = 1, 0; 0, one",
         "[domain] sigma_e = '1, 0; 0, one': expected numbers separated by ','"),
        ("variant = identity", "variant = mixture\ncomponents = x : 1,0;0,1",
         "[domain.shift] components = 'x : 1,0;0,1': mixture weight 'x' is "
         "not a number"),
        ("ood_mode = random", "ood_mode = interpolation\n"
         "base_components = 1,0;0,1 | 1,0;0",
         "[sweep] base_components = '1,0;0,1 | 1,0;0': rows must have equal "
         "length"),
    ], ids=["ragged_matrix", "vector_word", "matrix_word", "mixture_weight",
            "ragged_base_component"])
    def test_bad_config_value_names_its_key(self, old, new, message, tmp_path,
                                            capsys):
        path = tmp_path / "bad.ini"
        path.write_text(dumps_config(default_config()).replace(old, new),
                        encoding="utf-8")
        rc = main(["simulate", "--config", str(path),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    # (section, key, text, reason, other keys the case sets): one text per
    # key that does not parse and, where the key has a range, one outside it
    BAD_VALUES = [
        ("domain", "k", "two", "expected an integer", {}),
        ("domain", "k", "0", "must be at least 1", {}),
        ("domain", "l", "2.0", "expected an integer", {}),
        ("domain", "l", "-1", "must be at least 1", {}),
        ("domain", "mu_c", "1, one", "expected numbers separated by ','", {}),
        ("domain", "sigma_c", "1, 0; 0", "rows must have equal length", {}),
        ("domain", "mu_e", "", "expected numbers separated by ','", {}),
        ("domain", "sigma_e", "1, 0; x, 1", "expected numbers separated by ','",
         {}),
        ("domain", "label_prior", "half", "expected a number", {}),
        ("domain.shift", "variant", "quadratic",
         "must be 'identity', 'linear' or 'mixture'", {}),
        ("domain.shift", "matrix", "1,0;0", "rows must have equal length",
         {"variant": "linear"}),
        ("domain.shift", "components", "1,0;0,1",
         "mixture component '1,0;0,1' is not of the form 'weight : matrix'",
         {"variant": "mixture"}),
        ("bounds", "delta", "half", "expected a number", {}),
        ("bounds", "delta", "1.5", "must lie in (0, 1)", {}),
        ("optimizer", "tol", "tiny", "expected a number", {}),
        ("optimizer", "tol", "nan", "must be positive and finite", {}),
        ("optimizer", "max_iters", "1.5", "expected an integer", {}),
        ("optimizer", "max_iters", "0", "must be at least 1", {}),
        ("optimizer", "l2", "1e-3x", "expected a number", {}),
        ("optimizer", "l2", "-1", "must be nonnegative and finite", {}),
        ("optimizer", "bias", "maybe", "expected true or false", {}),
        ("sweep", "n_shifts", "fifty", "expected an integer", {}),
        ("sweep", "n_shifts", "-3", "must be at least 1", {}),
        ("sweep", "shift_scale", "2,0", "expected a number", {}),
        ("sweep", "shift_scale", "inf", "must be positive and finite", {}),
        ("sweep", "n_per_domain", "1e3", "expected an integer", {}),
        ("sweep", "n_per_domain", "0", "must be at least 1", {}),
        ("sweep", "ood_mode", "sideways", "must be 'random' or 'interpolation'",
         {}),
        ("sweep", "base_components", "1,0;0,1 | 1,0;0",
         "rows must have equal length", {}),
    ]

    @staticmethod
    def _config_with(section, values) -> str:
        """The default config text with section's keys set to values."""
        cp = configparser.ConfigParser(interpolation=None)
        cp.optionxform = str
        cp.read_string(dumps_config(default_config()))
        for key, text in values.items():
            cp[section][key] = text
        out = io.StringIO()
        cp.write(out)
        return out.getvalue()

    def _simulate_text(self, text, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text(text, encoding="utf-8")
        rc = main(["simulate", "--config", str(path),
                   "--out", str(tmp_path / "o")])
        return rc, capsys.readouterr().err

    def test_bad_values_cover_every_config_key(self):
        covered = {(section, key) for section, key, *_ in self.BAD_VALUES}
        assert covered == {(section, key) for section, keys in _TABLE.items()
                           for key in keys}

    @pytest.mark.parametrize("section, key, text, reason, others", BAD_VALUES,
                             ids=[f"{key}={text}" for _, key, text, *_
                                  in BAD_VALUES])
    def test_bad_value_is_one_line_naming_its_key(self, section, key, text,
                                                  reason, others, tmp_path,
                                                  capsys):
        config = self._config_with(section, {**others, key: text})
        rc, err = self._simulate_text(config, tmp_path, capsys)
        assert rc == 2
        assert err == f"error: [{section}] {key} = {text!r}: {reason}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("values, key", [
        ({"variant": "identity", "matrix": "1, 0; 0, 1"}, "matrix"),
        ({"variant": "linear", "matrix": "-1, 0; 0, -1",
          "components": "1.0 : 1, 0; 0, 1"}, "components"),
        ({"variant": "mixture", "components": "1.0 : -1, 0; 0, -1",
          "matrix": "1, 0; 0, 1"}, "matrix"),
    ], ids=["identity_matrix", "linear_components", "mixture_matrix"])
    def test_shift_key_its_variant_does_not_read_is_named(self, values, key,
                                                          tmp_path, capsys):
        config = self._config_with("domain.shift", values)
        rc, err = self._simulate_text(config, tmp_path, capsys)
        assert rc == 2
        assert err == (f"error: [domain.shift] {key} is not read by variant "
                       f"{values['variant']!r}\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("variant, key", [("linear", "matrix"),
                                              ("mixture", "components")])
    def test_shift_key_its_variant_reads_is_required(self, variant, key,
                                                     tmp_path, capsys):
        config = self._config_with("domain.shift", {"variant": variant})
        rc, err = self._simulate_text(config, tmp_path, capsys)
        assert rc == 2
        assert err == (f"error: [domain.shift] {key} is missing: variant "
                       f"{variant!r} reads it\n")
        assert not (tmp_path / "o").exists()

    def test_unconverged_fit_is_numeric_error(self, tmp_path, capsys):
        text = dumps_config(default_config()).replace("max_iters = 10000",
                                                      "max_iters = 1")
        path = tmp_path / "iters.ini"
        path.write_text(text, encoding="utf-8")
        rc = main(["simulate", "--config", str(path),
                   "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("error: not converged") and err.count("\n") == 1

    def test_documented_domain_defaults_match_no_config(self, tmp_path):
        path = tmp_path / "domain.ini"
        path.write_text("[domain]\nk = 2\nl = 2\nmu_c = 1.0, 1.0\n"
                        "sigma_c = 1.0, 0.0; 0.0, 1.0\nmu_e = 1.0, 1.0\n"
                        "sigma_e = 1.0, 0.0; 0.0, 1.0\nlabel_prior = 0.5\n",
                        encoding="utf-8")
        out_cfg, out_none = tmp_path / "cfg", tmp_path / "none"
        assert main(["simulate", "--config", str(path), "--seed", "11",
                     "--out", str(out_cfg)]) == 0
        assert main(["simulate", "--seed", "11", "--out", str(out_none)]) == 0
        for name in ("simulate.csv", "simulate_report.json", "simulate.svg"):
            assert (out_cfg / name).read_bytes() == (out_none / name).read_bytes()


class TestAudit:
    def test_identity_line_is_misspecified(self, identity_table, tmp_path):
        out = tmp_path / "out"
        rc = main(["audit", "--table", str(identity_table), "--mode", "pairwise",
                   "--id-env", "env_id", "--ood-env", "env_ood",
                   "--out", str(out)])
        assert rc == 0
        payload = json.loads((out / "audit_report.json").read_text())
        assert validate_schema(payload, load_schema("audit_report.schema.json")) == []
        assert payload["verdict"] == "misspecified"
        assert payload["fit"]["pearson_r"] == pytest.approx(1.0, abs=1e-9)
        csv = (out / "audit_row.csv").read_text().splitlines()
        assert csv[0] == "slope,offset,R,p-value,std error"

    def test_inverse_line_is_well_specified(self, inverse_table, tmp_path):
        out = tmp_path / "out"
        rc = main(["audit", "--table", str(inverse_table), "--mode", "pairwise",
                   "--id-env", "env_id", "--ood-env", "env_ood",
                   "--out", str(out)])
        assert rc == 0
        payload = json.loads((out / "audit_report.json").read_text())
        assert payload["verdict"] == "well_specified"
        assert payload["fit"]["pearson_r"] < -0.9

    def test_loo_mode(self, tmp_path):
        rows = tuple(TableRow(f"m{i}", (float(a), float(a) * 0.9, float(a) * 0.8))
                     for i, a in enumerate(np.linspace(0.5, 0.95, 10)))
        table = AccuracyTable(env_names=("e0", "e1", "e2"), rows=rows)
        path = tmp_path / "t.csv"
        save_accuracy_table(table, path)
        rc = main(["audit", "--table", str(path), "--mode", "loo",
                   "--ood-env", "e2", "--out", str(tmp_path / "out")])
        assert rc == 0

    def test_unknown_env_names_it(self, identity_table, tmp_path, capsys):
        rc = main(["audit", "--table", str(identity_table),
                   "--ood-env", "env_42", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "env_42" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--mode", "loo", "--ood-env", "e2"],
        ["--mode", "loo", "--ood-env", "e3"],
        ["--mode", "pairwise", "--id-env", "e0", "--ood-env", "e1"],
        ["--mode", "pairwise", "--id-env", "e1", "--ood-env", "e2"],
    ], ids=["loo_half", "loo", "pairwise", "pairwise_half"])
    def test_definition6_matches_least_squares(self, argv, tmp_path):
        from scipy.special import ndtri
        rng = np.random.default_rng(5)
        acc = np.column_stack([rng.uniform(0.3, 0.95, 12),
                               np.r_[0.0, 1.0, rng.uniform(0.2, 0.9, 10)],
                               np.full(12, 0.5), rng.uniform(0.1, 0.99, 12)])
        names = ("e0", "e1", "e2", "e3")
        path = tmp_path / "t.csv"
        save_accuracy_table(AccuracyTable(names, tuple(
            TableRow(f"m{i}", tuple(row)) for i, row in enumerate(acc.tolist()))),
            path)
        out = tmp_path / "out"
        assert main(["audit", "--table", str(path), *argv,
                     "--out", str(out)]) == 0
        ood = names.index(argv[argv.index("--ood-env") + 1])
        if "--id-env" in argv:
            id_acc = acc[:, names.index(argv[argv.index("--id-env") + 1])]
        else:
            id_acc = np.delete(acc, ood, axis=1).mean(axis=1)
        x, y = ndtri(np.clip([id_acc, acc[:, ood]], 1e-4, 1.0 - 1e-4))
        a = np.linalg.lstsq(y[:, None], x, rcond=None)[0][0]
        got = json.loads((out / "audit_report.json").read_text())["definition6"]
        assert got["a"] == pytest.approx(a, rel=1e-12, abs=1e-12)
        assert got["epsilon"] == pytest.approx(np.max(np.abs(x - a * y)),
                                               rel=1e-12, abs=1e-12)
        if ood == 2:
            assert got["a"] == 0.0

    def test_degenerate_table_is_numeric_error(self, tmp_path):
        rows = tuple(TableRow(f"m{i}", (0.7, float(a)))
                     for i, a in enumerate(np.linspace(0.4, 0.9, 8)))
        path = tmp_path / "flat.csv"
        save_accuracy_table(AccuracyTable(("env_id", "env_ood"), rows), path)
        rc = main(["audit", "--table", str(path), "--mode", "pairwise",
                   "--id-env", "env_id", "--ood-env", "env_ood",
                   "--out", str(tmp_path / "out")])
        assert rc == 3


@pytest.mark.parametrize("command", ["audit", "simulate"])
def test_svg_is_well_formed_xml(command, small_config, tmp_path):
    # env names come from the user's header; simulate's x label holds a "<"
    ood = 'R&D <v2> "b"'
    out = tmp_path / "out"
    if command == "audit":
        rows = tuple(TableRow(f"m{i}", (float(a), float(a) ** 2))
                     for i, a in enumerate(np.linspace(0.55, 0.95, 12)))
        path = tmp_path / "t.csv"
        save_accuracy_table(AccuracyTable(("env_id", ood), rows), path)
        argv = ["audit", "--table", str(path), "--ood-env", ood]
    else:
        argv = ["simulate", "--config", str(small_config)]
    assert main(argv + ["--out", str(out)]) == 0
    svg, = out.glob("*.svg")
    doc = minidom.parse(str(svg))
    texts = [t.firstChild.data for t in doc.getElementsByTagName("text")]
    if command == "audit":
        assert texts[0] == f"ID vs OOD accuracy (probit scale), OOD={ood}"
    else:
        assert "w_e . M mu_e (dark points: reversal margin < 0)" in texts


class TestMincount:
    def test_stable_stream(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.uniform(0.55, 0.9, 200)
        rows = tuple(TableRow(f"m{i}", (float(a), float(a)))
                     for i, a in enumerate(x))
        path = tmp_path / "stable.csv"
        save_accuracy_table(AccuracyTable(("e0", "e1"), rows), path)
        out = tmp_path / "out"
        rc = main(["mincount", "--table", str(path), "--ood-env", "e1",
                   "--resamples", "150", "--out", str(out)])
        assert rc == 0
        payload = json.loads((out / "mincount_report.json").read_text())
        assert validate_schema(payload, load_schema("mincount_report.schema.json")) == []
        assert payload["reached"] is True
        assert payload["minimum_models"] == 10
        assert (out / "mincount.csv").read_text().splitlines()[1] == "10,200"

    def test_zero_tolerance_not_reached(self, tmp_path):
        rng = np.random.default_rng(1)
        a = rng.uniform(0.5, 0.9, 150)
        b = np.clip(a + rng.normal(0, 0.05, 150), 0.01, 0.99)
        rows = tuple(TableRow(f"m{i}", (float(u), float(v)))
                     for i, (u, v) in enumerate(zip(a, b)))
        path = tmp_path / "t.csv"
        save_accuracy_table(AccuracyTable(("e0", "e1"), rows), path)
        out = tmp_path / "out"
        rc = main(["mincount", "--table", str(path), "--ood-env", "e1",
                   "--rel-tol", "1e-12", "--resamples", "150",
                   "--out", str(out)])
        assert rc == 0
        assert "not_reached" in (out / "mincount.csv").read_text()

    def test_too_few_rows(self, tmp_path):
        rows = tuple(TableRow(f"m{i}", (0.5, 0.6)) for i in range(4))
        path = tmp_path / "few.csv"
        save_accuracy_table(AccuracyTable(("e0", "e1"), rows), path)
        rc = main(["mincount", "--table", str(path), "--ood-env", "e1",
                   "--out", str(tmp_path / "out")])
        assert rc == 2

    @pytest.mark.parametrize("flag,value", [
        ("--rel-tol", "0"), ("--confidence", "1.5"), ("--clip-alpha", "0.7"),
        ("--resamples", "10"), ("--start", "0"), ("--step", "0"),
    ])
    def test_bad_argument_is_input_error(self, flag, value, tmp_path, capsys):
        rows = tuple(TableRow(f"m{i}", (float(a), float(a)))
                     for i, a in enumerate(np.linspace(0.55, 0.95, 30)))
        path = tmp_path / "t.csv"
        save_accuracy_table(AccuracyTable(("e0", "e1"), rows), path)
        rc = main(["mincount", "--table", str(path), "--ood-env", "e1",
                   flag, value, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_zero_variance_bases_warn_nothing(self, tmp_path, capsys):
        # at size 1 every base has zero variance, so every delta is infinite
        # and the quantile interpolates inf - inf
        rng = np.random.default_rng(2)
        a = rng.uniform(0.5, 0.9, 300)
        rows = tuple(TableRow(f"m{i}", (float(u), float(v)))
                     for i, (u, v) in enumerate(zip(a, a + 0.05)))
        path = tmp_path / "t.csv"
        save_accuracy_table(AccuracyTable(("e0", "e1"), rows), path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["mincount", "--table", str(path), "--ood-env", "e1",
                       "--start", "1", "--step", "50", "--resamples", "100",
                       "--out", str(tmp_path / "out")])
        assert rc == 0
        assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["audit", "cmnist"])
@pytest.mark.parametrize("flag,value", [
    ("--threshold", "nan"), ("--threshold", "inf"), ("--threshold", "-1"),
    ("--clip-alpha", "0.7"), ("--clip-alpha", "1e-20")])
def test_bad_audit_argument_is_input_error(command, flag, value,
                                           identity_table, tmp_path, capsys):
    argv = [command, f"{flag}={value}", "--out", str(tmp_path / "out")]
    if command == "audit":
        argv += ["--table", str(identity_table), "--ood-env", "env_ood"]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["audit", "mincount"])
@pytest.mark.parametrize("header", ["model_id,e0,e1,e1",
                                    "model_id,e0,e1,meta_x,meta_x"])
def test_duplicate_header_column_is_input_error(command, header, tmp_path,
                                                capsys):
    rows = [f"m{i},{a:.3f},{a:.3f},{a:.3f}"
            for i, a in enumerate(np.linspace(0.55, 0.95, 30))]
    path = tmp_path / "t.csv"
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    rc = main([command, "--table", str(path), "--ood-env", "e1",
               "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "duplicate column" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["audit", "--mode", "loo"],
    ["audit", "--mode", "pairwise", "--id-env", "env_id"],
    ["mincount", "--resamples", "100"]])
def test_table_commands_build_no_table_rows(argv, identity_table, tmp_path,
                                            monkeypatch):
    built = []
    init = TableRow.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(TableRow, "__init__", counting_init)
    rc = main([*argv, "--table", str(identity_table), "--ood-env", "env_ood",
               "--out", str(tmp_path / "out")])
    assert rc == 0
    assert built == []
    # the counter sees rows that are read
    assert len(load_accuracy_table(identity_table).rows) == len(built) == 12


@pytest.mark.parametrize("command", ["audit", "mincount"])
def test_unknown_env_lists_quoted_names(command, tmp_path, capsys):
    path = tmp_path / "t.csv"
    path.write_text("model_id, e0,e1\nm1,0.5,0.25\nm2,0.75,0.5\n",
                    encoding="utf-8")
    out = tmp_path / "out"
    rc = main([command, "--table", str(path), "--ood-env", "e0",
               "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == ("error: unknown environment 'e0'; "
                   "available: ' e0', 'e1'\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "audit", "mincount", "cmnist"])
def test_unwritable_out_is_input_error(command, identity_table, tmp_path,
                                       capsys):
    blocker = tmp_path / "t.csv"
    blocker.write_text("not a directory\n", encoding="utf-8")
    argv = [command, "--out", str(blocker / "sub")]
    if command in ("audit", "mincount"):
        argv += ["--table", str(identity_table), "--ood-env", "env_ood"]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1


class TestCmnist:
    def test_hi_grid_report(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["cmnist", "--train-pe", "0.9",
                   "--test-grid", "0.8,0.9,0.99", "--n-train", "1500",
                   "--seeds-per-sigma", "1", "--seed", "3",
                   "--out", str(out)])
        assert rc == 0
        payload = json.loads((out / "cmnist_report.json").read_text())
        assert validate_schema(payload, load_schema("cmnist_report.schema.json")) == []
        assert all(e["pearson_r"] > 0.9 for e in payload["per_env"])
        assert (out / "cmnist_table.csv").exists()
        assert (out / "cmnist_scatter.svg").exists()

    def test_lo_grid_inverse_line(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["cmnist", "--train-pe", "0.9",
                   "--test-grid", "0.01,0.1,0.2", "--n-train", "1500",
                   "--seeds-per-sigma", "1", "--seed", "3",
                   "--out", str(out)])
        assert rc == 0
        payload = json.loads((out / "cmnist_report.json").read_text())
        assert all(e["pearson_r"] < -0.9 for e in payload["per_env"])
        assert all(e["verdict"] == "well_specified" for e in payload["per_env"])

    def test_degenerate_grid(self, tmp_path):
        rc = main(["cmnist", "--test-grid", "0.5",
                   "--out", str(tmp_path / "out")])
        assert rc == 3

    @pytest.mark.parametrize("grid", ["0.8,0.8000001,0.9", "0.8,0.9,0.8"])
    def test_colliding_grid_columns(self, grid, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["cmnist", "--test-grid", grid, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: test grid names column 'p_0.8' twice")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_bad_probability(self, tmp_path):
        rc = main(["cmnist", "--train-pe", "1.4",
                   "--out", str(tmp_path / "out")])
        assert rc == 2

    @pytest.mark.parametrize("exc", [
        MemoryError("Unable to allocate 745. GiB for an array with\n"
                    "shape (100000000000, 2) and data type float64"),
        MemoryError()], ids=["numpy_message", "bare"])
    def test_out_of_memory_is_one_line_numeric_error(self, exc, tmp_path,
                                                     capsys, monkeypatch):
        # raised, never allocated: a real 745 GiB request can exhaust the host
        def exhausted(*args, **kwargs):
            raise exc

        monkeypatch.setattr("shiftspec.cli.cmnist_model_table", exhausted)
        out = tmp_path / "out"
        rc = main(["cmnist", "--n-train", "100000000000", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("error: out of memory") and err.count("\n") == 1
        assert not out.exists()

    def test_default_outputs_pinned(self, tmp_path):
        out = tmp_path / "out"
        assert main(["cmnist", "--out", str(out)]) == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in ("cmnist_table.csv", "cmnist_report.json")}
        assert digests == {
            "cmnist_table.csv":
                "05f226fdbea4d1d15325a4e33ac3ec382a0761c0f4c8d2f0b64e023bed9e06db",
            "cmnist_report.json":
                "2d68ef4f7d6b8662a28053d9cb938a2dddc3d796624cf39e94560d5bf7190161",
        }


def test_thread_count_does_not_change_bytes(small_config, tmp_path):
    env = dict(os.environ)
    outputs = {}
    for threads in ("1", "8"):
        out = tmp_path / f"thr{threads}"
        env["SHIFTSPEC_THREADS"] = threads
        subprocess.run([sys.executable, "-m", "shiftspec.cli", "simulate",
                        "--config", str(small_config), "--seed", "4",
                        "--out", str(out)],
                       env=env, check=True, capture_output=True)
        outputs[threads] = ((out / "simulate.csv").read_bytes(),
                            (out / "simulate_report.json").read_bytes())
    assert outputs["1"] == outputs["8"]


def test_console_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "shiftspec.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "simulate" in proc.stdout
