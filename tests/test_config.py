import re
from pathlib import Path

import numpy as np
import pytest

from shiftspec.config import (OptimizerConfig, RunConfig, SweepConfig,
                              default_config, dumps_config, load_config,
                              parse_config)
from shiftspec.core import (DomainSpec, InputError, LinearShift, MixtureShift,
                            default_spec)
from shiftspec.ingest import AccuracyTable, TableRow, save_accuracy_table


def _domain_text(spec: DomainSpec) -> str:
    """The config text of a spec. Every float is written as its repr, so
    two specs give the same text exactly when their fields are equal."""
    return dumps_config(RunConfig(domain=spec))


def test_default_round_trip():
    cfg = default_config()
    again = parse_config(dumps_config(cfg))
    assert _domain_text(again.domain) == _domain_text(cfg.domain)
    assert again.delta == cfg.delta
    assert again.optimizer == cfg.optimizer
    assert again.sweep == cfg.sweep


def test_round_trip_with_awkward_floats():
    spec = DomainSpec(k=2, l=3,
                      mu_c=np.array([0.1, 1e-17]),
                      sigma_c=np.array([[1.3, 0.1], [0.1, 2.7]]),
                      mu_e=np.array([1 / 3, np.pi, -0.755]),
                      sigma_e=np.diag([1e-8, 2.0, 3.0]),
                      label_prior=0.123456789012345,
                      shift=LinearShift(np.arange(9, dtype=float).reshape(3, 3) / 7))
    cfg = RunConfig(domain=spec, delta=0.05,
                    optimizer=OptimizerConfig(tol=1e-10, max_iters=123,
                                              l2=0.25, bias=True),
                    sweep=SweepConfig(n_shifts=7, shift_scale=0.5,
                                      n_per_domain=333, ood_mode="interpolation"))
    again = parse_config(dumps_config(cfg))
    assert _domain_text(again.domain) == _domain_text(cfg.domain)
    assert again.delta == cfg.delta
    assert again.optimizer == cfg.optimizer
    assert again.sweep == cfg.sweep


def test_mixture_round_trip():
    mats = (np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]))
    shift = MixtureShift(((0.25, mats[0]), (0.75, mats[1])))
    cfg = RunConfig(domain=default_spec().with_shift(shift))
    again = parse_config(dumps_config(cfg))
    assert _domain_text(again.domain) == _domain_text(cfg.domain)


def test_base_components_round_trip():
    comps = (1.5 * np.eye(2), -0.5 * np.eye(2))
    cfg = RunConfig(domain=default_spec(),
                    sweep=SweepConfig(base_components=comps))
    again = parse_config(dumps_config(cfg))
    assert len(again.sweep.base_components) == 2
    assert np.array_equal(again.sweep.base_components[0], comps[0])
    assert np.array_equal(again.sweep.base_components[1], comps[1])


def test_random_specs_round_trip_exactly():
    rng = np.random.default_rng(0)
    for trial in range(50):
        k = int(rng.integers(1, 5))
        l = int(rng.integers(1, 5))
        a_c = rng.standard_normal((k, k))
        a_e = rng.standard_normal((l, l))
        variant = trial % 3
        if variant == 0:
            shift = None
        elif variant == 1:
            shift = LinearShift(rng.uniform(-2, 2, (l, l)))
        else:
            w = rng.uniform(0.1, 1.0, 3)
            w /= w.sum()
            shift = MixtureShift(tuple((float(wi), rng.uniform(-2, 2, (l, l)))
                                       for wi in w))
        spec = DomainSpec(k=k, l=l,
                          mu_c=rng.standard_normal(k),
                          sigma_c=a_c @ a_c.T + 0.1 * np.eye(k),
                          mu_e=rng.standard_normal(l),
                          sigma_e=a_e @ a_e.T + 0.1 * np.eye(l),
                          label_prior=float(rng.uniform(0.05, 0.95)),
                          **({"shift": shift} if shift is not None else {}))
        again = parse_config(dumps_config(RunConfig(domain=spec)))
        assert _domain_text(again.domain) == _domain_text(spec)


def test_crlf_config_file_reads_like_lf(tmp_path):
    text = dumps_config(default_config()).replace(
        "variant = identity", "variant = linear\nmatrix = 1.0, 0.5; 0.0, -1.0")
    path = tmp_path / "run.ini"
    path.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
    assert dumps_config(load_config(path)) == dumps_config(parse_config(text))


def test_byte_order_mark_config_reads_like_plain(tmp_path):
    text = dumps_config(default_config())
    path = tmp_path / "run.ini"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert dumps_config(load_config(path)) == text


def test_missing_domain_section():
    with pytest.raises(ValueError, match="domain"):
        parse_config("[bounds]\nkappa = 1.0\n")


def test_unknown_shift_variant():
    text = dumps_config(default_config()).replace("variant = identity",
                                                  "variant = quadratic")
    with pytest.raises(ValueError, match="variant"):
        parse_config(text)


def test_mixture_component_without_colon_is_quoted():
    text = dumps_config(default_config()).replace(
        "variant = identity", "variant = mixture\ncomponents = abc")
    with pytest.raises(InputError,
                       match="mixture component 'abc' is not of the form "
                             "'weight : matrix'"):
        parse_config(text)


def test_bad_ood_mode():
    text = dumps_config(default_config()).replace("ood_mode = random",
                                                  "ood_mode = sideways")
    with pytest.raises(ValueError, match="ood_mode"):
        parse_config(text)


def test_omitted_sections_and_keys_take_default_config_values():
    text = dumps_config(default_config())
    cfg = default_config()
    domain_only = parse_config(text[:text.index("[bounds]")])
    assert _domain_text(domain_only.domain) == _domain_text(cfg.domain)
    assert (domain_only.delta, domain_only.optimizer, domain_only.sweep) == \
        (cfg.delta, cfg.optimizer, cfg.sweep)
    assert "delta = 0.5\n" in text and "l2 = 0.001\n" in text
    partial = text.replace("delta = 0.5\n", "").replace("l2 = 0.001\n", "")
    assert parse_config(partial).delta == cfg.delta
    assert parse_config(partial).optimizer == cfg.optimizer



@pytest.mark.parametrize("old,new,name", [
    ("n_shifts = 50", "n_shift = 3", "n_shift"),
    ("[sweep]", "[sweeps]", "sweeps"),
    ("variant = identity", "variant = identity\nmatrixx = 1.0", "matrixx"),
    # keys that no command reads are unknown too
    ("delta = 0.5", "delta = 0.5\nkappa = 1e9\nl_phi = -3", "kappa"),
    ("bias = false", "bias = false\nmask = full", "mask"),
    ("ood_mode = random", "ood_mode = random\ntrials = 500", "trials"),
])
def test_unknown_section_or_key_is_named(old, new, name):
    text = dumps_config(default_config())
    assert old in text
    with pytest.raises(ValueError, match=name):
        parse_config(text.replace(old, new))


def test_optional_keys_are_accepted():
    text = dumps_config(default_config()).replace(
        "variant = identity", "variant = linear\nmatrix = 1.0, 0.0; 0.0, -1.0")
    cfg = parse_config(text + "base_components = 1.5, 0.0; 0.0, 1.5\n")
    assert np.array_equal(cfg.domain.shift.m, np.diag([1.0, -1.0]))
    assert len(cfg.sweep.base_components) == 1


def test_readme_config_block_is_the_default_config():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    blocks = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    assert dumps_config(parse_config(blocks[0])) == \
        dumps_config(default_config())


def test_readme_library_block_runs(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    blocks = re.findall(r"## Library use\n\n```python\n(.*?)```", readme,
                        flags=re.S)
    assert len(blocks) == 1
    ids = np.linspace(0.6, 0.95, 12)
    rows = tuple(TableRow(f"m{i}", (a, a - 0.05, 0.5 + 0.4 * (a - 0.6)))
                 for i, a in enumerate(ids))
    save_accuracy_table(AccuracyTable(("env_0", "env_1", "env_2"), rows),
                        tmp_path / "accs.csv")
    monkeypatch.chdir(tmp_path)
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 2
