"""INI-style run configuration: domain spec, optimizer, shift sweep, delta.

Vectors are comma-separated, matrices use ";" between rows, and mixture
components are "weight : matrix" items joined with "|". Floats are written
with repr so a dump/parse round trip reproduces every value exactly.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (DomainSpec, IdentityShift, InputError, LinearShift,
                   MixtureShift, ShiftSpec, default_spec, read_input_text,
                   validate_spec)
from .trainer import OptimizerSettings

DEFAULT_MIXTURE_FACTORS = (1.5, 0.5, -0.5, -1.5)


@dataclass(frozen=True)
class OptimizerConfig:
    tol: float = OptimizerSettings.tol
    max_iters: int = OptimizerSettings.max_iters
    l2: float = 1e-3
    bias: bool = OptimizerSettings.bias


@dataclass(frozen=True)
class SweepConfig:
    n_shifts: int = 50
    shift_scale: float = 2.0
    n_per_domain: int = 1000
    ood_mode: str = "random"  # random | interpolation
    base_components: tuple = ()

    def components_or_default(self, l: int) -> list[np.ndarray]:
        if self.base_components:
            return [np.asarray(m, dtype=np.float64) for m in self.base_components]
        return [f * np.eye(l) for f in DEFAULT_MIXTURE_FACTORS]


@dataclass(frozen=True)
class RunConfig:
    domain: DomainSpec
    # failure probability in the margin certificate; 0.5 keeps the
    # sufficient-condition region populated at the default 50-shift budget,
    # where smaller deltas certify almost no random shift
    delta: float = 0.5
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)


def format_vector(v: np.ndarray) -> str:
    return ", ".join(repr(float(x)) for x in np.asarray(v).ravel())


def format_matrix(m: np.ndarray) -> str:
    return "; ".join(", ".join(repr(float(x)) for x in row)
                     for row in np.asarray(m))


def parse_vector(text: str) -> np.ndarray:
    return np.array([float(tok) for tok in text.split(",")], dtype=np.float64)


def parse_matrix(text: str) -> np.ndarray:
    rows = [r for r in (row.strip() for row in text.split(";")) if r]
    return np.array([[float(tok) for tok in row.split(",")] for row in rows],
                    dtype=np.float64)


def _format_shift(shift: ShiftSpec) -> dict[str, str]:
    if isinstance(shift, IdentityShift):
        return {"variant": "identity"}
    if isinstance(shift, LinearShift):
        return {"variant": "linear", "matrix": format_matrix(shift.m)}
    parts = [f"{repr(float(w))} : {format_matrix(m)}"
             for w, m in shift.components]
    return {"variant": "mixture", "components": " | ".join(parts)}


def _parse_shift(section) -> ShiftSpec:
    variant = section["variant"].strip().lower()
    if variant == "identity":
        return IdentityShift()
    if variant == "linear":
        return LinearShift(parse_matrix(section["matrix"]))
    if variant == "mixture":
        comps = []
        for item in section["components"].split("|"):
            if ":" not in item:
                raise InputError(f"mixture component {item.strip()!r} is not "
                                 "of the form 'weight : matrix'")
            weight_text, matrix_text = item.split(":", 1)
            comps.append((float(weight_text), parse_matrix(matrix_text)))
        return MixtureShift(tuple(comps))
    raise InputError(f"unknown shift variant {variant!r}")


def dumps_config(cfg: RunConfig) -> str:
    cp = configparser.ConfigParser()
    cp.optionxform = str
    spec = cfg.domain
    cp["domain"] = {
        "k": str(spec.k),
        "l": str(spec.l),
        "mu_c": format_vector(spec.mu_c),
        "sigma_c": format_matrix(spec.sigma_c),
        "mu_e": format_vector(spec.mu_e),
        "sigma_e": format_matrix(spec.sigma_e),
        "label_prior": repr(float(spec.label_prior)),
    }
    cp["domain.shift"] = _format_shift(spec.shift)
    cp["bounds"] = {"delta": repr(float(cfg.delta))}
    o = cfg.optimizer
    cp["optimizer"] = {
        "tol": repr(float(o.tol)),
        "max_iters": str(o.max_iters),
        "l2": repr(float(o.l2)),
        "bias": str(o.bias).lower(),
    }
    s = cfg.sweep
    sweep_section = {
        "n_shifts": str(s.n_shifts),
        "shift_scale": repr(float(s.shift_scale)),
        "n_per_domain": str(s.n_per_domain),
        "ood_mode": s.ood_mode,
    }
    if s.base_components:
        parts = [format_matrix(m) for m in s.base_components]
        sweep_section["base_components"] = " | ".join(parts)
    cp["sweep"] = sweep_section
    out = io.StringIO()
    cp.write(out)
    return out.getvalue()


def parse_config(text: str) -> RunConfig:
    """Parse an INI config. [domain] is required; every section or key the
    text omits takes its value from default_config(). An unknown section or
    key, an unparsable value and an invalid spec or setting are InputErrors."""
    try:
        return _parse_config(text)
    except KeyError as exc:
        raise InputError(f"missing config key {exc}") from None
    except (configparser.Error, ValueError) as exc:
        raise InputError(str(exc)) from None


def _new_parser() -> configparser.ConfigParser:
    cp = configparser.ConfigParser()
    cp.optionxform = str
    return cp


# keys that dumps_config writes only for some values
_OPTIONAL_KEYS = {"domain.shift": {"matrix", "components"},
                  "sweep": {"base_components"}}


def _parse_config(text: str) -> RunConfig:
    given = _new_parser()
    given.read_string(text)
    if "domain" not in given:
        raise InputError("config must have a [domain] section")
    cp = _new_parser()
    cp.read_string(dumps_config(default_config()))
    for name in given.sections():
        if name not in cp:
            raise InputError(f"unknown config section [{name}]")
        allowed = set(cp[name]) | _OPTIONAL_KEYS.get(name, set())
        for key in given[name]:
            if key not in allowed:
                raise InputError(f"unknown config key {key!r} in [{name}]")
    cp.read_dict(given)

    dom = cp["domain"]
    spec = DomainSpec(
        k=dom.getint("k"),
        l=dom.getint("l"),
        mu_c=parse_vector(dom["mu_c"]),
        sigma_c=parse_matrix(dom["sigma_c"]),
        mu_e=parse_vector(dom["mu_e"]),
        sigma_e=parse_matrix(dom["sigma_e"]),
        label_prior=dom.getfloat("label_prior"),
        shift=_parse_shift(cp["domain.shift"]),
    )
    problems = validate_spec(spec)
    if problems:
        raise InputError("invalid spec: " + "; ".join(problems))
    delta = cp["bounds"].getfloat("delta")

    sec = cp["optimizer"]
    optimizer = OptimizerConfig(
        tol=sec.getfloat("tol"),
        max_iters=sec.getint("max_iters"),
        l2=sec.getfloat("l2"),
        bias=sec.getboolean("bias"),
    )

    sec = cp["sweep"]
    base = ()
    if "base_components" in sec:
        base = tuple(parse_matrix(part) for part in sec["base_components"].split("|"))
    sweep = SweepConfig(
        n_shifts=sec.getint("n_shifts"),
        shift_scale=sec.getfloat("shift_scale"),
        n_per_domain=sec.getint("n_per_domain"),
        ood_mode=sec["ood_mode"],
        base_components=base,
    )
    if not 0.0 < delta < 1.0:
        raise InputError("delta must lie in (0, 1)")
    if not 0.0 < optimizer.tol < math.inf:
        raise InputError("tol must be positive and finite")
    if not 0.0 <= optimizer.l2 < math.inf:
        raise InputError("l2 must be nonnegative and finite")
    if optimizer.max_iters < 1:
        raise InputError("max_iters must be at least 1")
    if sweep.ood_mode not in ("random", "interpolation"):
        raise InputError("ood_mode must be 'random' or 'interpolation'")
    if sweep.n_shifts < 1:
        raise InputError("n_shifts must be at least 1")
    if not 0.0 < sweep.shift_scale < math.inf:
        raise InputError("shift_scale must be positive and finite")
    if sweep.n_per_domain < 1:
        raise InputError("n_per_domain must be at least 1")
    if any(m.shape != (spec.l, spec.l) for m in base):
        raise InputError(f"base_components must be {spec.l}x{spec.l} matrices")
    if not all(np.all(np.isfinite(m)) for m in base):
        raise InputError("base_components must be finite")
    return RunConfig(domain=spec, delta=delta, optimizer=optimizer, sweep=sweep)


def load_config(path) -> RunConfig:
    return parse_config(read_input_text(path))


def default_config() -> RunConfig:
    return RunConfig(domain=default_spec())
