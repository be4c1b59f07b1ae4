"""INI-style run configuration: domain spec, optimizer, shift sweep, delta.

Vectors are comma-separated, matrices use ";" between rows, and mixture
components are "weight : matrix" items joined with "|". Floats are written
with repr so a dump/parse round trip reproduces every value exactly.
_TABLE gives each key's parse, range check included, and format; a bad
value is one InputError "[section] key = 'text': reason". In [domain.shift]
the variant reads its own key, which it needs, and no other (linear:
matrix, mixture: components).
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (DomainSpec, IdentityShift, InputError, LinearShift,
                   MixtureShift, default_spec, read_input_text, validate_spec)
from .trainer import DEFAULT_L2, OptimizerSettings

DEFAULT_MIXTURE_FACTORS = (1.5, 0.5, -0.5, -1.5)


@dataclass(frozen=True)
class OptimizerConfig:
    tol: float = OptimizerSettings.tol
    max_iters: int = OptimizerSettings.max_iters
    l2: float = DEFAULT_L2
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
    try:
        return np.array([float(tok) for tok in text.split(",")], dtype=np.float64)
    except ValueError:
        raise ValueError("expected numbers separated by ','") from None


def parse_matrix(text: str) -> np.ndarray:
    rows = [parse_vector(r) for r in (row.strip() for row in text.split(";")) if r]
    if len({len(row) for row in rows}) > 1:
        raise ValueError("rows must have equal length")
    return np.array(rows, dtype=np.float64)


def _parse_components(text: str) -> tuple:
    comps = []
    for item in text.split("|"):
        if ":" not in item:
            raise ValueError(f"mixture component {item.strip()!r} is not "
                             "of the form 'weight : matrix'")
        weight_text, matrix_text = item.split(":", 1)
        try:
            weight = float(weight_text)
        except ValueError:
            raise ValueError(f"mixture weight {weight_text.strip()!r} "
                             "is not a number") from None
        comps.append((weight, parse_matrix(matrix_text)))
    return tuple(comps)


def _format_float(x) -> str:
    return repr(float(x))


def _scalar(convert, expected: str = "", ok=lambda v: True, reason: str = ""):
    """The parse convert(text), which says 'expected ...' for a text that
    does not convert and gives reason for a value that fails ok."""
    def parse(text: str):
        try:
            value = convert(text)
        except (KeyError, ValueError):
            raise ValueError(f"expected {expected}") from None
        if not ok(value):
            raise ValueError(reason)
        return value
    return parse


_COUNT = (_scalar(int, "an integer", lambda n: n >= 1, "must be at least 1"), str)
_POSITIVE = (_scalar(float, "a number", lambda x: 0.0 < x < math.inf,
                     "must be positive and finite"), _format_float)
_BOOLEAN = configparser.ConfigParser.BOOLEAN_STATES
_VECTOR = (parse_vector, format_vector)
_MATRIX = (parse_matrix, format_matrix)

# shift variant -> its class and the keys of the class's fields, in order
_SHIFTS = {
    "identity": (IdentityShift, {}),
    "linear": (LinearShift, {"matrix": _MATRIX}),
    "mixture": (MixtureShift, {"components": (
        _parse_components, lambda comps: " | ".join(
            f"{repr(float(w))} : {format_matrix(m)}" for w, m in comps))}),
}

# section -> key -> (parse, format), in file order; a key names a field of
# its section's dataclass. parse raises a ValueError that says why a text
# is not a value, range included. [domain.shift] opens with the variant,
# which reads its own keys in _SHIFTS and no other.
_TABLE = {
    "domain": {"k": _COUNT, "l": _COUNT, "mu_c": _VECTOR, "sigma_c": _MATRIX,
               "mu_e": _VECTOR, "sigma_e": _MATRIX,
               "label_prior": (_scalar(float, "a number"), _format_float)},
    "domain.shift": {
        "variant": (_scalar(lambda text: text.strip().lower(),
                            ok=_SHIFTS.__contains__,
                            reason="must be 'identity', 'linear' or 'mixture'"),
                    str),
        **{key: pair for _, keys in _SHIFTS.values()
           for key, pair in keys.items()}},
    "bounds": {"delta": (_scalar(float, "a number", lambda x: 0.0 < x < 1.0,
                                 "must lie in (0, 1)"), _format_float)},
    "optimizer": {
        "tol": _POSITIVE, "max_iters": _COUNT,
        "l2": (_scalar(float, "a number", lambda x: 0.0 <= x < math.inf,
                       "must be nonnegative and finite"), _format_float),
        "bias": (_scalar(lambda text: _BOOLEAN[text.lower()], "true or false"),
                 lambda b: str(b).lower())},
    "sweep": {
        "n_shifts": _COUNT, "shift_scale": _POSITIVE, "n_per_domain": _COUNT,
        "ood_mode": (_scalar(str, ok=("random", "interpolation").__contains__,
                             reason="must be 'random' or 'interpolation'"), str),
        "base_components": (
            lambda text: tuple(parse_matrix(p) for p in text.split("|")),
            lambda comps: " | ".join(map(format_matrix, comps)))},
}
_VARIANT_KEY = next(iter(_TABLE["domain.shift"]))


def _value(section, key: str, parse):
    """parse(section[key]); a ValueError names the section, key and value."""
    text = section[key]
    try:
        return parse(text)
    except ValueError as exc:
        raise InputError(f"[{section.name}] {key} = {text!r}: {exc}") from None


def _values(cfg: RunConfig) -> dict[str, dict]:
    """cfg's values by section and key. A shift key that the variant does
    not read is absent, and so is an empty base_components tuple."""
    shift = cfg.domain.shift
    variant = next(name for name, (cls, _) in _SHIFTS.items()
                   if isinstance(shift, cls))
    shift_values = dict(zip(_SHIFTS[variant][1], vars(shift).values()))
    sections = {"domain": vars(cfg.domain),
                "domain.shift": {_VARIANT_KEY: variant, **shift_values},
                "bounds": vars(cfg), "optimizer": vars(cfg.optimizer),
                "sweep": vars(cfg.sweep)}
    return {name: {key: value for key, value in sections[name].items()
                   if not (isinstance(value, tuple) and not value)}
            for name in _TABLE}


def dumps_config(cfg: RunConfig) -> str:
    cp = _new_parser()
    for name, values in _values(cfg).items():
        cp[name] = {key: fmt(values[key])
                    for key, (_, fmt) in _TABLE[name].items() if key in values}
    out = io.StringIO()
    cp.write(out)
    return out.getvalue()


def parse_config(text: str) -> RunConfig:
    """Parse an INI config. [domain] is required; every section or key the
    text omits takes its value from default_config(). An unknown section or
    key, a shift key that its variant does not read or a missing one that
    it does, a value that does not parse or lies outside its range, and an
    invalid spec are InputErrors."""
    try:
        return _parse_config(text)
    except (configparser.Error, ValueError) as exc:
        raise InputError(str(exc)) from None


def _new_parser() -> configparser.ConfigParser:
    cp = configparser.ConfigParser()
    cp.optionxform = str
    return cp


def _parse_config(text: str) -> RunConfig:
    given = _new_parser()
    given.read_string(text)
    if "domain" not in given:
        raise InputError("config must have a [domain] section")
    for name in given.sections():
        if name not in _TABLE:
            raise InputError(f"unknown config section [{name}]")
        for key in given[name]:
            if key not in _TABLE[name]:
                raise InputError(f"unknown config key {key!r} in [{name}]")
    cp = _new_parser()
    cp.read_string(dumps_config(default_config()))
    cp.read_dict(given)
    values = {name: {key: _value(cp[name], key, parse)
                     for key, (parse, _) in keys.items() if key in cp[name]}
              for name, keys in _TABLE.items()}

    shift_values = values["domain.shift"]
    variant = shift_values.pop(_VARIANT_KEY)
    cls, keys = _SHIFTS[variant]
    for key in shift_values:
        if key not in keys:
            raise InputError(f"[domain.shift] {key} is not read by "
                             f"variant {variant!r}")
    for key in keys:
        if key not in shift_values:
            raise InputError(f"[domain.shift] {key} is missing: variant "
                             f"{variant!r} reads it")
    spec = DomainSpec(**values["domain"],
                      shift=cls(*(shift_values[key] for key in keys)))
    problems = validate_spec(spec)
    if problems:
        raise InputError("invalid spec: " + "; ".join(problems))
    sweep = SweepConfig(**values["sweep"])
    base = sweep.base_components
    if any(m.shape != (spec.l, spec.l) for m in base):
        raise InputError(f"base_components must be {spec.l}x{spec.l} matrices")
    if not all(np.all(np.isfinite(m)) for m in base):
        raise InputError("base_components must be finite")
    return RunConfig(domain=spec, sweep=sweep, **values["bounds"],
                     optimizer=OptimizerConfig(**values["optimizer"]))


def load_config(path) -> RunConfig:
    return parse_config(read_input_text(path))


def default_config() -> RunConfig:
    return RunConfig(domain=default_spec())
