"""Shared domain types: environment specs, shifts, datasets, classifiers.

All types are immutable value objects once constructed; arrays are stored
read-only so instances can be shared freely.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

import numpy as np

PSD_JITTER = 1e-12
WEIGHT_TOL = 1e-12


class InputError(ValueError):
    """Bad user input (table, config, argument); the CLI exits 2 on it.

    Any other ValueError is a numeric or degeneracy error (exit 3).
    """


def read_input_text(path) -> str:
    """A UTF-8 input file's text, without a leading byte-order mark (as
    spreadsheet "CSV UTF-8" exports write); undecodable bytes are an
    InputError."""
    try:
        # newline="" keeps a \r inside a quoted CSV cell, as csv requires
        with open(path, encoding="utf-8-sig", newline="") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc.reason}") from None


def _frozen_array(values, dtype=np.float64) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def is_psd(matrix: np.ndarray, jitter: float = PSD_JITTER) -> bool:
    """Symmetric positive semidefinite check via Cholesky after jitter."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    if not np.allclose(m, m.T, atol=1e-10):
        return False
    try:
        np.linalg.cholesky(m + jitter * np.eye(m.shape[0]))
        return True
    except np.linalg.LinAlgError:
        return False


def psd_cholesky(matrix: np.ndarray, name: str = "covariance") -> np.ndarray:
    m = np.asarray(matrix, dtype=np.float64)
    try:
        return np.linalg.cholesky(m + PSD_JITTER * np.eye(m.shape[0]))
    except np.linalg.LinAlgError:
        raise ValueError(f"{name} not PSD: Cholesky factorization failed") from None


class Mask(enum.Enum):
    """Which feature blocks a classifier was fit on."""

    DOMAIN_GENERAL = "domain_general"
    FULL = "full"


@dataclass(frozen=True)
class IdentityShift:
    """Spurious features are left untouched."""

    def matrices(self, l: int) -> list[np.ndarray]:
        return [np.eye(l)]

    def weights(self) -> np.ndarray:
        return np.ones(1)


@dataclass(frozen=True)
class LinearShift:
    """Spurious features transformed by a fixed l x l matrix."""

    m: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "m", _frozen_array(self.m))
        if self.m.ndim != 2 or self.m.shape[0] != self.m.shape[1]:
            raise ValueError("shift matrix must be square")

    def matrices(self, l: int) -> list[np.ndarray]:
        return [np.asarray(self.m)]

    def weights(self) -> np.ndarray:
        return np.ones(1)


@dataclass(frozen=True)
class MixtureShift:
    """Convex mixture of linear shifts; weights must sum to one."""

    components: tuple[tuple[float, np.ndarray], ...]

    def __post_init__(self):
        comps = tuple((float(w), _frozen_array(m)) for w, m in self.components)
        object.__setattr__(self, "components", comps)
        if not comps:
            raise ValueError("mixture needs at least one component")
        dims = {m.shape for _, m in comps}
        if len(dims) != 1 or any(m.ndim != 2 or m.shape[0] != m.shape[1] for _, m in comps):
            raise ValueError("mixture components must share a square dimension")

    def matrices(self, l: int) -> list[np.ndarray]:
        return [np.asarray(m) for _, m in self.components]

    def weights(self) -> np.ndarray:
        return np.array([w for w, _ in self.components])


ShiftSpec = IdentityShift | LinearShift | MixtureShift


@dataclass(frozen=True)
class DomainSpec:
    """Generative model of one environment.

    Labels are ±1 with P(+1) = label_prior; stable features follow
    N(y mu_c, sigma_c) and spurious features N(y mu_e, sigma_e) before the
    shift is applied.
    """

    k: int
    l: int
    mu_c: np.ndarray
    sigma_c: np.ndarray
    mu_e: np.ndarray
    sigma_e: np.ndarray
    label_prior: float = 0.5
    shift: ShiftSpec = field(default_factory=IdentityShift)

    def __post_init__(self):
        object.__setattr__(self, "mu_c", _frozen_array(self.mu_c))
        object.__setattr__(self, "sigma_c", _frozen_array(self.sigma_c))
        object.__setattr__(self, "mu_e", _frozen_array(self.mu_e))
        object.__setattr__(self, "sigma_e", _frozen_array(self.sigma_e))

    def with_shift(self, shift: ShiftSpec) -> "DomainSpec":
        return replace(self, shift=shift)


def default_spec(k: int = 2, l: int = 2) -> DomainSpec:
    """Unit-variance spec with all-ones means, the usual simulation baseline."""
    return DomainSpec(k=k, l=l,
                      mu_c=np.ones(k), sigma_c=np.eye(k),
                      mu_e=np.ones(l), sigma_e=np.eye(l))


def validate_spec(spec: DomainSpec) -> list[str]:
    """Return the list of violated invariants; empty when the spec is valid."""
    problems: list[str] = []
    if spec.k < 1 or spec.l < 1:
        problems.append("dimensions k and l must be at least 1")
    arrays = (spec.mu_c, spec.sigma_c, spec.mu_e, spec.sigma_e,
              *spec.shift.matrices(spec.l), spec.shift.weights())
    if not all(np.all(np.isfinite(a)) for a in arrays):
        problems.append("every mean, covariance and shift entry must be finite")
    if spec.mu_c.shape != (spec.k,):
        problems.append(f"mu_c must have length k={spec.k}")
    if spec.mu_e.shape != (spec.l,):
        problems.append(f"mu_e must have length l={spec.l}")
    if spec.sigma_c.shape != (spec.k, spec.k):
        problems.append(f"sigma_c must be {spec.k}x{spec.k}")
    elif not is_psd(spec.sigma_c):
        problems.append("sigma_c covariance not PSD")
    if spec.sigma_e.shape != (spec.l, spec.l):
        problems.append(f"sigma_e must be {spec.l}x{spec.l}")
    elif not is_psd(spec.sigma_e):
        problems.append("sigma_e covariance not PSD")
    if not 0.0 < spec.label_prior < 1.0:
        problems.append("label_prior must lie in (0, 1)")
    problems.extend(_validate_shift(spec.shift, spec.l))
    return problems


def _validate_shift(shift: ShiftSpec, l: int) -> list[str]:
    problems = []
    if isinstance(shift, LinearShift):
        if shift.m.shape != (l, l):
            problems.append(f"shift matrix must be {l}x{l}")
    elif isinstance(shift, MixtureShift):
        weights = shift.weights()
        if np.any(weights < 0.0):
            problems.append("mixture weights must be nonnegative")
        if abs(float(weights.sum()) - 1.0) > WEIGHT_TOL:
            problems.append(f"mixture weights sum ≠ 1 (got {float(weights.sum())!r})")
        if any(m.shape != (l, l) for m in shift.matrices(l)):
            problems.append(f"mixture components must be {l}x{l}")
    return problems


@dataclass(frozen=True)
class Dataset:
    """Feature matrix [Z_c ; Z_e] with ±1 labels and block dimensions."""

    x: np.ndarray
    y: np.ndarray
    k: int
    l: int

    def __post_init__(self):
        x = _frozen_array(self.x)
        y = _frozen_array(self.y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if x.ndim != 2:
            raise ValueError("x must be a 2-d array")
        if x.shape[1] != self.k + self.l:
            raise ValueError(f"x has {x.shape[1]} columns, expected k+l={self.k + self.l}")
        if y.shape != (x.shape[0],):
            raise ValueError("y length must match the number of rows of x")
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValueError("labels must be exactly -1 or +1")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def z_c(self) -> np.ndarray:
        return self.x[:, :self.k]

    @property
    def z_e(self) -> np.ndarray:
        return self.x[:, self.k:]


@dataclass(frozen=True)
class LinearClassifier:
    """Linear rule w_c.z_c + w_e.z_e (+ bias); sign decides the label."""

    w_c: np.ndarray
    w_e: np.ndarray
    trained_on: Mask
    bias: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "w_c", _frozen_array(self.w_c))
        object.__setattr__(self, "w_e", _frozen_array(self.w_e))
        if self.trained_on is Mask.DOMAIN_GENERAL and np.any(self.w_e != 0.0):
            raise ValueError("domain-general classifiers must have zero spurious weights")

    @property
    def w(self) -> np.ndarray:
        return np.concatenate([self.w_c, self.w_e])

    def score(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=np.float64) @ self.w + self.bias
