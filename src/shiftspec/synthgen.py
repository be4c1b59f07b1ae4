"""Sample datasets from a DomainSpec and build shift matrices.

Sampling follows the generative block: y ~ Bernoulli(label_prior) mapped to
±1, z_c ~ N(y mu_c, sigma_c), and z_e ~ N(y M mu_e, M sigma_e M') under a
linear shift M (component drawn per weights for mixtures). All draws come
from counter-based streams keyed by the caller's seed.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (Dataset, DomainSpec, InputError, MixtureShift,
                   psd_cholesky, validate_spec)
from .rng import RandomStream


def sample_domain(spec: DomainSpec, n: int, seed: int) -> Dataset:
    """Draw n labelled samples from the environment spec, deterministically."""
    if n < 1:
        raise ValueError("sample count must be at least 1")
    problems = validate_spec(spec)
    if problems:
        raise ValueError("invalid spec: " + "; ".join(problems))

    chol_c = psd_cholesky(spec.sigma_c, "sigma_c")
    matrices = spec.shift.matrices(spec.l)
    weights = spec.shift.weights()
    shifted_means = [m @ spec.mu_e for m in matrices]
    shifted_chols = [psd_cholesky(m @ spec.sigma_e @ m.T, "shifted sigma_e")
                     for m in matrices]

    stream = RandomStream(seed)
    y = stream.bernoulli_signs(spec.label_prior, size=n)
    z_c = y[:, None] * spec.mu_c + stream.standard_normal(size=(n, spec.k)) @ chol_c.T

    if len(matrices) == 1:
        comp = np.zeros(n, dtype=np.int64)
    else:
        cum = np.cumsum(weights)
        u = stream.uniform(size=n)
        comp = np.searchsorted(cum, u, side="right")
        comp = np.minimum(comp, len(matrices) - 1)

    noise = stream.standard_normal(size=(n, spec.l))
    z_e = np.empty((n, spec.l))
    for j in range(len(matrices)):
        rows = comp == j
        if rows.any():
            z_e[rows] = (y[rows, None] * shifted_means[j]
                         + noise[rows] @ shifted_chols[j].T)

    return Dataset(x=np.hstack([z_c, z_e]), y=y, k=spec.k, l=spec.l)


def random_shift(l: int, scale: float, seed: int) -> np.ndarray:
    """l x l matrix with entries i.i.d. uniform on [-scale, scale]."""
    if l < 1:
        raise ValueError("dimension must be at least 1")
    if not 0.0 < scale < math.inf:
        raise ValueError("scale must be positive and finite")
    stream = RandomStream(seed)
    return stream.uniform(-scale, scale, size=(l, l))


def interpolation_mixture(base_shifts: list[np.ndarray], seed: int) -> MixtureShift:
    """Mixture of the given shift matrices with fresh flat-simplex weights."""
    if len(base_shifts) < 2:
        raise InputError("interpolation needs at least 2 base shifts")
    mats = [np.asarray(m, dtype=np.float64) for m in base_shifts]
    dims = {m.shape for m in mats}
    if len(dims) != 1:
        raise ValueError("base shifts must share a common dimension")
    stream = RandomStream(seed)
    weights = stream.flat_simplex(len(mats))
    return MixtureShift(components=tuple(zip(weights.tolist(), mats)))


def reflection_shift(w_e: np.ndarray, alpha: float) -> np.ndarray:
    """alpha (I - 2 v v') with v = w_e / ||w_e||; reverses the w_e direction.

    Satisfies w_e' M mu_e = -alpha w_e' mu_e for every mu_e.
    """
    w = np.asarray(w_e, dtype=np.float64)
    norm = float(np.linalg.norm(w))
    if norm == 0.0:
        raise ValueError("w_e must be nonzero")
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    v = w / norm
    return alpha * (np.eye(len(w)) - 2.0 * np.outer(v, v))


def dataset_to_csv(data: Dataset) -> str:
    """CSV text: header y,zc_1..zc_k,ze_1..ze_l and 17-significant-digit floats."""
    header = ",".join(["y"]
                      + [f"zc_{i + 1}" for i in range(data.k)]
                      + [f"ze_{i + 1}" for i in range(data.l)])
    lines = [header]
    for yi, row in zip(data.y, data.x):
        cells = [f"{int(yi):d}"] + [f"{v:.17g}" for v in row]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def dataset_from_csv(text: str) -> Dataset:
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].split(",")
    if header[0] != "y":
        raise ValueError("first column must be y")
    k = sum(1 for h in header if h.startswith("zc_"))
    l = sum(1 for h in header if h.startswith("ze_"))
    rows = [ln.split(",") for ln in lines[1:]]
    y = np.array([float(r[0]) for r in rows])
    x = np.array([[float(v) for v in r[1:]] for r in rows])
    return Dataset(x=x, y=y, k=k, l=l)
