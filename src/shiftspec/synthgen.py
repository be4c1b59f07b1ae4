"""Sample datasets from a DomainSpec and build shift matrices.

Sampling follows the generative block: y ~ Bernoulli(label_prior) mapped to
±1, z_c ~ N(y mu_c, sigma_c), and z_e ~ N(y M mu_e, M sigma_e M') under a
linear shift M (component drawn per weights for mixtures). All draws come
from counter-based streams keyed by the caller's seed; sample_domains draws
many seeds' domains as one stack.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (Dataset, DomainSpec, InputError, MixtureShift,
                   psd_cholesky, validate_spec)
from .rng import (RandomStream, seeded_generators, seeded_uniforms,
                  uniform_to_normal, uniform_to_signs)


def sample_domain(spec: DomainSpec, n: int, seed: int) -> Dataset:
    """Draw n labelled samples from the environment spec, deterministically;
    the one-seed case of sample_domains."""
    x, y = sample_domains(spec, n, [seed])
    return Dataset(x=x[0], y=y[0], k=spec.k, l=spec.l)


def sample_domains(spec: DomainSpec, n: int,
                   seeds) -> tuple[np.ndarray, np.ndarray]:
    """(B, n, k + l) features and (B, n) labels of one n-sample domain per
    seed: member b is sample_domain(spec, n, seeds[b]).

    The spec is checked and each component's Cholesky factor taken once.
    Member b reads the uniform stream of RandomStream(seeds[b]) through one
    re-keyed generator, in this order: n labels, n x k stable noise, n
    mixture-component draws (mixtures only), n x l spurious noise. Each part
    is its own draw, as one buffer for all four costs more than the calls it
    saves once n reaches thousands of rows. Each member is transformed
    straight into its row of the stack.
    """
    if n < 1:
        raise ValueError("sample count must be at least 1")
    problems = validate_spec(spec)
    if problems:
        raise ValueError("invalid spec: " + "; ".join(problems))

    chol_c = psd_cholesky(spec.sigma_c, "sigma_c")
    matrices = spec.shift.matrices(spec.l)
    with np.errstate(over="ignore", invalid="ignore"):
        shifted_means = [m @ spec.mu_e for m in matrices]
        shifted_covs = [m @ spec.sigma_e @ m.T for m in matrices]
    for name, values in (("shifted mu_e", shifted_means),
                         ("shifted sigma_e", shifted_covs)):
        if not all(np.isfinite(v).all() for v in values):
            raise ValueError(f"{name} is not finite: the ID shift "
                             "overflows float64")
    shifted_chols = [psd_cholesky(c, "shifted sigma_e") for c in shifted_covs]
    cum = np.cumsum(spec.shift.weights())

    k, l = spec.k, spec.l
    mixture = len(matrices) > 1
    x = np.empty((len(seeds), n, k + l))
    y = np.empty((len(seeds), n))
    for xb, yb, gen in zip(x, y, seeded_generators(seeds)):
        yb[...] = uniform_to_signs(gen.random(size=n), spec.label_prior)
        np.add(yb[:, None] * spec.mu_c,
               uniform_to_normal(gen.random(size=(n, k))) @ chol_c.T,
               out=xb[:, :k])
        if mixture:
            comp = np.minimum(np.searchsorted(cum, gen.random(size=n),
                                              side="right"),
                              len(matrices) - 1)
        noise = uniform_to_normal(gen.random(size=(n, l)))
        z_e = xb[:, k:]
        for j in range(len(matrices)):
            # one component takes every row, with no mask to gather by
            rows = comp == j if mixture else slice(None)
            z_e[rows] = (yb[rows, None] * shifted_means[j]
                         + noise[rows] @ shifted_chols[j].T)
    return x, y


def random_shifts(l: int, scale: float, seeds) -> np.ndarray:
    """(S, l, l) matrices with entries i.i.d. uniform on [-scale, scale],
    matrix s drawn as RandomStream(seeds[s]).uniform (seeded_uniforms)."""
    if l < 1:
        raise ValueError("dimension must be at least 1")
    if not 0.0 < scale < math.inf:
        raise ValueError("scale must be positive and finite")
    return seeded_uniforms(seeds, -scale, scale, (l, l))


def random_shift(l: int, scale: float, seed: int) -> np.ndarray:
    """The one-seed case of random_shifts: an l x l matrix."""
    return random_shifts(l, scale, [seed])[0]


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
