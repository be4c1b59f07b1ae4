"""Sample datasets from a DomainSpec and build shift matrices.

Sampling follows the generative block: y ~ Bernoulli(label_prior) mapped to
±1, z_c ~ N(y mu_c, sigma_c), and z_e ~ N(y M mu_e, M sigma_e M') under a
linear shift M (component drawn per weights for mixtures). All draws come
from counter-based streams keyed by the caller's seed; sample_domains draws
many seeds' domains as one stack, by rng's draw rule (one seeded_draws call,
then each per-row transform -- signs, normal quantile, Cholesky product,
mean gather -- once over the stack). A mixture's per-component row gather
stays per member, as a gathered (rows, l) @ (l, l) product rounds with its
row count.

As in every per-row kernel of the package (see analytic), sampling makes
no masked select over a data-dependent mask and no write or broadcast
over a few columns at a time: each row's label-signed mean is gathered by
index, and the noise is added to it one column at a time.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (Dataset, DomainSpec, InputError, MixtureShift,
                   psd_cholesky, validate_spec)
from .rng import (RandomStream, seeded_draws, uniform_to_normal,
                  uniform_to_signs)


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
    Member b reads the uniform stream of RandomStream(seeds[b]) in this
    order: n labels, n x k stable noise, n mixture-component draws
    (mixtures only), n x l spurious noise, one seeded_draws part each (see
    rng). Each part is then transformed once over the stack, and each
    uniform buffer dropped once transformed (the normal parts are clipped
    in place).
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
    # row 2j + (y > 0): component j's class-conditional mean (mu_c, M_j mu_e)
    # times the label y = +-1, which is exact
    means = np.hstack([np.tile(spec.mu_c, (len(matrices), 1)), shifted_means])
    signed_means = np.stack([-means, means], axis=1).reshape(2 * len(means), -1)

    k, l = spec.k, spec.l
    mixture = len(matrices) > 1
    u_y, u_c, *u_comp, u_e = seeded_draws(
        seeds, [(n,), (n, k)] + [(n,)] * mixture + [(n, l)])

    # then transform: one call per part over the whole stack
    y = uniform_to_signs(u_y, spec.label_prior)
    del u_y
    noise_c = uniform_to_normal(u_c)
    del u_c
    noise_c = noise_c @ chol_c.T
    noise_e = uniform_to_normal(u_e)
    del u_e
    mean_row = (y > 0.0).astype(np.intp)
    if mixture:
        comp = np.minimum(np.searchsorted(cum, u_comp[0], side="right"),
                          len(matrices) - 1)
        del u_comp
        # per member: a gathered (rows, l) @ (l, l) product rounds with its
        # row count, so rows are gathered from one member at a time
        for noise_b, comp_b in zip(noise_e, comp):
            for j in range(len(matrices)):
                rows = np.flatnonzero(comp_b == j)
                noise_b[rows] = noise_b[rows] @ shifted_chols[j].T
        mean_row += 2 * comp
    else:  # one component takes every row, with no mask to gather by
        noise_e = noise_e @ shifted_chols[0].T
    # y mean + noise, the generative order: y mean is gathered by row index
    # and the noise added column by column (a y[..., None] * mean broadcast
    # or a (B, n, k) block write runs numpy's inner loop k or l elements at
    # a time)
    x = signed_means.take(mean_row, axis=0)
    for j in range(k):
        x[..., j] += noise_c[..., j]
    for j in range(l):
        x[..., k + j] += noise_e[..., j]
    return x, y


def random_shifts(l: int, scale: float, seeds) -> np.ndarray:
    """(S, l, l) matrices with entries i.i.d. uniform on [-scale, scale],
    matrix s drawn as RandomStream(seeds[s]).uniform: one seeded_draws part,
    scaled in place (see rng)."""
    if l < 1:
        raise ValueError("dimension must be at least 1")
    if not 0.0 < scale < math.inf:
        raise ValueError("scale must be positive and finite")
    low, high = -scale, scale
    (out,) = seeded_draws(seeds, [(l, l)])
    out *= high - low
    out += low
    return out


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
