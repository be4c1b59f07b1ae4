"""Abstract-feature ColoredMNIST: generator, accuracy oracles, model sweeps.

Features are reduced to the two factors the task actually exposes: a digit
coordinate equal to the true label and a color coordinate that matches the
noisy observed label with per-environment probability p_e. Color-based
prediction therefore scores exactly p_e while digit-based prediction tops
out at 1 - label_noise. The model ladder is one stack: its members are
sampled by one stacked draw (rng's draw rule), fit by one damped-Newton
loop and scored by one closed-form call, each with the bits of its lone
fit. That call, linear_rule_accuracy, reduces its four-outcome margin table
with analytic.gaussian_margin_cdf, the kernel behind conditions' closed
forms as well, whose s = 0 step scores a noiseless rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import gaussian_margin_cdf
from .core import Dataset, InputError, Mask
from .ingest import AccuracyTable, TableRow
from .rng import seeded_draws, uniform_to_normal, uniform_to_signs
from .trainer import DEFAULT_L2, fit_logistic_stack, ridge_penalty

DEFAULT_ENV_P = (0.1, 0.2, 0.9)


@dataclass(frozen=True)
class CmnistSpec:
    """Label-noise level and per-environment color-match probabilities."""

    label_noise: float = 0.25
    p_e: tuple[float, ...] = DEFAULT_ENV_P

    def __post_init__(self):
        if not 0.0 <= self.label_noise <= 1.0:
            raise InputError("label_noise must lie in [0, 1]")
        if not self.p_e:
            raise InputError("need at least one environment")
        if any(not 0.0 <= p <= 1.0 for p in self.p_e):
            raise InputError("every p_e must lie in [0, 1]")

    @property
    def n_envs(self) -> int:
        return len(self.p_e)


def generate_cmnist(spec: CmnistSpec, env: int, n: int, seed: int) -> Dataset:
    """Sample the two-factor mechanism: digit = true label, color = noisy label
    match with probability p_e[env]; the one-seed case of
    generate_cmnist_stack."""
    x, y = generate_cmnist_stack(spec, env, n, [seed])
    return Dataset(x=x[0], y=y[0], k=1, l=1)


def generate_cmnist_stack(spec: CmnistSpec, env: int, n: int,
                          seeds) -> tuple[np.ndarray, np.ndarray]:
    """(B, n, 2) features and (B, n) labels, member b being
    generate_cmnist(spec, env, n, seeds[b]).

    Member b reads RandomStream(seeds[b])'s uniforms in this order: n true
    labels, n label flips, n color matches, one seeded_draws part each (see
    rng). Each part is then made into signs once over the stack, and each
    uniform buffer dropped once transformed.
    """
    if not 0 <= env < spec.n_envs:
        raise ValueError(f"env must be in [0, {spec.n_envs})")
    u_true, u_flip, u_match = seeded_draws(seeds, [(n,)] * 3)
    y_true = uniform_to_signs(u_true, 0.5)
    del u_true
    # products of ±1 signs are exact: y = -y_true where the label flips
    # (u < label_noise), and z_e = y where the color matches (u < p_e)
    y = uniform_to_signs(u_flip, spec.label_noise)
    del u_flip
    y *= -y_true
    z_e = uniform_to_signs(u_match, spec.p_e[env])
    del u_match
    z_e *= y
    return np.stack([y_true, z_e], axis=-1), y


def color_classifier_accuracy(p_e_test: float, polarity: int = 1) -> float:
    """Accuracy of predicting the label from color alone.

    polarity +1 means the classifier maps color to the same label sign it
    matched in training; -1 is the anti-aligned classifier.
    """
    if not 0.0 <= p_e_test <= 1.0:
        raise ValueError("p_e_test must lie in [0, 1]")
    if polarity not in (1, -1):
        raise ValueError("polarity must be +1 or -1")
    return p_e_test if polarity == 1 else 1.0 - p_e_test


def digit_classifier_accuracy(spec: CmnistSpec) -> float:
    """Best accuracy available to a color-blind predictor, in any environment."""
    return 1.0 - spec.label_noise


def linear_rule_accuracy(w_c: float | np.ndarray, w_e: float | np.ndarray,
                         label_noise: float, p_e,
                         noise_sigma: float | np.ndarray = 0.0,
                         bias: float = 0.0) -> float | np.ndarray:
    """Exact accuracy of sign(w_c z_c + w_e z_e + noise + bias) on an environment.

    The four (digit-agrees, color-agrees) outcomes have known probabilities;
    noise_sigma > 0 models a feature-extraction pipeline that jitters both
    coordinates with N(0, sigma^2) before the linear rule. The margin is
    then a four-component Gaussian mixture: the outcome probabilities as
    weights, the outcome scores as means and sigma ||w|| as the sd, summed
    by gaussian_margin_cdf. sigma = 0 is its s = 0 step, the hard
    threshold, where a score of 0 counts as wrong. An array p_e gives one
    accuracy per environment; arrays w_c, w_e and noise_sigma (one entry
    per rule, a scalar is shared) give one row per rule, equal to the
    scalar calls. A label_noise or p_e outside [0, 1], or a noise_sigma
    that is negative or not finite, is a ValueError.
    """
    p = np.asarray(p_e, dtype=np.float64)
    w_c, w_e, sigma = np.broadcast_arrays(np.asarray(w_c, dtype=np.float64),
                                          np.asarray(w_e, dtype=np.float64),
                                          np.asarray(noise_sigma, dtype=np.float64))
    if not (0.0 <= label_noise <= 1.0 and np.all((p >= 0.0) & (p <= 1.0))):
        raise ValueError("label_noise and every p_e must lie in [0, 1]")
    if not np.all((sigma >= 0.0) & (sigma < math.inf)):  # nan fails too
        raise ValueError("noise_sigma must be finite and nonnegative")
    p_digit = 1.0 - label_noise
    probs = (p_digit * p, p_digit * (1.0 - p),
             (1.0 - p_digit) * p, (1.0 - p_digit) * (1.0 - p))
    scores = np.array([w_c + w_e, w_c - w_e, -w_c + w_e, -w_c - w_e]) + bias
    # math.hypot per rule: np.hypot rounds differently on some pairs
    norms = np.array([math.hypot(c, e) for c, e in zip(w_c.flat, w_e.flat)])
    scale = sigma * norms.reshape(w_c.shape)
    total = gaussian_margin_cdf(probs, scores[..., None], scale[..., None])
    total = total.reshape(w_c.shape + p.shape)
    return float(total) if total.ndim == 0 else total


def cmnist_model_table(spec: CmnistSpec, train_env: int,
                       test_grid: tuple[float, ...], n_train: int,
                       noise_sigmas: tuple[float, ...], seeds_per_sigma: int,
                       seed: int) -> AccuracyTable:
    """Train a quality ladder of full classifiers and tabulate accuracies.

    Each model trains on feature-noised samples of the training environment
    (its pipeline keeps the same noise at evaluation), giving a family whose
    held-out ID accuracy spans the whole quality range, like checkpoints of
    models of varying capacity. The ladder is one stack: member t is
    generate_cmnist(spec, train_env, n_train, seed * 1_000_003 + t), all
    drawn by one generate_cmnist_stack call, fit by one fit_logistic_stack
    call and scored by one linear_rule_accuracy call, with the bits of
    fitting and scoring each member alone. Member t's feature noise is
    RandomStream(seed * 1_000_003 + t, stream_id=1)'s standard normals,
    one stream-1 seeded_draws part made normal once and scaled by each
    member's sigma in place. Env
    columns are the held-out training environment followed by one column
    per test-grid probability p, named ``p_{p:g}``; two grid values that
    give the same name are an InputError, and so are an empty noise ladder
    and a noise sigma that is negative or not finite.
    """
    if any(not 0.0 <= p <= 1.0 for p in test_grid):
        raise InputError("test grid probabilities must lie in [0, 1]")
    if n_train < 1 or seeds_per_sigma < 1:
        raise InputError("n_train and seeds_per_sigma must be at least 1")
    if not noise_sigmas:
        raise InputError("need at least one noise sigma")
    if any(not 0.0 <= s < math.inf for s in noise_sigmas):
        raise InputError("noise sigmas must be finite and nonnegative, got "
                         f"{tuple(noise_sigmas)!r}")
    if len(test_grid) < 2:
        raise ValueError("degenerate sweep: test grid needs at least 2 points")
    env_names = ("env_id",) + tuple(f"p_{p:g}" for p in test_grid)
    if len(set(env_names)) < len(env_names):
        dup = next(name for name in env_names if env_names.count(name) > 1)
        raise InputError(f"test grid names column {dup!r} twice; grid values "
                         "must differ in their first 6 significant digits")
    p_train = spec.p_e[train_env]

    sigmas = [sigma for sigma in noise_sigmas for _ in range(seeds_per_sigma)]
    seeds = [seed * 1_000_003 + task for task in range(len(sigmas))]
    x, y = generate_cmnist_stack(spec, train_env, n_train, seeds)
    (noise,) = seeded_draws(seeds, [(n_train, 2)], stream_id=1)
    noise = uniform_to_normal(noise)
    noise *= np.array(sigmas)[:, None, None]
    x += noise
    del noise
    penalty = np.tile(ridge_penalty(1, 1, Mask.FULL, DEFAULT_L2), (len(sigmas), 1))
    w = fit_logistic_stack(x, y, penalty)
    accs = linear_rule_accuracy(w[:, 0], w[:, 1], spec.label_noise,
                                np.array((p_train,) + test_grid), np.array(sigmas))
    rows = tuple(TableRow(model_id=f"sigma{sigma:g}_rep{task:03d}",
                          accuracies=tuple(row),
                          metadata={"meta_sigma": f"{sigma:g}"})
                 for task, (sigma, row) in enumerate(zip(sigmas, accs.tolist())))
    return AccuracyTable(env_names=env_names, rows=rows)


DEFAULT_NOISE_SIGMAS = tuple(float(s) for s in np.geomspace(0.25, 8.0, 12))
