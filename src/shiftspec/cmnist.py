"""Abstract-feature ColoredMNIST: generator, accuracy oracles, model sweeps.

Features are reduced to the two factors the task actually exposes: a digit
coordinate equal to the true label and a color coordinate that matches the
noisy observed label with per-environment probability p_e. Color-based
prediction therefore scores exactly p_e while digit-based prediction tops
out at 1 - label_noise. The model ladder is one stack: its members are
sampled one at a time into one array, fit by one damped-Newton loop and
scored by one closed-form call, each with the bits of its lone fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import normal_cdf
from .core import Dataset, InputError, Mask
from .ingest import AccuracyTable, TableRow
from .rng import RandomStream, _rekey, uniform_to_normal
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
    match with probability p_e[env]."""
    if not 0 <= env < spec.n_envs:
        raise ValueError(f"env must be in [0, {spec.n_envs})")
    stream = RandomStream(seed)
    y_true = stream.bernoulli_signs(0.5, size=n)
    # products of ±1 signs are exact: y = -y_true where the label flips
    # (u < label_noise), and z_e = y where the color matches (u < p_e)
    y = stream.bernoulli_signs(spec.label_noise, size=n)
    y *= -y_true
    z_e = stream.bernoulli_signs(spec.p_e[env], size=n)
    z_e *= y
    x = np.column_stack([y_true, z_e])
    return Dataset(x=x, y=y, k=1, l=1)


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
    coordinates with N(0, sigma^2) before the linear rule, and sigma = 0
    scores the hard threshold. An array p_e gives one accuracy per
    environment; arrays w_c, w_e and noise_sigma (one entry per rule, a
    scalar is shared) give one row per rule, equal to the scalar calls.
    """
    p = np.asarray(p_e, dtype=np.float64)
    w_c, w_e, sigma = np.broadcast_arrays(np.asarray(w_c, dtype=np.float64),
                                          np.asarray(w_e, dtype=np.float64),
                                          np.asarray(noise_sigma, dtype=np.float64))
    p_digit = 1.0 - label_noise
    probs = (p_digit * p, p_digit * (1.0 - p),
             (1.0 - p_digit) * p, (1.0 - p_digit) * (1.0 - p))
    scores = np.array([w_c + w_e, w_c - w_e, -w_c + w_e, -w_c - w_e]) + bias
    # math.hypot per rule: np.hypot rounds differently on some pairs
    norms = np.array([math.hypot(c, e) for c, e in zip(w_c.flat, w_e.flat)])
    scale = sigma * norms.reshape(w_c.shape)
    correct = np.where(scores > 0.0, 1.0, 0.0)
    noisy = scale > 0.0
    correct[:, noisy] = normal_cdf(scores[:, noisy] / scale[noisy])
    total = 0.0
    for prob, hit in zip(probs, correct):
        total += prob * hit[..., None]
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
    models of varying capacity. The ladder is one stack: every member is
    drawn by generate_cmnist into one (members, n_train, 2) array, fit by
    one fit_logistic_stack call and scored by one linear_rule_accuracy
    call, with the bits of fitting and scoring each member alone. Member
    t's feature noise is RandomStream(seed * 1_000_003 + t, stream_id=1)'s
    standard normals, drawn from one generator re-keyed per member. Env
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
    x = np.empty((len(sigmas), n_train, 2))
    y = np.empty((len(sigmas), n_train))
    noise_gen = np.random.Generator(np.random.Philox(0))
    for task, sigma in enumerate(sigmas):
        data = generate_cmnist(spec, train_env, n_train, seed * 1_000_003 + task)
        # as RandomStream(seed * 1_000_003 + task, stream_id=1).standard_normal
        _rekey(noise_gen, seed * 1_000_003 + task, 1)
        np.add(data.x, sigma * uniform_to_normal(
            noise_gen.random(size=data.x.shape)), out=x[task])
        y[task] = data.y
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
