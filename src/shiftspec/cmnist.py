"""Abstract-feature ColoredMNIST: generator, accuracy oracles, model sweeps.

Features are reduced to the two factors the task actually exposes: a digit
coordinate equal to the true label and a color coordinate that matches the
noisy observed label with per-environment probability p_e. Color-based
prediction therefore scores exactly p_e while digit-based prediction tops
out at 1 - label_noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import normal_cdf
from .core import Dataset, InputError, Mask
from .ingest import AccuracyTable, TableRow
from .rng import RandomStream
from .trainer import DEFAULT_L2, OptimizerSettings, fit_logistic

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
    flip = stream.uniform(size=n) < spec.label_noise
    y = np.where(flip, -y_true, y_true)
    match = stream.uniform(size=n) < spec.p_e[env]
    z_e = np.where(match, y, -y)
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


def linear_rule_accuracy(w_c: float, w_e: float, label_noise: float,
                         p_e, noise_sigma: float = 0.0,
                         bias: float = 0.0) -> float | np.ndarray:
    """Exact accuracy of sign(w_c z_c + w_e z_e + noise + bias) on an environment.

    The four (digit-agrees, color-agrees) outcomes have known probabilities;
    noise_sigma > 0 models a feature-extraction pipeline that jitters both
    coordinates with N(0, sigma^2) before the linear rule. An array p_e
    gives one accuracy per environment.
    """
    p = np.asarray(p_e, dtype=np.float64)
    p_digit = 1.0 - label_noise
    probs = (p_digit * p, p_digit * (1.0 - p),
             (1.0 - p_digit) * p, (1.0 - p_digit) * (1.0 - p))
    scores = np.array([w_c + w_e, w_c - w_e, -w_c + w_e, -w_c - w_e]) + bias
    scale = noise_sigma * math.hypot(w_c, w_e)
    if scale > 0.0:
        correct = normal_cdf(scores / scale)
    else:
        correct = np.where(scores > 0.0, 1.0, 0.0)
    total = 0.0
    for prob, hit in zip(probs, correct):
        total += prob * hit
    return float(total) if p.ndim == 0 else total


def cmnist_model_table(spec: CmnistSpec, train_env: int,
                       test_grid: tuple[float, ...], n_train: int,
                       noise_sigmas: tuple[float, ...], seeds_per_sigma: int,
                       seed: int) -> AccuracyTable:
    """Train a quality ladder of full classifiers and tabulate accuracies.

    Each model trains on feature-noised samples of the training environment
    (its pipeline keeps the same noise at evaluation), giving a family whose
    held-out ID accuracy spans the whole quality range, like checkpoints of
    models of varying capacity. Env columns are the held-out training
    environment followed by one column per test-grid probability p, named
    ``p_{p:g}``; two grid values that give the same name are an InputError.
    """
    if any(not 0.0 <= p <= 1.0 for p in test_grid):
        raise InputError("test grid probabilities must lie in [0, 1]")
    if n_train < 1 or seeds_per_sigma < 1:
        raise InputError("n_train and seeds_per_sigma must be at least 1")
    if len(test_grid) < 2:
        raise ValueError("degenerate sweep: test grid needs at least 2 points")
    env_names = ("env_id",) + tuple(f"p_{p:g}" for p in test_grid)
    if len(set(env_names)) < len(env_names):
        dup = next(name for name in env_names if env_names.count(name) > 1)
        raise InputError(f"test grid names column {dup!r} twice; grid values "
                         "must differ in their first 6 significant digits")
    p_train = spec.p_e[train_env]

    rows = []
    task = 0
    for sigma in noise_sigmas:
        for _ in range(seeds_per_sigma):
            data = generate_cmnist(spec, train_env, n_train, seed * 1_000_003 + task)
            noise_stream = RandomStream(seed * 1_000_003 + task, stream_id=1)
            x_noisy = data.x + sigma * noise_stream.standard_normal(size=data.x.shape)
            noisy = Dataset(x=x_noisy, y=data.y, k=1, l=1)
            model = fit_logistic(noisy, Mask.FULL, DEFAULT_L2, OptimizerSettings())
            w_c = float(model.w_c[0])
            w_e = float(model.w_e[0])
            accs = linear_rule_accuracy(w_c, w_e, spec.label_noise,
                                        np.array((p_train,) + test_grid), sigma)
            rows.append(TableRow(model_id=f"sigma{sigma:g}_rep{task:03d}",
                                 accuracies=tuple(accs.tolist()),
                                 metadata={"meta_sigma": f"{sigma:g}"}))
            task += 1
    return AccuracyTable(env_names=env_names, rows=tuple(rows))


DEFAULT_NOISE_SIGMAS = tuple(float(s) for s in np.geomspace(0.25, 8.0, 12))
