"""Accuracy-on-the-line auditing: probit regression, verdicts, stability.

A split is two equal-length arrays, ``id_acc`` and ``ood_acc``, one entry
per model. Accuracies are range-checked, clamped away from {0, 1},
probit-transformed, and OOD is regressed on ID by ordinary least squares. A
split is flagged well-specified when the Pearson correlation of the
transformed pairs falls below the configured threshold (0.3 by default),
which also captures inverse-line behavior.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike

from .analytic import normal_quantile, pearson_p_value, row_dot
from .core import InputError
from .rng import RandomStream, uniform_to_integers
from .util import parallel_map

DEFAULT_CLIP_ALPHA = 1e-4
DEFAULT_THRESHOLD = 0.3
# Index elements per bootstrap block. A draw's uniforms depend only on its
# key (seed, prefix size, draw index), not on which block computes them, so
# the block size cannot change any result.
_BLOCK_ELEMS = 1 << 16


@dataclass(frozen=True)
class AlineFit:
    """Probit-scale regression summary of OOD accuracy on ID accuracy."""

    slope: float
    intercept: float
    pearson_r: float
    p_value: float
    std_err: float
    n: int
    clip_alpha: float


class Verdict(enum.Enum):
    WELL_SPECIFIED = "well_specified"
    MISSPECIFIED = "misspecified"


def check_clip_alpha(clip_alpha: float) -> None:
    # at or below 2^-54, 1 - clip_alpha rounds to 1 and its probit is inf
    if not 2.0**-54 < clip_alpha < 0.5:
        raise InputError("clip_alpha must lie in (2^-54, 0.5)")


def check_threshold(threshold: float) -> None:
    if not 0.0 < threshold < math.inf:
        raise InputError("threshold must be positive and finite")


def probit_points(id_acc: ArrayLike, ood_acc: ArrayLike,
                  clip_alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Clipped probits of a split; every accuracy is range-checked here."""
    check_clip_alpha(clip_alpha)
    ids = np.asarray(id_acc, dtype=np.float64)
    oods = np.asarray(ood_acc, dtype=np.float64)
    if ids.ndim != 1 or ids.shape != oods.shape:
        raise InputError("id_acc and ood_acc must be 1-d and of equal length, "
                         f"got shapes {ids.shape} and {oods.shape}")
    acc = np.stack((ids, oods))
    bad = np.argwhere(~((acc >= 0.0) & (acc <= 1.0)))
    if len(bad):
        side, k = bad[0]
        raise InputError(f"{('id_acc', 'ood_acc')[side]} must lie in [0, 1], "
                         f"got {float(acc[side, k])!r}")
    x, y = normal_quantile(np.clip(acc, clip_alpha, 1.0 - clip_alpha))
    return x, y


def fit_probit_line(id_acc: ArrayLike, ood_acc: ArrayLike,
                    clip_alpha: float = DEFAULT_CLIP_ALPHA) -> AlineFit:
    """OLS of probit(ood) on probit(id) with Pearson R and its p-value."""
    return fit_probit_points(*probit_points(id_acc, ood_acc, clip_alpha), clip_alpha)


def fit_probit_points(x: np.ndarray, y: np.ndarray, clip_alpha: float) -> AlineFit:
    """fit_probit_line on pairs already through probit_points."""
    n = len(x)
    if n < 3:
        raise InputError("need at least 3 accuracy pairs")
    x_mean = float(x.mean())
    y_mean = float(y.mean())
    sxx = float(np.sum((x - x_mean) ** 2))
    syy = float(np.sum((y - y_mean) ** 2))
    sxy = float(np.sum((x - x_mean) * (y - y_mean)))
    if sxx <= 0.0:
        raise ValueError("degenerate sweep: ID accuracies have zero variance")

    slope = sxy / sxx
    intercept = y_mean - slope * x_mean
    if syy <= 0.0:
        r = 0.0
    else:
        r = sxy / math.sqrt(sxx * syy)
        r = max(-1.0, min(1.0, r))
    p = pearson_p_value(r, n)

    resid = y - (intercept + slope * x)
    std_err = math.sqrt(float(np.sum(resid ** 2)) / (n - 2) / sxx)
    return AlineFit(slope=slope, intercept=intercept, pearson_r=r, p_value=p,
                    std_err=std_err, n=n, clip_alpha=clip_alpha)


def classify_split(fit: AlineFit, threshold: float = DEFAULT_THRESHOLD) -> Verdict:
    """Well-specified iff Pearson R is strictly below the threshold."""
    check_threshold(threshold)
    return Verdict.WELL_SPECIFIED if fit.pearson_r < threshold else Verdict.MISSPECIFIED


def correlation_epsilon(x: ArrayLike, y: ArrayLike) -> tuple[np.ndarray, np.ndarray]:
    """Definition 6 on probits: (T,) slopes a and epsilons eps, one per row.

    x is (n,) or (T, n) and y is (n,). For each row of x, a is the
    zero-intercept least-squares slope of x ≈ a·y (0 when y·y is 0) and
    eps = max |x - a·y|, the smallest eps the row supports. row_dot gives
    each row's x·y as the scalar row @ y; the gemv x @ y rounds otherwise.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    syy = float(y @ y)
    a = row_dot(x, y) / syy if syy > 0.0 else np.zeros(len(x))
    return a, np.max(np.abs(x - a[:, None] * y), axis=1)


def _row_pearson(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pearson r of each row pair; 0 where either row has zero variance."""
    xc = x - x.mean(axis=1, keepdims=True)
    yc = y - y.mean(axis=1, keepdims=True)
    den = np.sqrt(np.sum(xc * xc, axis=1) * np.sum(yc * yc, axis=1))
    return np.divide(np.sum(xc * yc, axis=1), den,
                     out=np.zeros_like(den), where=den != 0.0)


def check_mincount_args(rel_tol: float, resamples: int, confidence: float,
                        start: int, step: int, clip_alpha: float) -> None:
    """InputError for a min_model_count argument out of range; every check
    that needs no accuracies, so a caller can make it before reading them."""
    if not 0.0 < rel_tol < math.inf:
        raise InputError("rel_tol must be positive and finite")
    if resamples < 100:
        raise InputError("need at least 100 bootstrap resamples")
    if not 0.0 < confidence < 1.0:
        raise InputError("confidence must lie in (0, 1)")
    if start < 1 or step < 1:
        raise InputError("start and step must be at least 1")
    check_clip_alpha(clip_alpha)


def min_model_count(id_acc: ArrayLike, ood_acc: ArrayLike,
                    rel_tol: float = 0.01,
                    resamples: int = 1000, confidence: float = 0.95,
                    start: int = 10, step: int = 100,
                    clip_alpha: float = DEFAULT_CLIP_ALPHA,
                    seed: int = 0) -> int | None:
    """First prefix size at which Pearson R is bootstrap-stable, else None.

    At each size s the question is whether R would move by more than rel_tol
    (relatively) when the next `step` models arrive. Each bootstrap draw
    resamples the first s pairs, extends that base with a resample of the
    (s, s+step] block, and compares the two Pearson R values; stability
    requires the `confidence` quantile of the relative change to fall below
    rel_tol. None signals the scan exhausted the list (NotReached).

    A size stops drawing once `_failing_count(resamples, confidence)` of its
    deltas reach rel_tol (51 of 1,000 at 95%): numpy's linear quantile never
    falls below the sorted delta at floor((resamples - 1) * confidence), so
    the full quantile would fail too, and the answer cannot change. A size
    that passes, or fails near the threshold, still pays every draw.
    """
    check_mincount_args(rel_tol, resamples, confidence, start, step, clip_alpha)
    x, y = probit_points(id_acc, ood_acc, clip_alpha)
    n = len(x)
    if n < start:
        raise InputError(f"need at least start={start} pairs, got {n}")

    failing = _failing_count(resamples, confidence)
    stream = RandomStream(seed)
    size = start
    while size + step <= n:
        # Draw b's own uniforms pick its base from [0, size) and its extension
        # from [size, size + step) by the integers transform.
        width = size + step
        bounds = np.repeat([size, step], [size, step])
        offsets = np.repeat([0, size], [size, step])
        rows = max(1, _BLOCK_ELEMS // width)
        deltas = np.full(resamples, math.inf)
        lo = above = 0
        while lo < resamples and above < failing:
            hi = lo + min(rows, resamples - lo, failing - above)
            u = np.array(parallel_map(
                lambda b: stream.substream_uniform(size * 1_000_003 + b, width),
                range(lo, hi)))
            idx = uniform_to_integers(u, bounds) + offsets
            gx, gy = x[idx], y[idx]
            r_base = _row_pearson(gx[:, :size], gy[:, :size])
            np.divide(np.abs(_row_pearson(gx, gy) - r_base), np.abs(r_base),
                      out=deltas[lo:hi], where=r_base != 0.0)
            above += int(np.count_nonzero(deltas[lo:hi] >= rel_tol))
            lo = hi
        if above < failing:
            # Between two infinite deltas (zero-variance bases) the quantile
            # is inf - inf = nan, which fails the test, as it should.
            with np.errstate(invalid="ignore"):
                q = float(np.quantile(deltas, confidence))
            if q < rel_tol:
                return size
        size += step
    return None


def _failing_count(resamples: int, confidence: float) -> int:
    """The fewest deltas at or above rel_tol that fail a size's quantile
    test whatever the other deltas are (see min_model_count)."""
    return resamples - math.floor((resamples - 1) * confidence)
