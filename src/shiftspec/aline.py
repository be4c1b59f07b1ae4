"""Accuracy-on-the-line auditing: probit regression, verdicts, stability.

A split is two equal-length arrays, ``id_acc`` and ``ood_acc``, one entry
per model. Accuracies are range-checked, clamped away from {0, 1},
probit-transformed, and OOD is regressed on ID by ordinary least squares. A
split is flagged well-specified when the Pearson correlation of the
transformed pairs falls below the configured threshold (0.3 by default),
which also captures inverse-line behavior. fit_probit_rows is the one probit
fit and row_pearson the one Pearson R, each over many splits at once:
audit, cmnist and mincount read them.
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
    return fit_probit_rows(*probit_points(id_acc, ood_acc, clip_alpha), clip_alpha)[0]


def fit_probit_rows(x: ArrayLike, y: ArrayLike, clip_alpha: float) -> list[AlineFit]:
    """fit_probit_line of each row pair of (T, n) or (n,) probits from
    probit_points, row t's fit equal bit for bit to the fit of that row alone.

    R is row_pearson's, clamped to [-1, 1]. A row whose x has zero variance
    is a degenerate sweep (ValueError) and fails the whole call.
    """
    x = np.atleast_2d(x)
    y = np.atleast_2d(y)
    n = x.shape[1]
    if n < 3:
        raise InputError("need at least 3 accuracy pairs")
    x_mean = x.mean(axis=1)
    y_mean = y.mean(axis=1)
    xc = x - x_mean[:, None]
    sxx = np.sum(xc * xc, axis=1)
    # a constant row whose mean rounds leaves sxx a few ulps above 0
    if np.any((sxx <= 0.0) | (np.ptp(x, axis=1) == 0.0)):
        raise ValueError("degenerate sweep: ID accuracies have zero variance")

    slope = np.sum(xc * (y - y_mean[:, None]), axis=1) / sxx
    intercept = y_mean - slope * x_mean
    r = np.clip(row_pearson(x, y), -1.0, 1.0)
    resid = y - (intercept[:, None] + slope[:, None] * x)
    std_err = np.sqrt(np.sum(resid * resid, axis=1) / (n - 2) / sxx)
    return [AlineFit(slope=b, intercept=a, pearson_r=rt,
                     p_value=pearson_p_value(rt, n), std_err=se, n=n,
                     clip_alpha=clip_alpha)
            for b, a, rt, se in zip(slope.tolist(), intercept.tolist(),
                                    r.tolist(), std_err.tolist())]


def row_pearson(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pearson r of each row pair of (T, n) arrays; 0 where either row has
    zero range. The package's one Pearson R: audit, cmnist and mincount
    all read it.

    A constant row whose mean rounds centres to one ulp-sized constant (at
    most n eps / 2 times the mean), which would make r +-1 or about 0. So
    the rows whose centred root mean square is under 2 n eps times their
    mean have their range checked; rows with real spread are not. The sums
    call np.add.reduce directly, as np.sum and mean do with more overhead,
    which pays for that check on the bootstrap's many small calls.
    """
    n = x.shape[1]
    x_mean = np.add.reduce(x, axis=1, keepdims=True) / n
    y_mean = np.add.reduce(y, axis=1, keepdims=True) / n
    xc = x - x_mean
    yc = y - y_mean
    sxx = np.add.reduce(xc * xc, axis=1)
    syy = np.add.reduce(yc * yc, axis=1)
    den = np.sqrt(sxx * syy)
    r = np.divide(np.add.reduce(xc * yc, axis=1), den,
                  out=np.zeros_like(den), where=den != 0.0)
    tol = 2.0 * n * np.finfo(np.float64).eps
    flat = np.flatnonzero(
        (np.sqrt(sxx / n) <= tol * np.abs(x_mean[:, 0]))
        | (np.sqrt(syy / n) <= tol * np.abs(y_mean[:, 0])))
    if flat.size:
        constant = ((np.ptp(x[flat], axis=1) == 0.0)
                    | (np.ptp(y[flat], axis=1) == 0.0))
        r[flat[constant]] = 0.0
    return r


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
            r_base = row_pearson(gx[:, :size], gy[:, :size])
            np.divide(np.abs(row_pearson(gx, gy) - r_base), np.abs(r_base),
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
