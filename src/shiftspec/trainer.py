"""Regularized logistic regression via deterministic damped Newton.

The objective (1/n) sum log(1 + exp(-y w.x)) + (l2/2) ||w||^2 is strongly
convex for l2 > 0, so it has a unique optimum; the spurious-block ridge
scale and an unpenalized intercept change the penalty vector, not that
argument. Damped Newton from w = 0 finds the optimum reproducibly: no
stochasticity, no initialization sensitivity. Each step solves
H d = -g by Cholesky, with H = X' diag(s(1 - s)) X / n + diag(penalty),
falls back to d = -g when H is not positive definite or d is not a
descent direction, and backtracks from the full step until the Armijo
condition holds. A fit whose gradient norm is still at or above tol after
max_iters Newton steps, or whose products overflow float64, raises
ValueError rather than returning weights.

Each margin's loss log(1 + exp(-m)) is spelled log1p(exp(-|m|)) +
max(-m, 0), so numpy's SIMD exp and log1p compute it: its last bits come
from those loops (within a few ulp of np.logaddexp, which has no SIMD
loop), as the sigmoid's already come from np.tanh. Only the Armijo test
reads the loss; the gradient, the Hessian and the stop rule read the
sigmoid.

There is one Newton loop, over a stack of B problems of one shape
(fit_logistic_stack): each member has its own step size and stop, a
member that stops leaves the stack (later steps gather the active rows
only), and every stacked operation is spelled so that it rounds as the 1-d
call on that member alone does (x @ w as (B, n, d) @ (B, d, 1), dot
products through analytic.row_dot, the norm as the square root of that
self-dot; einsum, .sum(-1) and norm(axis=...) would round differently).
fit_logistic is its B = 1 case; classifier sweeps and cmnist's noise
ladder fit their whole family as one stack. l2 and spurious_l2_scale must
be finite and nonnegative and max_iters nonnegative; each is checked
before any work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import row_dot
from .core import Dataset, LinearClassifier, Mask

# the ridge penalty l2 of every fit the package makes, and the config default
DEFAULT_L2 = 1e-3


@dataclass(frozen=True)
class OptimizerSettings:
    """Knobs for fit_logistic; all defaults are the reproducibility-first ones."""

    tol: float = 1e-8
    max_iters: int = 10_000
    bias: bool = False
    # Multiplies l2 on the spurious block only; used by classifier sweeps to
    # move the optimum along the spurious-reliance path. 1.0 is the plain
    # objective above.
    spurious_l2_scale: float = 1.0


def _logistic_losses(margins: np.ndarray) -> np.ndarray:
    """log(1 + exp(-m)) for each margin m, in one new array: computed in
    place as log1p(exp(-|m|)) + max(-m, 0), which is stable for both signs
    of m and uses numpy's SIMD loops (np.logaddexp has none)."""
    buf = np.abs(margins)
    np.negative(buf, out=buf)
    np.exp(buf, out=buf)
    np.log1p(buf, out=buf)
    return np.subtract(buf, margins, out=buf, where=margins < 0.0)


def _objective_grad_sigmoid(w: np.ndarray, x: np.ndarray, y: np.ndarray,
                            penalty: np.ndarray
                            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Objective, gradient and sigmoid(-y w.x) at w, for one problem (w of
    shape (d,)) or a stack (w (B, d), x (B, n, d), y (B, n)); the Newton
    step at an accepted w reuses the sigmoid."""
    margins = (x @ w[..., None])[..., 0]
    margins *= y
    # One buffer beside margins, reused in place, so that a stack holds two
    # (B, n) arrays here; each in-place step rounds as the expression does.
    buf = _logistic_losses(margins)
    loss = np.mean(buf, axis=-1)
    # sigmoid(-m) = (1 - tanh(m / 2)) / 2, overflow-safe
    sig = np.multiply(margins, 0.5, out=buf)
    np.tanh(sig, out=sig)
    np.subtract(1.0, sig, out=sig)
    sig *= 0.5
    y_sig = np.multiply(y, sig, out=margins)
    grad = (-(x.swapaxes(-1, -2) @ y_sig[..., None])[..., 0]
            / y.shape[-1] + penalty * w)
    return loss + 0.5 * row_dot(penalty, w * w), grad, sig


def _cholesky(hess: np.ndarray) -> np.ndarray:
    """Stacked Cholesky factors of hess; a member whose H is not positive
    definite gets the identity, which makes its Newton direction -grad
    exactly."""
    try:
        return np.linalg.cholesky(hess)
    except np.linalg.LinAlgError:
        pass
    chol = np.empty_like(hess)
    for b, h in enumerate(hess):
        try:
            chol[b] = np.linalg.cholesky(h)
        except np.linalg.LinAlgError:
            chol[b] = np.eye(len(h))
    return chol


def _newton_direction(x: np.ndarray, ridge: np.ndarray, grad: np.ndarray,
                      sig: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve H d = -grad by Cholesky for every member of the stack, with sig
    the sigmoid(-y w.x) that _objective_grad_sigmoid gave at w and ridge the
    (B, d, d) diagonal penalty matrices; d = -grad for a member whose H is
    not positive definite or whose d is not a descent direction. Returns d
    and the slopes grad.d.

    sig is overwritten with the curvature sig (1 - sig), so that a stack
    holds one (B, n) array beside the (B, n, d) product of the Hessian.
    """
    curv = np.multiply(sig, 1.0 - sig, out=sig)
    hess = x.swapaxes(1, 2) @ (curv[..., None] * x) / x.shape[1] + ridge
    chol = _cholesky(hess)
    direction = -np.linalg.solve(chol.swapaxes(1, 2),
                                 np.linalg.solve(chol, grad[..., None]))[..., 0]
    slope = row_dot(grad, direction)
    uphill = ~(slope < 0.0)
    if np.count_nonzero(uphill):
        direction[uphill] = -grad[uphill]
        slope = row_dot(grad, direction)
    return direction, slope


def _overflow(kind: str, flag: int) -> None:
    raise ValueError("diverged: the fit's products overflow float64")


@np.errstate(over="call", call=_overflow)
def ridge_penalty(k: int, l: int, mask: Mask, l2: float,
                  opts: OptimizerSettings = OptimizerSettings()) -> np.ndarray:
    """The per-weight penalty of fit_logistic's objective: l2, times
    spurious_l2_scale on a full fit's spurious block, and 0 on the
    intercept; l2 and spurious_l2_scale must be finite and nonnegative."""
    if not 0.0 <= l2 < math.inf:
        raise ValueError(f"l2 must be finite and nonnegative, got {l2!r}")
    scale = opts.spurious_l2_scale
    if not 0.0 <= scale < math.inf:
        raise ValueError("spurious_l2_scale must be finite and nonnegative, "
                         f"got {scale!r}")
    penalty = np.full((k if mask is Mask.DOMAIN_GENERAL else k + l)
                      + opts.bias, float(l2))
    if mask is Mask.FULL and scale != 1.0:
        penalty[k:k + l] *= scale
    if opts.bias:
        penalty[-1] = 0.0  # intercept is conventionally unpenalized
    return penalty


@np.errstate(over="call", call=_overflow)
def _newton(x: np.ndarray, y: np.ndarray, penalty: np.ndarray,
            opts: OptimizerSettings) -> np.ndarray:
    """The damped-Newton loop over a stack of problems; raises on the first
    member to fail, which need not be the member of lowest index.

    Every member keeps its own step size and stop at gnorm < tol. A member
    that stops leaves the stack: its weights are written back by index and
    the loop goes on over the gathered rows of the members still active.
    """
    if not np.all(np.any(y > 0, axis=1) & np.any(y < 0, axis=1)):
        raise ValueError("degenerate labels: both classes must be present")
    fitted = np.empty(penalty.shape)
    rows = np.arange(len(fitted))  # each stack member's row of fitted
    ridge = penalty[..., None] * np.eye(penalty.shape[1])  # np.diag per member
    w = np.zeros(penalty.shape)
    obj, grad, sig = _objective_grad_sigmoid(w, x, y, penalty)
    steps = 0
    while True:
        gnorm = np.sqrt(row_dot(grad, grad))
        # np.count_nonzero in place of .any(): it skips a Python-level
        # wrapper, which a one-member fit would pay at every step
        if np.count_nonzero(~(np.isfinite(obj) & np.isfinite(gnorm))):
            raise ValueError("diverged: non-finite loss or gradient")
        active = gnorm >= opts.tol
        n_active = np.count_nonzero(active)
        if n_active < len(rows):
            fitted[rows[~active]] = w[~active]
            if n_active:  # later steps cost only the members still active
                rows, x, y, penalty, ridge, w, obj, grad, sig, gnorm = (
                    a[active] for a in (rows, x, y, penalty, ridge, w, obj,
                                        grad, sig, gnorm))
        if not n_active:
            return fitted
        if steps == opts.max_iters:
            first = float(gnorm[0])
            raise ValueError(f"not converged: gradient norm {first:.3g} is still "
                             f"above tol {opts.tol:g} at max_iters = {steps}")
        direction, slope = _newton_direction(x, ridge, grad, sig)
        # Backtracking line search with the Armijo condition from the full
        # Newton step, which is accepted as is near the optimum.
        step = np.ones(len(w))
        pending = np.ones(len(w), dtype=bool)
        while True:
            w_new = w + step[:, None] * direction
            trial = _objective_grad_sigmoid(w_new, x, y, penalty)
            accept = pending & (trial[0] <= obj + 1e-4 * step * slope)
            if np.count_nonzero(accept) == len(w):  # all took the full step
                w, (obj, grad, sig) = w_new, trial
                break
            for old, new in zip((w, obj, grad, sig), (w_new, *trial)):
                old[accept] = new[accept]
            del trial, new  # a second (B, n) sigmoid would raise the peak
            pending &= ~accept
            if not np.count_nonzero(pending):
                break
            step[pending] *= 0.5
            if np.any(step[pending] < 1e-20):
                raise ValueError("diverged: line search failed")
        steps += 1


def fit_logistic_stack(x: np.ndarray, y: np.ndarray, penalty: np.ndarray,
                       opts: OptimizerSettings = OptimizerSettings()
                       ) -> np.ndarray:
    """(B, d) minimizers of B logistic objectives, one damped-Newton loop
    over the stack x (B, n, d), y (B, n) with per-weight penalties (B, d)
    from ridge_penalty; opts gives tol and max_iters.

    Each member's arithmetic is that of fitting it alone, and a member
    leaves the stack at the step where it stops. If the stacked pass fails,
    the members are refit one at a time, so the error raised is that of the
    first failing member.
    """
    if opts.max_iters < 0:
        raise ValueError(f"max_iters must be nonnegative, got {opts.max_iters!r}")
    try:
        return _newton(x, y, penalty, opts)
    except ValueError:
        if len(x) == 1:
            raise
    return np.concatenate([_newton(x[b:b + 1], y[b:b + 1], penalty[b:b + 1],
                                   opts) for b in range(len(x))])


def fit_logistic(data: Dataset, mask: Mask, l2: float,
                 opts: OptimizerSettings = OptimizerSettings()) -> LinearClassifier:
    """Fit the masked logistic objective; w_e is pinned to zero under
    Mask.DOMAIN_GENERAL. The one-problem case of fit_logistic_stack."""
    penalty = ridge_penalty(data.k, data.l, mask, l2, opts)
    y = np.asarray(data.y)
    if mask is Mask.DOMAIN_GENERAL:
        x = data.z_c
    else:
        x = data.x
    if opts.bias:
        x = np.hstack([x, np.ones((data.n, 1))])
    (w,) = fit_logistic_stack(x[None], y[None], penalty[None], opts)

    bias = float(w[-1]) if opts.bias else 0.0
    if opts.bias:
        w = w[:-1]

    if mask is Mask.DOMAIN_GENERAL:
        return LinearClassifier(w_c=w, w_e=np.zeros(data.l),
                                trained_on=Mask.DOMAIN_GENERAL, bias=bias)
    return LinearClassifier(w_c=w[:data.k], w_e=w[data.k:],
                            trained_on=Mask.FULL, bias=bias)


def evaluate_accuracy(model: LinearClassifier, data: Dataset) -> float:
    """Fraction with f(x) y > 0; ties f(x) = 0 count as incorrect."""
    if data.n == 0:
        raise ValueError("empty dataset")
    scores = model.score(data.x)
    return float(np.mean(scores * data.y > 0.0))


def evaluate_risk(model: LinearClassifier, data: Dataset, l2: float) -> float:
    """Mean logistic loss plus the (l2/2)||w||^2 penalty."""
    if data.n == 0:
        raise ValueError("empty dataset")
    margins = data.y * model.score(data.x)
    w = model.w
    return float(np.mean(np.logaddexp(0.0, -margins)) + 0.5 * l2 * float(w @ w))
