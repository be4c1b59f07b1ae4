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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def _objective_grad_sigmoid(w: np.ndarray, x: np.ndarray, y: np.ndarray,
                            penalty: np.ndarray
                            ) -> tuple[float, np.ndarray, np.ndarray]:
    """Objective, gradient and sigmoid(-y w.x) at w; the Newton step at an
    accepted w reuses the sigmoid."""
    margins = y * (x @ w)
    # log(1 + exp(-m)) computed stably for both signs of m.
    loss = float(np.mean(np.logaddexp(0.0, -margins)))
    sig = 0.5 * (1.0 - np.tanh(0.5 * margins))  # sigmoid(-m), overflow-safe
    grad = -(x.T @ (y * sig)) / len(y) + penalty * w
    return loss + 0.5 * float(penalty @ (w * w)), grad, sig


def _newton_direction(x: np.ndarray, y: np.ndarray, penalty: np.ndarray,
                      grad: np.ndarray, sig: np.ndarray) -> np.ndarray:
    """Solve H d = -grad by Cholesky, with sig the sigmoid(-y w.x) that
    _objective_grad_sigmoid gave at w; -grad if H is not positive definite or
    d is not a descent direction."""
    hess = (x.T @ ((sig * (1.0 - sig))[:, None] * x)) / len(y) + np.diag(penalty)
    try:
        chol = np.linalg.cholesky(hess)
    except np.linalg.LinAlgError:
        return -grad
    direction = -np.linalg.solve(chol.T, np.linalg.solve(chol, grad))
    if not float(grad @ direction) < 0.0:
        return -grad
    return direction


def _overflow(kind: str, flag: int) -> None:
    raise ValueError("diverged: the fit's products overflow float64")


@np.errstate(over="call", call=_overflow)
def fit_logistic(data: Dataset, mask: Mask, l2: float,
                 opts: OptimizerSettings = OptimizerSettings()) -> LinearClassifier:
    """Fit the masked logistic objective; w_e is pinned to zero under
    Mask.DOMAIN_GENERAL."""
    if l2 < 0.0:
        raise ValueError("l2 must be nonnegative")
    y = np.asarray(data.y)
    if not (np.any(y > 0) and np.any(y < 0)):
        raise ValueError("degenerate labels: both classes must be present")

    if mask is Mask.DOMAIN_GENERAL:
        x = data.z_c
    else:
        x = data.x
    if opts.bias:
        x = np.hstack([x, np.ones((data.n, 1))])

    penalty = np.full(x.shape[1], l2)
    if mask is Mask.FULL and opts.spurious_l2_scale != 1.0:
        penalty[data.k:data.k + data.l] *= opts.spurious_l2_scale
    if opts.bias:
        penalty[-1] = 0.0  # intercept is conventionally unpenalized

    w = np.zeros(x.shape[1])
    obj, grad, sig = _objective_grad_sigmoid(w, x, y, penalty)
    steps = 0
    while True:
        gnorm = float(np.linalg.norm(grad))
        if not np.isfinite(obj) or not np.isfinite(gnorm):
            raise ValueError("diverged: non-finite loss or gradient")
        if gnorm < opts.tol:
            break
        if steps == opts.max_iters:
            raise ValueError(f"not converged: gradient norm {gnorm:.3g} is still "
                             f"above tol {opts.tol:g} at max_iters = {steps}")
        direction = _newton_direction(x, y, penalty, grad, sig)
        slope = float(grad @ direction)
        # Backtracking line search with the Armijo condition from the full
        # Newton step, which is accepted as is near the optimum.
        step = 1.0
        while True:
            w_new = w + step * direction
            obj_new, grad_new, sig_new = _objective_grad_sigmoid(
                w_new, x, y, penalty)
            if obj_new <= obj + 1e-4 * step * slope:
                break
            step *= 0.5
            if step < 1e-20:
                raise ValueError("diverged: line search failed")
        w, obj, grad, sig = w_new, obj_new, grad_new, sig_new
        steps += 1

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
