"""Evaluators for the well-specification conditions and bound formulas.

Three layers live here: scalar condition checks (reversal margin, SNR
comparison), the concentration-bound evaluators, and the zero-measure
experiment that measures how often a random shift is simultaneously
well-specified and on the accuracy line. Every evaluator takes the
theorem constants kappa (_id_kappa) and M, Sigma_phi, L_phi
(_shift_constants) from the (spec, shift) it is given; eps1, eps2 and
mean_shift measure the OOD moments against the ID environment's,
shift_moments(spec.shift, mu_e, sigma_e).

Every exact accuracy comes from one kernel, _accuracy_kernel, which takes
stacked rules and a (C, l, l) stack of shift matrices: a mixture passes its
components, the zero-measure experiment passes all of its trials, and
simulate passes the components of all of its shifts at once (a ShiftStack,
through accuracies_under_shifts and condition_reports). The shift constants
M, Sigma_phi and L_phi of a whole stack come from one pass as well
(_shift_constants, with one batched SVD). condition_report,
accuracy_under_shift, shift_moments, aotl_bound and tradeoff_lower_bound
are the one-shift case of these stacked helpers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .analytic import normal_cdf, normal_pdf, normal_quantile
from .core import (BoundParams, DomainSpec, LinearClassifier, LinearShift,
                   Mask, MixtureShift, ShiftSpec)
from .rng import seeded_uniforms
from .synthgen import sample_domain
from .trainer import OptimizerSettings, fit_logistic
from .util import parallel_map


@dataclass(frozen=True)
class ConditionReport:
    """Evaluated shift conditions for one (classifier, shift) instance."""

    reversal_term: float
    theorem1_margin: float
    theorem1_well_specified: bool
    snr_id: float
    snr_ood: float
    theorem2_well_specified: bool

    def to_dict(self) -> dict:
        return {"reversal_term": self.reversal_term,
                "theorem1_margin": self.theorem1_margin,
                "theorem1_well_specified": self.theorem1_well_specified,
                "snr_id": self.snr_id,
                "snr_ood": self.snr_ood,
                "theorem2_well_specified": self.theorem2_well_specified}


def _log_inv(delta: float) -> float:
    """log(1/delta); -log(delta) where 1/delta overflows (a subnormal delta)."""
    inv = 1.0 / delta
    return math.log(inv) if inv < math.inf else -math.log(delta)


def theorem1_margin(w_e, m_mu_e, l_phi: float, kappa: float, delta: float) -> float:
    """Reversal margin w_e.(M mu_e) + sqrt(2) L_phi kappa ||w_e|| sqrt(log 1/delta).

    Negative values certify a well-specified shift with probability at
    least 1 - delta.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if kappa < 0.0 or l_phi < 0.0:
        raise ValueError("kappa and l_phi must be nonnegative")
    w_e = np.asarray(w_e, dtype=np.float64)
    m_mu_e = np.asarray(m_mu_e, dtype=np.float64)
    penalty = math.sqrt(2.0) * l_phi * kappa * float(np.linalg.norm(w_e))
    return float(w_e @ m_mu_e) + penalty * math.sqrt(_log_inv(delta))


@dataclass(frozen=True)
class Theorem2Result:
    snr_ood: float
    snr_id: float
    well_specified: bool


def theorem2_compare(w_c, mu_c, sigma_c, w_e, m_mu_e, sigma_phi) -> Theorem2Result:
    """Exact SNR comparison: well-specified iff the shifted SNR drops."""
    w_c = np.asarray(w_c, dtype=np.float64)
    w_e = np.asarray(w_e, dtype=np.float64)
    return _snr_compare(float(w_c @ np.asarray(sigma_c) @ w_c),
                        float(w_c @ np.asarray(mu_c)),
                        float(w_e @ np.asarray(sigma_phi) @ w_e),
                        float(w_e @ np.asarray(m_mu_e)))


def _snr_compare(var_c: float, signal_id: float, var_e: float,
                 signal_e: float) -> Theorem2Result:
    """theorem2_compare from its four quadratic forms: var_c = w_c' Sigma_c w_c
    and signal_id = w_c' mu_c, which no shift changes, and var_e =
    w_e' Sigma_phi w_e and signal_e = w_e' M mu_e."""
    if not math.isfinite(var_e):
        raise ValueError("w_e' Sigma_phi w_e is not finite: the shifted "
                         "moments overflow float64")
    if var_c <= 0.0 or var_c + var_e <= 0.0:
        raise ValueError("degenerate denominators in SNR comparison")
    snr_id = signal_id / math.sqrt(var_c)
    snr_ood = (signal_id + signal_e) / math.sqrt(var_c + var_e)
    return Theorem2Result(snr_ood=snr_ood, snr_id=snr_id,
                          well_specified=snr_ood < snr_id)


def lipschitz_of_linear(m) -> float:
    """Operator 2-norm (largest singular value) of a matrix."""
    return float(np.linalg.norm(np.asarray(m, dtype=np.float64), 2))


def gaussian_kappa(sigma) -> float:
    """Sub-Gaussian parameter for a Gaussian: sqrt of the largest eigenvalue."""
    vals = np.linalg.eigvalsh(np.asarray(sigma, dtype=np.float64))
    return math.sqrt(max(float(vals[-1]), 0.0))


def kappa_of_mixture(components: Sequence[tuple[float, np.ndarray, np.ndarray]]) -> float:
    """Conservative sub-Gaussian parameter for a finite mixture.

    Max component parameter plus the largest deviation of a component mean
    from the mixture mean.
    """
    if not components:
        raise ValueError("mixture must have at least one component")
    weights = np.array([float(w) for w, _, _ in components])
    means = [np.asarray(mu, dtype=np.float64) for _, mu, _ in components]
    mixture_mean = sum(w * mu for w, mu in zip(weights, means))
    kappa_comp = max(gaussian_kappa(cov) for _, _, cov in components)
    spread = max(float(np.linalg.norm(mu - mixture_mean)) for mu in means)
    return kappa_comp + spread


@dataclass(frozen=True)
class ShiftStack:
    """S shifts as one (C, l, l) stack of their component matrices.

    Shift s owns counts[s] consecutive rows of mats, in its own component
    order, with their mixture weights beside them in weights; a linear or
    identity shift is one component of weight 1.
    """

    mats: np.ndarray
    weights: np.ndarray
    counts: np.ndarray

    @classmethod
    def of(cls, shifts: Sequence[ShiftSpec | np.ndarray], l: int) -> "ShiftStack":
        """Stack the shifts; a bare l x l matrix is a LinearShift."""
        shifts = [s if isinstance(s, ShiftSpec) else LinearShift(s) for s in shifts]
        return cls(mats=np.stack([m for s in shifts for m in s.matrices(l)]),
                   weights=np.concatenate([s.weights() for s in shifts]),
                   counts=np.array([len(s.weights()) for s in shifts]))

    @classmethod
    def linear(cls, mats: np.ndarray) -> "ShiftStack":
        """An (S, l, l) array as S linear shifts."""
        mats = np.asarray(mats, dtype=np.float64)
        return cls(mats=mats, weights=np.ones(len(mats)),
                   counts=np.ones(len(mats), dtype=np.int64))

    def __len__(self) -> int:
        return len(self.counts)

    def starts(self) -> np.ndarray:
        """(S,) row of each shift's first component in mats."""
        return np.cumsum(self.counts) - self.counts

    def weighted_sums(self, terms: np.ndarray) -> np.ndarray:
        """(S, ...) sum over each shift's components of weight * term.

        terms holds one (...) term per component. Each sum starts from zero
        and adds float(w) * term in component order, as a loop over one
        shift's components does, so the doubles are the same.
        """
        starts = self.starts()
        total = np.zeros((len(self),) + terms.shape[1:])
        for j in range(int(self.counts.max(initial=0))):
            rows = np.flatnonzero(self.counts > j)
            comps = starts[rows] + j
            weights = self.weights[comps].reshape((-1,) + (1,) * (terms.ndim - 1))
            total[rows] += weights * terms[comps]
        return total


def _stacked_moments(stack: ShiftStack, mu_e, sigma_e
                     ) -> tuple[np.ndarray, np.ndarray]:
    """(S, l, l) mean matrices and covariances of every shift (shift_moments)."""
    mu_e = np.asarray(mu_e, dtype=np.float64)
    sigma_e = np.asarray(sigma_e, dtype=np.float64)
    mats = stack.mats
    m_mean = stack.weighted_sums(mats)
    dev = mats @ mu_e - np.repeat(m_mean @ mu_e, stack.counts, axis=0)
    spread = (mats @ sigma_e @ np.swapaxes(mats, -1, -2)
              + dev[:, :, None] * dev[:, None, :])
    return m_mean, stack.weighted_sums(spread)


def shift_moments(shift: ShiftSpec, mu_e, sigma_e) -> tuple[np.ndarray, np.ndarray]:
    """Mean matrix and class-conditional covariance of the shifted block.

    For a mixture the covariance picks up the between-component spread of
    the shifted means on top of the weighted within-component covariances.
    """
    (m_mean,), (sigma_phi,) = _stacked_moments(
        ShiftStack.of([shift], len(mu_e)), mu_e, sigma_e)
    return m_mean, sigma_phi


def _id_kappa(spec: DomainSpec) -> float:
    """kappa of the ID spurious block: gaussian_kappa(sigma_e), or
    kappa_of_mixture over the shifted components under a mixture ID shift."""
    if isinstance(spec.shift, MixtureShift):
        return kappa_of_mixture([(w, m @ spec.mu_e, m @ spec.sigma_e @ m.T)
                                 for w, m in spec.shift.components])
    return gaussian_kappa(spec.sigma_e)


def _stacked_l_phi(stack: ShiftStack) -> np.ndarray:
    """(S,) L_phi: each shift's largest component operator norm, from one
    batched SVD (the same doubles as lipschitz_of_linear)."""
    norms = np.linalg.svd(stack.mats, compute_uv=False)[:, 0]
    return np.maximum.reduceat(norms, stack.starts())


def _shift_constants(spec: DomainSpec, stack: ShiftStack
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(S, l, l) M and Sigma_phi (shift_moments) and (S,) L_phi of every
    shift in the stack."""
    m_mean, sigma_phi = _stacked_moments(stack, spec.mu_e, spec.sigma_e)
    return m_mean, sigma_phi, _stacked_l_phi(stack)


def _one_shift(spec: DomainSpec, shift: ShiftSpec | np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, float]:
    """_shift_constants of one shift; a bare l x l matrix is a LinearShift."""
    (m_mean,), (sigma_phi,), (l_phi,) = _shift_constants(
        spec, ShiftStack.of([shift], spec.l))
    return m_mean, sigma_phi, float(l_phi)


def require_finite(name: str, values) -> None:
    """A numeric error naming the first shift (row of values) that holds a
    value that is not finite."""
    values = np.asarray(values, dtype=np.float64)
    finite = np.isfinite(values.reshape(len(values), -1)).all(axis=1)
    bad = np.flatnonzero(~finite)
    if bad.size:
        raise ValueError(f"{name} is not finite at shift {int(bad[0])}: "
                         f"the shifted moments overflow float64")


def condition_reports(classifier: LinearClassifier, spec: DomainSpec,
                      stack: ShiftStack, delta: float) -> list[ConditionReport]:
    """condition_report for every shift of the stack.

    The shift constants come from one stacked pass, and a Sigma_phi that
    overflows is a numeric error. The per-shift dot products of the margin
    and the SNRs stay scalar, since batched BLAS rounds them differently;
    the ID terms of the SNRs are computed once.
    """
    m_mean, sigma_phi, l_phi = _shift_constants(spec, stack)
    require_finite("Sigma_phi", sigma_phi)
    m_mu_e = m_mean @ spec.mu_e
    l_phi = l_phi.tolist()
    kappa = _id_kappa(spec)
    w_c = np.asarray(classifier.w_c, dtype=np.float64)
    w_e = np.asarray(classifier.w_e, dtype=np.float64)
    var_c = float(w_c @ spec.sigma_c @ w_c)
    signal_id = float(w_c @ spec.mu_c)

    def report(s: int) -> ConditionReport:
        margin = theorem1_margin(w_e, m_mu_e[s], l_phi[s], kappa, delta)
        reversal = float(w_e @ m_mu_e[s])
        t2 = _snr_compare(var_c, signal_id, float(w_e @ sigma_phi[s] @ w_e),
                          reversal)
        return ConditionReport(reversal_term=reversal,
                               theorem1_margin=margin,
                               theorem1_well_specified=margin < 0.0,
                               snr_id=t2.snr_id,
                               snr_ood=t2.snr_ood,
                               theorem2_well_specified=t2.well_specified)

    return parallel_map(report, range(len(stack)))


def condition_report(classifier: LinearClassifier, spec: DomainSpec,
                     shift: ShiftSpec | np.ndarray, delta: float) -> ConditionReport:
    """Evaluate both shift conditions for a full classifier under a shift.

    A bare l x l matrix is taken as a LinearShift; kappa comes from
    _id_kappa and M, Sigma_phi, L_phi from _shift_constants. The one-shift
    case of condition_reports.
    """
    return condition_reports(classifier, spec, ShiftStack.of([shift], spec.l),
                             delta)[0]


def aotl_bound(params: BoundParams, w_e, spec: DomainSpec,
               shift: ShiftSpec | np.ndarray) -> float:
    """Accuracy-on-the-line deviation bound.

    Evaluates L B (||w_e|| eps1 + C sqrt(log 1/delta) + sqrt(eps2)) + zeta
    with C = c kappa max(||w_e||, L_phi ||w_e||) and L the Lipschitz constant
    of the probit on the clipped accuracy interval. kappa, L_phi, M and
    Sigma_phi come from (spec, shift) as in condition_report. eps1 and eps2
    are taken against the ID moments M_id, Sigma_id of spec.shift:
    eps1 = ||M mu_e - M_id mu_e|| and eps2 = |w_e' (Sigma_phi - Sigma_id) w_e|.
    """
    problems = params.validate()
    if problems:
        raise ValueError("invalid params: " + "; ".join(problems))
    w_e = np.asarray(w_e, dtype=np.float64)
    w_norm = float(np.linalg.norm(w_e))
    m_mean, sigma_phi, l_phi = _one_shift(spec, shift)
    m_id, sigma_id = shift_moments(spec.shift, spec.mu_e, spec.sigma_e)
    eps1 = float(np.linalg.norm(m_mean @ spec.mu_e - m_id @ spec.mu_e))
    eps2 = abs(float(w_e @ sigma_phi @ w_e) - float(w_e @ sigma_id @ w_e))

    lip = probit_lipschitz(params.clip_alpha)
    c_const = params.lemma_c * _id_kappa(spec) * max(w_norm, l_phi * w_norm)
    zeta = abs(1.0 - params.slope_a) * float(normal_quantile(1.0 - params.clip_alpha))
    core = (w_norm * eps1
            + c_const * math.sqrt(_log_inv(params.delta))
            + math.sqrt(eps2))
    return lip * params.tsybakov_b * core + zeta


def probit_lipschitz(clip_alpha: float) -> float:
    """Lipschitz constant of the probit on [alpha, 1-alpha]."""
    if not 0.0 < clip_alpha < 0.5:
        raise ValueError("clip_alpha must lie in (0, 0.5)")
    edge = float(normal_quantile(1.0 - clip_alpha))
    return 1.0 / float(normal_pdf(edge))


@dataclass(frozen=True)
class TradeoffBound:
    """Lower bound on the probit gap forced by spurious-correlation reversal."""

    bound: float
    mean_shift: float
    mean_shift_lower: float
    reversal_condition_positive: bool


def tradeoff_lower_bound(params: BoundParams, w_e, spec: DomainSpec,
                         shift: ShiftSpec | np.ndarray) -> TradeoffBound:
    """Evaluate C ||w_e|| sqrt(log 1/delta) ||M mu_e - M_id mu_e|| - zeta.

    The folded constant C is params.lemma_c; M is the shift's mean matrix,
    as in condition_report, and M_id that of spec.shift, the ID
    environment. Also reports the auxiliary
    lower bound (gamma + w_e.mu_e)/||w_e|| on the mean shift and whether
    gamma + w_e.mu_e is strictly positive.
    """
    problems = params.validate()
    if problems:
        raise ValueError("invalid params: " + "; ".join(problems))
    w_e = np.asarray(w_e, dtype=np.float64)
    m_mean, _, _ = _one_shift(spec, shift)
    m_id, _ = shift_moments(spec.shift, spec.mu_e, spec.sigma_e)
    w_norm = float(np.linalg.norm(w_e))
    mean_shift = float(np.linalg.norm(m_mean @ spec.mu_e - m_id @ spec.mu_e))
    zeta = abs(1.0 - params.slope_a) * float(normal_quantile(1.0 - params.clip_alpha))
    bound = (params.lemma_c * w_norm * math.sqrt(_log_inv(params.delta))
             * mean_shift - zeta)
    margin_sum = params.gamma + float(w_e @ spec.mu_e)
    lower = margin_sum / w_norm if w_norm > 0.0 else 0.0
    return TradeoffBound(bound=bound, mean_shift=mean_shift,
                         mean_shift_lower=lower,
                         reversal_condition_positive=margin_sum > 0.0)


def reflection_alpha_threshold(w_e, mu_e, sigma_e, delta: float) -> float:
    """Scale above which the reflection shift certifies reversal."""
    w_e = np.asarray(w_e, dtype=np.float64)
    mu_e = np.asarray(mu_e, dtype=np.float64)
    signal = float(w_e @ mu_e)
    if signal <= 0.0:
        raise ValueError("w_e . mu_e must be positive")
    var = float(w_e @ np.asarray(sigma_e) @ w_e)
    return math.sqrt(2.0 * var * _log_inv(delta)) / signal


def _stacked_weights(models: Sequence[LinearClassifier], spec: DomainSpec
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(n, k) w_c, (n, l) w_e and (n,) bias stacked from n classifiers."""
    n = len(models)
    w_c = np.array([mdl.w_c for mdl in models], dtype=np.float64).reshape(n, spec.k)
    w_e = np.array([mdl.w_e for mdl in models], dtype=np.float64).reshape(n, spec.l)
    bias = np.array([mdl.bias for mdl in models], dtype=np.float64)
    return w_c, w_e, bias


def _accuracy_kernel(w_c: np.ndarray, w_e: np.ndarray, bias: np.ndarray,
                     spec: DomainSpec, mats: np.ndarray) -> np.ndarray:
    """(C, n) exact accuracies of n stacked rules under each of C matrices.

    Row t is the closed form for the linear shift mats[t]. The stacked
    matmul and einsum forms below round exactly as one matrix at a time
    does; other spellings (``m_mu @ w_e.T``, ``(w_e @ cov * w_e).sum(-1)``)
    move the last bits.
    """
    prior = float(spec.label_prior)
    signal_c = w_c @ spec.mu_c
    var_c = np.einsum("ij,jk,ik->i", w_c, spec.sigma_c, w_c)
    signal = signal_c + (w_e @ (mats @ spec.mu_e)[..., None])[..., 0]
    cov = mats @ spec.sigma_e @ np.swapaxes(mats, -1, -2)
    var = var_c + np.einsum("ij,tjk,ik->ti", w_e, cov, w_e)
    if np.any(var <= 0.0):
        raise ValueError("degenerate projection: zero score variance")
    sd = np.sqrt(var)
    # a bias breaks the ±mu symmetry: weight the two class-conditional
    # correct-side probabilities by the label prior
    cdf = normal_cdf(np.stack([(signal + bias) / sd, (signal - bias) / sd]))
    return prior * cdf[0] + (1.0 - prior) * cdf[1]


def accuracies_under_shifts(models: Sequence[LinearClassifier],
                            spec: DomainSpec, stack: ShiftStack) -> np.ndarray:
    """(S, n) exact accuracies of n linear rules under each shift of the stack.

    One _accuracy_kernel call gives every component's closed form; a
    shift's accuracy is their weighted sum, accumulated in component order.
    """
    rows = _accuracy_kernel(*_stacked_weights(models, spec), spec, stack.mats)
    return stack.weighted_sums(rows)


def accuracy_under_shift(
        classifier_or_classifiers: LinearClassifier | Sequence[LinearClassifier],
        spec: DomainSpec, shift: ShiftSpec | None = None) -> float | np.ndarray:
    """Exact accuracy of linear rules on the spec with the given shift.

    Takes one classifier (returns a float) or a sequence of them (returns
    an array, one accuracy per classifier). The two classes are weighted
    by the spec's label_prior: pi P(correct | y = +1) + (1 - pi)
    P(correct | y = -1). Mixtures decompose into their Gaussian components
    (the one-shift case of accuracies_under_shifts).
    """
    shift = spec.shift if shift is None else shift
    single = isinstance(classifier_or_classifiers, LinearClassifier)
    models = ([classifier_or_classifiers] if single
              else list(classifier_or_classifiers))
    (total,) = accuracies_under_shifts(models, spec,
                                       ShiftStack.of([shift], spec.l))
    return float(total[0]) if single else total


def classifier_sweep(spec: DomainSpec, n: int, seed: int,
                     reliance_grid: Sequence[float],
                     l2: float = 1e-3,
                     n_seeds: int = 3,
                     opts: OptimizerSettings = OptimizerSettings()) -> list[LinearClassifier]:
    """Family of full classifiers spanning the spurious-reliance path.

    Each entry is a full logistic fit on a fresh sample of n points with the
    spurious block's ridge scaled by one grid value; large scales approach
    the domain-general fit, small scales lean harder on spurious features.
    """
    if len(reliance_grid) == 0:
        raise ValueError("reliance grid must be nonempty")
    models = []
    task = 0
    for rho in reliance_grid:
        for _ in range(n_seeds):
            data = sample_domain(spec, n, seed * 1_000_003 + task)
            fit_opts = replace(opts, spurious_l2_scale=float(rho))
            models.append(fit_logistic(data, Mask.FULL, l2, fit_opts))
            task += 1
    return models


def sweep_pairs(models: Sequence[LinearClassifier], spec: DomainSpec,
                ood_shift: ShiftSpec) -> tuple[np.ndarray, np.ndarray]:
    """Analytic ``(id_acc, ood_acc)`` arrays for a classifier family."""
    return (accuracy_under_shift(models, spec),
            accuracy_under_shift(models, spec, ood_shift))


DEFAULT_RELIANCE_GRID = tuple(float(x) for x in np.geomspace(1e-3, 1e3, 13))


@dataclass(frozen=True)
class ZeroMeasureResult:
    """Empirical fractions of shifts inside the well-specified-and-on-the-line set."""

    eps_grid: tuple[float, ...]
    fractions: tuple[float, ...]
    margins: tuple[float, ...]
    residuals: tuple[float, ...]
    trials: int

    def rows(self) -> list[tuple[float, float]]:
        return list(zip(self.eps_grid, self.fractions))

    def to_csv(self) -> str:
        lines = ["eps,fraction_well_specified_on_line"]
        lines += [f"{eps:.17g},{frac:.17g}" for eps, frac in self.rows()]
        return "\n".join(lines) + "\n"


def zero_measure_experiment(spec: DomainSpec, eps_grid: Sequence[float],
                            trials: int, n_per_domain: int, seed: int,
                            delta: float = 0.1, shift_scale: float = 2.0,
                            reliance_grid: Sequence[float] = DEFAULT_RELIANCE_GRID,
                            n_seeds: int = 2) -> ZeroMeasureResult:
    """Estimate how often a random shift is well-specified yet on the line.

    For each sampled shift the reversal margin is tested on the reference
    full fit and the per-sweep slope is fit by zero-intercept least squares
    on the probit scale; the max probit residual over the sweep is the
    smallest eps the shift supports. Fractions are nondecreasing in eps by
    construction because every trial shares one (margin, residual) pair.
    Each margin equals condition_report's for the reference fit and that
    trial's shift.

    All trials run in one pass: the random_shift draws (one seed per trial,
    seed * 7919 + t, through one re-keyed generator) are stacked, one
    _accuracy_kernel call and one normal_quantile call cover the (trial x
    model) grid, and one batched SVD gives every trial's L_phi. The
    per-trial dot products of the margin and the slope stay scalar, since
    batched BLAS rounds them differently.
    """
    if trials < 100:
        raise ValueError("trials must be at least 100")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if not 0.0 < shift_scale < math.inf:
        raise ValueError("shift_scale must be positive and finite")
    if not all(0.0 <= e < math.inf for e in eps_grid):
        raise ValueError("eps grid must be finite and nonnegative")

    models = classifier_sweep(spec, n_per_domain, seed, reliance_grid,
                              n_seeds=n_seeds)
    reference = fit_logistic(sample_domain(spec, n_per_domain, seed ^ 0x5EED),
                             Mask.FULL, 1e-3)
    kappa = _id_kappa(spec)

    acc_id = accuracy_under_shift(models, spec)
    if float(np.ptp(acc_id)) < 1e-12:
        raise ValueError("degenerate sweep: all accuracies equal")
    probit_id = normal_quantile(np.clip(acc_id, 1e-12, 1.0 - 1e-12))

    sxx = float(probit_id @ probit_id)
    if sxx <= 0.0:
        raise ValueError("degenerate sweep: zero probit variance")

    # random_shift(spec.l, shift_scale, seed * 7919 + t) for every trial t
    mats = seeded_uniforms([seed * 7_919 + t for t in range(trials)],
                           -shift_scale, shift_scale, (spec.l, spec.l))
    m_mu_e = mats @ spec.mu_e
    l_phi = _stacked_l_phi(ShiftStack.linear(mats))
    margins = np.array([theorem1_margin(reference.w_e, m_mu_e[t], l_phi[t],
                                        kappa, delta)
                        for t in range(trials)])
    acc_ood = _accuracy_kernel(*_stacked_weights(models, spec), spec, mats)
    probit_ood = normal_quantile(np.clip(acc_ood, 1e-12, 1.0 - 1e-12))
    slopes = np.array([float(row @ probit_id) / sxx for row in probit_ood])
    residuals = np.max(np.abs(probit_ood - slopes[:, None] * probit_id), axis=1)

    fractions = []
    for eps in eps_grid:
        inside = (margins < 0.0) & (residuals <= eps)
        fractions.append(float(np.mean(inside)))
    return ZeroMeasureResult(eps_grid=tuple(float(e) for e in eps_grid),
                             fractions=tuple(fractions),
                             margins=tuple(margins.tolist()),
                             residuals=tuple(residuals.tolist()),
                             trials=trials)
