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
components, and the zero-measure experiment passes all of its trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .aline import AccuracyPair
from .analytic import normal_cdf, normal_pdf, normal_quantile
from .core import (BoundParams, DomainSpec, LinearClassifier, LinearShift,
                   Mask, MixtureShift, ShiftSpec)
from .rng import seeded_uniforms
from .synthgen import sample_domain
from .trainer import OptimizerSettings, fit_logistic


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
    return float(w_e @ m_mu_e) + penalty * math.sqrt(math.log(1.0 / delta))


@dataclass(frozen=True)
class Theorem2Result:
    snr_ood: float
    snr_id: float
    well_specified: bool


def theorem2_compare(w_c, mu_c, sigma_c, w_e, m_mu_e, sigma_phi) -> Theorem2Result:
    """Exact SNR comparison: well-specified iff the shifted SNR drops."""
    w_c = np.asarray(w_c, dtype=np.float64)
    w_e = np.asarray(w_e, dtype=np.float64)
    var_c = float(w_c @ np.asarray(sigma_c) @ w_c)
    var_e = float(w_e @ np.asarray(sigma_phi) @ w_e)
    if var_c <= 0.0 or var_c + var_e <= 0.0:
        raise ValueError("degenerate denominators in SNR comparison")
    signal_id = float(w_c @ np.asarray(mu_c))
    snr_id = signal_id / math.sqrt(var_c)
    snr_ood = (signal_id + float(w_e @ np.asarray(m_mu_e))) / math.sqrt(var_c + var_e)
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


def shift_moments(shift: ShiftSpec, mu_e, sigma_e) -> tuple[np.ndarray, np.ndarray]:
    """Mean matrix and class-conditional covariance of the shifted block.

    For a mixture the covariance picks up the between-component spread of
    the shifted means on top of the weighted within-component covariances.
    """
    mu_e = np.asarray(mu_e, dtype=np.float64)
    sigma_e = np.asarray(sigma_e, dtype=np.float64)
    matrices = shift.matrices(len(mu_e))
    weights = shift.weights()
    m_mean = sum(float(w) * m for w, m in zip(weights, matrices))
    mean_shifted = m_mean @ mu_e
    sigma_phi = np.zeros_like(sigma_e)
    for w, m in zip(weights, matrices):
        comp_mean = m @ mu_e
        dev = comp_mean - mean_shifted
        sigma_phi += float(w) * (m @ sigma_e @ m.T + np.outer(dev, dev))
    return m_mean, sigma_phi


def _id_kappa(spec: DomainSpec) -> float:
    """kappa of the ID spurious block: gaussian_kappa(sigma_e), or
    kappa_of_mixture over the shifted components under a mixture ID shift."""
    if isinstance(spec.shift, MixtureShift):
        return kappa_of_mixture([(w, m @ spec.mu_e, m @ spec.sigma_e @ m.T)
                                 for w, m in spec.shift.components])
    return gaussian_kappa(spec.sigma_e)


def _shift_constants(spec: DomainSpec, shift: ShiftSpec | np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, float]:
    """M and Sigma_phi (shift_moments) and L_phi, the largest component
    operator norm, of a shift; a bare l x l matrix is a LinearShift."""
    if not isinstance(shift, ShiftSpec):
        shift = LinearShift(shift)
    m_mean, sigma_phi = shift_moments(shift, spec.mu_e, spec.sigma_e)
    l_phi = max(lipschitz_of_linear(m) for m in shift.matrices(spec.l))
    return m_mean, sigma_phi, l_phi


def condition_report(classifier: LinearClassifier, spec: DomainSpec,
                     shift: ShiftSpec | np.ndarray, delta: float) -> ConditionReport:
    """Evaluate both shift conditions for a full classifier under a shift.

    A bare l x l matrix is taken as a LinearShift; kappa comes from
    _id_kappa and M, Sigma_phi, L_phi from _shift_constants.
    """
    m_mean, sigma_phi, l_phi = _shift_constants(spec, shift)
    m_mu_e = m_mean @ spec.mu_e
    reversal = float(np.asarray(classifier.w_e) @ m_mu_e)
    margin = theorem1_margin(classifier.w_e, m_mu_e, l_phi, _id_kappa(spec), delta)
    t2 = theorem2_compare(classifier.w_c, spec.mu_c, spec.sigma_c,
                          classifier.w_e, m_mu_e, sigma_phi)
    return ConditionReport(reversal_term=reversal,
                           theorem1_margin=margin,
                           theorem1_well_specified=margin < 0.0,
                           snr_id=t2.snr_id,
                           snr_ood=t2.snr_ood,
                           theorem2_well_specified=t2.well_specified)


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
    m_mean, sigma_phi, l_phi = _shift_constants(spec, shift)
    m_id, sigma_id = shift_moments(spec.shift, spec.mu_e, spec.sigma_e)
    eps1 = float(np.linalg.norm(m_mean @ spec.mu_e - m_id @ spec.mu_e))
    eps2 = abs(float(w_e @ sigma_phi @ w_e) - float(w_e @ sigma_id @ w_e))

    lip = probit_lipschitz(params.clip_alpha)
    c_const = params.lemma_c * _id_kappa(spec) * max(w_norm, l_phi * w_norm)
    zeta = abs(1.0 - params.slope_a) * float(normal_quantile(1.0 - params.clip_alpha))
    core = (w_norm * eps1
            + c_const * math.sqrt(math.log(1.0 / params.delta))
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
    m_mean, _, _ = _shift_constants(spec, shift)
    m_id, _ = shift_moments(spec.shift, spec.mu_e, spec.sigma_e)
    w_norm = float(np.linalg.norm(w_e))
    mean_shift = float(np.linalg.norm(m_mean @ spec.mu_e - m_id @ spec.mu_e))
    zeta = abs(1.0 - params.slope_a) * float(normal_quantile(1.0 - params.clip_alpha))
    bound = (params.lemma_c * w_norm * math.sqrt(math.log(1.0 / params.delta))
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
    return math.sqrt(2.0 * var * math.log(1.0 / delta)) / signal


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


def accuracy_under_shift(
        classifier_or_classifiers: LinearClassifier | Sequence[LinearClassifier],
        spec: DomainSpec, shift: ShiftSpec | None = None) -> float | np.ndarray:
    """Exact accuracy of linear rules on the spec with the given shift.

    Takes one classifier (returns a float) or a sequence of them (returns
    an array, one accuracy per classifier). The two classes are weighted
    by the spec's label_prior: pi P(correct | y = +1) + (1 - pi)
    P(correct | y = -1). Mixtures decompose into their Gaussian components:
    one _accuracy_kernel call gives every component's closed form, and the
    result is their weighted sum, accumulated in component order.
    """
    shift = spec.shift if shift is None else shift
    single = isinstance(classifier_or_classifiers, LinearClassifier)
    models = ([classifier_or_classifiers] if single
              else list(classifier_or_classifiers))
    w_c, w_e, bias = _stacked_weights(models, spec)
    rows = _accuracy_kernel(w_c, w_e, bias, spec,
                            np.stack(shift.matrices(spec.l)))
    total = np.zeros(len(models))
    for weight, row in zip(shift.weights(), rows):
        total += float(weight) * row
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
            fit_opts = OptimizerSettings(tol=opts.tol, max_iters=opts.max_iters,
                                         bias=opts.bias,
                                         spurious_l2_scale=float(rho))
            models.append(fit_logistic(data, Mask.FULL, l2, fit_opts))
            task += 1
    return models


def sweep_pairs(models: Sequence[LinearClassifier], spec: DomainSpec,
                ood_shift: ShiftSpec) -> list[AccuracyPair]:
    """Analytic (ID, OOD) accuracy pairs for a classifier family."""
    acc_id = accuracy_under_shift(models, spec)
    acc_ood = accuracy_under_shift(models, spec, ood_shift)
    return [AccuracyPair(model_id=f"model_{i:04d}", id_acc=float(a),
                         ood_acc=float(b))
            for i, (a, b) in enumerate(zip(acc_id, acc_ood))]


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
    l_phi = np.linalg.svd(mats, compute_uv=False)[:, 0]
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
