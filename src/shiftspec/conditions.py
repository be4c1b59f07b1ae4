"""Evaluators for the well-specification conditions of theorems 1 and 2.

Two layers live here: condition checks (reversal margin, SNR comparison)
over a stack of shifts in one vector pass, and the zero-measure experiment
that measures how often a random shift is well-specified yet on the line.
Every evaluator takes the theorem constants kappa (_id_kappa) and M,
Sigma_phi, L_phi (condition_reports) from the (spec, shift) it is given.
The paper's deviation bounds are not evaluated.

Theorem 2's verdict (theorem2_well_specified) is the SNR comparison: the
shift is well-specified when it lowers the full rule's SNR below that of
its own w_c part. For a linear shift with label_prior = 0.5 and no bias
this equals the exact comparison acc_ood(full) < acc_ood(full with
w_e = 0). Under a mixture shift, another prior or a bias it is a
moment-matched approximation. With the default spec and a full fit on
sample_domain(spec, 1000, 3), 0 of 2,000 random linear shifts (entries
uniform on [-2, 2]) disagree with the exact comparison, but 55 of 2,000
mixtures of 2-3 such matrices with Dirichlet(1) weights do, with accuracy
gaps up to 0.0368 (both drawn from np.random.default_rng(0), as the test
of these figures does).

Every exact accuracy comes from one kernel, _accuracy_kernel, which takes
stacked rules and a (C, l, l) stack of shift matrices: a mixture passes its
components, and simulate and the zero-measure experiment pass all of their
shifts at once (a ShiftStack, through accuracies_under_shifts). It builds
each rule's Gaussian margin table and reduces it with
analytic.gaussian_margin_cdf, the package's one sum of weighted normal
CDFs, which cmnist's closed form calls too. Every condition of a whole
stack comes from one pass as well: condition_reports returns one
ConditionReport record whose fields are (S,) arrays (the shift constants M,
Sigma_phi and L_phi from _stacked_moments and one batched SVD, the
theorem-1 margins, reversals, SNRs and both verdicts), and simulate and
the zero-measure experiment both read it. condition_report (row 0 of that
record, as Python scalars), accuracy_under_shift and shift_moments are
the one-shift case of these stacked helpers.

The classifier family of the zero-measure experiment (classifier_sweep,
plus the reference fit as one more member) is sampled and fit as one stack
as well: one synthgen.sample_domains call and one
trainer.fit_logistic_stack call (_fit_family), whose weights are those of a
sample_domain + fit_logistic call per member, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .aline import correlation_epsilon
from .analytic import gaussian_margin_cdf, normal_quantile, row_dot
from .config import RunConfig, SweepConfig
from .core import (DomainSpec, LinearClassifier, LinearShift, Mask,
                   MixtureShift, ShiftSpec)
from .synthgen import random_shifts, sample_domains
from .trainer import (DEFAULT_L2, OptimizerSettings, fit_logistic_stack,
                      ridge_penalty)


@dataclass(frozen=True)
class ConditionReport:
    """Evaluated shift conditions of one classifier: an (S,) array per field,
    entry s for shift s of a stack (condition_reports), or one shift's
    Python scalars (condition_report)."""

    reversal_term: np.ndarray | float
    theorem1_margin: np.ndarray | float
    theorem1_well_specified: np.ndarray | bool
    snr_id: np.ndarray | float
    snr_ood: np.ndarray | float
    theorem2_well_specified: np.ndarray | bool


def _log_inv(delta: float) -> float:
    """log(1/delta); -log(delta) where 1/delta overflows (a subnormal delta)."""
    inv = 1.0 / delta
    return math.log(inv) if inv < math.inf else -math.log(delta)


def theorem1_margin(w_e, m_mu_e, l_phi, kappa: float,
                    delta: float) -> float | np.ndarray:
    """Reversal margin w_e.(M mu_e) + sqrt(2) L_phi kappa ||w_e|| sqrt(log 1/delta).

    Negative values certify a well-specified shift with probability at
    least 1 - delta. For a linear shift M both terms scale with ||M||, so
    margin(alpha M) = alpha margin(M): shift_scale moves the theorem-2
    verdict and the zero-measure residuals, never this certificate.

    One shift (m_mu_e of shape (l,), a scalar l_phi) gives a float; S shifts
    ((S, l) and (S,)) give an (S,) array. The dot products are one row_dot
    call, which rounds each as the one-shift w_e @ m_mu_e does.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    l_phi = np.asarray(l_phi, dtype=np.float64)
    if kappa < 0.0 or np.any(l_phi < 0.0):
        raise ValueError("kappa and l_phi must be nonnegative")
    w_e = np.asarray(w_e, dtype=np.float64)
    m_mu_e = np.asarray(m_mu_e, dtype=np.float64)
    penalty = math.sqrt(2.0) * l_phi * kappa * float(np.linalg.norm(w_e))
    margin = row_dot(w_e, m_mu_e) + penalty * math.sqrt(_log_inv(delta))
    return float(margin) if margin.ndim == 0 else margin


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
                      stack: ShiftStack, delta: float) -> ConditionReport:
    """Both shift conditions of a full classifier under every shift of the
    stack, in one vector pass: one record of (S,) arrays.

    M mu_e and Sigma_phi come from _stacked_moments, L_phi from one batched
    SVD and the margins from one theorem1_margin call; theorem 2's SNRs come
    from the (S,) reversals w_e' M mu_e and var_e = w_e' Sigma_phi w_e
    through row_dot, each rounded as the one-shift float. A Sigma_phi that
    overflows, then the first shift whose var_e is not finite or whose SNR
    denominator is not positive, raises a numeric error, without a warning.
    """
    w_c = np.asarray(classifier.w_c, dtype=np.float64)
    w_e = np.asarray(classifier.w_e, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        m_mean, sigma_phi = _stacked_moments(stack, spec.mu_e, spec.sigma_e)
    norms = np.linalg.svd(stack.mats, compute_uv=False)[:, 0]
    l_phi = np.maximum.reduceat(norms, stack.starts())
    require_finite("Sigma_phi", sigma_phi)
    m_mu_e = m_mean @ spec.mu_e
    margins = theorem1_margin(w_e, m_mu_e, l_phi, _id_kappa(spec), delta)
    var_c = float(w_c @ spec.sigma_c @ w_c)
    signal_id = float(w_c @ spec.mu_c)
    reversal = row_dot(w_e, m_mu_e)
    with np.errstate(over="ignore", invalid="ignore"):
        var_e = row_dot(w_e @ sigma_phi, w_e)
    bad = np.flatnonzero(~np.isfinite(var_e) | (var_c <= 0.0)
                         | (var_c + var_e <= 0.0))
    if bad.size:
        if not math.isfinite(var_e[bad[0]]):
            raise ValueError("w_e' Sigma_phi w_e is not finite: the shifted "
                             "moments overflow float64")
        raise ValueError("degenerate denominators in SNR comparison")
    snr_id = np.full(len(stack), signal_id / math.sqrt(var_c))
    snr_ood = (signal_id + reversal) / np.sqrt(var_c + var_e)
    return ConditionReport(reversal_term=reversal, theorem1_margin=margins,
                           theorem1_well_specified=margins < 0.0,
                           snr_id=snr_id, snr_ood=snr_ood,
                           theorem2_well_specified=snr_ood < snr_id)


def condition_report(classifier: LinearClassifier, spec: DomainSpec,
                     shift: ShiftSpec | np.ndarray, delta: float) -> ConditionReport:
    """Evaluate both shift conditions for a full classifier under a shift.

    A bare l x l matrix is taken as a LinearShift. The one-shift case of
    condition_reports: its record's row 0, as Python scalars.
    """
    record = condition_reports(classifier, spec,
                               ShiftStack.of([shift], spec.l), delta)
    return ConditionReport(**{name: column[0].item()
                              for name, column in vars(record).items()})


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

    Row t is the closed form for the linear shift mats[t]: the margin of a
    rule is a two-component Gaussian mixture, the classes y = +1 and -1
    with weights (label_prior, 1 - label_prior), means signal + bias and
    signal - bias, and sd sqrt(var), reduced by gaussian_margin_cdf. A
    variance that overflowed to inf or nan, then a zero one, raises before
    the reduction: einsum and matmul overflow without a warning, and
    Phi(a / inf) = Phi(0) would score the rule as a coin flip; the s = 0
    step is never taken here. The stacked matmul and einsum forms below
    round exactly as one matrix at a time does; other spellings
    (``m_mu @ w_e.T``, ``(w_e @ cov * w_e).sum(-1)``) move the last bits.
    """
    prior = float(spec.label_prior)
    signal_c = w_c @ spec.mu_c
    var_c = np.einsum("ij,jk,ik->i", w_c, spec.sigma_c, w_c)
    signal = signal_c + (w_e @ (mats @ spec.mu_e)[..., None])[..., 0]
    cov = mats @ spec.sigma_e @ np.swapaxes(mats, -1, -2)
    var = var_c + np.einsum("ij,tjk,ik->ti", w_e, cov, w_e)
    if not np.isfinite(var).all():
        raise ValueError("score variance is not finite: the shifted moments "
                         "overflow float64")
    if np.any(var <= 0.0):
        raise ValueError("degenerate projection: zero score variance")
    # a bias breaks the ±mu symmetry: weight the two class-conditional
    # correct-side probabilities by the label prior
    a = np.stack([signal + bias, signal - bias])
    return gaussian_margin_cdf((prior, 1.0 - prior), a, np.sqrt(var))


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


def _sweep_members(seed: int, reliance_grid: Sequence[float],
                   n_seeds: int) -> tuple[list[int], list[float]]:
    """Sample seeds and spurious ridge scales of classifier_sweep's members:
    n_seeds members per grid value, in grid order, member t sampled with
    seed * 1_000_003 + t."""
    if len(reliance_grid) == 0:
        raise ValueError("reliance grid must be nonempty")
    if n_seeds < 1:
        raise ValueError("n_seeds must be at least 1")
    scales = [float(rho) for rho in reliance_grid for _ in range(n_seeds)]
    return [seed * 1_000_003 + t for t in range(len(scales))], scales


def _fit_family(spec: DomainSpec, n: int, seeds: Sequence[int],
                scales: Sequence[float]) -> list[LinearClassifier]:
    """Full fits at DEFAULT_L2, member b on sample_domain(spec, n, seeds[b])
    with the spurious ridge scaled by scales[b]: one sample_domains call and
    one fit_logistic_stack call, so the weights are those of fitting each
    member alone. Every scale is checked before anything is sampled."""
    penalty = np.array([ridge_penalty(spec.k, spec.l, Mask.FULL, DEFAULT_L2,
                                      OptimizerSettings(spurious_l2_scale=s))
                        for s in scales])
    w = fit_logistic_stack(*sample_domains(spec, n, seeds), penalty)
    return [LinearClassifier(w_c=row[:spec.k], w_e=row[spec.k:],
                             trained_on=Mask.FULL) for row in w]


def classifier_sweep(spec: DomainSpec, n: int, seed: int,
                     reliance_grid: Sequence[float],
                     n_seeds: int = 3) -> list[LinearClassifier]:
    """Family of full classifiers spanning the spurious-reliance path.

    Each entry is a full logistic fit on a fresh sample of n points with the
    spurious block's ridge scaled by one grid value; large scales approach
    the domain-general fit, small scales lean harder on spurious features.
    The family is sampled and fit as one stack (_fit_family).
    """
    return _fit_family(spec, n, *_sweep_members(seed, reliance_grid, n_seeds))


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


def zero_measure_experiment(spec: DomainSpec, eps_grid: Sequence[float],
                            trials: int, n_per_domain: int, seed: int,
                            delta: float = RunConfig.delta,
                            shift_scale: float = SweepConfig.shift_scale,
                            reliance_grid: Sequence[float] = DEFAULT_RELIANCE_GRID,
                            n_seeds: int = 2) -> ZeroMeasureResult:
    """Estimate how often a random shift is well-specified yet on the line.

    For each sampled shift the reversal margin is tested on the reference
    full fit, and the shift's residual is Definition 6's eps over the sweep,
    correlation_epsilon in the direction probit(OOD) ≈ a·probit(ID) (audit's
    definition6 fits the other direction, probit(ID) ≈ a·probit(OOD)): the
    smallest eps the shift supports.
    Fractions are nondecreasing in eps by construction because every trial
    shares one (margin, residual) pair.
    The margins are the theorem1_margin column of one condition_reports
    record for the reference fit over every trial's shift, so each equals
    condition_report's for that fit and shift, and a shift_scale whose
    Sigma_phi or w_e' Sigma_phi w_e overflows float64 is the same numeric
    error; one whose family's score variances overflow is the kernel's.

    All trials run in one pass: one random_shifts draw (trial t with seed
    seed * 7919 + t, through one re-keyed generator) is one ShiftStack for
    condition_reports and accuracies_under_shifts, and their OOD probits are
    one correlation_epsilon call.
    """
    if trials < 100:
        raise ValueError("trials must be at least 100")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if not all(0.0 <= e < math.inf for e in eps_grid):
        raise ValueError("eps grid must be finite and nonnegative")
    # drawn before the fits, which a bad shift_scale then never starts
    stack = ShiftStack.linear(random_shifts(
        spec.l, shift_scale, [seed * 7_919 + t for t in range(trials)]))

    seeds, scales = _sweep_members(seed, reliance_grid, n_seeds)
    # the reference fit (plain objective, seed ^ 0x5EED) is one more member
    *models, reference = _fit_family(spec, n_per_domain,
                                     seeds + [seed ^ 0x5EED], scales + [1.0])

    acc_id = accuracy_under_shift(models, spec)
    if float(np.ptp(acc_id)) < 1e-12:
        raise ValueError("degenerate sweep: all accuracies equal")
    probit_id = normal_quantile(np.clip(acc_id, 1e-12, 1.0 - 1e-12))

    margins = condition_reports(reference, spec, stack, delta).theorem1_margin
    acc_ood = accuracies_under_shifts(models, spec, stack)
    probit_ood = normal_quantile(np.clip(acc_ood, 1e-12, 1.0 - 1e-12))
    residuals = correlation_epsilon(probit_ood, probit_id)[1]

    fractions = tuple(float(np.mean((margins < 0.0) & (residuals <= eps)))
                      for eps in eps_grid)
    return ZeroMeasureResult(eps_grid=tuple(float(e) for e in eps_grid),
                             fractions=fractions,
                             margins=tuple(margins.tolist()),
                             residuals=tuple(residuals.tolist()),
                             trials=trials)
