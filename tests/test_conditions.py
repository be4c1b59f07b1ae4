import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from shiftspec import conditions
from shiftspec.analytic import normal_cdf, normal_quantile
from shiftspec.conditions import (DEFAULT_RELIANCE_GRID, ConditionReport,
                                  ShiftStack, _accuracy_kernel, _id_kappa,
                                  _stacked_weights, accuracies_under_shifts,
                                  accuracy_under_shift, classifier_sweep,
                                  condition_report, condition_reports,
                                  gaussian_kappa, kappa_of_mixture,
                                  lipschitz_of_linear, shift_moments,
                                  theorem1_margin, zero_measure_experiment)
from shiftspec.core import (DomainSpec, IdentityShift, LinearClassifier,
                            LinearShift, Mask, MixtureShift, default_spec)
from shiftspec.synthgen import (interpolation_mixture, random_shift,
                                reflection_shift, sample_domain)
from shiftspec.trainer import DEFAULT_L2, OptimizerSettings, fit_logistic

from test_cmnist import LADDER_PEAK_BYTES

LOG10 = math.log(10.0)
BASES = [np.diag([1.5, 1.5]), np.diag([-1.5, -1.5]),
         np.array([[0.5, -1.0], [2.0, 0.3]])]
MIXTURE_ID = MixtureShift(((0.3, np.diag([1.5, 0.5])),
                           (0.7, np.array([[-1.0, 0.4], [0.2, -2.0]]))))


class TestTheorem1Margin:
    def test_zero_spurious_weight(self):
        margin = theorem1_margin(np.zeros(2), np.array([-5.0, -5.0]),
                                 l_phi=1.0, kappa=1.0, delta=0.1)
        assert margin == 0.0

    def test_reversal_case(self):
        margin = theorem1_margin(np.ones(2), np.array([-2.0, -2.0]),
                                 l_phi=1.0, kappa=1.0, delta=0.1)
        assert margin == pytest.approx(-4.0 + 2.0 * math.sqrt(LOG10), abs=1e-12)
        assert margin == pytest.approx(-0.96515, abs=1e-4)

    def test_aligned_case(self):
        margin = theorem1_margin(np.ones(2), np.array([2.0, 2.0]),
                                 l_phi=1.0, kappa=1.0, delta=0.1)
        assert margin == pytest.approx(4.0 + 2.0 * math.sqrt(LOG10), abs=1e-12)
        assert margin == pytest.approx(7.03485, abs=1e-4)

    def test_subnormal_delta_is_finite(self):
        # 1 / 5e-324 overflows; log(1/delta) = -log(delta) = 744.44
        margin = theorem1_margin(np.ones(2), np.array([-2.0, -2.0]),
                                 l_phi=1.0, kappa=1.0, delta=5e-324)
        assert margin == pytest.approx(
            -4.0 + 2.0 * math.sqrt(-math.log(5e-324)), rel=1e-15)

    def test_delta_domain(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                theorem1_margin(np.ones(1), np.ones(1), 1.0, 1.0, bad)


def _scalar_report(m, sigma_e=1.0, w_c=1.0, w_e=1.0):
    """condition_report on a k = l = 1 spec with unit means and sigma_c = 1,
    so M mu_e = m and Sigma_phi = m^2 sigma_e."""
    spec = DomainSpec(k=1, l=1, mu_c=np.ones(1), sigma_c=np.eye(1),
                      mu_e=np.ones(1), sigma_e=np.full((1, 1), sigma_e))
    rule = LinearClassifier(w_c=np.full(1, w_c), w_e=np.full(1, w_e),
                            trained_on=Mask.FULL)
    return condition_report(rule, spec, np.full((1, 1), m), delta=0.5)


class TestTheorem2Compare:
    def test_reversal_example(self):
        res = _scalar_report(-1.0)
        assert res.snr_ood == pytest.approx(0.0, abs=1e-15)
        assert res.snr_id == pytest.approx(1.0, abs=1e-15)
        assert res.theorem2_well_specified

    def test_aligned_example(self):
        res = _scalar_report(1.0)
        assert res.snr_ood == pytest.approx(math.sqrt(2.0), abs=1e-15)
        assert not res.theorem2_well_specified

    def test_large_variance_branch(self):
        res = _scalar_report(1.0, sigma_e=100.0)
        assert res.snr_ood == pytest.approx(2.0 / math.sqrt(101.0), abs=1e-15)
        assert res.theorem2_well_specified

    def test_degenerate_denominator(self):
        with pytest.raises(ValueError, match="degenerate"):
            _scalar_report(0.0, w_c=0.0, w_e=0.0)


class TestLipschitz:
    def test_identity(self):
        assert lipschitz_of_linear(np.eye(3)) == pytest.approx(1.0, abs=1e-9)

    def test_diagonal(self):
        assert lipschitz_of_linear(np.diag([3.0, -5.0])) == pytest.approx(
            5.0, abs=1e-9)

    def test_nilpotent_shear(self):
        assert lipschitz_of_linear(np.array([[0.0, 2.0], [0.0, 0.0]])) == \
            pytest.approx(2.0, abs=1e-9)

    def test_zero_matrix(self):
        assert lipschitz_of_linear(np.zeros((3, 3))) == 0.0

    def test_matches_svd(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            m = rng.standard_normal((4, 4))
            assert lipschitz_of_linear(m) == pytest.approx(
                float(np.linalg.svd(m, compute_uv=False)[0]), rel=1e-8)


class TestKappa:
    def test_single_isotropic(self):
        assert kappa_of_mixture([(1.0, np.zeros(2), np.eye(2))]) == \
            pytest.approx(1.0, abs=1e-12)

    def test_single_anisotropic(self):
        assert kappa_of_mixture([(1.0, np.zeros(2), np.diag([4.0, 1.0]))]) == \
            pytest.approx(2.0, abs=1e-12)

    def test_two_component_spread(self):
        comps = [(0.5, np.array([1.0, 0.0]), np.eye(2)),
                 (0.5, np.array([-1.0, 0.0]), np.eye(2))]
        assert kappa_of_mixture(comps) == pytest.approx(2.0, abs=1e-12)

    def test_empty(self):
        with pytest.raises(ValueError):
            kappa_of_mixture([])


@functools.lru_cache(maxsize=None)
def _seed3_fit(l: int = 2):
    """default_spec(2, l) and the full fit simulate makes on its 1,000-row
    sample with seed 3."""
    spec = default_spec(2, l)
    return spec, fit_logistic(sample_domain(spec, 1000, 3), Mask.FULL,
                              DEFAULT_L2)


@pytest.mark.parametrize("delta", [0.1, 0.5])
@pytest.mark.parametrize("alpha", [0.01, 0.5, 1.0, 2.0, 100.0])
def test_reflection_margin_is_alpha_times_a_fixed_term(alpha, delta):
    # w_e' M mu_e = -alpha w_e' mu_e and L_phi = alpha, so the sign of the
    # margin never depends on alpha
    spec, full = _seed3_fit()
    w_e = full.w_e
    kappa = gaussian_kappa(spec.sigma_e)
    expected = alpha * (-float(w_e @ spec.mu_e)
                        + math.sqrt(2.0) * kappa * float(np.linalg.norm(w_e))
                        * math.sqrt(math.log(1.0 / delta)))
    rep = condition_report(full, spec, reflection_shift(w_e, alpha), delta)
    assert rep.theorem1_margin == pytest.approx(expected, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(l=st.sampled_from([2, 3]),
       entries=st.lists(st.floats(-2.0, 2.0), min_size=9, max_size=9),
       alpha=st.floats(1e-3, 1e3))
@example(l=2, entries=[0.0, 0.0, 0.0, 2.225073858507203e-309] + [0.0] * 5,
         alpha=0.0078125)
def test_margin_scales_with_a_linear_shift(l, entries, alpha):
    # both margin terms scale with ||M||: margin(alpha M) = alpha margin(M).
    # Below 2^-1022 precision is absolute: each product of a subnormal shift
    # rounds to a multiple of 2^-1074, and alpha scales the base margin's
    # rounding, so the bound has an absolute floor of 16 (1 + alpha) 2^-1074
    spec, full = _seed3_fit(l)
    m = np.array(entries[:l * l]).reshape(l, l)
    base = condition_report(full, spec, m, 0.5)
    scaled = condition_report(full, spec, alpha * m, 0.5)
    size = alpha * (abs(base.reversal_term)
                    + abs(base.theorem1_margin - base.reversal_term))
    assert abs(scaled.theorem1_margin - alpha * base.theorem1_margin) \
        <= 1e-13 * size + 16.0 * (1.0 + alpha) * 2.0 ** -1074


def test_snr_verdict_agrees_with_exact_comparison_on_linear_shifts_only():
    # the figures quoted in the conditions module docstring and the README
    spec, full = _seed3_fit()
    no_e = LinearClassifier(w_c=full.w_c, w_e=np.zeros(2),
                            trained_on=Mask.FULL, bias=full.bias)
    rng = np.random.default_rng(0)
    shifts = [LinearShift(m) for m in rng.uniform(-2.0, 2.0, (2000, 2, 2))]
    for _ in range(2000):
        weights = rng.dirichlet(np.ones(int(rng.integers(2, 4))))
        shifts.append(MixtureShift(tuple(
            (float(w), rng.uniform(-2.0, 2.0, (2, 2))) for w in weights)))
    stack = ShiftStack.of(shifts, 2)
    snr = condition_reports(full, spec, stack, 0.5).theorem2_well_specified
    acc = accuracies_under_shifts([full, no_e], spec, stack)
    differ = snr != (acc[:, 0] < acc[:, 1])
    gaps = np.abs(acc[:, 0] - acc[:, 1])[differ]
    assert differ[:2000].sum() == 0
    assert differ[2000:].sum() == 55
    assert gaps.max() == pytest.approx(0.0368, abs=5e-5)


class TestTheoremAgreement:
    def test_margin_negative_implies_snr_verdict(self):
        # sufficiency: a negative reversal margin forces the SNR comparison
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 1000:
            k = int(rng.integers(1, 4))
            l = int(rng.integers(1, 4))
            w_c = rng.standard_normal(k)
            mu_c = rng.standard_normal(k)
            if w_c @ mu_c <= 0:
                continue
            w_e = rng.standard_normal(l)
            m = rng.uniform(-2, 2, (l, l))
            spec = DomainSpec(k=k, l=l, mu_c=mu_c, sigma_c=np.eye(k),
                              mu_e=rng.standard_normal(l), sigma_e=np.eye(l))
            rule = LinearClassifier(w_c=w_c, w_e=w_e, trained_on=Mask.FULL)
            res = condition_report(rule, spec, m,
                                   delta=float(rng.uniform(0.05, 0.9)))
            if res.theorem1_margin >= 0:
                continue
            assert res.theorem2_well_specified
            checked += 1


def test_verdict_matches_behavior_across_shifts():
    # theorem-2 verdict vs analytic accuracies of trained classifiers
    spec = default_spec()
    train = sample_domain(spec, 10_000, seed=0)
    full = fit_logistic(train, Mask.FULL, l2=1e-3)
    dg = fit_logistic(train, Mask.DOMAIN_GENERAL, l2=1e-3)
    w_dg = np.concatenate([dg.w_c, np.zeros(2)])
    mu = np.ones(4)
    disagreements = 0
    for s in range(50):
        m = random_shift(2, 2.0, seed=100 + s)
        rep = condition_report(full, spec, m, delta=0.1)
        sigma_ood = np.block([
            [np.eye(2), np.zeros((2, 2))],
            [np.zeros((2, 2)), m @ m.T]])
        mu_ood = np.concatenate([np.ones(2), m @ np.ones(2)])
        acc_full, acc_dg = (normal_cdf(w @ mu_ood / math.sqrt(w @ sigma_ood @ w))
                            for w in (full.w, w_dg))
        if rep.theorem2_well_specified != (acc_full < acc_dg):
            disagreements += 1
    assert disagreements <= 2


class TestConditionReport:
    def test_flags_match_scalars(self):
        spec = default_spec()
        train = sample_domain(spec, 2000, seed=1)
        full = fit_logistic(train, Mask.FULL, l2=1e-3)
        for s in range(10):
            m = random_shift(2, 2.0, seed=s)
            rep = condition_report(full, spec, m, delta=0.3)
            assert rep.theorem1_well_specified == (rep.theorem1_margin < 0)
            assert rep.theorem2_well_specified == (rep.snr_ood < rep.snr_id)


def _snrs(classifier, spec, m_mu_e, sigma_phi):
    """Theorem 2's (snr_id, snr_ood) from the quadratic forms w_c' mu_c,
    w_c' Sigma_c w_c, w_e' M mu_e and w_e' Sigma_phi w_e."""
    w_c, w_e = classifier.w_c, classifier.w_e
    signal_id = float(w_c @ spec.mu_c)
    var_c = float(w_c @ spec.sigma_c @ w_c)
    signal_ood = signal_id + float(w_e @ m_mu_e)
    var_ood = var_c + float(w_e @ sigma_phi @ w_e)
    return signal_id / math.sqrt(var_c), signal_ood / math.sqrt(var_ood)


def _reference_report(classifier, spec, shift, delta):
    """The constants simulate used to compute and pass in, then both checks."""
    if isinstance(spec.shift, MixtureShift):
        kappa = kappa_of_mixture([(w, m @ spec.mu_e, m @ spec.sigma_e @ m.T)
                                  for w, m in spec.shift.components])
    else:
        kappa = gaussian_kappa(spec.sigma_e)
    if isinstance(shift, MixtureShift):
        m_mean, sigma_phi = shift_moments(shift, spec.mu_e, spec.sigma_e)
        l_phi = max(lipschitz_of_linear(m) for m in shift.matrices(spec.l))
    else:
        m_mean = np.asarray(shift, dtype=np.float64)
        sigma_phi = m_mean @ spec.sigma_e @ m_mean.T
        l_phi = lipschitz_of_linear(m_mean)
    m_mu_e = m_mean @ spec.mu_e
    margin = theorem1_margin(classifier.w_e, m_mu_e, l_phi, kappa, delta)
    snr_id, snr_ood = _snrs(classifier, spec, m_mu_e, sigma_phi)
    return ConditionReport(reversal_term=float(classifier.w_e @ m_mu_e),
                           theorem1_margin=margin,
                           theorem1_well_specified=margin < 0.0,
                           snr_id=snr_id, snr_ood=snr_ood,
                           theorem2_well_specified=snr_ood < snr_id)


class TestConditionReportConstants:
    """condition_report derives M, Sigma_phi, L_phi and kappa from the specs
    exactly as simulate did when it passed them in."""

    def _fit(self, spec, seed):
        return fit_logistic(sample_domain(spec, 500, seed=seed), Mask.FULL, 1e-3)

    @pytest.mark.parametrize("id_shift", [IdentityShift(), MIXTURE_ID],
                             ids=["identity_id", "mixture_id"])
    def test_random_linear_shifts(self, id_shift):
        spec = default_spec().with_shift(id_shift)
        full = self._fit(spec, 3)
        for s in range(20):
            m = random_shift(2, 2.0, seed=50 + s)
            ref = _reference_report(full, spec, m, 0.3)
            assert condition_report(full, spec, LinearShift(m), 0.3) == ref
            assert condition_report(full, spec, m, 0.3) == ref

    @pytest.mark.parametrize("id_shift", [IdentityShift(), MIXTURE_ID],
                             ids=["identity_id", "mixture_id"])
    def test_interpolation_mixtures(self, id_shift):
        spec = default_spec().with_shift(id_shift)
        full = self._fit(spec, 4)
        for s in range(20):
            shift = interpolation_mixture(BASES, seed=70 + s)
            assert condition_report(full, spec, shift, 0.5) == \
                _reference_report(full, spec, shift, 0.5)

    def test_mixture_id_kappa_enters_the_margin(self):
        spec = default_spec()
        mixed = spec.with_shift(MIXTURE_ID)
        full = self._fit(spec, 5)
        m = -np.eye(2)
        plain = condition_report(full, spec, m, 0.5)
        wider = condition_report(full, mixed, m, 0.5)
        assert kappa_of_mixture([(w, c @ spec.mu_e, c @ c.T)
                                 for w, c in MIXTURE_ID.components]) > 1.0
        assert wider.theorem1_margin > plain.theorem1_margin
        assert wider.reversal_term == plain.reversal_term


class TestZeroMeasure:
    def test_rejects_tiny_trials(self):
        with pytest.raises(ValueError, match="trials"):
            zero_measure_experiment(default_spec(), [0.0], trials=0,
                                    n_per_domain=100, seed=0)

    def test_fractions_nondecreasing_and_zero_at_zero(self):
        res = zero_measure_experiment(default_spec(), [0.0, 0.1, 0.5, 1.0, 2.0],
                                      trials=100, n_per_domain=400, seed=3,
                                      delta=0.5,
                                      reliance_grid=np.geomspace(1e-3, 1e3, 7),
                                      n_seeds=1)
        fracs = res.fractions
        assert all(a <= b for a, b in zip(fracs, fracs[1:]))
        assert fracs[0] <= 1.0 / res.trials

    def test_mixture_id_margins_match_condition_report(self):
        spec = default_spec().with_shift(MIXTURE_ID)
        res = zero_measure_experiment(spec, [0.0, 1.0], trials=100,
                                      n_per_domain=300, seed=3, delta=0.5,
                                      reliance_grid=(1e-3, 1.0, 1e3), n_seeds=1)
        reference = fit_logistic(sample_domain(spec, 300, 3 ^ 0x5EED),
                                 Mask.FULL, 1e-3)
        expected = [condition_report(reference, spec,
                                     random_shift(2, 2.0, 3 * 7_919 + t),
                                     0.5).theorem1_margin
                    for t in range(100)]
        assert list(res.margins) == expected

    def test_peak_memory_stays_below_the_ladder(self):
        # criterion 7's run draws its 27-member family as one stack. Its
        # tracemalloc peak after one warm-up call (2,865,284 bytes, against
        # 2,865,844 when each member was transformed by itself) must stay
        # below the default cmnist ladder's pinned peak, so the stacked
        # draw cannot raise the process high-water mark
        def run():
            zero_measure_experiment(default_spec(), [0.0, 0.5, 1.0, 1.5, 2.0],
                                    trials=500, n_per_domain=1000, seed=3,
                                    delta=0.5)

        run()  # warm-up: lazy imports and first-call caches
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < LADDER_PEAK_BYTES

    def test_defaults_are_simulates_delta_and_shift_scale(self):
        args = dict(eps_grid=[0.0, 1.0, 2.0], trials=100, n_per_domain=300,
                    seed=4, reliance_grid=(1e-3, 1.0, 1e3), n_seeds=1)
        assert zero_measure_experiment(default_spec(), **args) == \
            zero_measure_experiment(default_spec(), **args, delta=0.5,
                                    shift_scale=2.0)

    def test_overflowing_shift_scale_is_one_numeric_error(self):
        # the draws' Sigma_phi overflows float64
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="Sigma_phi is not finite"):
                zero_measure_experiment(default_spec(), [0.0, 1.0],
                                        trials=100, n_per_domain=300, seed=4,
                                        delta=0.5, shift_scale=1e160,
                                        reliance_grid=(1e-3, 1.0, 1e3),
                                        n_seeds=1)

    # seed 3, 100 trials, 200 rows per domain: a family member's score
    # variance overflows from shift_scale 1.625e153 and the reference fit's
    # w_e' Sigma_phi w_e from 3.467e153, well before Sigma_phi (9.87e153)
    OVERFLOW = dict(eps_grid=[0.0, 0.5, 1.0], trials=100, n_per_domain=200,
                    seed=3, delta=0.5)

    def test_overflowing_score_variance_is_one_numeric_error(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="score variance is not finite"):
                zero_measure_experiment(default_spec(), shift_scale=2e153,
                                        **self.OVERFLOW)

    def test_overflowing_snr_variance_is_condition_reports_error(self):
        # the margins come from condition_reports, so the experiment raises
        # the error condition_report raises on one of its trial shifts
        message = "w_e' Sigma_phi w_e is not finite"
        spec = default_spec()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                zero_measure_experiment(spec, shift_scale=4e153,
                                        **self.OVERFLOW)
        reference = fit_logistic(sample_domain(spec, 200, 3 ^ 0x5EED),
                                 Mask.FULL, 1e-3)
        raised = []
        for t in range(100):
            try:
                condition_report(reference, spec,
                                 random_shift(2, 4e153, 3 * 7_919 + t), 0.5)
            except ValueError as exc:
                raised.append(str(exc))
        assert raised and all(message in e for e in raised)


def test_classifier_sweep_spans_reliance():
    spec = default_spec()
    models = classifier_sweep(spec, 800, seed=9,
                              reliance_grid=(1e-3, 1.0, 1e3), n_seeds=1)
    norms = [float(np.linalg.norm(m.w_e)) for m in models]
    assert norms[0] > norms[-1] * 5  # heavy reliance down to near-none


@pytest.mark.parametrize("spec, n", [
    (default_spec(), 300), (default_spec().with_shift(MIXTURE_ID), 300),
    (default_spec(3, 1), 300), (default_spec(), 37),
], ids=["default", "mixture_id", "k3_l1", "n37"])
def test_classifier_sweep_equals_the_per_member_loop(spec, n):
    # the stacked sampler and Newton loop against one sample_domain +
    # fit_logistic call per member, bit for bit
    seed, n_seeds = 5, 2
    models = classifier_sweep(spec, n, seed, DEFAULT_RELIANCE_GRID, n_seeds)
    expected = []
    task = 0
    for rho in DEFAULT_RELIANCE_GRID:
        for _ in range(n_seeds):
            data = sample_domain(spec, n, seed * 1_000_003 + task)
            opts = OptimizerSettings(spurious_l2_scale=float(rho))
            expected.append(fit_logistic(data, Mask.FULL, DEFAULT_L2, opts))
            task += 1
    assert len(models) == len(expected)
    for got, want in zip(models, expected):
        assert got.w_c.tobytes() == want.w_c.tobytes()
        assert got.w_e.tobytes() == want.w_e.tobytes()
        assert (got.bias, got.trained_on) == (want.bias, want.trained_on)


@pytest.mark.parametrize("kwargs, message", [
    ({"n_seeds": 0}, "n_seeds must be at least 1"),
    ({"n_seeds": -2}, "n_seeds must be at least 1"),
    ({"reliance_grid": (1.0, -1.0)}, "spurious_l2_scale must be"),
    ({"reliance_grid": (1.0, math.nan)}, "spurious_l2_scale must be"),
    ({"reliance_grid": ()}, "reliance grid must be nonempty"),
], ids=["n_seeds=0", "n_seeds=-2", "rho=-1", "rho=nan", "empty_grid"])
def test_classifier_sweep_rejects_bad_input_before_sampling(kwargs, message,
                                                            monkeypatch):
    work = []
    monkeypatch.setattr(conditions, "sample_domains",
                        lambda *a, **k: work.append(1))
    args = dict(reliance_grid=(1e-3, 1.0), n_seeds=2)
    args.update(kwargs)
    with pytest.raises(ValueError, match=message):
        classifier_sweep(default_spec(), 100, 0, **args)
    assert work == []


@settings(max_examples=40, deadline=None)
@given(l=st.integers(1, 5), shifts=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_theorem1_margins_equal_the_loop(l, shifts, seed):
    rng = np.random.default_rng(seed)
    w_e = rng.standard_normal(l)
    m_mu_e = rng.uniform(-3.0, 3.0, (shifts, l))
    l_phi = rng.uniform(0.0, 3.0, shifts)
    stacked = theorem1_margin(w_e, m_mu_e, l_phi, 0.8, 0.1)
    loop = [theorem1_margin(w_e, m, float(lp), 0.8, 0.1)
            for m, lp in zip(m_mu_e, l_phi)]
    assert stacked.shape == (shifts,)
    assert all(type(m) is float for m in loop)
    assert stacked.tolist() == loop
    # the one-shift margin is w_e @ m_mu_e plus the concentration term
    scalar = [float(w_e @ m) + math.sqrt(2.0) * float(lp) * 0.8
              * float(np.linalg.norm(w_e)) * math.sqrt(math.log(10.0))
              for m, lp in zip(m_mu_e, l_phi)]
    assert loop == scalar


def test_accuracy_under_shift_handles_bias():
    from shiftspec.core import LinearClassifier, LinearShift
    from shiftspec.conditions import accuracy_under_shift
    from shiftspec.trainer import evaluate_accuracy
    spec = default_spec()
    model = LinearClassifier(w_c=np.array([1.0, 0.5]), w_e=np.array([0.7, -0.3]),
                             trained_on=Mask.FULL, bias=0.8)
    shift = LinearShift(0.6 * np.eye(2))
    test = sample_domain(spec.with_shift(shift), 500_000, seed=0)
    mc = evaluate_accuracy(model, test)
    assert accuracy_under_shift(model, spec, shift) == pytest.approx(mc, abs=0.003)


def test_accuracy_under_shift_weights_label_prior():
    from dataclasses import replace
    from shiftspec.core import LinearClassifier, LinearShift
    from shiftspec.conditions import accuracy_under_shift
    from shiftspec.trainer import evaluate_accuracy
    spec = replace(default_spec(), label_prior=0.2)
    model = LinearClassifier(w_c=np.array([1.0, 0.5]), w_e=np.array([0.7, -0.3]),
                             trained_on=Mask.FULL, bias=0.8)
    shift = LinearShift(0.6 * np.eye(2))
    test = sample_domain(spec.with_shift(shift), 500_000, seed=0)
    mc = evaluate_accuracy(model, test)
    assert accuracy_under_shift(model, spec, shift) == pytest.approx(mc, abs=0.003)
    # the equal-weight average misses the sampled accuracy by far more
    assert abs(_equal_weight_accuracy([model], spec, shift)[0] - mc) > 0.02


def _equal_weight_accuracy(models, spec, shift):
    """The stacked closed form before label_prior was weighted in: both
    classes count 1/2."""
    w_c = np.array([mdl.w_c for mdl in models])
    w_e = np.array([mdl.w_e for mdl in models])
    bias = np.array([mdl.bias for mdl in models])
    signal_c = w_c @ spec.mu_c
    var_c = np.einsum("ij,jk,ik->i", w_c, spec.sigma_c, w_c)
    total = np.zeros(len(models))
    for weight, m in zip(shift.weights(), shift.matrices(spec.l)):
        signal = signal_c + w_e @ (m @ spec.mu_e)
        sd = np.sqrt(var_c + np.einsum("ij,jk,ik->i", w_e,
                                       m @ spec.sigma_e @ m.T, w_e))
        cdf = normal_cdf(np.stack([(signal + bias) / sd, (signal - bias) / sd]))
        total += float(weight) * (0.5 * (cdf[0] + cdf[1]))
    return total


@pytest.mark.parametrize("shift", [
    LinearShift(np.array([[0.6, -1.2], [0.3, -0.8]])),
    MixtureShift(((0.3, 1.5 * np.eye(2)),
                  (0.7, np.array([[-0.5, 0.2], [0.0, -1.5]])))),
], ids=["linear", "mixture"])
def test_even_prior_accuracy_is_bit_identical_to_equal_weights(shift):
    from shiftspec.conditions import accuracy_under_shift
    from shiftspec.core import LinearClassifier
    rng = np.random.default_rng(8)
    spec = default_spec()
    assert spec.label_prior == 0.5
    models = [LinearClassifier(w_c=rng.standard_normal(2),
                               w_e=rng.standard_normal(2),
                               trained_on=Mask.FULL,
                               bias=float(rng.uniform(-2.0, 2.0)))
              for _ in range(60)]
    assert np.array_equal(accuracy_under_shift(models, spec, shift),
                          _equal_weight_accuracy(models, spec, shift))


def test_exact_gap_within_binomial_error_of_sampled_gap():
    # criterion 1's training set, shifts and 1000-row test sets
    from shiftspec.conditions import accuracy_under_shift
    from shiftspec.trainer import evaluate_accuracy
    seed, n = 11, 1000
    spec = default_spec()
    train = sample_domain(spec, 1000, seed=seed)
    full = fit_logistic(train, Mask.FULL, l2=1e-3)
    dg = fit_logistic(train, Mask.DOMAIN_GENERAL, l2=1e-3)
    for s in range(50):
        shift = LinearShift(random_shift(2, 2.0, seed=seed * 31 + 1000 + s))
        test = sample_domain(spec.with_shift(shift), n,
                             seed=seed * 31 + 7_000_000 + s)
        sampled = evaluate_accuracy(dg, test) - evaluate_accuracy(full, test)
        p_dg, p_full = accuracy_under_shift([dg, full], spec, shift)
        se = math.sqrt((p_dg * (1.0 - p_dg) + p_full * (1.0 - p_full)) / n)
        assert abs((p_dg - p_full) - sampled) <= 4.0 * se, s


@pytest.mark.parametrize("shift", [
    IdentityShift(),
    LinearShift(np.array([[0.6, -1.2], [0.3, -0.8]])),
    MixtureShift(((0.3, 1.5 * np.eye(2)),
                  (0.7, np.array([[-0.5, 0.2], [0.0, -1.5]])))),
], ids=["identity", "linear", "mixture"])
def test_stacked_accuracy_matches_per_classifier_calls(shift):
    from shiftspec.conditions import accuracy_under_shift
    from shiftspec.core import LinearClassifier
    rng = np.random.default_rng(5)
    spec = default_spec()
    models = [LinearClassifier(w_c=rng.standard_normal(2),
                               w_e=rng.standard_normal(2),
                               trained_on=Mask.FULL,
                               bias=float(rng.uniform(-1.0, 1.0)))
              for _ in range(40)]
    stacked = accuracy_under_shift(models, spec, shift)
    single = np.array([accuracy_under_shift(mdl, spec, shift) for mdl in models])
    assert isinstance(stacked, np.ndarray) and stacked.shape == (40,)
    assert all(isinstance(a, float) for a in single)
    assert np.max(np.abs(stacked - single)) <= 1e-15


def test_stacked_accuracy_rejects_an_overflowing_variance():
    # w_e' M sigma_e M' w_e = 1e306 * 1e4 * sigma_e[0, 0] overflows to inf
    # inside einsum, which warns of nothing; Phi(a / inf) would score 0.5
    rule = LinearClassifier(w_c=np.ones(2), w_e=np.array([1e153, 0.0]),
                            trained_on=Mask.FULL)
    stack = ShiftStack.linear(np.diag([100.0, 1.0])[None])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="score variance is not finite"):
            accuracies_under_shifts([rule], default_spec(), stack)


def test_stacked_accuracy_rejects_zero_variance():
    from shiftspec.conditions import accuracy_under_shift
    from shiftspec.core import LinearClassifier
    good = LinearClassifier(w_c=np.ones(2), w_e=np.ones(2), trained_on=Mask.FULL)
    flat = LinearClassifier(w_c=np.zeros(2), w_e=np.zeros(2), trained_on=Mask.FULL)
    with pytest.raises(ValueError, match="zero score variance"):
        accuracy_under_shift([good, flat], default_spec())


def _random_spec(rng, k, l, mixture_id=None):
    """Random PSD spec with label_prior away from 1/2; the ID shift is a
    random linear shift, a random mixture (mixture_id=True) or none."""
    a = rng.standard_normal((k, k))
    b = rng.standard_normal((l, l))
    prior = float(rng.choice([rng.uniform(0.05, 0.45), rng.uniform(0.55, 0.95)]))
    spec = DomainSpec(k=k, l=l, mu_c=rng.standard_normal(k),
                      sigma_c=a @ a.T + 0.1 * np.eye(k),
                      mu_e=rng.standard_normal(l),
                      sigma_e=b @ b.T + 0.1 * np.eye(l), label_prior=prior)
    if mixture_id is None:
        return spec
    if mixture_id:
        weights = rng.dirichlet(np.ones(3))
        return spec.with_shift(MixtureShift(tuple(
            (float(w), rng.uniform(-2.0, 2.0, (l, l))) for w in weights)))
    return spec.with_shift(LinearShift(rng.uniform(-2.0, 2.0, (l, l))))


def _random_models(rng, spec, n):
    signs = rng.choice([-1.0, 1.0], n)
    return [LinearClassifier(w_c=rng.standard_normal(spec.k),
                             w_e=rng.standard_normal(spec.l),
                             trained_on=Mask.FULL,
                             bias=float(s * rng.uniform(0.1, 2.0)))
            for s in signs]


def _per_shift_accuracy(models, spec, m):
    """The closed form for one linear shift, one matrix at a time."""
    w_c, w_e, bias = _stacked_weights(models, spec)
    prior = spec.label_prior
    signal = w_c @ spec.mu_c + w_e @ (m @ spec.mu_e)
    sd = np.sqrt(np.einsum("ij,jk,ik->i", w_c, spec.sigma_c, w_c)
                 + np.einsum("ij,jk,ik->i", w_e, m @ spec.sigma_e @ m.T, w_e))
    cdf = normal_cdf(np.stack([(signal + bias) / sd, (signal - bias) / sd]))
    return prior * cdf[0] + (1.0 - prior) * cdf[1]


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 3), l=st.integers(1, 5), n=st.integers(2, 30),
       c=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_kernel_over_a_stack_equals_per_shift_calls(k, l, n, c, seed):
    rng = np.random.default_rng(seed)
    spec = _random_spec(rng, k, l)
    models = _random_models(rng, spec, n)
    mats = rng.uniform(-2.0, 2.0, (c, l, l))
    stacked = _accuracy_kernel(*_stacked_weights(models, spec), spec, mats)
    assert stacked.shape == (c, n)
    for row, m in zip(stacked, mats):
        assert np.array_equal(row, accuracy_under_shift(models, spec,
                                                        LinearShift(m)))
        assert np.array_equal(row, _per_shift_accuracy(models, spec, m))
    # a mixture is the weighted sum of the per-shift rows, in component order
    weights = rng.dirichlet(np.ones(c))
    total = np.zeros(n)
    for w, m in zip(weights, mats):
        total += float(w) * _per_shift_accuracy(models, spec, m)
    mixture = MixtureShift(tuple(zip(weights.tolist(), mats)))
    assert np.array_equal(accuracy_under_shift(models, spec, mixture), total)


@settings(max_examples=30, deadline=None)
@given(k=st.integers(1, 3), l=st.integers(1, 5), c=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1))
def test_kernel_for_one_classifier_is_within_an_ulp(k, l, c, seed):
    # with one rule and l = 2 the stacked einsum sums the variance in
    # another order and can move it by one ULP
    rng = np.random.default_rng(seed)
    spec = _random_spec(rng, k, l)
    model = _random_models(rng, spec, 1)[0]
    mats = rng.uniform(-2.0, 2.0, (c, l, l))
    stacked = _accuracy_kernel(*_stacked_weights([model], spec), spec, mats)[:, 0]
    single = np.array([accuracy_under_shift(model, spec, LinearShift(m))
                       for m in mats])
    assert np.max(np.abs(stacked - single)) <= 1e-15


def _reference_zero_measure(spec, eps_grid, trials, n_per_domain, seed, delta):
    """zero_measure_experiment as one loop over trials: per trial one
    margin, one accuracy_under_shift call and one normal_quantile call."""
    models = classifier_sweep(spec, n_per_domain, seed, DEFAULT_RELIANCE_GRID,
                              n_seeds=2)
    reference = fit_logistic(sample_domain(spec, n_per_domain, seed ^ 0x5EED),
                             Mask.FULL, 1e-3)
    kappa = _id_kappa(spec)
    acc_id = accuracy_under_shift(models, spec)
    probit_id = normal_quantile(np.clip(acc_id, 1e-12, 1.0 - 1e-12))
    sxx = float(probit_id @ probit_id)
    margins = np.empty(trials)
    residuals = np.empty(trials)
    for t in range(trials):
        m = random_shift(spec.l, 2.0, seed * 7_919 + t)
        margins[t] = theorem1_margin(reference.w_e, m @ spec.mu_e,
                                     lipschitz_of_linear(m), kappa, delta)
        acc_ood = accuracy_under_shift(models, spec, LinearShift(m))
        probit_ood = normal_quantile(np.clip(acc_ood, 1e-12, 1.0 - 1e-12))
        slope = float(probit_ood @ probit_id) / sxx
        residuals[t] = np.max(np.abs(probit_ood - slope * probit_id))
    fractions = [float(np.mean((margins < 0.0) & (residuals <= eps)))
                 for eps in eps_grid]
    return margins.tolist(), residuals.tolist(), fractions


class TestZeroMeasurePinnedToReference:
    """The stacked zero-measure pass reproduces the per-trial loop bit for
    bit, at criterion 7's settings."""

    EPS = (0.0, 0.5, 1.0, 1.5, 2.0)

    @pytest.mark.parametrize("id_shift", [IdentityShift(), MIXTURE_ID],
                             ids=["identity_id", "mixture_id"])
    def test_margins_residuals_and_fractions(self, id_shift):
        spec = default_spec().with_shift(id_shift)
        res = zero_measure_experiment(spec, self.EPS, trials=500,
                                      n_per_domain=1000, seed=3, delta=0.5)
        margins, residuals, fractions = _reference_zero_measure(
            spec, self.EPS, 500, 1000, 3, 0.5)
        assert list(res.margins) == margins
        assert list(res.residuals) == residuals
        assert list(res.fractions) == fractions
        if isinstance(id_shift, IdentityShift):
            assert res.fractions == (0.0, 0.0, 0.0, 0.042, 0.096)

    def test_builds_a_fixed_number_of_generators(self, monkeypatch):
        # a generator per trial would make the count grow with trials
        philox = np.random.Philox
        built = []

        def counting_philox(*args, **kwargs):
            built.append(1)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting_philox)
        counts = []
        for trials in (100, 400):
            built.clear()
            zero_measure_experiment(default_spec(), [0.0, 1.0], trials=trials,
                                    n_per_domain=300, seed=4, delta=0.5,
                                    reliance_grid=(1e-3, 1.0, 1e3), n_seeds=1)
            counts.append(len(built))
        assert counts[0] == counts[1] > 0

    def test_one_kernel_and_quantile_call_for_all_trials(self, monkeypatch):
        calls = {"kernel": 0, "quantile": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(conditions, "_accuracy_kernel",
                            counted("kernel", conditions._accuracy_kernel))
        monkeypatch.setattr(conditions, "normal_quantile",
                            counted("quantile", conditions.normal_quantile))
        for trials in (100, 300):
            calls.update(kernel=0, quantile=0)
            zero_measure_experiment(default_spec(), [0.0, 1.0], trials=trials,
                                    n_per_domain=300, seed=4, delta=0.5,
                                    reliance_grid=(1e-3, 1.0, 1e3), n_seeds=1)
            # one call for the ID sweep, one for every trial at once
            assert calls == {"kernel": 2, "quantile": 2}


@pytest.mark.parametrize("kwargs", [
    {"delta": 1.5}, {"delta": 0.0}, {"delta": math.nan},
    {"shift_scale": -1.0}, {"shift_scale": 0.0}, {"shift_scale": math.inf},
    {"shift_scale": math.nan},
    {"eps_grid": [0.0, math.nan]}, {"eps_grid": [-0.1]},
    {"eps_grid": [math.inf]}, {"n_seeds": 0},
], ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
def test_zero_measure_rejects_bad_input_before_fitting(kwargs, monkeypatch):
    work = []
    for name in ("fit_logistic_stack", "sample_domains"):
        monkeypatch.setattr(conditions, name,
                            lambda *a, name=name, **k: work.append(name))
    args = dict(eps_grid=[0.0, 1.0], trials=100, n_per_domain=300, seed=0)
    args.update(kwargs)
    with pytest.raises(ValueError):
        zero_measure_experiment(default_spec(), **args)
    assert work == []


def _loop_moments(shift, mu_e, sigma_e):
    """shift_moments as a loop over one shift's components."""
    matrices, weights = shift.matrices(len(mu_e)), shift.weights()
    m_mean = sum(float(w) * m for w, m in zip(weights, matrices))
    mean_shifted = m_mean @ mu_e
    sigma_phi = np.zeros_like(sigma_e)
    for w, m in zip(weights, matrices):
        dev = m @ mu_e - mean_shifted
        sigma_phi += float(w) * (m @ sigma_e @ m.T + np.outer(dev, dev))
    return m_mean, sigma_phi


def _loop_report(classifier, spec, shift, delta):
    """condition_report for one shift, from the per-shift loop constants."""
    m_mean, sigma_phi = _loop_moments(shift, spec.mu_e, spec.sigma_e)
    l_phi = max(lipschitz_of_linear(m) for m in shift.matrices(spec.l))
    m_mu_e = m_mean @ spec.mu_e
    margin = theorem1_margin(classifier.w_e, m_mu_e, l_phi, _id_kappa(spec),
                             delta)
    snr_id, snr_ood = _snrs(classifier, spec, m_mu_e, sigma_phi)
    return ConditionReport(reversal_term=float(classifier.w_e @ m_mu_e),
                           theorem1_margin=margin,
                           theorem1_well_specified=margin < 0.0,
                           snr_id=snr_id, snr_ood=snr_ood,
                           theorem2_well_specified=snr_ood < snr_id)


def _record_row(record, s):
    """Row s of a condition_reports record as a one-shift ConditionReport;
    every column is an (S,) array of float64 or bool."""
    columns = vars(record)
    assert all(isinstance(c, np.ndarray) and c.shape == record.snr_id.shape
               and c.dtype in (np.float64, np.bool_) for c in columns.values())
    return ConditionReport(**{name: c[s].item() for name, c in columns.items()})


def _loop_snr_fault(classifier, spec, mats):
    """The error a loop over the linear shifts mats raises first: at each
    shift in order, a w_e' Sigma_phi w_e that is not finite, then an SNR
    denominator that is not positive; None when no shift is faulty."""
    w_c, w_e = classifier.w_c, classifier.w_e
    var_c = float(w_c @ spec.sigma_c @ w_c)
    for m in mats:
        _, sigma_phi = _loop_moments(LinearShift(m), spec.mu_e, spec.sigma_e)
        with np.errstate(over="ignore", invalid="ignore"):
            var_e = float(w_e @ sigma_phi @ w_e)
        if not math.isfinite(var_e):
            return "w_e' Sigma_phi w_e is not finite"
        if var_c <= 0.0 or var_c + var_e <= 0.0:
            return "degenerate denominators"
    return None


@pytest.mark.parametrize("overflow_at, message", [
    (0, "w_e' Sigma_phi w_e is not finite"),
    (1, "degenerate denominators"),
], ids=["overflow_first", "overflow_second"])
def test_condition_reports_raise_at_the_first_faulty_shift(overflow_at,
                                                           message):
    # zero w_c makes every shift's SNR denominators degenerate; under
    # diag(100, 1) Sigma_phi stays finite but w_e' Sigma_phi w_e overflows
    spec = default_spec()
    rule = LinearClassifier(w_c=np.zeros(2), w_e=np.array([1e153, 0.0]),
                            trained_on=Mask.FULL)
    mats = np.stack([0.5 * np.eye(2)] * 2)
    mats[overflow_at] = np.diag([100.0, 1.0])
    assert _loop_snr_fault(rule, spec, mats) == message
    with pytest.raises(ValueError, match=message):
        condition_reports(rule, spec, ShiftStack.linear(mats), 0.5)


def _loop_accuracy(models, spec, shift):
    """accuracy_under_shift as one kernel call per component, summed in
    component order."""
    total = np.zeros(len(models))
    for w, m in zip(shift.weights(), shift.matrices(spec.l)):
        total += float(w) * _per_shift_accuracy(models, spec, m)
    return total


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 3), l=st.integers(1, 4),
       id_shift=st.sampled_from([None, False, True]),
       sizes=st.lists(st.integers(0, 4), min_size=1, max_size=8),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_helpers_equal_per_shift_calls(k, l, id_shift, sizes, seed):
    # sizes: 0 is a linear OOD shift, c > 0 a c-component mixture
    rng = np.random.default_rng(seed)
    spec = _random_spec(rng, k, l, id_shift)
    models = _random_models(rng, spec, 3)
    shifts = [LinearShift(rng.uniform(-2.0, 2.0, (l, l))) if c == 0 else
              MixtureShift(tuple((float(w), rng.uniform(-2.0, 2.0, (l, l)))
                                 for w in rng.dirichlet(np.ones(c))))
              for c in sizes]
    stack = conditions.ShiftStack.of(shifts, l)
    delta = float(rng.uniform(0.05, 0.95))
    record = conditions.condition_reports(models[0], spec, stack, delta)
    accs = conditions.accuracies_under_shifts(models, spec, stack)
    assert accs.shape == (len(shifts), len(models))
    for s, (shift, acc) in enumerate(zip(shifts, accs)):
        rep = _record_row(record, s)
        assert rep == condition_report(models[0], spec, shift, delta)
        assert rep == _loop_report(models[0], spec, shift, delta)
        assert np.array_equal(acc, accuracy_under_shift(models, spec, shift))
        assert np.array_equal(acc, _loop_accuracy(models, spec, shift))
        m_mean, sigma_phi = shift_moments(shift, spec.mu_e, spec.sigma_e)
        loop_mean, loop_sigma = _loop_moments(shift, spec.mu_e, spec.sigma_e)
        assert np.array_equal(m_mean, loop_mean)
        assert np.array_equal(sigma_phi, loop_sigma)
    # an (S, l, l) array of linear shifts stacks like the LinearShifts
    mats = rng.uniform(-2.0, 2.0, (len(sizes), l, l))
    linear = conditions.ShiftStack.linear(mats)
    record = conditions.condition_reports(models[0], spec, linear, delta)
    assert [_record_row(record, s) for s in range(len(mats))] == \
        [_loop_report(models[0], spec, LinearShift(m), delta) for m in mats]
    assert np.array_equal(
        conditions.accuracies_under_shifts(models, spec, linear),
        [_loop_accuracy(models, spec, LinearShift(m)) for m in mats])
