import math

import numpy as np
import pytest
from scipy import stats

from shiftspec.analytic import gaussian_accuracy, normal_cdf
from shiftspec.conditions import (ConditionReport, aotl_bound,
                                  classifier_sweep, condition_report,
                                  gaussian_kappa, kappa_of_mixture,
                                  lipschitz_of_linear,
                                  reflection_alpha_threshold, shift_moments,
                                  theorem1_margin, theorem2_compare,
                                  tradeoff_lower_bound,
                                  zero_measure_experiment)
from shiftspec.core import (BoundParams, IdentityShift, LinearShift, Mask,
                            MixtureShift, default_spec)
from shiftspec.synthgen import (interpolation_mixture, random_shift,
                                reflection_shift, sample_domain)
from shiftspec.trainer import fit_logistic

LOG10 = math.log(10.0)


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

    def test_delta_domain(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                theorem1_margin(np.ones(1), np.ones(1), 1.0, 1.0, bad)


class TestTheorem2Compare:
    def test_reversal_example(self):
        res = theorem2_compare([1.0], [1.0], [[1.0]], [1.0], [-1.0], [[1.0]])
        assert res.snr_ood == pytest.approx(0.0, abs=1e-15)
        assert res.snr_id == pytest.approx(1.0, abs=1e-15)
        assert res.well_specified

    def test_aligned_example(self):
        res = theorem2_compare([1.0], [1.0], [[1.0]], [1.0], [1.0], [[1.0]])
        assert res.snr_ood == pytest.approx(math.sqrt(2.0), abs=1e-15)
        assert not res.well_specified

    def test_large_variance_branch(self):
        res = theorem2_compare([1.0], [1.0], [[1.0]], [1.0], [1.0], [[100.0]])
        assert res.snr_ood == pytest.approx(2.0 / math.sqrt(101.0), abs=1e-15)
        assert res.well_specified

    def test_degenerate_denominator(self):
        with pytest.raises(ValueError, match="degenerate"):
            theorem2_compare([1.0], [1.0], [[0.0]], [0.0], [0.0], [[0.0]])


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


class TestAotlBound:
    def test_slope_one_kills_zeta(self):
        params = BoundParams(slope_a=1.0, clip_alpha=0.1, delta=0.1)
        bound_a1 = aotl_bound(params, np.ones(2))
        # zeta would add |1-a| * probit(0.9); with a=1 the bound is the core
        lip = 1.0 / stats.norm.pdf(stats.norm.ppf(0.9))
        c_const = 1.0 * 1.0 * math.sqrt(2.0)
        expected = lip * (c_const * math.sqrt(LOG10))
        assert bound_a1 == pytest.approx(expected, rel=1e-9)

    def test_identity_shift_drops_eps_terms(self):
        params = BoundParams(slope_a=1.0, clip_alpha=0.1, delta=0.1,
                             eps1=99.0, eps2=99.0)
        w_e = np.array([1.0, 0.0])
        bound = aotl_bound(params, w_e, m=np.eye(2), mu_e=np.ones(2),
                           sigma_e=np.eye(2))
        lip = 1.0 / stats.norm.pdf(stats.norm.ppf(0.9))
        assert bound == pytest.approx(lip * math.sqrt(LOG10), rel=1e-9)

    def test_worked_example(self):
        params = BoundParams(kappa=1.0, l_phi=1.0, delta=0.1, tsybakov_b=1.0,
                             lemma_c=1.0, slope_a=1.0, clip_alpha=0.1,
                             eps1=0.0, eps2=0.0)
        bound = aotl_bound(params, np.array([1.0]))
        lip = 1.0 / stats.norm.pdf(stats.norm.ppf(0.9))
        assert lip == pytest.approx(5.69797, abs=1e-4)
        assert bound == pytest.approx(8.646, abs=1e-3)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            aotl_bound(BoundParams(clip_alpha=0.9), np.ones(1))


class TestTradeoffLowerBound:
    def test_no_shift_is_vacuous(self):
        params = BoundParams(slope_a=0.5, clip_alpha=0.1)
        res = tradeoff_lower_bound(params, np.ones(2), np.ones(2), np.eye(2))
        assert res.mean_shift == 0.0
        assert res.bound <= 0.0

    def test_reversal_gives_positive_bound(self):
        params = BoundParams(slope_a=1.0, delta=0.1, gamma=0.5)
        w_e = np.array([1.0, 1.0])
        mu_e = np.array([1.0, 1.0])
        m = reflection_shift(w_e, alpha=1.0)
        res = tradeoff_lower_bound(params, w_e, mu_e, m)
        assert res.bound > 0.0
        assert res.reversal_condition_positive
        assert res.mean_shift >= res.mean_shift_lower - 1e-12

    def test_worked_example(self):
        params = BoundParams(lemma_c=1.0, delta=0.1, slope_a=1.0)
        w_e = np.array([1.0, 1.0])
        mu_e = np.array([1.0, 1.0])
        m = -np.eye(2)
        res = tradeoff_lower_bound(params, w_e, mu_e, m)
        assert res.mean_shift == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
        assert res.bound == pytest.approx(4.0 * math.sqrt(LOG10), abs=1e-9)
        assert res.bound == pytest.approx(6.0697, abs=1e-3)


class TestReflectionThreshold:
    def test_margin_flips_negative_above_threshold(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 100:
            l = int(rng.integers(2, 5))
            w_e = rng.standard_normal(l)
            mu_e = rng.standard_normal(l)
            if w_e @ mu_e <= 1e-3:
                continue
            a = rng.standard_normal((l, l))
            sigma_e = a @ a.T + 0.1 * np.eye(l)
            delta = float(rng.uniform(0.05, 0.5))
            threshold = reflection_alpha_threshold(w_e, mu_e, sigma_e, delta)
            alpha = threshold * float(rng.uniform(1.001, 3.0))
            m = reflection_shift(w_e, alpha)
            # kappa along the w_e projection makes the certificate exact
            kappa = math.sqrt(float(w_e @ sigma_e @ w_e)) / float(
                np.linalg.norm(w_e))
            margin = theorem1_margin(w_e, m @ mu_e, l_phi=1.0, kappa=kappa,
                                     delta=delta)
            assert margin < 0.0
            checked += 1


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
            mu_e = rng.standard_normal(l)
            sigma_e = np.eye(l)
            margin = theorem1_margin(w_e, m @ mu_e,
                                     l_phi=lipschitz_of_linear(m),
                                     kappa=gaussian_kappa(sigma_e),
                                     delta=float(rng.uniform(0.05, 0.9)))
            if margin >= 0:
                continue
            res = theorem2_compare(w_c, mu_c, np.eye(k), w_e, m @ mu_e,
                                   m @ sigma_e @ m.T)
            assert res.well_specified
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
        acc_full = gaussian_accuracy(full.w, mu_ood, sigma_ood)
        acc_dg = gaussian_accuracy(w_dg, mu_ood, sigma_ood)
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

    def test_json_fields(self):
        spec = default_spec()
        train = sample_domain(spec, 500, seed=2)
        full = fit_logistic(train, Mask.FULL, l2=1e-3)
        rep = condition_report(full, spec, np.eye(2), delta=0.5)
        d = rep.to_dict()
        assert set(d) == {"reversal_term", "theorem1_margin",
                          "theorem1_well_specified", "snr_id", "snr_ood",
                          "theorem2_well_specified"}


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
    t2 = theorem2_compare(classifier.w_c, spec.mu_c, spec.sigma_c,
                          classifier.w_e, m_mu_e, sigma_phi)
    return ConditionReport(reversal_term=float(classifier.w_e @ m_mu_e),
                           theorem1_margin=margin,
                           theorem1_well_specified=margin < 0.0,
                           snr_id=t2.snr_id, snr_ood=t2.snr_ood,
                           theorem2_well_specified=t2.well_specified)


class TestConditionReportConstants:
    """condition_report derives M, Sigma_phi, L_phi and kappa from the specs
    exactly as simulate did when it passed them in."""

    BASES = [np.diag([1.5, 1.5]), np.diag([-1.5, -1.5]),
             np.array([[0.5, -1.0], [2.0, 0.3]])]
    MIXTURE_ID = MixtureShift(((0.3, np.diag([1.5, 0.5])),
                               (0.7, np.array([[-1.0, 0.4], [0.2, -2.0]]))))

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
            shift = interpolation_mixture(self.BASES, seed=70 + s)
            assert condition_report(full, spec, shift, 0.5) == \
                _reference_report(full, spec, shift, 0.5)

    def test_mixture_id_kappa_enters_the_margin(self):
        spec = default_spec()
        mixed = spec.with_shift(self.MIXTURE_ID)
        full = self._fit(spec, 5)
        m = -np.eye(2)
        plain = condition_report(full, spec, m, 0.5)
        wider = condition_report(full, mixed, m, 0.5)
        assert kappa_of_mixture([(w, c @ spec.mu_e, c @ c.T)
                                 for w, c in self.MIXTURE_ID.components]) > 1.0
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

    def test_csv_export(self):
        res = zero_measure_experiment(default_spec(), [0.0, 1.0], trials=100,
                                      n_per_domain=300, seed=4, delta=0.5,
                                      reliance_grid=(1e-3, 1.0, 1e3), n_seeds=1)
        lines = res.to_csv().strip().splitlines()
        assert lines[0] == "eps,fraction_well_specified_on_line"
        assert len(lines) == 3
        assert lines[1].startswith("0,")


def test_classifier_sweep_spans_reliance():
    spec = default_spec()
    models = classifier_sweep(spec, 800, seed=9,
                              reliance_grid=(1e-3, 1.0, 1e3), n_seeds=1)
    norms = [float(np.linalg.norm(m.w_e)) for m in models]
    assert norms[0] > norms[-1] * 5  # heavy reliance down to near-none


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


def test_stacked_accuracy_rejects_zero_variance():
    from shiftspec.conditions import accuracy_under_shift
    from shiftspec.core import LinearClassifier
    good = LinearClassifier(w_c=np.ones(2), w_e=np.ones(2), trained_on=Mask.FULL)
    flat = LinearClassifier(w_c=np.zeros(2), w_e=np.zeros(2), trained_on=Mask.FULL)
    with pytest.raises(ValueError, match="zero score variance"):
        accuracy_under_shift([good, flat], default_spec())
