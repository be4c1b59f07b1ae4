from dataclasses import replace

import numpy as np
import pytest

from shiftspec.core import Dataset, LinearClassifier, Mask, default_spec
from shiftspec.synthgen import sample_domain
from shiftspec.trainer import (OptimizerSettings, evaluate_accuracy,
                               evaluate_risk, fit_logistic)


def tiny_separable():
    return Dataset(x=np.array([[1.0], [-1.0]]), y=np.array([1.0, -1.0]),
                   k=1, l=0)


class TestFitLogistic:
    def test_separable_sign(self):
        model = fit_logistic(tiny_separable(), Mask.FULL, l2=0.1)
        assert model.w_c[0] > 0.0

    def test_full_fit_recovers_positive_bayes_direction(self):
        data = sample_domain(default_spec(), 10_000, seed=0)
        model = fit_logistic(data, Mask.FULL, l2=1e-3)
        assert np.all(model.w_c > 0)
        assert np.all(model.w_e > 0)

    def test_lemma1_risk_pair_pinned(self):
        # criterion 8's seed 0: train on seed 0, hold out seed 100_000
        spec = default_spec()
        train = sample_domain(spec, 10_000, seed=0)
        heldout = sample_domain(spec, 10_000, seed=100_000)
        risks = tuple(evaluate_risk(fit_logistic(train, mask, l2=1e-3),
                                    heldout, 1e-3)
                      for mask in (Mask.FULL, Mask.DOMAIN_GENERAL))
        assert risks == (0.0707038165107983, 0.20935500651767205)

    def test_bit_identical_reruns(self):
        data = sample_domain(default_spec(), 500, seed=1)
        a = fit_logistic(data, Mask.FULL, l2=1e-3)
        b = fit_logistic(data, Mask.FULL, l2=1e-3)
        assert np.array_equal(a.w, b.w)

    def test_degenerate_labels(self):
        data = Dataset(x=np.ones((3, 1)), y=np.ones(3), k=1, l=0)
        with pytest.raises(ValueError, match="degenerate labels"):
            fit_logistic(data, Mask.FULL, l2=0.1)

    def test_domain_general_mask_zeroes_spurious(self):
        data = sample_domain(default_spec(), 500, seed=2)
        model = fit_logistic(data, Mask.DOMAIN_GENERAL, l2=1e-3)
        assert model.trained_on is Mask.DOMAIN_GENERAL
        assert np.all(model.w_e == 0.0)

    def test_gradient_matches_finite_differences(self):
        from shiftspec.trainer import _objective_and_grad
        rng = np.random.default_rng(4)
        x = rng.standard_normal((60, 3))
        y = np.where(rng.standard_normal(60) > 0, 1.0, -1.0)
        penalty = np.full(3, 0.05)
        h = 1e-6
        for _ in range(10):
            w = rng.standard_normal(3)
            _, grad = _objective_and_grad(w, x, y, penalty)
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                hi, _ = _objective_and_grad(w + e, x, y, penalty)
                lo, _ = _objective_and_grad(w - e, x, y, penalty)
                fd = (hi - lo) / (2 * h)
                assert grad[j] == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_exhausted_max_iters_raises(self):
        data = sample_domain(default_spec(), 500, seed=1)
        with pytest.raises(ValueError, match="not converged: gradient norm"):
            fit_logistic(data, Mask.FULL, l2=1e-3,
                         opts=OptimizerSettings(max_iters=1))


def _scipy_check(data, mask, l2, opts, model):
    """Max weight difference between model and a trust-region Newton minimum
    of the same objective, rebuilt here from fit_logistic's documented
    definition. A second-order method converges on ill-conditioned samples
    where BFGS stops early on precision loss."""
    from scipy.optimize import minimize
    from scipy.special import expit
    from shiftspec.trainer import _objective_and_grad

    def hessian(w, x, y, penalty):
        s = expit(x @ w)
        return (x.T @ ((s * (1.0 - s))[:, None] * x)) / len(y) + np.diag(penalty)

    x = data.z_c if mask is Mask.DOMAIN_GENERAL else data.x
    w = model.w_c if mask is Mask.DOMAIN_GENERAL else model.w
    penalty = np.full(x.shape[1], l2)
    if mask is Mask.FULL:
        penalty[data.k:data.k + data.l] *= opts.spurious_l2_scale
    if opts.bias:
        x = np.hstack([x, np.ones((data.n, 1))])
        w = np.append(w, model.bias)
        penalty = np.append(penalty, 0.0)
    res = minimize(_objective_and_grad, np.zeros(x.shape[1]),
                   args=(x, data.y, penalty), jac=True, hess=hessian,
                   method="trust-exact", options={"gtol": 1e-12, "maxiter": 10_000})
    _, oracle_grad = _objective_and_grad(res.x, x, data.y, penalty)
    assert float(np.linalg.norm(oracle_grad)) < 1e-9
    return float(np.max(np.abs(res.x - w)))


@pytest.mark.parametrize("mask, opts", [
    (Mask.FULL, OptimizerSettings()),
    (Mask.DOMAIN_GENERAL, OptimizerSettings()),
    (Mask.FULL, OptimizerSettings(bias=True)),
    (Mask.FULL, OptimizerSettings(spurious_l2_scale=1e3)),
], ids=["full", "domain_general", "bias", "spurious_scale"])
def test_matches_scipy_oracle(mask, opts):
    # a skewed prior gives the intercept something to fit
    data = sample_domain(replace(default_spec(), label_prior=0.3), 2000, seed=3)
    model = fit_logistic(data, mask, 1e-3, opts)
    assert _scipy_check(data, mask, 1e-3, opts, model) < 1e-6


def test_matches_scipy_oracle_on_noisiest_cmnist_fits(monkeypatch):
    import shiftspec.cmnist as cmnist
    calls = []

    def recording_fit(data, mask, l2, opts):
        model = fit_logistic(data, mask, l2, opts)
        calls.append((data, mask, l2, opts, model))
        return model

    monkeypatch.setattr(cmnist, "fit_logistic", recording_fit)
    table = cmnist.cmnist_model_table(
        cmnist.CmnistSpec(label_noise=0.25, p_e=(0.9,)), train_env=0,
        test_grid=(0.8, 0.85, 0.9, 0.95, 0.99), n_train=4000,
        noise_sigmas=cmnist.DEFAULT_NOISE_SIGMAS, seeds_per_sigma=2, seed=0)
    noisiest = [call for call, row in zip(calls, table.rows)
                if row.metadata["meta_sigma"] == "8"]
    assert len(noisiest) == 2
    for call in noisiest:
        assert _scipy_check(*call) < 1e-6


class TestEvaluateAccuracy:
    def test_correct_sign(self):
        model = LinearClassifier(w_c=np.array([1.0]), w_e=np.zeros(0),
                                 trained_on=Mask.FULL)
        data = Dataset(x=np.array([[2.0]]), y=np.array([1.0]), k=1, l=0)
        assert evaluate_accuracy(model, data) == 1.0

    def test_zero_weights_score_zero(self):
        model = LinearClassifier(w_c=np.zeros(2), w_e=np.zeros(2),
                                 trained_on=Mask.FULL)
        data = sample_domain(default_spec(), 50, seed=5)
        assert evaluate_accuracy(model, data) == 0.0

    def test_matches_analytic_on_large_sample(self):
        from shiftspec.analytic import gaussian_accuracy
        data = sample_domain(default_spec(), 1_000_000, seed=6)
        model = LinearClassifier(w_c=np.ones(2), w_e=np.ones(2),
                                 trained_on=Mask.FULL)
        expected = gaussian_accuracy(np.ones(4), np.ones(4), np.eye(4))
        assert expected == pytest.approx(0.97725, abs=1e-5)
        assert evaluate_accuracy(model, data) == pytest.approx(expected, abs=0.002)

    def test_empty_dataset(self):
        model = LinearClassifier(w_c=np.ones(1), w_e=np.zeros(0),
                                 trained_on=Mask.FULL)
        data = Dataset(x=np.zeros((0, 1)), y=np.zeros(0), k=1, l=0)
        with pytest.raises(ValueError, match="empty"):
            evaluate_accuracy(model, data)


class TestEvaluateRisk:
    def test_zero_weights_log_two(self):
        model = LinearClassifier(w_c=np.zeros(1), w_e=np.zeros(0),
                                 trained_on=Mask.FULL)
        data = tiny_separable()
        assert evaluate_risk(model, data, l2=0.0) == pytest.approx(
            np.log(2.0), abs=1e-12)

    def test_penalty_of_zero_weights_is_zero(self):
        model = LinearClassifier(w_c=np.zeros(1), w_e=np.zeros(0),
                                 trained_on=Mask.FULL)
        assert evaluate_risk(model, tiny_separable(), l2=2.0) == pytest.approx(
            np.log(2.0), abs=1e-12)

    def test_separation_drives_risk_down(self):
        model = LinearClassifier(w_c=np.array([20.0]), w_e=np.zeros(0),
                                 trained_on=Mask.FULL)
        assert evaluate_risk(model, tiny_separable(), l2=0.0) < 0.01


def test_in_distribution_risk_gap_sample():
    # light version of the Lemma-1 invariant; the acceptance suite runs the
    # full 100-seed certification
    spec = default_spec()
    wins = 0
    for seed in range(10):
        train = sample_domain(spec, 10_000, seed=seed)
        heldout = sample_domain(spec, 10_000, seed=seed + 10_000)
        full = fit_logistic(train, Mask.FULL, l2=1e-3)
        dg = fit_logistic(train, Mask.DOMAIN_GENERAL, l2=1e-3)
        if evaluate_risk(full, heldout, 1e-3) < evaluate_risk(dg, heldout, 1e-3):
            wins += 1
    assert wins >= 9
