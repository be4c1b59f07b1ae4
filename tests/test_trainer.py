import hashlib
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shiftspec.analytic import row_dot
from shiftspec.core import Dataset, LinearClassifier, Mask, default_spec
from shiftspec.synthgen import sample_domain
from shiftspec import trainer
from shiftspec.trainer import (OptimizerSettings, evaluate_accuracy,
                               evaluate_risk, fit_logistic, fit_logistic_stack,
                               ridge_penalty)


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
        models = [fit_logistic(train, mask, l2=1e-3)
                  for mask in (Mask.FULL, Mask.DOMAIN_GENERAL)]
        risks = tuple(evaluate_risk(m, heldout, 1e-3) for m in models)
        assert risks == (0.0707038165107983, 0.209355006517672)
        # np.logaddexp's loss, which evaluate_risk used before it shared the
        # Newton loop's SIMD loss, lands within a few ulp
        for model, risk in zip(models, risks):
            margins = heldout.y * model.score(heldout.x)
            old = float(np.mean(np.logaddexp(0.0, -margins))
                        + 0.5 * 1e-3 * float(model.w @ model.w))
            assert abs(risk - old) <= 4 * math.ulp(old)

    def test_lemma1_weights_pinned(self):
        # criterion 8's seeds 0-19: both fits' weights, pinned by digest
        spec = default_spec()
        digest = hashlib.sha256()
        for seed in range(20):
            train = sample_domain(spec, 10_000, seed=seed)
            for mask in (Mask.FULL, Mask.DOMAIN_GENERAL):
                digest.update(fit_logistic(train, mask, l2=1e-3).w.tobytes())
        assert digest.hexdigest() == ("c24a6b65624582401d7f6956c2fcac45"
                                      "fc14d981059cf8744bb98b4b982c1357")

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
        from shiftspec.trainer import _objective_grad_sigmoid
        rng = np.random.default_rng(4)
        x = rng.standard_normal((60, 3))
        y = np.where(rng.standard_normal(60) > 0, 1.0, -1.0)
        penalty = np.full(3, 0.05)
        h = 1e-6
        for _ in range(10):
            w = rng.standard_normal(3)
            _, grad = _objective_grad_sigmoid(w, x, y, penalty)[:2]
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                hi, _ = _objective_grad_sigmoid(w + e, x, y, penalty)[:2]
                lo, _ = _objective_grad_sigmoid(w - e, x, y, penalty)[:2]
                fd = (hi - lo) / (2 * h)
                assert grad[j] == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_exhausted_max_iters_raises(self):
        data = sample_domain(default_spec(), 500, seed=1)
        with pytest.raises(ValueError, match="not converged: gradient norm"):
            fit_logistic(data, Mask.FULL, l2=1e-3,
                         opts=OptimizerSettings(max_iters=1))


# margins where log1p(exp(-|m|)) + max(-m, 0) must equal np.logaddexp(0, -m)
# bit for bit: signed zeros, subnormals, exp(-|m|) subnormal or 0, the
# largest finite doubles, infinities and nan
SPECIAL_MARGINS = [0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 740.0, -740.0,
                   800.0, -800.0, 1e308, -1e308, math.inf, -math.inf, math.nan]


def test_logistic_losses_equal_logaddexp_at_special_margins():
    margins = np.array(SPECIAL_MARGINS)
    with np.errstate(invalid="ignore"):  # logaddexp warns on nan
        expected = np.logaddexp(0.0, -margins)
    losses = trainer._logistic_losses(margins)
    assert losses.tobytes() == expected.tobytes()
    # margins is documented to come back as min(m, 0)
    assert margins.tobytes() == np.minimum(SPECIAL_MARGINS, 0.0).tobytes()


@settings(max_examples=300, deadline=None)
@given(margins=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                        min_size=1, max_size=40))
def test_logistic_losses_within_4_ulp_of_logaddexp(margins):
    margins = np.array(margins)
    expected = np.logaddexp(0.0, -margins)
    error = np.abs(trainer._logistic_losses(margins) - expected)
    with np.errstate(over="ignore"):  # the largest double has no next one
        ulp = np.spacing(expected)
    assert np.all(error <= 4 * ulp)


def _masked_objective_grad_sigmoid(w, x, y, penalty):
    """_objective_grad_sigmoid as it was spelled with a masked subtract
    (where=margins < 0) and margins kept from the loss to the sigmoid."""
    margins = (x @ w[..., None])[..., 0]
    margins *= y
    buf = np.abs(margins)
    np.negative(buf, out=buf)
    np.exp(buf, out=buf)
    np.log1p(buf, out=buf)
    np.subtract(buf, margins, out=buf, where=margins < 0.0)
    loss = np.mean(buf, axis=-1)
    sig = np.multiply(margins, 0.5, out=buf)
    np.tanh(sig, out=sig)
    np.subtract(1.0, sig, out=sig)
    sig *= 0.5
    y_sig = np.multiply(y, sig, out=margins)
    grad = (-(x.swapaxes(-1, -2) @ y_sig[..., None])[..., 0]
            / y.shape[-1] + penalty * w)
    return loss + 0.5 * row_dot(penalty, w * w), grad, sig


def _assert_same_bits(ours, reference):
    """Equal bit patterns off nan, signed zeros included; nan where nan."""
    ours, reference = np.asarray(ours), np.asarray(reference)
    assert ours.shape == reference.shape
    nan = np.isnan(reference)
    assert np.array_equal(np.isnan(ours), nan)
    assert ours[~nan].tobytes() == reference[~nan].tobytes()


def _assert_objective_matches_masked_spelling(w, x, y, penalty):
    with np.errstate(all="ignore"):
        ours = trainer._objective_grad_sigmoid(w, x, y, penalty)
        want = _masked_objective_grad_sigmoid(w, x, y, penalty)
    for a, b in zip(ours, want):
        _assert_same_bits(a, b)


@pytest.mark.parametrize("y_sign", [1.0, -1.0])
def test_objective_matches_masked_spelling_at_special_margins(y_sign):
    # x @ [1] is x, so the margins are SPECIAL_MARGINS times y_sign: signed
    # zeros, +-inf, nan and +-1e300 among them
    margins = np.array(SPECIAL_MARGINS + [1e300, -1e300, 0.5, -0.5])
    x = margins[:, None]
    y = np.where(np.arange(len(margins)) % 2 == 0, y_sign, -y_sign)
    _assert_objective_matches_masked_spelling(np.ones(1), x, y, np.full(1, 1e-3))
    # as a stack of two members with different weights
    xs = np.stack([np.hstack([x, x[::-1]])] * 2)
    ws = np.array([[1.0, 0.0], [-0.5, 2.0]])
    _assert_objective_matches_masked_spelling(ws, xs, np.stack([y, -y]),
                                              np.full((2, 2), 1e-3))


_FINITE = st.floats(-1e3, 1e3, allow_nan=False)


@settings(max_examples=100, deadline=None)
@given(b=st.integers(1, 3), n=st.integers(1, 30), d=st.integers(1, 4),
       data=st.data())
def test_objective_matches_masked_spelling(b, n, d, data):
    arrays = st.lists(_FINITE, min_size=b * n * d, max_size=b * n * d)
    x = np.array(data.draw(arrays)).reshape(b, n, d)
    w = np.array(data.draw(st.lists(_FINITE, min_size=b * d,
                                    max_size=b * d))).reshape(b, d)
    y = np.array(data.draw(st.lists(st.sampled_from([1.0, -1.0]),
                                    min_size=b * n, max_size=b * n)))
    _assert_objective_matches_masked_spelling(w, x, y.reshape(b, n),
                                              np.full((b, d), 1e-3))
    _assert_objective_matches_masked_spelling(w[0], x[0], y[:n],
                                              np.full(d, 1e-3))


def _broadcast_newton_direction(x, ridge, grad, sig):
    """_newton_direction as it was spelled, with the Hessian's product
    curv x as a broadcast over the short last axis."""
    curv = sig * (1.0 - sig)
    hess = x.swapaxes(1, 2) @ (curv[..., None] * x) / x.shape[1] + ridge
    chol = trainer._cholesky(hess)
    direction = -np.linalg.solve(chol.swapaxes(1, 2),
                                 np.linalg.solve(chol, grad[..., None]))[..., 0]
    slope = row_dot(grad, direction)
    uphill = ~(slope < 0.0)
    if np.count_nonzero(uphill):
        direction[uphill] = -grad[uphill]
        slope = row_dot(grad, direction)
    return direction, slope


@settings(max_examples=60, deadline=None)
@given(b=st.integers(1, 3), n=st.sampled_from([1, 7, 4000]),
       d=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_newton_direction_matches_broadcast_spelling(b, n, d, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((b, n, d)) * 10.0 ** rng.uniform(-3, 3, (b, n, 1))
    sig = rng.random((b, n))
    grad = rng.standard_normal((b, d))
    ridge = 1e-3 * np.eye(d) * np.ones((b, 1, 1))
    want = _broadcast_newton_direction(x, ridge, grad, sig.copy())
    ours = trainer._newton_direction(x, ridge, grad, sig)
    for a, w in zip(ours, want):
        assert a.tobytes() == w.tobytes()


def test_nan_margin_diverges_without_runtime_warning():
    data = sample_domain(default_spec(), 50, seed=1)
    x = data.x.copy()
    x[3, 0] = math.nan
    penalty = ridge_penalty(2, 2, Mask.FULL, 1e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError,
                           match="^diverged: non-finite loss or gradient$"):
            fit_logistic_stack(x[None], data.y[None], penalty[None])


@pytest.mark.parametrize("l2, opts, field", [
    (-1.0, OptimizerSettings(), "l2"),
    (math.inf, OptimizerSettings(), "l2"),
    (math.nan, OptimizerSettings(), "l2"),
    (1e-3, OptimizerSettings(spurious_l2_scale=math.inf), "spurious_l2_scale"),
    (1e-3, OptimizerSettings(spurious_l2_scale=-1.0), "spurious_l2_scale"),
    (1e-3, OptimizerSettings(spurious_l2_scale=math.nan), "spurious_l2_scale"),
    (1e-3, OptimizerSettings(max_iters=-1), "max_iters"),
], ids=["l2=-1", "l2=inf", "l2=nan", "scale=inf", "scale=-1", "scale=nan",
        "max_iters=-1"])
def test_bad_settings_name_the_field_before_any_work(l2, opts, field,
                                                     monkeypatch):
    calls = []
    monkeypatch.setattr(trainer, "_newton",
                        lambda *a, **k: calls.append(1))
    data = sample_domain(default_spec(), 100, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{field} must be"):
            fit_logistic(data, Mask.FULL, l2, opts)
    assert calls == []


def _stack(datasets):
    return (np.stack([d.x for d in datasets]),
            np.stack([d.y for d in datasets]))


def test_stack_members_equal_lone_fits():
    spec = default_spec()
    datasets = [sample_domain(spec, 300, seed=s) for s in range(5)]
    scales = (1e-3, 1.0, 1e3, 0.5, 0.0)
    opts = [OptimizerSettings(spurious_l2_scale=s) for s in scales]
    penalty = np.array([ridge_penalty(2, 2, Mask.FULL, 1e-3, o) for o in opts])
    weights = fit_logistic_stack(*_stack(datasets), penalty)
    for w, data, o in zip(weights, datasets, opts):
        assert w.tobytes() == fit_logistic(data, Mask.FULL, 1e-3, o).w.tobytes()


# Weights of fit_logistic_stack on the datasets of the test below, equal
# to each member's lone fit_logistic bit for bit.
BACKTRACKING_WEIGHTS = {
    79: [0.009014358981526355, -0.00854189945355329],
    97: [-0.005314217983468013, 0.0033749995165412057],
    5: [-5.095638682343354, 2.3585055910614807],
    169: [-6.288449616952296, 1.6709437968700804],
}


def _backtracking_data(seed):
    rng = np.random.default_rng(seed)
    if seed == 169:  # row scales from 1e-2 to 1e3
        x = rng.standard_normal((10, 2)) * 10.0 ** rng.uniform(-2, 3, (10, 1))
    else:
        x = rng.standard_normal((10, 2)) * (100.0 if seed != 5 else 1.0)
    y = np.where(rng.random(10) < 0.5, 1.0, -1.0)
    return Dataset(x=x, y=y, k=1, l=1)


def test_stack_members_that_backtrack_match_the_pinned_loop(monkeypatch):
    # seeds 79 and 97 (rows scaled by 100) and 5 take only full Newton
    # steps; near their optima the Armijo test compares losses at rounding
    # level, so their pins hold the loss's last bits. Seed 169's seventh
    # full step overshoots by far more than rounding, so it halves the step
    # 5 times there.
    datasets = [_backtracking_data(seed) for seed in BACKTRACKING_WEIGHTS]
    penalty = np.tile(ridge_penalty(1, 1, Mask.FULL, 1e-3), (4, 1))
    weights = fit_logistic_stack(*_stack(datasets), penalty)
    objective, direction = (trainer._objective_grad_sigmoid,
                            trainer._newton_direction)
    calls = []  # 1 per objective evaluation, 0 per Newton step
    monkeypatch.setattr(trainer, "_objective_grad_sigmoid",
                        lambda *a: calls.append(1) or objective(*a))
    monkeypatch.setattr(trainer, "_newton_direction",
                        lambda *a: calls.append(0) or direction(*a))
    halvings = []
    for w, data, pinned in zip(weights, datasets,
                               BACKTRACKING_WEIGHTS.values()):
        assert w.tolist() == pinned
        calls.clear()
        assert fit_logistic(data, Mask.FULL, 1e-3).w.tolist() == pinned
        halvings.append(calls.count(1) - 1 - calls.count(0))
        grad = objective(w, data.x, data.y, penalty[0])[1]
        assert math.sqrt(grad @ grad) < OptimizerSettings().tol
    assert halvings == [0, 0, 0, 5]


def test_stack_member_without_positive_definite_hessian():
    # an all-zero column with l2 = 0 leaves H singular at every step, so that
    # member takes steepest-descent steps while the other one converges and
    # leaves the stack
    good = sample_domain(default_spec(), 200, seed=1)
    x = good.x.copy()
    x[:, 3] = 0.0
    singular = Dataset(x=x, y=good.y, k=2, l=2)
    opts = OptimizerSettings(tol=1e-5)
    penalty = np.stack([ridge_penalty(2, 2, Mask.FULL, 1e-3, opts),
                        ridge_penalty(2, 2, Mask.FULL, 0.0, opts)])
    weights = fit_logistic_stack(*_stack([good, singular]), penalty, opts)
    for w, data, l2 in zip(weights, (good, singular), (1e-3, 0.0)):
        assert w.tobytes() == fit_logistic(data, Mask.FULL, l2, opts).w.tobytes()


def test_first_failing_member_names_the_error():
    # an overflowing member and a one-class member fail in different ways;
    # the stack raises what fitting its members in order raises first
    good = sample_domain(default_spec(), 200, seed=1)
    huge = Dataset(x=good.x * 1e200, y=good.y, k=2, l=2)
    one_class = Dataset(x=good.x, y=np.ones(good.n), k=2, l=2)
    penalty = np.tile(ridge_penalty(2, 2, Mask.FULL, 1e-3), (3, 1))
    for members in ([good, huge, one_class], [good, one_class, huge]):
        with pytest.raises(ValueError) as lone:
            for data in members:
                fit_logistic(data, Mask.FULL, 1e-3)
        with pytest.raises(ValueError) as stacked:
            fit_logistic_stack(*_stack(members), penalty)
        assert str(stacked.value) == str(lone.value)
    assert "degenerate labels" in str(lone.value)


def _scipy_check(data, mask, l2, opts, model):
    """Max weight difference between model and a trust-region Newton minimum
    of the same objective, rebuilt here from fit_logistic's documented
    definition. A second-order method converges on ill-conditioned samples
    where BFGS stops early on precision loss."""
    from scipy.optimize import minimize
    from scipy.special import expit
    from shiftspec.trainer import _objective_grad_sigmoid

    def objective_and_grad(w, x, y, penalty):
        return _objective_grad_sigmoid(w, x, y, penalty)[:2]

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
    res = minimize(objective_and_grad, np.zeros(x.shape[1]),
                   args=(x, data.y, penalty), jac=True, hess=hessian,
                   method="trust-exact", options={"gtol": 1e-12, "maxiter": 10_000})
    _, oracle_grad = objective_and_grad(res.x, x, data.y, penalty)
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

    def recording_fit(x, y, penalty, *args):
        weights = fit_logistic_stack(x, y, penalty, *args)
        calls.append((x, y, penalty, weights))
        return weights

    monkeypatch.setattr(cmnist, "fit_logistic_stack", recording_fit)
    table = cmnist.cmnist_model_table(
        cmnist.CmnistSpec(label_noise=0.25, p_e=(0.9,)), train_env=0,
        test_grid=(0.8, 0.85, 0.9, 0.95, 0.99), n_train=4000,
        noise_sigmas=cmnist.DEFAULT_NOISE_SIGMAS, seeds_per_sigma=2, seed=0)
    ((x, y, penalty, weights),) = calls
    assert penalty.tolist() == [[1e-3, 1e-3]] * len(table.rows)
    noisiest = [(Dataset(x=x[b], y=y[b], k=1, l=1), weights[b])
                for b, row in enumerate(table.rows)
                if row.metadata["meta_sigma"] == "8"]
    assert len(noisiest) == 2
    for data, w in noisiest:
        model = LinearClassifier(w_c=w[:1], w_e=w[1:], trained_on=Mask.FULL)
        assert _scipy_check(data, Mask.FULL, 1e-3, OptimizerSettings(),
                            model) < 1e-6


def test_empty_stack_returns_no_weights():
    weights = fit_logistic_stack(np.zeros((0, 5, 3)), np.zeros((0, 5)),
                                 np.zeros((0, 3)))
    assert weights.shape == (0, 3)


def test_member_with_zero_features_leaves_the_stack_at_step_0(monkeypatch):
    # all-zero features make the gradient at w = 0 exactly 0, so that member
    # is converged before the first Newton step
    good = sample_domain(default_spec(), 200, seed=1)
    zero = Dataset(x=np.zeros_like(good.x), y=good.y, k=2, l=2)
    stack_sizes = []
    objective = trainer._objective_grad_sigmoid

    def recording_objective(w, x, y, penalty):
        stack_sizes.append(len(x))
        return objective(w, x, y, penalty)

    monkeypatch.setattr(trainer, "_objective_grad_sigmoid", recording_objective)
    penalty = np.tile(ridge_penalty(2, 2, Mask.FULL, 1e-3), (2, 1))
    weights = fit_logistic_stack(*_stack([zero, good]), penalty)
    assert stack_sizes[0] == 2 and len(stack_sizes) > 2
    assert set(stack_sizes[1:]) == {1}
    assert weights[0].tolist() == [0.0] * 4
    for w, data in zip(weights, (zero, good)):
        assert w.tobytes() == fit_logistic(data, Mask.FULL, 1e-3).w.tobytes()


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
        from shiftspec.analytic import normal_cdf
        data = sample_domain(default_spec(), 1_000_000, seed=6)
        model = LinearClassifier(w_c=np.ones(2), w_e=np.ones(2),
                                 trained_on=Mask.FULL)
        w = mu = np.ones(4)
        expected = float(normal_cdf(w @ mu / np.sqrt(w @ np.eye(4) @ w)))
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
