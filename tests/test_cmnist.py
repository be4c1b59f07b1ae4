import numpy as np
import pytest

from shiftspec.cmnist import (CmnistSpec, cmnist_model_table,
                              color_classifier_accuracy,
                              digit_classifier_accuracy, generate_cmnist,
                              linear_rule_accuracy)
from shiftspec.core import Dataset, InputError, Mask
from shiftspec.ingest import pairwise_pairs
from shiftspec.trainer import evaluate_accuracy, fit_logistic


class TestGenerate:
    def test_noiseless_limit(self):
        spec = CmnistSpec(label_noise=0.0, p_e=(1.0,))
        data = generate_cmnist(spec, env=0, n=500, seed=0)
        assert np.array_equal(data.z_e[:, 0], data.y)
        assert np.array_equal(data.z_c[:, 0], data.y)

    def test_color_match_rate(self):
        spec = CmnistSpec(label_noise=0.25, p_e=(0.9,))
        data = generate_cmnist(spec, env=0, n=100_000, seed=1)
        match = np.mean(data.z_e[:, 0] == data.y)
        assert abs(match - 0.9) < 0.005

    def test_digit_agreement_rate(self):
        spec = CmnistSpec(label_noise=0.25, p_e=(0.9,))
        data = generate_cmnist(spec, env=0, n=100_000, seed=2)
        agree = np.mean(data.z_c[:, 0] * data.y > 0)
        assert abs(agree - 0.75) < 0.005

    def test_determinism(self):
        spec = CmnistSpec()
        a = generate_cmnist(spec, env=2, n=50, seed=9)
        b = generate_cmnist(spec, env=2, n=50, seed=9)
        assert np.array_equal(a.x, b.x)

    def test_env_bounds(self):
        with pytest.raises(ValueError):
            generate_cmnist(CmnistSpec(), env=3, n=10, seed=0)


class TestOracles:
    def test_color_in_domain(self):
        assert color_classifier_accuracy(0.9, polarity=1) == 0.9

    def test_color_under_reversal(self):
        assert color_classifier_accuracy(0.2, polarity=1) == 0.2

    def test_uninformative_color(self):
        assert color_classifier_accuracy(0.5, 1) == 0.5
        assert color_classifier_accuracy(0.5, -1) == 0.5

    def test_negative_polarity(self):
        assert color_classifier_accuracy(0.9, polarity=-1) == pytest.approx(0.1)

    def test_digit_oracle(self):
        assert digit_classifier_accuracy(CmnistSpec(label_noise=0.25)) == 0.75
        assert digit_classifier_accuracy(CmnistSpec(label_noise=0.0, p_e=(0.5,))) == 1.0
        assert digit_classifier_accuracy(CmnistSpec(label_noise=0.5, p_e=(0.5,))) == 0.5

    def test_crossing_property(self):
        spec = CmnistSpec(label_noise=0.25)
        digit = digit_classifier_accuracy(spec)
        for p in np.linspace(0.0, 1.0, 41):
            color_wins = color_classifier_accuracy(float(p), 1) > digit
            assert color_wins == (p > 0.75)


class TestLinearRuleAccuracy:
    def test_color_dominant_matches_oracle(self):
        acc = linear_rule_accuracy(w_c=0.2, w_e=1.0, label_noise=0.25, p_e=0.9)
        assert acc == pytest.approx(0.9, abs=1e-12)

    def test_digit_dominant_matches_oracle(self):
        acc = linear_rule_accuracy(w_c=1.0, w_e=0.2, label_noise=0.25, p_e=0.1)
        assert acc == pytest.approx(0.75, abs=1e-12)

    def test_tie_counts_incorrect(self):
        acc = linear_rule_accuracy(w_c=1.0, w_e=1.0, label_noise=0.25, p_e=0.9)
        assert acc == pytest.approx(0.75 * 0.9, abs=1e-12)

    def test_noisy_version_matches_monte_carlo(self):
        rng = np.random.default_rng(0)
        w_c, w_e, sigma, p_e, noise = 0.8, 1.1, 0.7, 0.8, 0.25
        spec = CmnistSpec(label_noise=noise, p_e=(p_e,))
        data = generate_cmnist(spec, env=0, n=400_000, seed=3)
        scores = (w_c * data.z_c[:, 0] + w_e * data.z_e[:, 0]
                  + sigma * np.hypot(w_c, w_e) * rng.standard_normal(data.n))
        mc = float(np.mean(scores * data.y > 0))
        analytic = linear_rule_accuracy(w_c, w_e, noise, p_e, sigma)
        assert analytic == pytest.approx(mc, abs=0.003)


class TestTrainedClassifiers:
    def test_digit_restricted_fit_reproduces_oracle(self):
        spec = CmnistSpec(label_noise=0.25, p_e=(0.9,))
        data = generate_cmnist(spec, env=0, n=50_000, seed=4)
        digit_only = Dataset(x=data.x[:, :1], y=data.y, k=1, l=0)
        model = fit_logistic(digit_only, Mask.FULL, l2=1e-3)
        held = generate_cmnist(spec, env=0, n=50_000, seed=5)
        acc = evaluate_accuracy(model, Dataset(x=held.x[:, :1], y=held.y, k=1, l=0))
        assert abs(acc - 0.75) < 0.01

    def test_color_restricted_fit_tracks_test_environment(self):
        spec = CmnistSpec(label_noise=0.25, p_e=(0.9, 0.2))
        data = generate_cmnist(spec, env=0, n=50_000, seed=6)
        color_only = Dataset(x=data.x[:, 1:], y=data.y, k=1, l=0)
        model = fit_logistic(color_only, Mask.FULL, l2=1e-3)
        test = generate_cmnist(spec, env=1, n=50_000, seed=7)
        acc = evaluate_accuracy(model, Dataset(x=test.x[:, 1:], y=test.y, k=1, l=0))
        assert abs(acc - 0.2) < 0.01


def test_sweep_sign_structure_small():
    # light version of the four-panel invariant; acceptance runs the full one
    spec = CmnistSpec(label_noise=0.25, p_e=(0.9,))
    sigmas = tuple(float(s) for s in np.geomspace(0.3, 6.0, 6))
    hi = cmnist_model_table(spec, 0, (0.8, 0.9, 0.99), 2000, sigmas, 1, seed=8)
    lo = cmnist_model_table(spec, 0, (0.01, 0.1, 0.2), 2000, sigmas, 1, seed=8)
    from shiftspec.aline import fit_probit_line
    hi_rs = [fit_probit_line(*pairwise_pairs(hi, "env_id", env)).pearson_r
             for env in hi.env_names[1:]]
    lo_rs = [fit_probit_line(*pairwise_pairs(lo, "env_id", env)).pearson_r
             for env in lo.env_names[1:]]
    assert min(hi_rs) > 0.9
    assert max(lo_rs) < -0.9


def test_model_table_rejects_degenerate_grid():
    with pytest.raises(ValueError, match="degenerate sweep"):
        cmnist_model_table(CmnistSpec(), 0, (0.5,), 100, (0.5,), 1, seed=0)


@pytest.mark.parametrize("grid", [(0.8, 0.8000001, 0.9), (0.8, 0.9, 0.8)])
def test_model_table_rejects_colliding_column_names(grid):
    # both grid values would be written as column p_0.8
    with pytest.raises(InputError, match="'p_0.8' twice"):
        cmnist_model_table(CmnistSpec(), 0, grid, 100, (0.5,), 1, seed=0)



def test_linear_rule_accuracy_array_matches_scalar_calls():
    rng = np.random.default_rng(11)
    p_e = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 30)])
    for _ in range(200):
        w_c, w_e = rng.standard_normal(2)
        noise = float(rng.uniform(0.0, 0.5))
        sigma = float(rng.choice([0.0, rng.uniform(0.1, 8.0)]))
        bias = float(rng.choice([0.0, rng.standard_normal()]))
        stacked = linear_rule_accuracy(w_c, w_e, noise, p_e, sigma, bias)
        single = np.array([linear_rule_accuracy(w_c, w_e, noise, float(p),
                                                sigma, bias) for p in p_e])
        assert np.array_equal(stacked, single)
