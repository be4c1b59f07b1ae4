import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from shiftspec.analytic import normal_cdf
from shiftspec.cmnist import (DEFAULT_NOISE_SIGMAS, CmnistSpec,
                              cmnist_model_table,
                              color_classifier_accuracy,
                              digit_classifier_accuracy, generate_cmnist,
                              generate_cmnist_stack, linear_rule_accuracy)
from shiftspec.core import Dataset, InputError, Mask
from shiftspec.ingest import pairwise_pairs
from shiftspec.rng import RandomStream
from shiftspec.trainer import DEFAULT_L2, evaluate_accuracy, fit_logistic


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

    @pytest.mark.parametrize("kwargs, match", [
        ({"noise_sigma": -1.0}, "noise_sigma"),
        ({"noise_sigma": math.nan}, "noise_sigma"),
        ({"noise_sigma": np.array([-0.0, -1e-300])}, "noise_sigma"),
        ({"noise_sigma": math.inf}, "noise_sigma"),
        ({"p_e": 1.5}, "p_e"),
        ({"p_e": -1e-300}, "p_e"),
        ({"p_e": math.nan}, "p_e"),
        ({"p_e": np.array([0.1, math.nan])}, "p_e"),
        ({"label_noise": math.nan}, "label_noise"),
        ({"label_noise": 1.0 + 2.0 ** -52}, "label_noise"),
        ({"label_noise": -0.5}, "label_noise"),
    ], ids=["sigma_negative", "sigma_nan", "sigma_array", "sigma_inf",
            "pe_above", "pe_below", "pe_nan", "pe_array_nan", "noise_nan",
            "noise_above", "noise_below"])
    def test_invalid_input_raises(self, kwargs, match):
        # each of these once scored silently: the hard threshold for a
        # negative or nan sigma, nan for an infinite sigma on a zero rule,
        # 0.883 for p_e = 1.5, nan for a nan probability
        args = {"w_c": np.array([1.0, 0.3]), "w_e": np.array([0.2, 0.9]),
                "label_noise": 0.25, "p_e": 0.9, "noise_sigma": 0.5} | kwargs
        with pytest.raises(ValueError, match=match):
            linear_rule_accuracy(**args)

    def test_boundary_inputs_are_valid(self):
        # the closed interval's ends, -0.0, and a huge finite sigma
        rows = linear_rule_accuracy(np.array([1.0, 0.3]), np.array([0.2, 0.9]),
                                    1.0, np.array([0.0, -0.0, 1.0]),
                                    np.array([-0.0, 1e300]))
        assert rows.shape == (2, 3) and not np.isnan(rows).any()
        assert linear_rule_accuracy(1.0, 0.2, 0.0, 1.0) == 1.0


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


def test_ladder_rows_equal_lone_fits_bit_for_bit():
    # sigma = 0 scores the hard threshold; the others go through normal_cdf
    spec = CmnistSpec(label_noise=0.25, p_e=(0.9,))
    grid, sigmas, n, seed = (0.1, 0.8, 0.95), (0.0, 0.5, 3.0), 300, 4
    table = cmnist_model_table(spec, 0, grid, n, sigmas, 2, seed=seed)
    assert len(table.rows) == 6
    for task, row in enumerate(table.rows):
        sigma = sigmas[task // 2]
        data = generate_cmnist(spec, 0, n, seed * 1_000_003 + task)
        noise = RandomStream(seed * 1_000_003 + task, stream_id=1)
        noisy = Dataset(x=data.x + sigma * noise.standard_normal(size=data.x.shape),
                        y=data.y, k=1, l=1)
        model = fit_logistic(noisy, Mask.FULL, DEFAULT_L2)
        accs = linear_rule_accuracy(float(model.w_c[0]), float(model.w_e[0]),
                                    spec.label_noise, np.array((0.9,) + grid),
                                    sigma)
        assert row.accuracies == tuple(accs.tolist())
        assert row.metadata == {"meta_sigma": f"{sigma:g}"}


def test_linear_rule_accuracy_rule_arrays_use_math_hypot():
    # np.hypot rounds differently from math.hypot on some pairs; each row of
    # the array call must equal the scalar call on its rule, whose norm is
    # math.hypot's
    p_e = np.array([0.1, 0.5, 0.9])
    probs = (0.75 * p_e, 0.75 * (1.0 - p_e), 0.25 * p_e, 0.25 * (1.0 - p_e))

    def by_hand(c, e, hypot):
        scores = np.array([c + e, c - e, -c + e, -c - e])
        hits = normal_cdf(scores / hypot(c, e))
        return sum((prob * hit for prob, hit in zip(probs, hits)), 0.0)

    pairs = np.random.default_rng(0).standard_normal((1000, 2)).tolist()
    c, e = next((c, e) for c, e in pairs if not np.array_equal(
        by_hand(c, e, math.hypot), by_hand(c, e, np.hypot)))
    w_c = np.array([c, -0.3, c, 1.2])
    w_e = np.array([e, 0.7, e, -0.4])
    sigma = np.array([1.0, 0.0, 0.5, 2.0])
    rows = linear_rule_accuracy(w_c, w_e, 0.25, p_e, sigma)
    assert rows.shape == (4, 3)
    assert np.array_equal(rows[0], by_hand(c, e, math.hypot))
    for row, c, e, s in zip(rows, w_c, w_e, sigma):
        assert np.array_equal(row, linear_rule_accuracy(float(c), float(e),
                                                        0.25, p_e, float(s)))
    one_env = linear_rule_accuracy(w_c, w_e, 0.25, 0.9, sigma)
    assert np.array_equal(one_env, rows[:, 2])


@pytest.mark.parametrize("sigmas", [(-2.0,), (0.5, math.nan), (math.inf,),
                                    (0.5, -math.inf), ()],
                         ids=["negative", "nan", "inf", "minus_inf", "empty"])
def test_model_table_rejects_bad_noise_ladder_before_sampling(sigmas,
                                                              monkeypatch):
    import shiftspec.cmnist as cmnist

    def no_sampling(*args):
        raise AssertionError("sampled before the noise ladder was checked")

    monkeypatch.setattr(cmnist, "generate_cmnist_stack", no_sampling)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="noise sigma"):
            cmnist_model_table(CmnistSpec(), 0, (0.8, 0.9), 100, sigmas, 1,
                               seed=0)


def _masked_generate_cmnist(spec, env, n, seed):
    """generate_cmnist as it was spelled, with selects over the flip and
    color-match masks."""
    stream = RandomStream(seed)
    y_true = stream.bernoulli_signs(0.5, size=n)
    flip = stream.uniform(size=n) < spec.label_noise
    y = np.where(flip, -y_true, y_true)
    match = stream.uniform(size=n) < spec.p_e[env]
    z_e = np.where(match, y, -y)
    return np.column_stack([y_true, z_e]), y


_PROB = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.5, 1.0]))


@settings(max_examples=60, deadline=None)
@given(label_noise=_PROB, p_e=st.lists(_PROB, min_size=1, max_size=3),
       n=st.one_of(st.integers(0, 9), st.just(4000)),
       seed=st.integers(0, 2**63 - 1), data=st.data())
def test_generate_cmnist_matches_masked_spelling(label_noise, p_e, n, seed,
                                                 data):
    spec = CmnistSpec(label_noise=label_noise, p_e=tuple(p_e))
    env = data.draw(st.integers(0, len(p_e) - 1))
    ours = generate_cmnist(spec, env, n, seed)
    x, y = _masked_generate_cmnist(spec, env, n, seed)
    assert ours.x.tobytes() == x.tobytes() and ours.x.shape == x.shape
    assert ours.y.tobytes() == y.tobytes()


def _lone_generate_cmnist(spec, env, n, seed):
    """generate_cmnist as it was spelled before the stacked draw: one
    RandomStream per member and its three sign draws in turn."""
    stream = RandomStream(seed)
    y_true = stream.bernoulli_signs(0.5, size=n)
    y = stream.bernoulli_signs(spec.label_noise, size=n)
    y *= -y_true
    z_e = stream.bernoulli_signs(spec.p_e[env], size=n)
    z_e *= y
    return np.column_stack([y_true, z_e]), y


@settings(max_examples=60, deadline=None)
@given(label_noise=_PROB, p_e=st.lists(_PROB, min_size=1, max_size=3),
       env=st.integers(0, 2), n=st.one_of(st.integers(1, 9), st.just(4000)),
       seeds=st.lists(st.integers(-2**70, 2**70), max_size=4))
@example(label_noise=0.0, p_e=[1.0, 0.0], env=1, n=1,
         seeds=[-1, 2**64 + 7, 0])
@example(label_noise=1.0, p_e=[0.5], env=0, n=4000, seeds=[])
def test_generate_cmnist_stack_matches_per_member_loop(label_noise, p_e, env,
                                                       n, seeds):
    spec = CmnistSpec(label_noise=label_noise, p_e=tuple(p_e))
    env %= len(p_e)
    x, y = generate_cmnist_stack(spec, env, n, seeds)
    assert x.shape == (len(seeds), n, 2) and y.shape == (len(seeds), n)
    for b, seed in enumerate(seeds):
        want_x, want_y = _lone_generate_cmnist(spec, env, n, seed)
        assert x[b].tobytes() == want_x.tobytes()
        assert y[b].tobytes() == want_y.tobytes()


# tracemalloc peak, in bytes, of the default ladder (24 members x 4,000
# rows) after one warm-up call, as measured before its per-row kernels lost
# their masked selects: 6,707,483-6,707,707 by what ran before it in the
# same process, the highest pinned. Each objective evaluation holding two
# (B, n) arrays keeps it from rising.
LADDER_PEAK_BYTES = 6_707_707


def test_default_ladder_peak_memory_does_not_rise():
    def ladder():
        cmnist_model_table(CmnistSpec(label_noise=0.25, p_e=(0.9,)), 0,
                           (0.8, 0.85, 0.9, 0.95, 0.99), 4000,
                           DEFAULT_NOISE_SIGMAS, 2, seed=0)

    ladder()  # warm-up: lazy imports and first-call caches
    tracemalloc.start()
    try:
        ladder()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= LADDER_PEAK_BYTES
