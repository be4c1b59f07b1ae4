import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from shiftspec import aline
from shiftspec.aline import (Verdict, classify_split, correlation_epsilon,
                             fit_probit_line, min_model_count, probit_points)
from shiftspec.analytic import normal_cdf
from shiftspec.core import InputError
from shiftspec.rng import RandomStream


def pairs_from_probits(xs, ys):
    return (normal_cdf(np.asarray(xs, dtype=float)),
            normal_cdf(np.asarray(ys, dtype=float)))


class TestFitProbitLine:
    def test_identity_line(self):
        accs = np.array([0.55, 0.7, 0.8, 0.9])
        fit = fit_probit_line(accs, accs)
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert fit.intercept == pytest.approx(0.0, abs=1e-12)
        assert fit.pearson_r == pytest.approx(1.0, abs=1e-12)

    def test_probit_table_example(self):
        fit = fit_probit_line([0.6915, 0.5, 0.3085], [0.8413, 0.6915, 0.5])
        assert fit.slope == pytest.approx(1.0, abs=1e-3)
        assert fit.intercept == pytest.approx(0.5, abs=1e-3)
        assert fit.pearson_r == pytest.approx(1.0, abs=1e-6)

    def test_engineered_half_correlation_p_value(self):
        # exact sample correlation 0.5 on the probit scale, n = 20
        rng = np.random.default_rng(0)
        x = rng.standard_normal(20)
        z = rng.standard_normal(20)
        x = (x - x.mean()) / x.std()
        z = z - z.mean()
        z -= (z @ x) / (x @ x) * x
        z /= z.std()
        r = 0.5
        y = r * x + math.sqrt(1 - r * r) * z
        fit = fit_probit_line(*pairs_from_probits(0.4 * x, 0.4 * y),
                              clip_alpha=1e-6)
        assert fit.pearson_r == pytest.approx(0.5, abs=1e-9)
        assert fit.p_value == pytest.approx(0.0249, abs=5e-4)

    def test_matches_independent_ols(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            n = int(rng.integers(5, 60))
            x = rng.uniform(-1.5, 1.5, n)
            y = rng.uniform(-1.5, 1.5, n)
            pairs = pairs_from_probits(x, y)
            fit = fit_probit_line(*pairs, clip_alpha=1e-6)
            ref = stats.linregress(x, y)
            assert fit.slope == pytest.approx(ref.slope, abs=1e-10)
            assert fit.intercept == pytest.approx(ref.intercept, abs=1e-10)
            assert fit.pearson_r == pytest.approx(ref.rvalue, abs=1e-10)
            assert fit.std_err == pytest.approx(ref.stderr, abs=1e-10)
            assert fit.p_value == pytest.approx(ref.pvalue, rel=1e-8, abs=1e-12)

    def test_slope_identity_with_r(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, 40)
        y = 0.7 * x + rng.normal(0, 0.3, 40)
        fit = fit_probit_line(*pairs_from_probits(x, y), clip_alpha=1e-6)
        sx = np.std(x, ddof=1)
        sy = np.std(y, ddof=1)
        assert fit.slope == pytest.approx(fit.pearson_r * sy / sx, abs=1e-10)

    def test_affine_invariance_of_r(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, 30)
        y = x + rng.normal(0, 0.4, 30)
        base = fit_probit_line(*pairs_from_probits(x, y), clip_alpha=1e-9)
        moved = fit_probit_line(*pairs_from_probits(0.5 * x + 0.2, y),
                                clip_alpha=1e-9)
        assert moved.pearson_r == pytest.approx(base.pearson_r, abs=1e-12)

    def test_degenerate_sweep(self):
        with pytest.raises(ValueError, match="degenerate sweep"):
            fit_probit_line([0.7, 0.7, 0.7], [0.5, 0.6, 0.7])

    def test_needs_three_pairs(self):
        with pytest.raises(ValueError):
            fit_probit_line([0.5, 0.6], [0.5, 0.6])

    def test_boundary_accuracies_stay_finite(self):
        fit = fit_probit_line([0.0, 0.5, 1.0, 0.8], [0.0, 0.4, 1.0, 0.7])
        assert np.isfinite(fit.slope) and np.isfinite(fit.pearson_r)
        assert abs(fit.pearson_r) <= 1.0


class TestProbitPointsInputs:
    """Every accuracy passes probit_points, which holds the range check."""

    GOOD = [0.2, 0.5, 0.9]

    @pytest.mark.parametrize("bad", [-0.25, -1e-300, 1.0 + 2**-52, 1.5, math.nan])
    @pytest.mark.parametrize("side", ["id_acc", "ood_acc"])
    def test_rejects_out_of_range(self, bad, side):
        accs = {"id_acc": list(self.GOOD), "ood_acc": list(self.GOOD)}
        accs[side][1] = bad
        with pytest.raises(InputError, match=rf"{side} must lie in \[0, 1\], "
                                             rf"got {re.escape(repr(bad))}$"):
            probit_points(accs["id_acc"], accs["ood_acc"], 1e-4)

    @pytest.mark.parametrize("n_id,n_ood", [(3, 2), (2, 3), (0, 1)])
    def test_rejects_unequal_lengths(self, n_id, n_ood):
        with pytest.raises(InputError, match="equal length"):
            probit_points(np.full(n_id, 0.5), np.full(n_ood, 0.5), 1e-4)

    def test_callers_inherit_the_check(self):
        with pytest.raises(InputError, match="ood_acc must lie in"):
            fit_probit_line(self.GOOD, [0.2, 1.5, 0.9])
        with pytest.raises(InputError, match="equal length"):
            min_model_count(np.full(20, 0.5), np.full(19, 0.5))


class TestClassifySplit:
    def test_published_negative_r_is_well_specified(self):
        from shiftspec.aline import AlineFit
        fit = AlineFit(slope=-1.56, intercept=0.47, pearson_r=-0.74,
                       p_value=0.0, std_err=0.01, n=100, clip_alpha=1e-4)
        assert classify_split(fit) is Verdict.WELL_SPECIFIED

    def test_published_positive_r_is_misspecified(self):
        from shiftspec.aline import AlineFit
        fit = AlineFit(slope=0.68, intercept=-0.68, pearson_r=0.84,
                       p_value=0.0, std_err=0.01, n=100, clip_alpha=1e-4)
        assert classify_split(fit) is Verdict.MISSPECIFIED

    def test_boundary_is_strict(self):
        from shiftspec.aline import AlineFit
        fit = AlineFit(slope=1.0, intercept=0.0, pearson_r=0.3, p_value=0.0,
                       std_err=0.0, n=10, clip_alpha=1e-4)
        assert classify_split(fit, threshold=0.3) is Verdict.MISSPECIFIED

    def test_monotone_in_r(self):
        from shiftspec.aline import AlineFit
        rs = np.linspace(-1, 1, 41)
        verdicts = [classify_split(AlineFit(0, 0, float(r), 0, 0, 10, 1e-4))
                    for r in rs]
        flips = [i for i in range(1, len(verdicts))
                 if verdicts[i] != verdicts[i - 1]]
        assert len(flips) == 1  # single transition, never back


class TestCorrelationEpsilon:
    def test_exact_line_zero(self):
        ys = np.array([0.2, -0.1, 0.5])
        (a,), (eps,) = correlation_epsilon(2.0 * ys, ys)  # x = 2 y
        assert a == pytest.approx(2.0, abs=1e-12)
        assert eps == pytest.approx(0.0, abs=1e-9)

    def test_centre_pair_is_zero(self):
        # probit(0.5) = 0 on both sides: y . y = 0, so a = 0
        (a,), (eps,) = correlation_epsilon([0.0], [0.0])
        assert a == 0.0 and eps == 0.0

    def test_swapped_pair_example(self):
        # probits of ([0.8413, 0.5], [0.5, 0.8413]): x . y = 0, so a = 0
        (a,), (eps,) = correlation_epsilon([1.0, 0.0], [0.0, 1.0])
        assert a == 0.0
        assert eps == pytest.approx(1.0, abs=1e-3)


def _loop_correlation_epsilon(x, y):
    """correlation_epsilon as a loop over rows with one scalar dot each."""
    syy = float(y @ y)
    a = [float(row @ y) / syy if syy > 0.0 else 0.0 for row in x]
    eps = [float(np.max(np.abs(row - ai * y))) for row, ai in zip(x, a)]
    return np.array(a), np.array(eps)


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 30), n=st.integers(1, 500),
       zero_y=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_correlation_epsilon_equals_per_row_loop(rows, n, zero_y, seed):
    # y = 0 gives y.y = 0 and so a = 0 in every row
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((rows, n))
    y = np.zeros(n) if zero_y else rng.standard_normal(n)
    got = correlation_epsilon(x, y)
    want = _loop_correlation_epsilon(x, y)
    assert [v.tobytes() for v in got] == [v.tobytes() for v in want]


class TestMinModelCount:
    def make_pairs(self, xs, ys):
        return pairs_from_probits(xs, ys)

    def test_stable_stream_returns_start(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, 300)
        y = 0.8 * x + 0.05 + rng.normal(0, 1e-6, 300)
        assert min_model_count(*self.make_pairs(x, y), resamples=150) == 10

    def test_drifting_stream_exceeds_structured_block(self):
        # first 500 pairs R ~ 0.9 (with internal drift), remainder R ~ 0
        rng = np.random.default_rng(0)
        xb = rng.uniform(-1, 1, 500)
        yb = np.linspace(1.6, 0.6, 500) * xb + rng.normal(0, 0.25, 500)
        assert abs(np.corrcoef(xb, yb)[0, 1] - 0.9) < 0.03
        rng2 = np.random.default_rng(1)
        xt = rng2.normal(0, 0.15, 5000)
        yt = rng2.normal(0, 0.15, 5000)
        assert abs(np.corrcoef(xt, yt)[0, 1]) < 0.05
        stream = self.make_pairs(np.concatenate([xb, xt]),
                                 np.concatenate([yb, yt]))
        # brute-force prefix-R oracle: R stays high through the structured
        # block and keeps decaying well past it, so the stream cannot be
        # certified stable before the block ends
        probit_x = np.concatenate([xb, xt])
        probit_y = np.concatenate([yb, yt])
        r_510 = np.corrcoef(probit_x[:510], probit_y[:510])[0, 1]
        r_2010 = np.corrcoef(probit_x[:2010], probit_y[:2010])[0, 1]
        assert r_510 > 0.85
        assert r_2010 < r_510 - 0.05
        result = min_model_count(*stream, resamples=150)
        assert result is not None
        assert result > 500
        assert result % 100 == 10

    def test_return_values_align_with_grid(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-1, 1, 800)
        y = x + rng.normal(0, 0.2, 800)
        result = min_model_count(*self.make_pairs(x, y), resamples=150)
        if result is not None:
            assert result % 100 == 10

    def test_unattainable_tolerance(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-1, 1, 400)
        y = x + rng.normal(0, 0.2, 400)
        assert min_model_count(*self.make_pairs(x, y), rel_tol=1e-12,
                               resamples=150) is None

    def test_too_few_pairs(self):
        with pytest.raises(ValueError, match="need at least"):
            min_model_count([0.5] * 5, [0.5] * 5, resamples=150)

    def test_preconditions(self):
        pairs = (np.full(200, 0.5), np.full(200, 0.5))
        with pytest.raises(ValueError):
            min_model_count(*pairs, rel_tol=0.0)
        with pytest.raises(ValueError):
            min_model_count(*pairs, resamples=10)

    @pytest.mark.parametrize("rel_tol", [math.nan, math.inf, -1.0])
    def test_rel_tol_must_be_positive_and_finite(self, rel_tol):
        # a nan or inf tolerance would reach the JSON report, which cannot
        # hold it
        pairs = (np.full(200, 0.5), np.full(200, 0.5))
        with pytest.raises(ValueError, match="rel_tol"):
            min_model_count(*pairs, rel_tol=rel_tol)


def _scalar_pearson(x, y):
    xc = x - x.mean()
    yc = y - y.mean()
    den = math.sqrt(float(np.sum(xc * xc)) * float(np.sum(yc * yc)))
    if den == 0.0:
        return 0.0
    return float(np.sum(xc * yc)) / den


def reference_quantile(pairs, size, step, resamples, confidence=0.95,
                       seed=0, clip_alpha=1e-4):
    """Bootstrap quantile at one prefix, one draw at a time."""
    x, y = probit_points(*pairs, clip_alpha)
    stream = RandomStream(seed)
    deltas = []
    for b in range(resamples):
        sub = stream.substream(size * 1_000_003 + b)
        base = sub.integers(size, size=size)
        grown = np.concatenate([base, size + sub.integers(step, size=step)])
        r_base = _scalar_pearson(x[base], y[base])
        r_grown = _scalar_pearson(x[grown], y[grown])
        deltas.append(abs(r_grown - r_base) / abs(r_base)
                      if r_base != 0.0 else math.inf)
    return float(np.quantile(deltas, confidence))


class TestBootstrapPinnedToReference:
    """The blocked bootstrap reproduces the per-draw loop bit for bit."""

    @pytest.fixture(scope="class")
    def pairs(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(-1, 1, 720)
        return pairs_from_probits(x, 0.8 * x + rng.normal(0, 0.3, 720))

    # (10, 150): one block; (610, 300): a 710-wide draw fills 92-row blocks,
    # so 300 draws take three full blocks and a partial one
    @pytest.mark.parametrize("size,resamples", [(10, 150), (610, 300)])
    @pytest.mark.parametrize("block_elems", [None, 1])
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_quantile_is_the_threshold(self, pairs, size, resamples,
                                       block_elems, threads, monkeypatch):
        monkeypatch.setenv("SHIFTSPEC_THREADS", threads)
        if block_elems is not None:
            monkeypatch.setattr(aline, "_BLOCK_ELEMS", block_elems)
        q = reference_quantile(pairs, size, 100, resamples)
        assert 0.0 < q < math.inf
        kwargs = dict(resamples=resamples, start=size, step=100)
        assert min_model_count(*pairs, rel_tol=np.nextafter(q, math.inf),
                               **kwargs) == size
        assert min_model_count(*pairs, rel_tol=q, **kwargs) != size


class TestBootstrapPinnedForMaskedSeeds:
    """Seeds outside [0, 2^64) are masked to 64 bits in every draw's key."""

    @pytest.fixture(scope="class")
    def pairs(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(-1, 1, 720)
        return pairs_from_probits(x, 0.8 * x + rng.normal(0, 0.3, 720))

    @pytest.mark.parametrize("size,resamples", [(10, 150), (610, 300)])
    @pytest.mark.parametrize("seed", [-7, 2**64 + 3])
    def test_quantile_is_the_threshold(self, pairs, size, resamples, seed):
        q = reference_quantile(pairs, size, 100, resamples, seed=seed)
        assert 0.0 < q < math.inf
        kwargs = dict(resamples=resamples, start=size, step=100, seed=seed)
        assert min_model_count(*pairs, rel_tol=np.nextafter(q, math.inf),
                               **kwargs) == size
        assert min_model_count(*pairs, rel_tol=q, **kwargs) != size


def test_bootstrap_builds_a_fixed_number_of_generators(monkeypatch):
    # a generator per draw would make the count grow with resamples
    rng = np.random.default_rng(8)
    x = rng.uniform(-1, 1, 230)
    pairs = pairs_from_probits(x, 0.5 * x + rng.normal(0, 0.3, 230))
    philox = np.random.Philox
    built = []

    def counting_philox(*args, **kwargs):
        built.append(1)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting_philox)
    counts = []
    for resamples in (100, 400):
        built.clear()
        assert min_model_count(*pairs, rel_tol=1e-12, resamples=resamples,
                               start=10, step=100) is None
        counts.append(len(built))
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize("confidence", [1e-9, 0.01, 0.05, 0.1, 0.25, 1 / 3, 0.5,
                                        0.9, 0.95, 0.975, 0.99, 0.999,
                                        1 - 1e-9])
def test_failing_count_is_sound_and_minimal(confidence):
    # m deltas at rel_tol fail the quantile test whatever the others are;
    # m - 1 of them, with the rest at 0, pass it
    rel_tol = 0.01
    for resamples in range(100, 2001):
        m = aline._failing_count(resamples, confidence)
        deltas = np.zeros((2, resamples))
        deltas[0, resamples - m:] = rel_tol
        deltas[1, resamples - m + 1:] = rel_tol
        q_m, q_fewer = np.quantile(deltas, confidence, axis=1)
        assert q_m >= rel_tol > q_fewer


def test_failing_count_at_the_defaults():
    assert aline._failing_count(1000, 0.95) == 51
    assert aline._failing_count(150, 0.95) == 9


@settings(max_examples=50, deadline=None)
@given(start=st.integers(1, 40), step=st.integers(20, 100),
       extra=st.integers(0, 110), resamples=st.integers(100, 150),
       confidence=st.floats(0.01, 0.99), slope=st.floats(-1.0, 1.0),
       noise=st.floats(0.0, 1.0), flat_ood=st.booleans(),
       tol=st.one_of(st.floats(1e-4, 1.0), st.sampled_from(["q", "next"])),
       data_seed=st.integers(0, 2**32 - 1), seed=st.integers(-5, 2**40))
def test_early_exit_returns_the_reference_answer(start, step, extra,
                                                 resamples, confidence, slope,
                                                 noise, flat_ood, tol,
                                                 data_seed, seed):
    # min_model_count answers with the first prefix whose per-draw reference
    # quantile falls below rel_tol, whether or not its draws stop early
    n = start + step + extra
    rng = np.random.default_rng(data_seed)
    x = rng.uniform(-1, 1, n)
    y = np.full(n, 0.3) if flat_ood else slope * x + rng.normal(0, noise, n)
    pairs = pairs_from_probits(x, y)
    sizes = range(start, n - step + 1, step)
    quantiles = {}

    def q_at(size):
        if size not in quantiles:
            with np.errstate(invalid="ignore"):
                quantiles[size] = reference_quantile(
                    pairs, size, step, resamples, confidence, seed)
        return quantiles[size]

    if isinstance(tol, str):
        finite = [s for s in sizes[:3] if 0.0 < q_at(s) < math.inf]
        if not finite:
            return
        q = q_at(finite[-1])
        tol = q if tol == "q" else float(np.nextafter(q, math.inf))
    want = next((s for s in sizes if q_at(s) < tol), None)
    got = min_model_count(*pairs, rel_tol=tol, resamples=resamples,
                          confidence=confidence, start=start, step=step,
                          seed=seed)
    assert got == want


@pytest.mark.parametrize("rel_tol,n_prefixes,per_prefix", [
    (1e-12, 3, 9),   # every prefix stops after m = 9 of 150 draws
    (0.01, 1, 150),  # the first prefix is stable and pays every draw
])
def test_draws_stop_once_a_prefix_fails(rel_tol, n_prefixes, per_prefix,
                                        monkeypatch):
    rng = np.random.default_rng(5)
    x = rng.uniform(-1, 1, 400)
    y = x + rng.normal(0, 1e-6 if rel_tol == 0.01 else 0.2, 400)
    calls = []
    draw = RandomStream.substream_uniform

    def counting_draw(self, stream_id, size):
        calls.append(stream_id)
        return draw(self, stream_id, size)

    monkeypatch.setattr(RandomStream, "substream_uniform", counting_draw)
    result = min_model_count(*pairs_from_probits(x, y), rel_tol=rel_tol,
                             resamples=150)
    assert result == (10 if rel_tol == 0.01 else None)
    assert len(calls) == n_prefixes * per_prefix
