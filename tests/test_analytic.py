import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special, stats

from shiftspec import analytic

# A kernel that evaluates a formula outside its region (log of 0, exp that
# overflows) warns; here that fails the test.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


class TestProbit:
    def test_median_is_zero(self):
        assert analytic.probit(0.5) == 0.0

    def test_known_quantile(self):
        # high-precision oracle: Phi(1) = 0.8413447460685429
        assert analytic.probit(0.841345) == pytest.approx(1.0, abs=1e-5)

    def test_known_cdf(self):
        assert analytic.normal_cdf(1.959964) == pytest.approx(0.975, abs=1e-6)

    def test_matches_scipy_quantile(self):
        p = np.linspace(1e-7, 1 - 1e-7, 20001)
        err = np.abs(analytic.normal_quantile(p) - stats.norm.ppf(p))
        assert float(err.max()) < 1e-14

    def test_matches_scipy_cdf(self):
        x = np.linspace(-8.0, 8.0, 20001)
        err = np.abs(analytic.normal_cdf(x) - stats.norm.cdf(x))
        assert float(err.max()) < 1e-12

    def test_round_trip(self):
        z = np.linspace(-5.0, 5.0, 4001)
        back = analytic.probit(analytic.normal_cdf(z))
        assert float(np.abs(back - z).max()) < 1e-8

    def test_rejects_boundary(self):
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                analytic.probit(bad)

    @pytest.mark.parametrize("bad", [math.nan, [0.5, math.nan]])
    def test_rejects_nan(self, bad):
        with pytest.raises(ValueError, match="strictly inside"):
            analytic.probit(bad)


class TestErf:
    def test_matches_scipy(self):
        # the grid crosses |x| <= 0.46875, so the _erf_small branch is covered
        x = np.linspace(-6, 6, 5001)
        assert float(np.abs(analytic.erfc(x) - special.erfc(x)).max()) < 1e-14

    def test_erfc_tails(self):
        for v in (0.3, 1.0, 3.5, 6.0, 12.0, 25.0):
            ours = analytic.erfc(v)
            ref = special.erfc(v)
            assert ours == pytest.approx(ref, rel=1e-12)


class TestQuantileAccuracy:
    TAIL = np.array([1.0 - 10.0**-k for k in range(1, 16)]
                    + [1.0 - 2.0**-j for j in range(2, 54)])

    @pytest.mark.parametrize("p", [TAIL, 1.0 - TAIL], ids=["upper", "lower"])
    def test_tails_to_double_precision(self, p):
        ref = special.ndtri(p)
        rel = np.abs(analytic.normal_quantile(p) - ref) / np.abs(ref)
        assert float(rel.max()) <= 2e-15

    def test_uniform_sample(self):
        u = np.maximum(np.random.default_rng(12).random(1_000_000), 2.0**-53)
        ref = special.ndtri(u)
        err = np.abs(analytic.normal_quantile(u) - ref)
        assert float(err.max()) < 1e-14
        assert float((err / np.spacing(np.abs(ref))).max()) <= 8.0
        nonzero = ref != 0.0  # u = 0.5, where both are 0
        assert float((err[nonzero] / np.abs(ref[nonzero])).max()) <= 2e-15

    def test_exact_odd_symmetry(self):
        # for p >= 0.5 the complement 1 - p is exact, so the two quantiles
        # refine the same lower-tail probability
        p = 0.5 + 0.5 * np.random.default_rng(13).random(100_000)
        p = np.concatenate([p, [0.5, 1.0 - 2.0**-53], 1.0 - self.TAIL])
        assert np.array_equal(analytic.normal_quantile(1.0 - p),
                              -analytic.normal_quantile(p))

    def test_subnormal_p(self):
        p = np.array([1e-310, 1e-315, 1e-320, 5e-324])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q = analytic.normal_quantile(p)
            scalars = [analytic.normal_quantile(float(v)) for v in p]
        assert np.all(np.isfinite(q)) and np.array_equal(q, scalars)
        ref = special.ndtri(p)
        assert float((np.abs(q - ref) / np.abs(ref)).max()) <= 1e-15

    def test_calls_neither_cdf_nor_erfc(self, monkeypatch):
        # AS 241 needs no refinement against the CDF; a polish step would
        # show up here
        calls = {"normal_cdf": 0, "erfc": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(analytic, name, counted(name, getattr(analytic, name)))
        u = np.random.default_rng(17).random(1_000_000)
        analytic.normal_quantile(np.concatenate([u, _QUANTILE_EDGES]))
        analytic.normal_quantile(0.3)
        assert calls == {"normal_cdf": 0, "erfc": 0}
        analytic.normal_cdf(0.0)  # the counters see a call through the module
        assert calls == {"normal_cdf": 1, "erfc": 1}

    def test_bounds_nan_and_shape(self):
        p = np.array([[0.0, 1.0, -0.5], [1.5, np.nan, 0.5]])
        q = analytic.normal_quantile(p)
        assert q.shape == (2, 3)
        assert np.array_equal(q, [[-np.inf, np.inf, -np.inf],
                                  [np.inf, np.nan, 0.0]], equal_nan=True)
        assert isinstance(analytic.normal_quantile(0.25), float)


# Cody's three regions as the out-of-place kernels computed them, frozen
# here so the references do not follow later edits to analytic.
def _frozen_erf_small(x):
    a, b = analytic._ERF_A, analytic._ERF_B
    z = x * x
    num = a[4] * z
    den = z
    for i in range(3):
        num = (num + a[i]) * z
        den = (den + b[i]) * z
    return x * (num + a[3]) / (den + b[3])


def _frozen_exp_split(y, result):
    ysq = np.floor(y * 16.0) / 16.0
    delta = (y - ysq) * (y + ysq)
    return np.exp(-ysq * ysq) * np.exp(-delta) * result


def _frozen_erfc_mid(y):
    c, d = analytic._ERFC_C, analytic._ERFC_D
    num = c[8] * y
    den = y
    for i in range(7):
        num = (num + c[i]) * y
        den = (den + d[i]) * y
    return _frozen_exp_split(y, (num + c[7]) / (den + d[7]))


def _frozen_erfc_tail(y):
    p, q = analytic._ERFC_P, analytic._ERFC_Q
    z = 1.0 / (y * y)
    num = p[5] * z
    den = z
    for i in range(4):
        num = (num + p[i]) * z
        den = (den + q[i]) * z
    result = z * (num + p[4]) / (den + q[4])
    return _frozen_exp_split(y, (analytic._INV_SQRT_PI - result) / y)


def _reference_erfc(x):
    """erfc with boolean-mask gathers, as the index kernels replaced it.

    The replaced kernel left nan entries uninitialised; here they are nan,
    which is what the index kernel returns."""
    x_arr = np.asarray(x, dtype=np.float64)
    scalar = x_arr.ndim == 0
    x_arr = np.atleast_1d(x_arr)
    y = np.abs(x_arr)
    out = np.full_like(y, np.nan)
    small = y <= 0.46875
    mid = (y > 0.46875) & (y <= 4.0)
    tail = (y > 4.0) & (y < 26.543)
    huge = y >= 26.543
    if small.any():
        out[small] = 1.0 - _frozen_erf_small(x_arr[small])
    if mid.any():
        out[mid] = _frozen_erfc_mid(y[mid])
    if tail.any():
        out[tail] = _frozen_erfc_tail(y[tail])
    if huge.any():
        out[huge] = 0.0
    neg = (x_arr < 0.0) & ~small
    out[neg] = 2.0 - out[neg]
    return float(out[0]) if scalar else out


def _reference_normal_cdf(x):
    x_arr = np.asarray(x, dtype=np.float64)
    res = 0.5 * _reference_erfc(-x_arr / math.sqrt(2.0))
    return float(res) if np.ndim(x) == 0 else res


def _frozen_poly(coeffs, z):
    """((c0 z + c1) z + ...) z + c_n, out of place."""
    acc = coeffs[0] * z
    for c in coeffs[1:-1]:
        acc = (acc + c) * z
    return acc + coeffs[-1]


def _reference_normal_quantile(p):
    """AS 241 with boolean-mask gathers and out-of-place arithmetic."""
    p_arr = np.asarray(p, dtype=np.float64)
    pf = p_arr.ravel()
    out = np.full_like(pf, np.nan)
    out[pf <= 0.0] = -np.inf
    out[pf >= 1.0] = np.inf
    q = pf - 0.5
    central = np.abs(q) <= 0.425
    qc = q[central]
    r = 0.180625 - qc * qc
    out[central] = (qc * _frozen_poly(analytic._AS241_A, r)
                    / _frozen_poly(analytic._AS241_B, r))
    tail = (np.abs(q) > 0.425) & (pf > 0.0) & (pf < 1.0)
    pt = pf[tail]
    s = np.sqrt(-np.log(np.minimum(pt, 1.0 - pt)))
    x = np.empty_like(s)
    near = s <= 5.0
    z = s[near] - 1.6
    x[near] = (_frozen_poly(analytic._AS241_C, z)
               / _frozen_poly(analytic._AS241_D, z))
    z = s[~near] - 5.0
    x[~near] = (_frozen_poly(analytic._AS241_E, z)
                / _frozen_poly(analytic._AS241_F, z))
    out[tail] = np.copysign(x, q[tail])
    return float(out[0]) if np.ndim(p) == 0 else out.reshape(p_arr.shape)


def _assert_same_bits(ours, reference):
    """Equal bit patterns off nan, signed zeros included; nan where nan."""
    ours, reference = np.asarray(ours), np.asarray(reference)
    assert ours.shape == reference.shape and ours.dtype == reference.dtype
    nan = np.isnan(reference)
    assert np.array_equal(np.isnan(ours), nan)
    assert np.array_equal(ours[~nan].view(np.uint64),
                          reference[~nan].view(np.uint64))


def _around(points):
    points = np.asarray(points, dtype=np.float64)
    return np.concatenate([points, np.nextafter(points, np.inf),
                           np.nextafter(points, -np.inf)])


_EDGES = _around([0.46875, -0.46875, 4.0, -4.0, 26.543, -26.543])
_SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
_GRID = np.linspace(-40.0, 40.0, 160_001)
_SAMPLED = 3.0 * np.random.default_rng(14).standard_normal(20_000)


class TestKernelsPinnedToReference:
    """The index-gather kernels reproduce the boolean-mask ones bit for bit."""

    @pytest.mark.parametrize("name, reference", [
        ("erfc", _reference_erfc), ("normal_cdf", _reference_normal_cdf)])
    @pytest.mark.parametrize("x", [
        _EDGES, _SPECIAL, _GRID, _SAMPLED, _GRID[:60_000].reshape(300, 200)],
        ids=["edges", "special", "grid", "sampled", "2d"])
    def test_arrays(self, name, reference, x):
        ours = getattr(analytic, name)(x)
        assert ours.shape == x.shape
        assert np.array_equal(ours, reference(x), equal_nan=True)

    @pytest.mark.parametrize("name, reference", [
        ("erfc", _reference_erfc), ("normal_cdf", _reference_normal_cdf)])
    def test_python_scalars(self, name, reference):
        for v in (0.0, -0.0, 0.3, -0.47, 1.5, -3.9, 4.2, -12.0, 26.6, -30.0,
                  math.inf, -math.inf):
            ours = getattr(analytic, name)(v)
            assert type(ours) is float
            assert ours == reference(v)
        assert math.isnan(getattr(analytic, name)(math.nan))


# AS 241's region boundaries: |p - 0.5| = 0.425 and s = 5, where
# min(p, 1 - p) = exp(-25)
_REGION_EDGES = _around([0.075, 0.925, math.exp(-25.0), 1.0 - math.exp(-25.0)])


class TestQuantileTailPinnedToReference:
    """The tail kernel, on the entries normal_quantile gathers for it,
    reproduces the out-of-place reference bit for bit."""

    @pytest.mark.parametrize("p", [
        _REGION_EDGES[np.abs(_REGION_EDGES - 0.5) > 0.425],
        np.concatenate([np.linspace(0.0, 0.07, 50_001)[1:],
                        np.linspace(0.93, 1.0, 50_001)[:-1]]),
        np.concatenate([0.075 * np.random.default_rng(15).random(20_000),
                        1.0 - 0.075 * np.random.default_rng(25).random(20_000)]),
        10.0 ** -np.random.default_rng(35).uniform(11.0, 323.0, 5_000),
        np.array([2.0**-1074, 2.0**-1022, 2.0**-53, 1.0 - 2.0**-53, 0.0, -0.0,
                  1.0, -0.25, 7.5, np.inf, -np.inf]),
    ], ids=["edges", "grid", "sampled", "far", "special"])
    def test_arrays(self, p):
        _assert_same_bits(analytic._quantile_tail(p), _reference_normal_quantile(p))


_QUANTILE_EDGES = np.concatenate([[
    0.0, 1.0, -0.0, -0.25, -1e-300, 1.0 + 2.0 ** -52, 7.5, np.inf, -np.inf,
    np.nan, 2.0 ** -1074, 2.0 ** -1022, 0.5, np.nextafter(0.5, 0.0),
    np.nextafter(0.5, 1.0), 1.0 - 2.0 ** -53, 2.0 ** -53], _REGION_EDGES])
_UNIFORMS = np.random.default_rng(16).random(100_000)


class TestQuantilePinnedToReference:
    """normal_quantile's in-place passes reproduce the out-of-place
    kernel bit for bit."""

    @pytest.mark.parametrize("p", [
        _QUANTILE_EDGES,
        _UNIFORMS,
        np.concatenate([_UNIFORMS[:1000], _QUANTILE_EDGES]),
        _UNIFORMS[:60_000].reshape(200, 300),
        _QUANTILE_EDGES[:20].reshape(4, 5),
        np.array(0.3), np.array(np.nan), np.array(-0.0),
        np.empty(0), np.empty((0, 3)),
    ], ids=["edges", "uniforms", "mixed", "2d", "2d_edges", "0d", "0d_nan",
            "0d_negzero", "empty", "empty_2d"])
    def test_arrays(self, p):
        ours = analytic.normal_quantile(p)
        want = _reference_normal_quantile(p)
        if p.ndim == 0:
            assert type(ours) is float and type(want) is float
        _assert_same_bits(ours, want)

    def test_python_scalars(self):
        for v in _QUANTILE_EDGES.tolist() + [0, 1, 0.7]:
            ours = analytic.normal_quantile(v)
            assert type(ours) is float
            _assert_same_bits(ours, _reference_normal_quantile(v))


_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


@settings(max_examples=200, deadline=None)
@given(p=st.lists(st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 1e-300),
                            st.sampled_from(_QUANTILE_EDGES.tolist()),
                            _ANY_FLOAT), max_size=40))
def test_normal_quantile_matches_reference(p):
    p = np.array(p, dtype=np.float64)
    _assert_same_bits(analytic.normal_quantile(p), _reference_normal_quantile(p))


_MASKED_EDGES = np.array([0.0, 1.0, 0.5, np.nan, 2.0 ** -1074, 1.0 - 2.0 ** -53,
                          0.075, math.exp(-25.0)])


class TestQuantilePinnedToMaskedSpelling:
    """The index gathers and scatters give the bits of the reference's
    boolean masks, on a million uniforms too."""

    @pytest.mark.parametrize("p", [
        np.random.default_rng(28).random(1_000_000),
        _MASKED_EDGES,
        np.concatenate([_UNIFORMS[:1000], _MASKED_EDGES, 1.0 - _MASKED_EDGES]),
        _UNIFORMS[:60_000].reshape(300, 200),
        np.array(0.7), np.array(0.5), np.array(np.nan),
    ], ids=["1M_uniforms", "edges", "mixed", "2d", "0d", "0d_half", "0d_nan"])
    def test_arrays(self, p):
        ours = analytic.normal_quantile(p)
        want = _reference_normal_quantile(p)
        if p.ndim == 0:
            assert type(ours) is float and type(want) is float
        _assert_same_bits(ours, want)


@settings(max_examples=200, deadline=None)
@given(p=st.lists(st.one_of(st.floats(0.0, 1.0),
                            st.sampled_from(_MASKED_EDGES.tolist()),
                            _ANY_FLOAT), max_size=40))
def test_normal_quantile_matches_masked_spelling(p):
    p = np.array(p, dtype=np.float64)
    _assert_same_bits(analytic.normal_quantile(p), _reference_normal_quantile(p))


_BLOCK = analytic._QUANTILE_BLOCK
_SPECIALS = np.array([np.nan, 0.0, 1.0, 2.0 ** -1074, 1.0 - 2.0 ** -53])


class TestQuantileBlocks:
    """An array of more than _QUANTILE_BLOCK entries is transformed in equal
    blocks of at most that many, with the bits of one unblocked call: the
    reference above runs as one block."""

    @pytest.mark.parametrize("size", [_BLOCK - 1, _BLOCK, _BLOCK + 1,
                                      4 * _BLOCK + 1])
    def test_block_boundaries(self, size):
        p = _UNIFORMS[:size]
        _assert_same_bits(analytic.normal_quantile(p), _reference_normal_quantile(p))

    @pytest.mark.parametrize("size", [_BLOCK - 1, _BLOCK + 1, 4 * _BLOCK + 1])
    @pytest.mark.parametrize("at", ["first", "middle", "last"])
    def test_special_values_in_one_block(self, size, at):
        p = _UNIFORMS[:size].copy()
        start = {"first": 0, "middle": size // 2,
                 "last": size - len(_SPECIALS)}[at]
        p[start:start + len(_SPECIALS)] = _SPECIALS
        _assert_same_bits(analytic.normal_quantile(p), _reference_normal_quantile(p))

    @pytest.mark.parametrize("p", [
        np.array(0.3), np.array(np.nan),
        _UNIFORMS[:3 * (_BLOCK + 1)].reshape(3, _BLOCK + 1),
        _UNIFORMS[:4 * _BLOCK + 2].reshape(2, -1)[:, ::2],  # not contiguous
    ], ids=["0d", "0d_nan", "2d", "2d_strided"])
    def test_shapes(self, p):
        ours = analytic.normal_quantile(p)
        want = _reference_normal_quantile(p)
        if p.ndim == 0:
            assert type(ours) is float and type(want) is float
        _assert_same_bits(ours, want)

    @pytest.mark.parametrize("size, blocks", [
        (1, [1]), (_BLOCK, [_BLOCK]), (_BLOCK + 1, [_BLOCK // 2 + 1, _BLOCK // 2]),
        (4 * _BLOCK + 1, [6554] * 4 + [6553])])
    def test_blocks_are_equal_and_at_most_the_constant(self, size, blocks,
                                                       monkeypatch):
        seen = []
        kernel = analytic._quantile_block

        def spy(pf):
            seen.append(pf.size)
            return kernel(pf)

        monkeypatch.setattr(analytic, "_quantile_block", spy)
        analytic.normal_quantile(_UNIFORMS[:size])
        assert seen == blocks and max(seen) <= _BLOCK


@settings(max_examples=200, deadline=None)
@given(p=st.lists(st.one_of(st.floats(0.0, 1.0),
                            st.sampled_from(_SPECIALS.tolist()),
                            _ANY_FLOAT), max_size=40),
       block=st.integers(1, 9))
def test_normal_quantile_in_small_blocks_matches_one_block(p, block):
    # a small block constant puts every block boundary and special value
    # in reach of short lists
    p = np.array(p, dtype=np.float64)
    with mock.patch.object(analytic, "_QUANTILE_BLOCK", block):
        ours = analytic.normal_quantile(p)
    _assert_same_bits(ours, _reference_normal_quantile(p))


@pytest.mark.parametrize("name, reference", [
    ("erfc", _reference_erfc), ("normal_cdf", _reference_normal_cdf)])
@settings(max_examples=200, deadline=None)
@given(x=st.lists(st.one_of(st.floats(-40.0, 40.0),
                            st.sampled_from(_EDGES.tolist()), _ANY_FLOAT),
                  max_size=40))
def test_erfc_and_cdf_match_reference(name, reference, x):
    x = np.array(x, dtype=np.float64)
    _assert_same_bits(getattr(analytic, name)(x), reference(x))


class TestPValue:
    def test_example_r_half_n20(self):
        # t = 2.449490, df = 18 -> two-sided p ~ 0.0249
        p = analytic.pearson_p_value(0.5, 20)
        assert p == pytest.approx(0.0249, abs=5e-4)
        t = 0.5 * math.sqrt(18 / 0.75)
        assert p == pytest.approx(2 * stats.t.sf(t, 18), abs=1e-12)

    def test_perfect_correlation(self):
        assert analytic.pearson_p_value(1.0, 10) == 0.0
        assert analytic.pearson_p_value(-1.0, 10) == 0.0

    def test_matches_scipy_broadly(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            r = rng.uniform(-0.99, 0.99)
            n = int(rng.integers(4, 500))
            t = abs(r) * math.sqrt((n - 2) / (1 - r * r))
            assert analytic.pearson_p_value(r, n) == pytest.approx(
                2 * stats.t.sf(t, n - 2), rel=1e-9, abs=1e-12)


class TestBetainc:
    def test_matches_scipy(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            a = rng.uniform(0.3, 80.0)
            b = rng.uniform(0.3, 80.0)
            x = rng.uniform(0.0, 1.0)
            assert analytic.betainc_reg(a, b, x) == pytest.approx(
                special.betainc(a, b, x), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 40),
       d=st.one_of(st.integers(1, 5), st.integers(6, 2000)),
       seed=st.integers(0, 2**32 - 1))
def test_row_dot_rounds_as_each_rows_scalar_dot(rows, d, seed):
    # (S, l <= 5) shift stacks and (T, n <= 2000) probit rows
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((rows, d)) * 10.0 ** rng.integers(-3, 4, (rows, 1))
    b = rng.standard_normal((rows, d))
    assert analytic.row_dot(a, b).tobytes() == \
        np.array([float(x @ y) for x, y in zip(a, b)]).tobytes()
    # one vector against every row, as the margins and slopes use it
    assert analytic.row_dot(b[0], a).tobytes() == \
        np.array([float(b[0] @ x) for x in a]).tobytes()


def _scalar_margin_cdf(weights, a, s):
    """sum_j weights[j] Phi(a[j] / s[j]) one entry and one component at a
    time, in Python floats: the point mass where s = 0."""
    s = np.broadcast_to(s, a.shape)
    out = np.empty(a.shape[1:])
    for idx in np.ndindex(out.shape):
        total = 0.0
        for j, weight in enumerate(weights):
            aj, sj = float(a[(j,) + idx]), float(s[(j,) + idx])
            term = (1.0 if aj > 0.0 else 0.0) if sj == 0.0 else \
                analytic.normal_cdf(aj / sj)
            total += float(weight) * term
        out[idx] = total
    return out


_margin_means = st.one_of(st.floats(-40.0, 40.0), st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan]))
_margin_sds = st.one_of(st.floats(0.0, 50.0), st.sampled_from(
    [0.0, -0.0, 5e-324, 1e-300, math.inf]))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), parts=st.integers(1, 4), rows=st.integers(1, 4),
       cols=st.integers(1, 5), broadcast=st.booleans())
def test_gaussian_margin_cdf_matches_scalar_loop(data, parts, rows, cols,
                                                 broadcast):
    # broadcast: one (C, n) sd shared by every component, as conditions
    # passes sqrt(var) against its (2, C, n) means
    weights = data.draw(st.lists(st.floats(0.0, 1.0), min_size=parts,
                                 max_size=parts))
    a = np.array(data.draw(st.lists(_margin_means, min_size=parts * rows * cols,
                                    max_size=parts * rows * cols))
                 ).reshape(parts, rows, cols)
    s_shape = (rows, cols) if broadcast else (parts, rows, cols)
    s = np.array(data.draw(st.lists(_margin_sds, min_size=math.prod(s_shape),
                                    max_size=math.prod(s_shape)))
                 ).reshape(s_shape)
    ours = analytic.gaussian_margin_cdf(weights, a, s)
    _assert_same_bits(ours, _scalar_margin_cdf(weights, a, s))


def test_gaussian_margin_cdf_weights_broadcast_per_environment():
    # cmnist's table: (4, R, 1) means and (R, 1) sds against (E,) weights
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 6, 1))
    s = np.concatenate([[[0.0]], rng.uniform(0.1, 3.0, (5, 1))])
    weights = [rng.uniform(0.0, 0.5, 3) for _ in range(4)]
    ours = analytic.gaussian_margin_cdf(weights, a, s)
    assert ours.shape == (6, 3)
    for e in range(3):
        _assert_same_bits(ours[:, e], _scalar_margin_cdf(
            [w[e] for w in weights], a, s)[:, 0])


def test_gaussian_margin_cdf_matches_scipy_ndtr():
    rng = np.random.default_rng(8)
    weights = rng.dirichlet(np.ones(3))
    a = rng.normal(0.0, 4.0, (3, 200))
    s = rng.uniform(0.05, 5.0, (3, 200))
    expected = sum(w * special.ndtr(x / y) for w, x, y in zip(weights, a, s))
    np.testing.assert_allclose(analytic.gaussian_margin_cdf(weights, a, s),
                               expected, rtol=1e-14, atol=1e-300)


@pytest.mark.parametrize("mean, expected", [
    (2.5, 1.0), (5e-324, 1.0), (0.0, 0.0), (-0.0, 0.0), (-5e-324, 0.0),
    (-2.5, 0.0), (math.inf, 1.0), (-math.inf, 0.0)],
    ids=["positive", "subnormal", "zero", "minus_zero", "minus_subnormal",
         "negative", "inf", "minus_inf"])
@pytest.mark.parametrize("sd", [0.0, -0.0], ids=["zero_sd", "minus_zero_sd"])
def test_gaussian_margin_cdf_zero_sd_is_the_step(mean, expected, sd):
    # s = 0 is a point mass at a: a tie (a = 0) counts as wrong
    total = analytic.gaussian_margin_cdf([0.25, 0.75], np.array([[mean], [1.0]]),
                                         np.array([[sd], [1.0]]))
    assert total.tolist() == [0.25 * expected + 0.75 * analytic.normal_cdf(1.0)]

