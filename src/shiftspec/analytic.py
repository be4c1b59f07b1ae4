"""Closed-form accuracy for symmetric Gaussian models and probit machinery.

The normal CDF and quantile are implemented from rational approximations so
results are identical across platforms and carry no numerics dependency:

* erfc follows W. J. Cody's rational Chebyshev approximations
  (Math. Comp. 23, 1969; the CALERF scheme), relative error < 1e-15.
* The quantile uses P. J. Acklam's rational approximation (relative error
  < 1.2e-9) on the lower-tail probability min(p, 1 - p), polished with one
  Halley step against the CDF above and reflected for p > 0.5. Halley's
  step is cubic, so one step already reaches the CDF's own precision:
  relative error <= 4.4e-16 in both tails, absolute error <= 1.8e-15 on
  uniform samples.

The array kernels gather each region's entries through integer indices and
update their polynomial accumulators in place (Horner's rule with `+=`,
`*=` and `out=`), so a call makes few passes and few new arrays. Each
element still gets the same operations in the same order as the plain
expressions, so the results are the same bit for bit. Regions that samples
rarely reach (erfc's tail and underflow, p outside (0, 1), nan) are looked
up only when present.

The package's per-row kernels (these, the samplers in rng and synthgen and
the trainer's loss) follow one rule: no masked select over a data-dependent
mask. On randomly ordered samples a mask defeats branch prediction: at 20k
elements on a 2-vCPU Xeon with numpy 2.4, np.negative(..., where=mask)
takes 8.4 ns per element and np.where 4.1 ns, against 2.2 ns for the same
negation through flatnonzero, take and a scatter, and 0.2 ns for a
multiply. A region is gathered through integer indices, or the select is
spelled as exact arithmetic. Nor does a kernel broadcast over a short last
axis, which runs numpy's inner loop a few elements at a time: the
Newton loop's curv[..., None] * x over (24, 4000, 2) took 0.92 ms against
0.52 ms filled column by column.

normal_quantile transforms an array of more than _QUANTILE_BLOCK (8,192)
entries in equal blocks of at most that many, each through the same
kernel, so every element gets the same operations and the bits do not
depend on the blocking. A block's temporaries then stay in cache: on the
same machine one call over 54k uniforms (the zero-measure family's noise)
took 72 ns per element unblocked and 57 ns in blocks, and 85 against
54 ns at 192k. At 20k (lemma 1's samples) the three blocks cost about 3%
more than one pass in a loop of quantile calls alone, yet a whole lemma-1
seed (two 10,000-row samples and two fits) took 12.1 ms with them against
13.1 ms without. Below the constant nothing changes (45 ns per element at
8k, 77 ns at 2k, where the call's fixed cost shows). Blocks of 16,384
gained nothing at 54k.
"""

from __future__ import annotations

import math

import numpy as np

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)
_TINY = 2.0 ** -1022  # smallest normal double
_INV_SQRT_PI = 0.5641895835477562869  # 1/sqrt(pi)

# Cody interval 1: erf(x) for |x| <= 0.46875, z = x^2.
_ERF_A = (3.16112374387056560e00, 1.13864154151050156e02,
          3.77485237685302021e02, 3.20937758913846947e03,
          1.85777706184603153e-1)
_ERF_B = (2.36012909523441209e01, 2.44024637934444173e02,
          1.28261652607737228e03, 2.84423683343917062e03)

# Cody interval 2: erfc(x) for 0.46875 < x <= 4.
_ERFC_C = (5.64188496988670089e-1, 8.88314979438837594e00,
           6.61191906371416295e01, 2.98635138197400131e02,
           8.81952221241769090e02, 1.71204761263407058e03,
           2.05107837782607147e03, 1.23033935479799725e03,
           2.15311535474403846e-8)
_ERFC_D = (1.57449261107098347e01, 1.17693950891312499e02,
           5.37181101862009858e02, 1.62138957456669019e03,
           3.29079923573345963e03, 4.36261909014324716e03,
           3.43936767414372164e03, 1.23033935480374942e03)

# Cody interval 3: erfc(x) for x > 4, in powers of 1/x^2.
_ERFC_P = (3.05326634961232344e-1, 3.60344899949804439e-1,
           1.25781726111229246e-1, 1.60837851487422766e-2,
           6.58749161529837803e-4, 1.63153871373020978e-2)
_ERFC_Q = (2.56852019228982242e00, 1.87295284992346047e00,
           5.27905102951428412e-1, 6.05183413124413191e-2,
           2.33520497626869185e-3)

# Acklam quantile coefficients.
_ACK_A = (-3.969683028665376e+01, 2.209460984245205e+02,
          -2.759285104469687e+02, 1.383577518672690e+02,
          -3.066479806614716e+01, 2.506628277459239e+00)
_ACK_B = (-5.447609879822406e+01, 1.615858368580409e+02,
          -1.556989798598866e+02, 6.680131188771972e+01,
          -1.328068155288572e+01)
_ACK_C = (-7.784894002430293e-03, -3.223964580411365e-01,
          -2.400758277161838e+00, -2.549732539343734e+00,
          4.374664141464968e+00, 2.938163982698783e+00)
_ACK_D = (7.784695709041462e-03, 3.224671290700398e-01,
          2.445134137142996e+00, 3.754408661907416e+00)
_ACK_LOW = 0.02425

_QUANTILE_BLOCK = 8192  # largest array normal_quantile transforms in one pass


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stacked dot products over the last axis, each rounded as the 1-d
    ``a @ b`` is: (..., 1, d) @ (..., d, 1) runs numpy's dot kernel per row,
    where the gemv spelling (S, d) @ (d,), einsum and .sum(-1) do not."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _horner(coeffs, z: np.ndarray) -> np.ndarray:
    """((c0 z + c1) z + ...) z + c_n, accumulated in place in one new array."""
    acc = coeffs[0] * z
    for c in coeffs[1:-1]:
        acc += c
        acc *= z
    acc += coeffs[-1]
    return acc


def _times_exp_neg_sq(y: np.ndarray, result: np.ndarray) -> np.ndarray:
    """result * exp(-y^2), in place in result.

    exp(-y^2) is split as exp(-ysq^2) exp(-(y - ysq)(y + ysq)) with ysq = y
    rounded down to a multiple of 1/16, to preserve accuracy for large y.
    """
    ysq = y * 16.0
    np.floor(ysq, out=ysq)
    ysq /= 16.0
    delta = y - ysq
    delta *= y + ysq
    np.negative(delta, out=delta)
    np.exp(delta, out=delta)
    ysq *= ysq
    np.negative(ysq, out=ysq)
    np.exp(ysq, out=ysq)
    ysq *= delta
    result *= ysq
    return result


def _erf_small(x: np.ndarray) -> np.ndarray:
    z = x * x
    num = _horner((_ERF_A[4],) + _ERF_A[:4], z)
    num *= x
    num /= _horner((1.0,) + _ERF_B, z)
    return num


def _erfc_mid(y: np.ndarray) -> np.ndarray:
    num = _horner((_ERFC_C[8],) + _ERFC_C[:8], y)
    num /= _horner((1.0,) + _ERFC_D, y)
    return _times_exp_neg_sq(y, num)


def _erfc_tail(y: np.ndarray) -> np.ndarray:
    z = y * y
    np.divide(1.0, z, out=z)
    num = _horner((_ERFC_P[5],) + _ERFC_P[:5], z)
    num *= z
    num /= _horner((1.0,) + _ERFC_Q, z)
    np.subtract(_INV_SQRT_PI, num, out=num)
    num /= y
    return _times_exp_neg_sq(y, num)


def erfc(x) -> np.ndarray | float:
    """Complementary error function via Cody's rational approximations.

    Each region is gathered and scattered through integer indices: boolean
    masks over randomly ordered samples defeat branch prediction and cost
    more than the arithmetic. The tail and underflow regions are looked up
    only when some |x| > 4 (or nan) is present, and the 2 - erfc(|x|)
    reflection touches only the entries below -0.46875. nan maps to nan.
    """
    x_arr = np.asarray(x, dtype=np.float64)
    xf = x_arr.ravel()
    y = np.abs(xf)
    out = np.empty_like(y)

    small = np.flatnonzero(y <= 0.46875)
    mid = np.flatnonzero((y > 0.46875) & (y <= 4.0))
    if small.size + mid.size < y.size:  # tail, huge or nan entries
        out.fill(np.nan)
        tail = np.flatnonzero((y > 4.0) & (y < 26.543))
        if tail.size:
            out[tail] = _erfc_tail(y.take(tail))
        out[y >= 26.543] = 0.0  # erfc underflows to 0 beyond here
    if small.size:
        v = _erf_small(xf.take(small))
        out[small] = np.subtract(1.0, v, out=v)
    if mid.size:
        out[mid] = _erfc_mid(y.take(mid))

    neg = np.flatnonzero(xf < -0.46875)  # x < 0 outside the small region
    if neg.size:
        v = out.take(neg)
        out[neg] = np.subtract(2.0, v, out=v)
    return float(out[0]) if x_arr.ndim == 0 else out.reshape(x_arr.shape)


def normal_cdf(x) -> np.ndarray | float:
    """Standard normal CDF Phi(x) = erfc(-x / sqrt 2) / 2."""
    x_arr = np.asarray(x, dtype=np.float64)
    res = erfc(x_arr / -_SQRT2)  # == -x / sqrt 2, bit for bit
    if x_arr.ndim == 0:
        return 0.5 * res
    res *= 0.5
    return res


def _acklam(p: np.ndarray) -> np.ndarray:
    """Acklam's quantile start on (0, 0.5]; normal_quantile reflects p > 0.5.

    The central formula is evaluated on every entry (it is finite on all of
    [0, 1]); the lower tail p < 0.02425 then overwrites its entries.
    """
    pf = p.ravel()
    q = pf - 0.5
    r = q * q
    out = _horner(_ACK_A, r)
    out *= q
    out /= _horner(_ACK_B + (1.0,), r)

    lo = np.flatnonzero(pf < _ACK_LOW)
    if lo.size:
        q = np.log(pf.take(lo))
        q *= -2.0
        np.sqrt(q, out=q)
        v = _horner(_ACK_C, q)
        v /= _horner(_ACK_D + (1.0,), q)
        out[lo] = v
    return out.reshape(p.shape)


def _quantile_block(pf: np.ndarray) -> np.ndarray:
    """normal_quantile of a 1-d array, in one pass."""
    t = 1.0 - pf
    np.minimum(pf, t, out=t)  # t > 0 exactly where 0 < p < 1
    t_min = t.min(initial=1.0)
    outside = None
    if not t_min > 0.0:
        outside = np.flatnonzero(~(t > 0.0))
        t[outside] = 0.5
        t_min = t.min()

    x = _acklam(t)
    # Below the smallest normal double, normal_cdf(x) - t keeps no
    # precision and exp(0.5 x^2) overflows: keep Acklam's start there.
    step = None if t_min >= _TINY else np.flatnonzero(t >= _TINY)
    xs, ts = (x, t) if step is None else (x.take(step), t.take(step))
    u = normal_cdf(xs)
    u -= ts
    u *= _SQRT2PI
    w = 0.5 * xs
    w *= xs
    u *= np.exp(w, out=w)
    np.multiply(0.5, xs, out=w)
    w *= u
    w += 1.0
    u /= w
    xs -= u
    if step is not None:
        x[step] = xs

    upper = np.flatnonzero(pf > 0.5)
    if upper.size:
        v = x.take(upper)
        x[upper] = np.negative(v, out=v)
    if outside is not None:
        po = pf.take(outside)
        x[outside] = np.where(po <= 0.0, -np.inf,
                              np.where(po >= 1.0, np.inf, np.nan))
    return x


def normal_quantile(p) -> np.ndarray | float:
    """Standard normal quantile; p outside (0,1) maps to +-inf, nan to nan.

    Acklam's approximation and one Halley step against normal_cdf refine
    the lower-tail probability t = min(p, 1 - p), which is exact for
    p >= 0.5; the result is negated where p > 0.5. Refining p itself would
    leave the upper tail at Acklam's 1e-9, since normal_cdf(x) - p cannot
    be resolved where normal_cdf(x) is near 1. Against scipy's ndtri the
    relative error is at most 4.4e-16 at p = 1 - 10^-k (k = 1..15) and
    p = 1 - 2^-j (j = 2..53), and the absolute error at most 1.8e-15 over
    1M uniforms; a second Halley step does not lower it. q(1 - p) == -q(p)
    holds exactly for p >= 0.5. For subnormal t (below 2^-1022) the step
    is skipped and Acklam's start, within 1.8e-9 relative, is returned.

    An array of more than _QUANTILE_BLOCK entries runs in equal blocks of
    at most that many (see the module docstring), with the same bits. In
    each block the step runs in place, and the entries with p > 0.5 are
    negated through their indices. Entries with p outside (0, 1) or nan
    are looked up only when the block's smallest t shows one; they are
    refined as t = 0.5 and overwritten at the end.
    """
    p_arr = np.asarray(p, dtype=np.float64)
    pf = p_arr.ravel()
    if pf.size <= _QUANTILE_BLOCK:
        x = _quantile_block(pf)
    else:
        x = np.empty_like(pf)
        blocks = -(-pf.size // _QUANTILE_BLOCK)
        for part, dest in zip(np.array_split(pf, blocks),
                              np.array_split(x, blocks)):
            dest[...] = _quantile_block(part)
    return float(x[0]) if p_arr.ndim == 0 else x.reshape(p_arr.shape)


def probit(p) -> np.ndarray | float:
    """Inverse normal CDF; defined only on the open interval (0, 1)."""
    p_arr = np.asarray(p, dtype=np.float64)
    if not np.all((p_arr > 0.0) & (p_arr < 1.0)):  # nan fails too
        raise ValueError("probit requires probabilities strictly inside (0, 1)")
    return normal_quantile(p)


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (Lentz's method)."""
    max_iter = 300
    eps = 3e-16
    fpmin = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            break
    return h


def betainc_reg(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def pearson_p_value(r: float, n: int) -> float:
    """Two-sided p-value for Pearson r under the null of zero correlation.

    Uses t = r sqrt((n-2)/(1-r^2)) with n-2 degrees of freedom; |r| = 1
    returns 0 by convention.
    """
    if n < 3:
        raise ValueError("need at least 3 points for a p-value")
    if abs(r) >= 1.0:
        return 0.0
    df = n - 2
    t2 = r * r * df / (1.0 - r * r)
    return betainc_reg(0.5 * df, 0.5, df / (df + t2))
