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


def _erf_small(x: np.ndarray) -> np.ndarray:
    z = x * x
    num = _ERF_A[4] * z
    den = z
    for i in range(3):
        num = (num + _ERF_A[i]) * z
        den = (den + _ERF_B[i]) * z
    return x * (num + _ERF_A[3]) / (den + _ERF_B[3])


def _erfc_mid(y: np.ndarray) -> np.ndarray:
    num = _ERFC_C[8] * y
    den = y
    for i in range(7):
        num = (num + _ERFC_C[i]) * y
        den = (den + _ERFC_D[i]) * y
    result = (num + _ERFC_C[7]) / (den + _ERFC_D[7])
    # Split exp(-y^2) to preserve accuracy for large arguments.
    ysq = np.floor(y * 16.0) / 16.0
    delta = (y - ysq) * (y + ysq)
    return np.exp(-ysq * ysq) * np.exp(-delta) * result


def _erfc_tail(y: np.ndarray) -> np.ndarray:
    z = 1.0 / (y * y)
    num = _ERFC_P[5] * z
    den = z
    for i in range(4):
        num = (num + _ERFC_P[i]) * z
        den = (den + _ERFC_Q[i]) * z
    result = z * (num + _ERFC_P[4]) / (den + _ERFC_Q[4])
    result = (_INV_SQRT_PI - result) / y
    ysq = np.floor(y * 16.0) / 16.0
    delta = (y - ysq) * (y + ysq)
    return np.exp(-ysq * ysq) * np.exp(-delta) * result


def erfc(x) -> np.ndarray | float:
    """Complementary error function via Cody's rational approximations.

    Each region is gathered and scattered through integer indices: boolean
    masks over randomly ordered samples defeat branch prediction and cost
    more than the arithmetic. nan maps to nan.
    """
    x_arr = np.asarray(x, dtype=np.float64)
    xf = x_arr.ravel()
    y = np.abs(xf)
    out = np.full_like(y, np.nan)

    small = np.flatnonzero(y <= 0.46875)
    mid = np.flatnonzero((y > 0.46875) & (y <= 4.0))
    tail = np.flatnonzero((y > 4.0) & (y < 26.543))
    huge = np.flatnonzero(y >= 26.543)  # erfc underflows to 0 beyond here

    if small.size:
        out[small] = 1.0 - _erf_small(xf.take(small))
    if mid.size:
        out[mid] = _erfc_mid(y.take(mid))
    if tail.size:
        out[tail] = _erfc_tail(y.take(tail))
    out[huge] = 0.0

    out = np.where((xf < 0.0) & (y > 0.46875), 2.0 - out, out)
    return float(out[0]) if x_arr.ndim == 0 else out.reshape(x_arr.shape)


def normal_cdf(x) -> np.ndarray | float:
    """Standard normal CDF Phi(x) = erfc(-x / sqrt 2) / 2."""
    x_arr = np.asarray(x, dtype=np.float64)
    res = 0.5 * erfc(-x_arr / _SQRT2)
    return float(res) if np.ndim(x) == 0 else res


def normal_pdf(x) -> np.ndarray | float:
    x_arr = np.asarray(x, dtype=np.float64)
    res = np.exp(-0.5 * x_arr * x_arr) / _SQRT2PI
    return float(res) if np.ndim(x) == 0 else res


def _acklam(p: np.ndarray) -> np.ndarray:
    """Acklam's quantile start on (0, 0.5]; normal_quantile reflects p > 0.5."""
    pf = p.ravel()
    out = np.empty_like(pf)
    lo_mask = pf < _ACK_LOW
    lo = np.flatnonzero(lo_mask)
    mid = np.flatnonzero(~lo_mask)

    if lo.size:
        q = np.sqrt(-2.0 * np.log(pf.take(lo)))
        out[lo] = ((((((_ACK_C[0] * q + _ACK_C[1]) * q + _ACK_C[2]) * q
                      + _ACK_C[3]) * q + _ACK_C[4]) * q + _ACK_C[5])
                   / ((((_ACK_D[0] * q + _ACK_D[1]) * q + _ACK_D[2]) * q
                       + _ACK_D[3]) * q + 1.0))
    if mid.size:
        q = pf.take(mid) - 0.5
        r = q * q
        out[mid] = ((((((_ACK_A[0] * r + _ACK_A[1]) * r + _ACK_A[2]) * r
                       + _ACK_A[3]) * r + _ACK_A[4]) * r + _ACK_A[5]) * q
                    / (((((_ACK_B[0] * r + _ACK_B[1]) * r + _ACK_B[2]) * r
                         + _ACK_B[3]) * r + _ACK_B[4]) * r + 1.0))
    return out.reshape(p.shape)


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
    """
    p_arr = np.asarray(p, dtype=np.float64)
    pf = p_arr.ravel()
    out = np.full_like(pf, np.nan)
    out[pf <= 0.0] = -np.inf
    out[pf >= 1.0] = np.inf
    interior = np.flatnonzero((pf > 0.0) & (pf < 1.0))
    if interior.size:
        p_in = pf.take(interior)
        t = np.minimum(p_in, 1.0 - p_in)
        x = _acklam(t)
        # Below the smallest normal double, normal_cdf(x) - t keeps no
        # precision and exp(0.5 x^2) overflows: keep Acklam's start there.
        step = (slice(None) if t.min() >= _TINY
                else np.flatnonzero(t >= _TINY))
        xs, ts = x[step], t[step]
        u = (normal_cdf(xs) - ts) * _SQRT2PI * np.exp(0.5 * xs * xs)
        x[step] = xs - u / (1.0 + 0.5 * xs * u)
        out[interior] = np.where(p_in > 0.5, -x, x)
    return float(out[0]) if np.ndim(p) == 0 else out.reshape(p_arr.shape)


def probit(p) -> np.ndarray | float:
    """Inverse normal CDF; defined only on the open interval (0, 1)."""
    p_arr = np.asarray(p, dtype=np.float64)
    if np.any(p_arr <= 0.0) or np.any(p_arr >= 1.0):
        raise ValueError("probit requires probabilities strictly inside (0, 1)")
    return normal_quantile(p)


def gaussian_accuracy(w, mu, sigma) -> float:
    """Accuracy of sign(w.x) when x | y ~ N(y mu, sigma), y = ±1.

    Equals Phi(r) with r = w.mu / sqrt(w' sigma w). Each class is correct
    with probability Phi(r), so the label prior does not enter.
    """
    w = np.asarray(w, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    var = float(w @ sigma @ w)
    if var <= 0.0:
        raise ValueError("degenerate projection: w' sigma w must be positive")
    return float(normal_cdf(float(w @ mu) / math.sqrt(var)))


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
