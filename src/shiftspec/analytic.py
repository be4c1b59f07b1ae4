"""Closed-form accuracy for symmetric Gaussian models and probit machinery.

The normal CDF and quantile are implemented from rational approximations so
results are identical across platforms and carry no numerics dependency:

* erfc follows W. J. Cody's rational Chebyshev approximations
  (Math. Comp. 23, 1969; the CALERF scheme), relative error < 1e-15.
* The quantile is M. J. Wichura's Algorithm AS 241, PPND16 (Applied
  Statistics 37(3), 1988), the quantile behind R's qnorm: one degree-7/7
  rational per region, with no refinement step, so it calls neither erfc
  nor normal_cdf. normal_quantile states its accuracy against scipy.

The array kernels gather each region's entries through integer indices and
update their polynomial accumulators in place (Horner's rule with `+=`,
`*=` and `out=`), so a call makes few passes and few new arrays. Each
element still gets the same operations in the same order as the plain
expressions, so the results are the same bit for bit. Regions that samples
rarely reach (erfc's tail and underflow, the quantile's far tail, p outside
(0, 1)) are looked up only when present.

The package's per-row kernels (these, the samplers in rng and synthgen and
the trainer's loss) follow one rule: no masked select over a data-dependent
mask. On randomly ordered samples a mask defeats branch prediction, so
np.negative(..., where=mask) and np.where cost more per element than the
same negation through flatnonzero, take and a scatter, and far more than a
multiply. A region is gathered through integer indices, or the select is
spelled as exact arithmetic. Nor does a kernel broadcast over a short last
axis, which runs numpy's inner loop a few elements at a time: the Newton
loop fills curv[..., None] * x column by column instead.

normal_quantile transforms an array of more than _QUANTILE_BLOCK (8,192)
entries in equal blocks of at most that many, each through the same
kernel, so every element gets the same operations and the bits do not
depend on the blocking. A block's temporaries then stay in cache, which
pays on large calls such as the zero-measure family's 54k noise uniforms;
below the constant nothing changes, and larger blocks gained nothing.
"""

from __future__ import annotations

import math

import numpy as np

_SQRT2 = math.sqrt(2.0)
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

# AS 241 (PPND16) coefficients, highest power first; each denominator ends
# in its constant term 1. Central region |p - 0.5| <= 0.425, in
# r = 0.180625 - (p - 0.5)^2:
_AS241_A = (2509.0809287301226727, 33430.575583588128105,
            67265.770927008700853, 45921.953931549871457,
            13731.693765509461125, 1971.5909503065514427,
            133.14166789178437745, 3.387132872796366608)
_AS241_B = (5226.495278852545925, 28729.085735721942674,
            39307.89580009271061, 21213.794301586595867,
            5394.1960214247511077, 687.1870074920579083,
            42.313330701600911252, 1.0)
# Tails, in s = sqrt(-log(min(p, 1 - p))): s - 1.6 for s <= 5 ...
_AS241_C = (7.7454501427834140764e-4, 2.27238449892691845833e-2,
            2.4178072517745061177e-1, 1.27045825245236838258,
            3.64784832476320460504, 5.7694972214606914055,
            4.6303378461565452959, 1.42343711074968357734)
_AS241_D = (1.05075007164441684324e-9, 5.475938084995344946e-4,
            1.51986665636164571966e-2, 1.4810397642748007459e-1,
            6.8976733498510000455e-1, 1.6763848301838038494,
            2.05319162663775882187, 1.0)
# ... and s - 5 for s > 5.
_AS241_E = (2.01033439929228813265e-7, 2.71155556874348757815e-5,
            1.2426609473880784386e-3, 2.6532189526576123093e-2,
            2.9656057182850489123e-1, 1.7848265399172913358,
            5.4637849111641143699, 6.6579046435011037772)
_AS241_F = (2.04426310338993978564e-15, 1.4215117583164458887e-7,
            1.8463183175100546818e-5, 7.868691311456132591e-4,
            1.48753612908506148525e-2, 1.3692988092273580531e-1,
            5.9983220655588793769e-1, 1.0)

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


def gaussian_margin_cdf(weights, a: np.ndarray, s) -> np.ndarray:
    """sum_j weights[j] Phi(a[j] / s[j]) over the leading axis of a.

    This is P(t > 0) for a margin t = y(w.x + b) that is a finite Gaussian
    mixture: component j has weight weights[j], mean a[j] and sd s[j]. Every
    closed-form accuracy in the package is one call. s broadcasts against
    a. s = 0 is the point mass at a: its term is 1 where a > 0, else 0, so
    a tie counts as wrong. The sum starts from 0.0 and adds
    weights[j] * term in order.

    Every a / s is divided and transformed; the s = 0 entries are then
    looked up through integer indices and overwritten, only when np.all(s)
    shows there are any. On a table of the zero-measure experiment's size
    that is cheaper than a boolean gather of the s > 0 entries or a
    ``.flat`` gather.
    """
    # a / s is +-inf past the float range (Phi's limit) and nan at 0 / 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        cdf = normal_cdf(a / s)
    if not np.all(s):  # some s = 0 (nan is true)
        step = np.flatnonzero(np.broadcast_to(np.equal(s, 0.0), cdf.shape))
        cdf.put(step, np.broadcast_to(a, cdf.shape).take(step) > 0.0)
    return sum((weight * term for weight, term in zip(weights, cdf)), 0.0)


def _quantile_tail(p: np.ndarray) -> np.ndarray:
    """AS 241's tails, for 1-d p with |p - 0.5| > 0.425.

    The s <= 5 rational runs on every entry; the far tail s > 5 (min(p, 1 - p)
    below about 1.4e-11) overwrites its entries, looked up only when present.
    p outside (0, 1) is evaluated at 0.5 and overwritten with inf, which the
    sign of p - 0.5 turns into -inf for p <= 0.
    """
    t = 1.0 - p
    np.minimum(p, t, out=t)
    outside = None
    if not t.min() > 0.0:
        outside = np.flatnonzero(~(t > 0.0))
        t[outside] = 0.5
    s = np.log(t, out=t)
    np.negative(s, out=s)
    np.sqrt(s, out=s)
    z = s - 1.6
    x = _horner(_AS241_C, z)
    x /= _horner(_AS241_D, z)
    if s.max() > 5.0:
        far = np.flatnonzero(s > 5.0)
        z = s.take(far)
        z -= 5.0
        v = _horner(_AS241_E, z)
        v /= _horner(_AS241_F, z)
        x[far] = v
    if outside is not None:
        x[outside] = np.inf
    return np.copysign(x, p - 0.5, out=x)


def _quantile_block(pf: np.ndarray) -> np.ndarray:
    """normal_quantile of a 1-d array, in one pass.

    The tail entries (p outside (0, 1) among them) are gathered, transformed
    and their q zeroed; the central rational then runs on every entry, nan
    included, and the tail values overwrite theirs.
    """
    q = pf - 0.5
    tail = np.flatnonzero(np.abs(q) > 0.425)
    if tail.size:
        x_tail = _quantile_tail(pf.take(tail))
        q[tail] = 0.0
    r = q * q
    np.subtract(0.180625, r, out=r)
    x = _horner(_AS241_A, r)
    x *= q
    x /= _horner(_AS241_B, r)
    if tail.size:
        x[tail] = x_tail
    return x


def normal_quantile(p) -> np.ndarray | float:
    """Standard normal quantile; p outside (0,1) maps to +-inf, nan to nan.

    Wichura's AS 241 (PPND16; Applied Statistics 37(3), 1988). With
    q = p - 0.5, an entry with |q| <= 0.425 is q A(r) / B(r) with
    r = 0.180625 - q^2. Any other entry is C(s - 1.6) / D(s - 1.6) for
    s = sqrt(-log(min(p, 1 - p))) <= 5, else E(s - 5) / F(s - 5), with the
    sign of q; A to F are degree-7 polynomials. Each element gets exactly
    these operations, so q(1 - p) == -q(p) holds exactly for p >= 0.5 (where
    1 - p is exact), and the bits do not depend on the blocking or on
    scalar versus array input.

    Against scipy's ndtri the error is at most 8 ulp, 2e-15 relative and
    1e-14 absolute over 1M uniforms (floored at 2^-53); 1e-14 absolute on
    a grid of p in [1e-7, 1 - 1e-7]; 2e-15 relative at p = 1 - 10^-k
    (k = 1..15) and p = 1 - 2^-j (j = 2..53) and at their complements; and
    1e-15 relative at subnormal p.

    An array of more than _QUANTILE_BLOCK entries runs in equal blocks of
    at most that many (see the module docstring), with the same bits.
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
