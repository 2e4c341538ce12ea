"""Scalar special functions backing the exact probabilities and tests.

Self-contained evaluators (no SciPy or NumPy at runtime): the regularized
incomplete beta (and from it the exact probabilities of triangles in R^n) and
upper incomplete gamma by Lentz continued fractions, the Gauss 2F1 by series
plus linear transformations for negative arguments, and the Kolmogorov tail.
"""

import math

from .errors import DomainError, integer

_EPS = 1e-15
_TINY = 1e-300
_MAX_ITER = 500
_MAX_SERIES_TERMS = 200000   # of the 2F1 series


def _lentz(an: float, bn: float, c: float, d: float):
    """One modified-Lentz step for the partial fraction an / (bn + ...): the
    new (c, d), each kept off zero by _TINY."""
    d = an * d + bn
    c = bn + an / c
    return (_TINY if abs(c) < _TINY else c), 1.0 / (_TINY if abs(d) < _TINY else d)


def _betacf(a: float, b: float, x: float) -> float:
    # Lentz evaluation of the continued fraction for the incomplete beta.
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c, d = _lentz(-qab * x / qap, 1.0, math.inf, 1.0)   # c = 1, d = 1 / (1 - qab x / qap)
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        c, d = _lentz(m * (b - m) * x / ((qam + m2) * (a + m2)), 1.0, c, d)
        h *= d * c
        c, d = _lentz(-(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)), 1.0, c, d)
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise RuntimeError(f"incomplete beta continued fraction stalled at a={a}, b={b}, x={x}")


def betainc_reg(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise ValueError(f"beta parameters must be positive and finite, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"beta argument must lie in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return x
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    # continued fraction converges fastest on the side below the mean
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def obtuse_probability_ndim(n: int) -> float:
    """Probability that a Gaussian triangle in R^n is obtuse: 3 I(1/4; n/2, n/2)
    with I the regularized incomplete beta, which equals 3 (1 - I(3/4; n/2, n/2))
    but keeps full relative precision at large n."""
    integer("n", n, 2)
    return 3.0 * betainc_reg(n / 2.0, n / 2.0, 0.25)


def acute_probability_ndim(n: int) -> float:
    return 1.0 - obtuse_probability_ndim(n)


def squared_side_marginal_cdf(n: int, x: float, clamp: bool = False) -> float:
    """CDF of one squared side under the Gaussian model in R^n: I(3x/2; n/2, n/2).

    The support is [0, 2/3].  Out-of-range x raises unless clamp is set.
    """
    integer("n", n, 2)
    if not 0.0 <= x <= 2.0 / 3.0:
        if not clamp:
            raise DomainError(f"squared side must lie in [0, 2/3], got {x}")
        x = min(max(x, 0.0), 2.0 / 3.0)
    return betainc_reg(n / 2.0, n / 2.0, 1.5 * x)

def _gamma_q_series(s: float, x: float) -> float:
    # P(s, x) by series, returned as Q = 1 - P; good for x < s + 1.
    term = 1.0 / s
    total = term
    n = s
    for _ in range(_MAX_ITER * 4):
        n += 1.0
        term *= x / n
        total += term
        if abs(term) < abs(total) * _EPS:
            return 1.0 - total * math.exp(-x + s * math.log(x) - math.lgamma(s))
    raise RuntimeError(f"incomplete gamma series stalled at s={s}, x={x}")


def _gamma_q_cf(s: float, x: float) -> float:
    # Q(s, x) by Lentz continued fraction; good for x >= s + 1.
    b = x + 1.0 - s
    c = 1.0 / _TINY
    d = 1.0 / b if abs(b) > _TINY else 1.0 / _TINY
    h = d
    for i in range(1, _MAX_ITER * 4):
        b += 2.0
        c, d = _lentz(-i * (i - s), b, c, d)
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h * math.exp(-x + s * math.log(x) - math.lgamma(s))
    raise RuntimeError(f"incomplete gamma continued fraction stalled at s={s}, x={x}")


def gamma_q(s: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(s, x) = Gamma(s, x) / Gamma(s)."""
    if not 0.0 < s < math.inf:
        raise ValueError(f"shape parameter must be positive and finite, got {s}")
    if not x >= 0.0:
        raise ValueError(f"argument must be nonnegative, got {x}")
    if x == 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
    if x < s + 1.0:
        return _gamma_q_series(s, x)
    return _gamma_q_cf(s, x)


# ---------------------------------------------------------------------------
# Gauss hypergeometric


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0.0 and abs(x - round(x)) < 1e-12


def _rgamma(x: float) -> float:
    # 1 / Gamma(x), zero at the poles
    if _is_nonpositive_integer(x):
        return 0.0
    return 1.0 / math.gamma(x)


def _hyp2f1_series(a: float, b: float, c: float, z: float) -> float:
    term = 1.0
    total = 1.0
    for n in range(_MAX_SERIES_TERMS):
        ratio = (a + n) * (b + n) / ((c + n) * (n + 1.0)) * z
        term *= ratio
        total += term
        # once the term ratio r settles below 1 the tail is about term r / (1 - r),
        # which is what is left out; near |r| = 1 it is much larger than the term
        if n > 2 and abs(term) <= abs(total) * _EPS * max(1.0 - abs(ratio), 0.0):
            return total
    raise RuntimeError(f"2F1 series did not converge at z={z}")


def _hyp2f1_pfaff(a: float, b: float, c: float, z: float) -> float:
    # 2F1(a,b;c;z) = (1-z)^(-a) 2F1(a, c-b; c; z/(z-1)); maps z<0 into (0,1)
    w = z / (z - 1.0)
    return (1.0 - z) ** (-a) * _hyp2f1_series(a, c - b, c, w)


# Pfaff's series in w = z/(z - 1) needs about 25 |z| terms; beyond this |z|
# the expansion at infinity is used even where its two terms cancel
_PFAFF_MAX_NEG_Z = 1000.0


def _hyp2f1_at_infinity(a: float, b: float, c: float, z: float):
    """The two parts u, v of the expansion of 2F1(a, b; c; z) at infinity,

        2F1(a, b; c; z) = (-z)^(-a) u + (-z)^(-b) v,

    with z = -inf giving their limits.  None where the expansion does not
    apply (z > -2, or b - a an integer) or, while Pfaff is affordable, would
    lose digits: its two terms are large and of opposite sign unless |z| is
    at least a quarter of the first coefficients of its series (for the
    sigma-min density family, m up to uniformity.SIGMA_MIN_MAX_SIZE, that
    keeps it within 1e-13 of mpmath).
    """
    if z > -2.0 or abs((b - a) - round(b - a)) < 1e-9:
        return None
    if -z < min(_PFAFF_MAX_NEG_Z, max(abs(a * (a - c + 1.0) / (a - b + 1.0)),
                                      abs(b * (b - c + 1.0) / (b - a + 1.0))) / 4.0):
        return None
    w = 1.0 / z
    u = (math.gamma(c) * math.gamma(b - a) * _rgamma(b) * _rgamma(c - a)
         * _hyp2f1_series(a, a - c + 1.0, a - b + 1.0, w))
    v = (math.gamma(c) * math.gamma(a - b) * _rgamma(a) * _rgamma(c - b)
         * _hyp2f1_series(b, b - c + 1.0, b - a + 1.0, w))
    return u, v


def gauss_2f1(a: float, b: float, c: float, z: float, scaled: bool = False) -> float:
    """Gauss hypergeometric 2F1(a, b; c; z) for real parameters and z < 0.9.

    Direct series inside the disk, the expansion at infinity where it is
    accurate, and the Pfaff transformation for the rest of z <= -0.9.

    scaled=True returns (-z)^a 2F1(a, b; c; z) for z < 0 instead, with the
    power folded into the expansion at infinity: for b > a it stays finite
    up to z = -inf, where the plain value underflows.
    """
    if not all(map(math.isfinite, (a, b, c))):
        raise ValueError(f"2F1 parameters must be finite, got a={a}, b={b}, c={c}")
    if _is_nonpositive_integer(c):
        raise ValueError(f"2F1 undefined for non-positive integer c = {c}")
    if scaled and not z < 0.0:
        raise ValueError(f"scaled 2F1 needs z < 0, got {z}")
    if not z < 0.9:   # NaN too
        raise ValueError(f"2F1 argument must satisfy z < 0.9, got {z}")
    if a == 0.0 or b == 0.0 or z == 0.0:
        value = 1.0
    elif z > -0.9:
        value = _hyp2f1_series(a, b, c, z)
    elif (parts := _hyp2f1_at_infinity(a, b, c, z)) is not None:
        u, v = parts
        if scaled:
            return u + (-z) ** (a - b) * v
        return (-z) ** (-a) * u + (-z) ** (-b) * v
    else:
        value = _hyp2f1_pfaff(a, b, c, z)
    return (-z) ** a * value if scaled else value


def kolmogorov_sf(x: float) -> float:
    """Upper tail of the Kolmogorov distribution: 2 sum (-1)^(k-1) exp(-2 k^2 x^2)."""
    if x <= 0.05:
        return 1.0
    if not x > 0.05:
        raise ValueError(f"Kolmogorov argument must be a number, got {x}")
    total = 0.0
    sign = 1.0
    for k in range(1, 10000):
        term = math.exp(-2.0 * k * k * x * x)
        total += sign * term
        if term < 1e-17:
            break
        sign = -sign
    return min(max(2.0 * total, 0.0), 1.0)
