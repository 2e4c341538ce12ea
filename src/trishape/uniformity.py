"""Statistical tests for uniformity of empirical shape distributions.

A sample is a set of preshapes: m x (k-1) matrices of unit Frobenius norm.
The tests are the rows of TESTS: the second-moment (Chikuse-Jupp) balance of
Z^T Z, a KS test of 1/sigma_min against its exact law, and for planar
triangles KS tests of the hemisphere marginals (height, longitude).  The suite
computes the sample's Gram entries once; its norm check and each row read them.
"""

import functools
import itertools
import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .core import _gram, _longitude
from .specfun import gamma_q, gauss_2f1, kolmogorov_sf


@dataclass
class TestReport:
    name: str
    statistic: float
    reference: str
    p_value: float
    n_samples: int

    def rejected(self, alpha: float) -> bool:
        return self.p_value < alpha

    def __str__(self):
        return (f"{self.name}: statistic={self.statistic:.6g} "
                f"[{self.reference}] p={self.p_value:.4g} (t={self.n_samples})")


@dataclass
class SuiteReport:
    reports: list = field(default_factory=list)

    def rejected(self, alpha: float) -> bool:
        return any(r.rejected(alpha) for r in self.reports)

    def __str__(self):
        return "\n".join(str(r) for r in self.reports)


def preshape(x) -> np.ndarray:
    """Normalize an m x (k-1) array to unit Frobenius norm."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"preshape must be a 2-d matrix, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("preshapes must be finite")
    norm = np.linalg.norm(x)
    if norm == 0.0:
        raise ValueError("zero matrix has no preshape")
    return x / norm


def _checked(samples):
    """(z, gram): the samples as a checked (t, m, q) array, and its _gram entries."""
    z = np.asarray(samples, dtype=float)
    if z.ndim != 3:
        raise ValueError("samples must share a common m x (k-1) matrix shape")
    if z.shape[0] == 0:
        raise ValueError("empty sample set")
    if not np.isfinite(z).all():
        raise ValueError("preshapes must be finite")
    gram, q = tuple(_gram(z)), z.shape[2]
    trace = sum(gram[j * q - j * (j - 1) // 2] for j in range(q))      # the sum of the g_jj
    if np.abs(np.sqrt(trace) - 1.0).max() > 1e-6:
        raise ValueError("preshapes must have unit Frobenius norm")
    return z, gram


def chi2_upper_tail(x: float, df: float) -> float:
    """Upper tail of the chi-square distribution, Q(df/2, x/2)."""
    if not 0.0 < df < math.inf:
        raise ValueError(f"degrees of freedom must be positive and finite, got {df}")
    if not x >= 0.0:
        raise ValueError(f"chi-square statistic must be nonnegative, got {x}")
    return gamma_q(df / 2.0, x / 2.0)


def chikuse_jupp(samples) -> TestReport:
    """Second-moment balance test of preshape uniformity.

    With q = k - 1 and Wbar the mean of Z_i^T Z_i over t samples,

        S = (q (q m + 2) / 2) * t * trace((Wbar - I_q / q)^2).

    Under uniformity S is asymptotically chi-square with (q - 1)(q + 2) / 2
    degrees of freedom, which is also the exact scaling of its mean.  For
    k = 2 Z^T Z is the scalar 1: the statistic is 0 and p is 1, exactly.
    """
    return _chikuse_jupp(*_checked(samples))


def _chikuse_jupp(z: np.ndarray, gram) -> TestReport:
    """chikuse_jupp of a checked (t, m, q) sample array and its Gram entries."""
    t, m, q = z.shape
    df = (q - 1) * (q + 2) / 2.0
    if q == 1:      # unit norms leave nothing to test; their 1e-6 rounding is no evidence
        return TestReport("chikuse-jupp", 0.0, f"chi2(df={df:g})", 1.0, t)
    wbar = np.empty((q, q))
    for (j, k), g in zip(itertools.combinations_with_replacement(range(q), 2), gram):
        wbar[j, k] = wbar[k, j] = np.cumsum(g)[-1] / t      # in w.mean(axis=0)'s order
    dev = wbar - np.eye(q) / q
    stat = (q * (q * m + 2.0) / 2.0) * t * float(np.trace(dev @ dev))
    return TestReport("chikuse-jupp", stat, f"chi2(df={df:g})", chi2_upper_tail(stat, df), t)


SIGMA_MIN_MAX_SIZE = 18      # the largest m whose density's Gamma factors stay finite
_SIGMA_MIN_MAX = f"{SIGMA_MIN_MAX_SIZE}x{SIGMA_MIN_MAX_SIZE}"


def _check_matrix_size(m):
    if not isinstance(m, (int, np.integer)) or m < 2:
        raise ValueError(f"matrix size must be an integer >= 2, got {m!r}")
    if m > SIGMA_MIN_MAX_SIZE:
        raise ValueError(f"the sigma-min law is implemented up to {_SIGMA_MIN_MAX}, got {m}x{m}")


def _t2_density(t: float, m: int) -> float:
    """t^2 times the density of 1/sigma_min at t: finite on (sqrt(m), inf],
    where it tends to a constant, and zero at and below sqrt(m)."""
    if t * t <= m:
        return 0.0
    e = m * (m + 1) / 2.0
    a = (m - 1) / 2.0
    const = (2.0 * m * math.gamma((m + 1) / 2.0) * math.gamma(m * m / 2.0)
             / (math.sqrt(math.pi) * math.gamma(e - 1.0)))
    # t^2 t^(1 - m^2) (t^2 - m)^(e - 2) 2F1(z), with -z = t^2 - m = t^2 (1 - m/t^2)
    # and t^(m - 1) = t^(2a), is (1 - m/t^2)^(e - 2 - a) (-z)^a 2F1(z): no factor
    # under- or overflows, and the scaled 2F1 tends to a constant as t -> inf
    return (const * math.exp((e - 2.0 - a) * math.log1p(-m / (t * t)))
            * gauss_2f1(a, m / 2.0 + 1.0, e - 1.0, m - t * t, scaled=True))


def inv_sigma_min_density(t, m: int):
    """Exact density of 1/sigma_min for a square m x m uniform preshape.

    Supported on t >= sqrt(m) (the unit Frobenius norm forces
    sigma_min <= 1/sqrt(m)); zero below, negative t included.  Finite for
    every t, it decays like 1/t^2; NaN stays NaN.  t is a float or an array of
    any shape (same shape back); a scalar returns a float.
    """
    _check_matrix_size(m)
    t = np.asarray(t, dtype=float)
    dens = np.array([v if math.isnan(v) else 0.0 if v <= 0.0 else _t2_density(v, m) / v / v
                     for v in t.ravel().tolist()]).reshape(t.shape)
    return float(dens) if dens.ndim == 0 else dens


@functools.cache
def _cdf_series(m: int):
    """(P, P(1)): the antiderivative P(u), u = 2x - 1, of the density
    G(x) = _t2_density(sqrt(m)/x, m)/sqrt(m) of x = sqrt(m)/t, analytic on
    [0, 1], and the total mass.  G is interpolated at 2^j + 1 Chebyshev
    points, each level reusing the last one's values, until the last quarter
    of the coefficients has decayed to 1e-13 of the largest.  numpy.polynomial
    is imported here, not with numpy."""
    from numpy.polynomial import chebyshev

    root = math.sqrt(m)
    density = functools.cache(lambda t: _t2_density(t, m) / root)
    for n in (16, 32, 64, 128, 256, 512):
        u = np.cos(np.pi * np.arange(n + 1) / n)
        with np.errstate(divide="ignore"):
            t = root / ((1.0 + u) / 2.0)          # inf at x = 0, where G has its limit
        c = chebyshev.chebfit(u, [density(v) for v in t.tolist()], n)
        if np.abs(c[-(n // 4):]).max() <= 1e-13 * np.abs(c).max():
            p = chebyshev.chebint(c, lbnd=-1.0, scl=0.5)
            return functools.partial(chebyshev.chebval, c=p), chebyshev.chebval(1.0, p)
    raise ArithmeticError(f"sigma-min CDF series for m={m} did not converge")


def inv_sigma_min_cdf(t, m: int):
    """CDF of 1/sigma_min at t, a float or an array of any shape (a scalar
    returns a float).

    Zero at and below sqrt(m), negative t included; one at t = inf; NaN
    stays NaN.  In x = sqrt(m)/t, which maps the support onto [0, 1], it is
    1 - x sqrt(2 - x^2) for m = 2 and P(1) - P(2x - 1) above, with P the
    Chebyshev series _cdf_series builds on the first call for that m: no
    special function is evaluated per value.  Accurate to about 1e-15
    absolute, not relative, in the far lower tail.
    """
    _check_matrix_size(m)
    t = np.asarray(t, dtype=float)
    root = math.sqrt(m)
    x = root / np.maximum(t, root)              # 1 on and below the support edge, 0 at inf
    if m == 2:
        cdf = 1.0 - x * np.sqrt(2.0 - x * x)    # = 1 - 2 sqrt(t^2 - 1) / t^2
    else:
        antiderivative, mass = _cdf_series(m)
        # the difference carries rounding of about 1e-16: clip it to [0, 1];
        # at inf it is the total mass, which is 1 only to rounding
        cdf = np.where(t == np.inf, 1.0, np.clip(mass - antiderivative(2.0 * x - 1.0), 0.0, 1.0))
    return float(cdf) if cdf.ndim == 0 else cdf


def ks_test(samples, cdf, name: str = "ks") -> TestReport:
    """One-sample Kolmogorov-Smirnov test against a continuous CDF.

    cdf is called once, on the sorted sample, and maps an array to an
    array of the same shape.  The p-value uses the asymptotic Kolmogorov
    series at sqrt(t) * D.
    """
    x = np.sort(np.asarray(samples, dtype=float))      # NaN last; +inf is a valid sample
    t = x.size
    if t == 0 or np.isnan(x[-1]):
        raise ValueError("KS sample holds NaN" if t else "empty sample set")
    f = np.asarray(cdf(x), dtype=float)
    if np.isnan(f).any():
        raise ValueError("KS reference CDF returned NaN")
    grid = np.arange(t + 1) / t
    d = float(max((grid[1:] - f).max(), (f - grid[:-1]).max(), 0.0))
    return TestReport(name, d, f"kolmogorov(sqrt(t) D), t={t}", kolmogorov_sf(math.sqrt(t) * d), t)


def _abs_det(z: np.ndarray) -> np.ndarray:
    return np.abs(z[:, 0, 0] * z[:, 1, 1] - z[:, 0, 1] * z[:, 1, 0])


def _inv_sigma_min(z: np.ndarray, gram) -> np.ndarray:
    """1/sigma_min of a (t, m, m) batch, inf where a matrix is singular.  For m = 2
    from the Gram entries: sigma_max^2 = F/2 + hypot((g11 - g22)/2, g12), with F =
    g11 + g22 (unit only to 1e-6), and sigma_min sigma_max = |det|."""
    with np.errstate(divide="ignore"):
        if z.shape[1] > 2:
            return 1.0 / np.linalg.svd(z, compute_uv=False)[:, -1]
        g11, g12, g22 = gram
        return np.sqrt((g11 + g22) / 2.0 + np.hypot((g11 - g22) / 2.0, g12)) / _abs_det(z)


def _sigma_min(z: np.ndarray, gram) -> list:
    return [ks_test(_inv_sigma_min(z, gram), lambda v: inv_sigma_min_cdf(v, z.shape[1]),
                    name="sigma-min-ks")]


def _hemisphere(z: np.ndarray, gram) -> list:
    g11, g12, g22 = gram        # the height is |det Z|, the longitude the disk point's
    return [ks_test(_abs_det(z), lambda v: np.clip(2.0 * v, 0.0, 1.0), name="height-ks"),
            ks_test(_longitude(g12, (g11 - g22) / 2.0),
                    lambda v: v / (2.0 * math.pi), name="longitude-ks")]


# A row of TESTS: applies(m, q); the preshapes it needs, in words; run(z, gram), its reports
Test = namedtuple("Test", "applies needs run")

TESTS = {
    "chikuse-jupp": Test(lambda m, q: True, "any", lambda z, gram: [_chikuse_jupp(z, gram)]),
    "sigma-min": Test(lambda m, q: m == q <= SIGMA_MIN_MAX_SIZE,
                      f"square, at most {_SIGMA_MIN_MAX}", _sigma_min),
    "hemisphere": Test(lambda m, q: m == q == 2, "m=2, k=3", _hemisphere),
}


def uniformity_suite(samples, which: str = "all") -> SuiteReport:
    """Run TESTS[which], or with which='all' every test that applies, in table
    order.  Naming a test that does not apply raises ValueError."""
    if which not in (*TESTS, "all"):
        raise ValueError(f"unknown uniformity test {which!r}")
    z, gram = _checked(samples)
    _, m, q = z.shape
    suite = SuiteReport()
    for name, test in TESTS.items() if which == "all" else [(which, TESTS[which])]:
        if test.applies(m, q):
            suite.reports += test.run(z, gram)
        elif which != "all":
            raise ValueError(f"{name} test needs {test.needs} preshapes, got {m}x{q}")
    return suite
