"""Statistical tests for uniformity of empirical shape distributions.

A sample is a set of preshapes: m x (k-1) matrices of unit Frobenius norm.
The second-moment (Chikuse-Jupp) statistic tests whether the mean of
Z^T Z is balanced; the smallest-singular-value test compares 1/sigma_min
against its exact density; and for planar triangles the hemisphere
marginals (height, longitude) get Kolmogorov-Smirnov checks.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .conversions import _shapes_to_xy
from .specfun import gamma_q, gauss_2f1, kolmogorov_sf

__all__ = [
    "TestReport", "SuiteReport", "preshape", "chikuse_jupp", "chi2_upper_tail",
    "inv_sigma_min_density", "inv_sigma_min_cdf", "gauss_2f1", "ks_test",
    "uniformity_suite",
]


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
    norm = np.linalg.norm(x)
    if norm == 0.0:
        raise ValueError("zero matrix has no preshape")
    return x / norm


def _as_sample_array(samples) -> np.ndarray:
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 3:
        raise ValueError("samples must share a common m x (k-1) matrix shape")
    if arr.shape[0] == 0:
        raise ValueError("empty sample set")
    if not np.isfinite(arr).all():
        raise ValueError("preshapes must be finite")
    norms = np.linalg.norm(arr.reshape(arr.shape[0], -1), axis=1)
    if np.abs(norms - 1.0).max() > 1e-6:
        raise ValueError("preshapes must have unit Frobenius norm")
    return arr


def chi2_upper_tail(x: float, df: float) -> float:
    """Upper tail of the chi-square distribution, Q(df/2, x/2)."""
    if df <= 0.0:
        raise ValueError(f"degrees of freedom must be positive, got {df}")
    if x < 0.0:
        raise ValueError(f"chi-square statistic must be nonnegative, got {x}")
    return gamma_q(df / 2.0, x / 2.0)


def chikuse_jupp(samples) -> TestReport:
    """Second-moment balance test of preshape uniformity.

    With q = k - 1 and Wbar the mean of Z_i^T Z_i over t samples,

        S = (q (q m + 2) / 2) * t * trace((Wbar - I_q / q)^2).

    Under uniformity S is asymptotically chi-square with (q - 1)(q + 2) / 2
    degrees of freedom, which is also the exact scaling of its mean.  For
    k = 2 the statistic is identically zero (Z^T Z is the scalar 1).
    """
    z = _as_sample_array(samples)
    t, m, q = z.shape
    w = np.einsum("tij,tik->tjk", z, z)
    dev = w.mean(axis=0) - np.eye(q) / q
    stat = (q * (q * m + 2.0) / 2.0) * t * float(np.trace(dev @ dev))
    df = (q - 1) * (q + 2) / 2.0
    if df == 0:
        p = 1.0 if stat < 1e-12 else 0.0
    else:
        p = chi2_upper_tail(stat, df)
    return TestReport("chikuse-jupp", stat, f"chi2(df={df:g})", p, t)


def inv_sigma_min_density(t: float, m: int) -> float:
    """Exact density of 1/sigma_min for a square m x m uniform preshape.

    Supported on t >= sqrt(m) (the unit Frobenius norm forces
    sigma_min <= 1/sqrt(m)); zero below.
    """
    if not isinstance(m, (int, np.integer)) or m < 2:
        raise ValueError(f"matrix size must be an integer >= 2, got {m!r}")
    t = float(t)
    if t * t <= m:
        return 0.0
    e = m * (m + 1) / 2.0
    const = (2.0 * m * math.gamma((m + 1) / 2.0) * math.gamma(m * m / 2.0)
             / (math.sqrt(math.pi) * math.gamma(e - 1.0)))
    # t^(1 - m^2) (t^2 - m)^(e - 2) = t^(m - 3) (1 - m/t^2)^(e - 2); the two
    # factors on the left under- and overflow for m >= 8, so build it from logs
    power = math.exp((m - 3) * math.log(t) + (e - 2.0) * math.log1p(-m / (t * t)))
    hyp = gauss_2f1((m - 1) / 2.0, m / 2.0 + 1.0, e - 1.0, m - t * t)
    return const * power * hyp


def inv_sigma_min_cdf(t: float, m: int) -> float:
    """CDF of 1/sigma_min; closed form for m = 2, quadrature otherwise."""
    t = float(t)
    t2 = t * t
    if t2 <= m:
        return 0.0
    if m == 2:
        # where t^2 overflows, the tail 2 sqrt(t^2 - 1) / t^2 < 2 / t rounds away
        return 1.0 if t2 == math.inf else 1.0 - 2.0 * math.sqrt(t2 - 1.0) / t2
    # substitute t = sqrt(m)/x to put the integral on the finite interval (x, 1]
    nodes, weights = np.polynomial.legendre.leggauss(200)
    lo = math.sqrt(m) / t
    mid, half = (1.0 + lo) / 2.0, (1.0 - lo) / 2.0
    x = mid + half * nodes
    tt = math.sqrt(m) / x
    vals = np.array([inv_sigma_min_density(v, m) for v in tt])
    return float(np.sum(weights * vals * math.sqrt(m) / x**2) * half)


def ks_test(samples, cdf, name: str = "ks") -> TestReport:
    """One-sample Kolmogorov-Smirnov test against a continuous CDF.

    The p-value uses the asymptotic Kolmogorov series at sqrt(t) * D.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    t = x.size
    if t == 0:
        raise ValueError("empty sample set")
    f = np.asarray([cdf(v) for v in x], dtype=float)
    hi = np.arange(1, t + 1) / t - f
    lo = f - np.arange(0, t) / t
    d = float(max(hi.max(), lo.max(), 0.0))
    p = kolmogorov_sf(math.sqrt(t) * d)
    return TestReport(name, d, f"kolmogorov(sqrt(t) D), t={t}", p, t)


def _hemisphere_marginals(z: np.ndarray):
    """Height |det Z| and longitude of planar triangle preshapes (m=2, k=3)."""
    height = np.abs(z[:, 0, 0] * z[:, 1, 1] - z[:, 0, 1] * z[:, 1, 0])
    x, y = _shapes_to_xy(z)
    return height, np.mod(np.arctan2(y, x), 2.0 * math.pi)


SUITE_TESTS = ("chikuse-jupp", "sigma-min", "hemisphere")


def uniformity_suite(samples, which: str = "all") -> SuiteReport:
    """Run one of SUITE_TESTS, or with which='all' every one that applies.

    'chikuse-jupp' applies to any preshapes, 'sigma-min' to square ones and
    'hemisphere' to planar triangles (m = 2, k = 3); naming a test that does
    not apply raises ValueError.
    """
    if which not in (*SUITE_TESTS, "all"):
        raise ValueError(f"unknown uniformity test {which!r}")
    z = _as_sample_array(samples)
    _, m, q = z.shape

    def runs(name: str, applies: bool, needs: str) -> bool:
        if which == name and not applies:
            raise ValueError(f"{name} test needs {needs} preshapes, got {m}x{q}")
        return applies and which in (name, "all")

    suite = SuiteReport()
    if which in ("chikuse-jupp", "all"):
        suite.reports.append(chikuse_jupp(z))
    if runs("sigma-min", m == q, "square"):
        with np.errstate(divide="ignore"):     # singular preshape: 1/sigma_min = inf
            inv_smin = 1.0 / np.linalg.svd(z, compute_uv=False)[:, -1]
        suite.reports.append(
            ks_test(inv_smin, lambda v: inv_sigma_min_cdf(v, m), name="sigma-min-ks"))
    if runs("hemisphere", m == q == 2, "m=2, k=3"):
        height, lon = _hemisphere_marginals(z)
        suite.reports.append(
            ks_test(height, lambda v: min(max(2.0 * v, 0.0), 1.0), name="height-ks"))
        suite.reports.append(
            ks_test(lon, lambda v: min(max(v / (2.0 * math.pi), 0.0), 1.0),
                    name="longitude-ks"))
    return suite
