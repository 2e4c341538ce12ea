import math

import mpmath
import numpy as np
import pytest
from scipy import integrate, special, stats

from trishape import specfun, uniformity

RNG = np.random.default_rng(5150)


# ---------------------------------------------------------------------------
# regularized incomplete beta


def test_betainc_endpoints_and_uniform_case():
    assert specfun.betainc_reg(2.0, 3.0, 0.0) == 0.0
    assert specfun.betainc_reg(2.0, 3.0, 1.0) == 1.0
    assert abs(specfun.betainc_reg(1.0, 1.0, 0.75) - 0.75) < 1e-15


def test_betainc_against_scipy():
    for _ in range(300):
        a = RNG.uniform(0.2, 60.0)
        b = RNG.uniform(0.2, 60.0)
        x = RNG.uniform()
        mine = specfun.betainc_reg(a, b, x)
        ref = special.betainc(a, b, x)
        assert abs(mine - ref) <= 1e-12 * max(1.0, abs(ref)) + 1e-14


def test_betainc_symmetry():
    for _ in range(100):
        a, b = RNG.uniform(0.5, 20.0, size=2)
        x = RNG.uniform()
        assert abs(specfun.betainc_reg(a, b, x)
                   - (1.0 - specfun.betainc_reg(b, a, 1.0 - x))) < 1e-12


def test_betainc_rejects_bad_args():
    with pytest.raises(ValueError):
        specfun.betainc_reg(-1.0, 2.0, 0.5)
    with pytest.raises(ValueError):
        specfun.betainc_reg(1.0, 2.0, 1.5)
    # NaN fails each range check, not the continued fraction after it
    for args in ((math.nan, 2.0, 0.5), (1.0, math.nan, 0.5), (1.0, 2.0, math.nan)):
        with pytest.raises(ValueError, match="must"):
            specfun.betainc_reg(*args)


def test_exact_probabilities_accept_numpy_integers():
    for n in (2, 3, 12, 40):
        assert specfun.obtuse_probability_ndim(np.int64(n)) == specfun.obtuse_probability_ndim(n)
        assert specfun.acute_probability_ndim(np.int32(n)) == specfun.acute_probability_ndim(n)
        assert (specfun.squared_side_marginal_cdf(np.int16(n), 0.4)
                == specfun.squared_side_marginal_cdf(n, 0.4))
    for bad in (1, 2.0, np.float64(3.0), "3"):
        with pytest.raises(ValueError, match="^n must be an integer >= 2, got"):
            specfun.obtuse_probability_ndim(bad)


# ---------------------------------------------------------------------------
# upper incomplete gamma / chi-square tail


def test_gamma_q_basics():
    assert specfun.gamma_q(2.5, 0.0) == 1.0
    # chi-square df=2 tail is exp(-x/2)
    assert abs(specfun.gamma_q(1.0, math.log(2.0)) - 0.5) < 1e-14
    for args in ((math.nan, 1.0), (1.0, math.nan), (0.0, 1.0), (1.0, -1.0)):
        with pytest.raises(ValueError, match="must"):
            specfun.gamma_q(*args)


def test_gamma_q_at_infinity_and_non_finite_shapes():
    # Q(s, inf) = 0 at once, where the continued fraction used to stall
    for s in (0.5, 1.0, 2.0, 37.5):
        assert specfun.gamma_q(s, math.inf) == 0.0
    assert uniformity.chi2_upper_tail(math.inf, 3.0) == 0.0
    with pytest.raises(ValueError, match="finite"):
        specfun.gamma_q(math.inf, 1.0)
    for args in ((math.inf, 1.0, 0.5), (1.0, math.inf, 0.5)):
        with pytest.raises(ValueError, match="finite"):
            specfun.betainc_reg(*args)


def test_gamma_q_against_scipy():
    for _ in range(300):
        s = RNG.uniform(0.1, 80.0)
        x = RNG.uniform(0.0, 160.0)
        mine = specfun.gamma_q(s, x)
        ref = special.gammaincc(s, x)
        assert abs(mine - ref) <= 1e-12 * max(1.0, abs(ref)) + 1e-14


def test_chi2_tail_quantile_by_quadrature():
    # independent oracle: integrate the chi-square density directly
    df, x = 5.0, 11.07
    dens = lambda t: t ** (df / 2 - 1) * math.exp(-t / 2) / (2 ** (df / 2) * math.gamma(df / 2))
    ref, _ = integrate.quad(dens, x, np.inf)
    mine = specfun.gamma_q(df / 2, x / 2)
    assert abs(mine - ref) < 1e-10
    assert abs(mine - 0.05) < 1e-3


# ---------------------------------------------------------------------------
# Gauss hypergeometric


def test_2f1_trivial_values():
    assert specfun.gauss_2f1(1.3, 2.2, 0.7, 0.0) == 1.0
    assert specfun.gauss_2f1(0.0, 2.2, 0.7, -0.5) == 1.0
    assert specfun.gauss_2f1(1.3, 0.0, 0.7, 0.3) == 1.0


def test_2f1_log_identity():
    # 2F1(1, 1; 2; z) = -log(1 - z)/z, so at z = -1 it equals log 2
    assert abs(specfun.gauss_2f1(1.0, 1.0, 2.0, -1.0) - math.log(2.0)) < 1e-12
    # direct series-summation oracle (conditionally convergent alternating sum)
    partial = sum((-1.0) ** n / (n + 1.0) for n in range(2_000_000))
    assert abs(specfun.gauss_2f1(1.0, 1.0, 2.0, -1.0) - partial) < 1e-6


def test_2f1_binomial_identity_family():
    # 2F1(a, b; b; z) = (1 - z)^(-a) covers the m=2 density parameters
    for z in [-500.0, -37.0, -2.5, -1.0, -0.4, 0.0, 0.5, 0.85]:
        mine = specfun.gauss_2f1(0.5, 2.0, 2.0, z)
        assert abs(mine - (1.0 - z) ** -0.5) < 1e-12 * max(1.0, (1.0 - z) ** -0.5)


def test_2f1_against_scipy_density_family():
    # the parameter family used by the smallest-singular-value density
    for m in (2, 3, 4, 6):
        a, b, c = (m - 1) / 2.0, m / 2.0 + 1.0, (m * m + m) / 2.0 - 1.0
        for z in [-300.0, -50.0, -5.0, -1.7, -1.0, -0.5, -0.05, 0.4]:
            mine = specfun.gauss_2f1(a, b, c, z)
            ref = float(special.hyp2f1(a, b, c, z))
            assert abs(mine - ref) <= 1e-10 * max(1.0, abs(ref))


def test_2f1_route_overlap_bands():
    # series vs Pfaff agree where both converge; production vs scipy on [-1.1, -0.8]
    for z in np.linspace(-0.99, -0.8, 25):
        s = specfun._hyp2f1_series(0.8, 1.7, 2.9, z)
        p = specfun._hyp2f1_pfaff(0.8, 1.7, 2.9, z)
        assert abs(s - p) < 1e-9 * max(1.0, abs(s))
    for z in np.linspace(-1.1, -0.8, 25):
        mine = specfun.gauss_2f1(0.8, 1.7, 2.9, z)
        ref = float(special.hyp2f1(0.8, 1.7, 2.9, z))
        assert abs(mine - ref) < 1e-9 * max(1.0, abs(ref))
    # Pfaff vs expansion at infinity on the handover band
    for z in np.linspace(-3.0, -2.0, 11):
        p = specfun._hyp2f1_pfaff(0.5, 2.0, 3.5, z)
        u, v = specfun._hyp2f1_at_infinity(0.5, 2.0, 3.5, z)
        i = (-z) ** -0.5 * u + (-z) ** -2.0 * v
        assert abs(p - i) < 1e-10 * max(1.0, abs(p))


def test_2f1_b_minus_a_near_integer_at_large_z():
    # the expansion at infinity nearly cancels here, but Pfaff would need
    # millions of terms at z = -1e5; it stays within reach of mpmath
    b = 1.5 + 1e-6
    with mpmath.workdps(40):
        for z in (-2e3, -1e5):
            ref = mpmath.hyp2f1(0.5, b, 3.0, z)
            assert abs(specfun.gauss_2f1(0.5, b, 3.0, z) - ref) < 1e-11 * abs(ref)


def test_2f1_scaled_folds_the_power():
    # (-z)^a 2F1 on every route, for the m = 18 sigma-min density parameters
    a, b, c = 8.5, 10.0, 170.0
    with mpmath.workdps(40):
        for z in (-0.5, -1.5, -30.0, -700.0, -1e4, -1e300):
            ref = (-mpmath.mpf(z)) ** a * mpmath.hyp2f1(a, b, c, z)
            assert abs(specfun.gauss_2f1(a, b, c, z, scaled=True) - ref) < 1e-13 * abs(ref)
    limit = specfun.gauss_2f1(a, b, c, -math.inf, scaled=True)
    assert limit == pytest.approx(specfun.gauss_2f1(a, b, c, -1e300, scaled=True), rel=1e-15)
    with pytest.raises(ValueError):
        specfun.gauss_2f1(a, b, c, 0.5, scaled=True)


def test_2f1_rejects_bad_c_and_large_z():
    with pytest.raises(ValueError):
        specfun.gauss_2f1(1.0, 1.0, -2.0, 0.5)
    with pytest.raises(ValueError):
        specfun.gauss_2f1(1.0, 1.0, 2.0, 0.95)


def test_2f1_rejects_nan_and_non_finite_parameters():
    # each fails a check before any series term, also where 2F1 is the constant 1
    for a in (1.0, 0.0):
        with pytest.raises(ValueError, match="z < 0.9"):
            specfun.gauss_2f1(a, 2.0, 3.0, math.nan)
    with pytest.raises(ValueError, match="z < 0.9"):
        specfun.gauss_2f1(0.0, 2.0, 3.0, 5.0)
    for args in ((math.nan, 2.0, 3.0), (1.0, math.inf, 3.0), (1.0, 2.0, -math.inf)):
        with pytest.raises(ValueError, match="finite"):
            specfun.gauss_2f1(*args, -0.5)


# ---------------------------------------------------------------------------
# Kolmogorov tail


def test_kolmogorov_against_scipy():
    for x in [0.01, 0.3, 0.5, 0.8283, 1.0, 1.3581, 2.0, 3.0]:
        assert abs(specfun.kolmogorov_sf(x) - special.kolmogorov(x)) < 1e-10


def test_kolmogorov_rejects_nan():
    with pytest.raises(ValueError, match="must be a number"):
        specfun.kolmogorov_sf(math.nan)
    assert specfun.kolmogorov_sf(math.inf) == 0.0


def test_kolmogorov_median_quantile():
    # classical two-sided critical value at alpha = 0.05
    assert abs(specfun.kolmogorov_sf(1.3581) - 0.05) < 1e-3
    assert stats.kstwobign.sf(1.3581) == pytest.approx(specfun.kolmogorov_sf(1.3581), abs=1e-9)
