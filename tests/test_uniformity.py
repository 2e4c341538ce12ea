import functools
import math
import os
import subprocess
import sys
from dataclasses import astuple

import mpmath
import numpy as np
import pytest
from scipy import integrate, stats

from trishape import sampling as samp
from trishape import uniformity as uni
from trishape.specfun import kolmogorov_sf
from trishape.core import _gram
from trishape.errors import DomainError

RNG_SEED = 4242


def uniform_preshapes(t, m=2, q=2, seed=0):
    rng = samp.RngSeed(seed).generator()
    z = rng.standard_normal((t, m, q))
    return z / np.linalg.norm(z.reshape(t, -1), axis=1)[:, None, None]


def rotations(t, seed=0):
    th = samp.RngSeed(seed).generator().uniform(0, 2 * np.pi, size=t)
    return np.stack([
        np.stack([np.cos(th), -np.sin(th)], axis=-1),
        np.stack([np.sin(th), np.cos(th)], axis=-1),
    ], axis=-2)


# ---------------------------------------------------------------------------
# Chikuse-Jupp statistic


def test_chikuse_jupp_zero_point():
    # every Z^T Z equal to I/(k-1) exactly: rotations scaled to unit norm
    z = rotations(500, seed=1) / np.sqrt(2.0)
    report = uni.chikuse_jupp(z)
    assert report.statistic < 1e-12
    assert report.p_value == 1.0


def test_chikuse_jupp_k2_always_zero():
    z = uniform_preshapes(50, m=3, q=1, seed=2)
    report = uni.chikuse_jupp(z)
    assert report.statistic < 1e-12
    assert report.p_value == 1.0
    # norms off by 1e-7, inside the 1e-6 the check allows, are no evidence either
    z = uniform_preshapes(2000, m=3, q=1, seed=2) * (1.0 + 1e-7)
    report = uni.chikuse_jupp(z)
    assert (report.statistic, report.p_value) == (0.0, 1.0)


def test_chikuse_jupp_null_mean_matches_df():
    # under uniformity E[S] equals the reference df exactly at every t
    reps, t = 300, 1000
    rng = samp.RngSeed(3).generator()
    z = rng.standard_normal((reps, t, 2, 2))
    z /= np.linalg.norm(z.reshape(reps, t, 4), axis=2)[:, :, None, None]
    stats_ = np.array([uni.chikuse_jupp(z[i]).statistic for i in range(reps)])
    df = 2.0
    assert abs(stats_.mean() - df) < 5 * stats_.std() / math.sqrt(reps)
    # and the asymptotic law itself is chi-square with that df
    assert stats.kstest(stats_, "chi2", args=(df,)).pvalue > 0.01


def test_chikuse_jupp_rejects_fixed_nonequilateral_shape():
    m0 = np.diag([math.sqrt(0.75), math.sqrt(0.25)])
    z = np.broadcast_to(m0, (1000, 2, 2)).copy()
    report = uni.chikuse_jupp(z)
    assert report.p_value < 1e-6


def test_chikuse_jupp_blind_to_equilateral_point_mass():
    # the equilateral shape is the exact zero point of the second-moment
    # statistic, so this alternative is invisible to it by construction
    z = rotations(1000, seed=4) / np.sqrt(2.0)
    assert uni.chikuse_jupp(z).p_value == 1.0


def test_chikuse_jupp_rotation_invariance():
    z = uniform_preshapes(200, seed=5)
    rot = np.array([[0.6, -0.8], [0.8, 0.6]])
    s1 = uni.chikuse_jupp(z).statistic
    s2 = uni.chikuse_jupp(np.einsum("ij,tjk->tik", rot, z)).statistic
    assert abs(s1 - s2) < 1e-12


def test_chikuse_jupp_input_validation():
    with pytest.raises(ValueError):
        uni.chikuse_jupp(np.empty((0, 2, 2)))
    with pytest.raises(ValueError):
        uni.chikuse_jupp([np.eye(2) / np.sqrt(2), np.eye(3) / np.sqrt(3)])
    with pytest.raises(ValueError):
        uni.chikuse_jupp(np.ones((5, 2, 2)))   # not unit norm


@pytest.mark.parametrize("m,q", [(2, 2), (3, 3), (5, 2), (2, 4), (4, 4), (12, 12)])
def test_chikuse_jupp_equals_einsum_reference(m, q):
    # the statistic from the mean of np.einsum Gram matrices, to the bit
    z = uniform_preshapes(300, m, q, seed=m + q)
    t = len(z)
    dev = np.einsum("tij,tik->tjk", z, z).mean(axis=0) - np.eye(q) / q
    stat = (q * (q * m + 2.0) / 2.0) * t * float(np.trace(dev @ dev))
    assert uni.chikuse_jupp(z).statistic == stat


# ---------------------------------------------------------------------------
# chi-square tail


def test_chi2_upper_tail_values():
    assert uni.chi2_upper_tail(0.0, 5.0) == 1.0
    assert abs(uni.chi2_upper_tail(2 * math.log(2.0), 2.0) - 0.5) < 1e-14
    assert abs(uni.chi2_upper_tail(11.07, 5.0) - 0.05) < 1e-3
    with pytest.raises(ValueError):
        uni.chi2_upper_tail(1.0, 0.0)
    with pytest.raises(ValueError):
        uni.chi2_upper_tail(-1.0, 2.0)
    for args in ((math.nan, 2.0), (1.0, math.nan)):
        with pytest.raises(ValueError, match="must"):
            uni.chi2_upper_tail(*args)
    # in its own words, not gamma_q's about a shape parameter its caller did not pass
    with pytest.raises(ValueError, match="^degrees of freedom must be positive and finite"):
        uni.chi2_upper_tail(1.0, math.inf)


# ---------------------------------------------------------------------------
# smallest singular value density


def test_inv_sigma_min_density_support():
    assert uni.inv_sigma_min_density(1.0, 2) == 0.0
    assert uni.inv_sigma_min_density(1.4142135, 2) == 0.0
    # float sqrt(2) squares to just above 2; the (t^2 - 2) factor kills it anyway
    assert uni.inv_sigma_min_density(math.sqrt(2.0), 2) < 1e-12
    with pytest.raises(ValueError):
        uni.inv_sigma_min_density(2.0, 1)


_BELOW_ZERO = [-10.0, -1.0, -1e-300, 0.0, -np.inf]


@pytest.mark.parametrize("m", [2, 3, 8])
def test_inv_sigma_min_density_and_cdf_vanish_at_negative_t(m):
    for fn in (uni.inv_sigma_min_density, uni.inv_sigma_min_cdf):
        for t in _BELOW_ZERO:
            assert fn(t, m) == 0.0
        vals = fn(np.array(_BELOW_ZERO), m)
        assert vals.shape == (len(_BELOW_ZERO),) and not vals.any()
    # an array mixing both sides of the support keeps each value
    t = np.array([[-10.0, 10.0], [-3.0, 3.0]])
    dens = uni.inv_sigma_min_density(t, m)
    assert dens.shape == (2, 2) and dens[0, 0] == dens[1, 0] == 0.0
    assert dens[0, 1] == uni.inv_sigma_min_density(10.0, m) > 0.0
    assert uni.inv_sigma_min_cdf(t, m)[0, 1] == uni.inv_sigma_min_cdf(10.0, m)


@pytest.mark.parametrize("m", [2, 3])
def test_inv_sigma_min_density_keeps_nan(m):
    # as inv_sigma_min_cdf does, for a scalar and for each entry of an array
    assert math.isnan(uni.inv_sigma_min_density(math.nan, m))
    dens = uni.inv_sigma_min_density(np.array([math.nan, 10.0]), m)
    assert math.isnan(dens[0]) and dens[1] == uni.inv_sigma_min_density(10.0, m)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_preshape_of_a_non_finite_matrix_is_refused(bad):
    with pytest.raises(ValueError, match="^preshapes must be finite$"):
        uni.preshape([[1.0, bad], [0.5, 0.25]])


@pytest.mark.parametrize("k", [-1000, -600, 0, 600, 1000])
def test_preshape_is_exactly_scale_invariant(k):
    # the sum of squares of 2^k x leaves the doubles at |k| >= 600; its norm is not taken
    x = np.array([[0.3, -1.2, 0.05], [0.7, 0.25, -2.5]])
    assert np.array_equal(uni.preshape(np.ldexp(x, k)), uni.preshape(x))


def test_preshape_refuses_by_domain_error():
    with pytest.raises(DomainError, match="^preshapes must not be zero$"):
        uni.preshape(np.zeros((2, 3)))
    with pytest.raises(DomainError, match="^preshapes must be finite$"):
        uni.preshape([[np.inf, 1.0], [0.0, -np.inf]])


def test_inv_sigma_min_density_m2_closed_form():
    for t in (1.5, 1.9, 2.5, 4.0, 10.0, 40.0):
        closed = 2.0 * (t * t - 2.0) / (t**3 * math.sqrt(t * t - 1.0))
        assert abs(uni.inv_sigma_min_density(t, 2) - closed) < 1e-12


@pytest.mark.parametrize("m", [2, 3, 4])
def test_inv_sigma_min_density_normalizes(m):
    val, err = integrate.quad(uni.inv_sigma_min_density, math.sqrt(m), np.inf,
                              args=(m,), limit=300)
    assert abs(val - 1.0) < 1e-6


@pytest.mark.parametrize("m", [8, 12])
def test_inv_sigma_min_density_normalizes_large_m(m):
    val, _ = integrate.quad(uni.inv_sigma_min_density, math.sqrt(m), np.inf,
                            args=(m,), limit=300)
    assert abs(val - 1.0) < 1e-10


def test_inv_sigma_min_cdf():
    for t in (1.5, 2.0, 5.0):
        closed = 1.0 - 2.0 * math.sqrt(t * t - 1.0) / (t * t)
        assert abs(uni.inv_sigma_min_cdf(t, 2) - closed) < 1e-12
    ref, _ = integrate.quad(uni.inv_sigma_min_density, math.sqrt(3.0), 4.0, args=(3,))
    assert abs(uni.inv_sigma_min_cdf(4.0, 3) - ref) < 1e-9


@pytest.mark.parametrize("t", [1e160, np.inf])
def test_inv_sigma_min_cdf_m2_where_t_squared_overflows(t):
    assert uni.inv_sigma_min_cdf(t, 2) == 1.0


@pytest.mark.parametrize("m", [2, 3, 4, 5, 8, 12, 18])
def test_inv_sigma_min_density_against_mpmath(m):
    with mpmath.workdps(40):
        e = mpmath.mpf(m * (m + 1)) / 2
        const = (2 * m * mpmath.gamma(mpmath.mpf(m + 1) / 2) * mpmath.gamma(mpmath.mpf(m * m) / 2)
                 / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(e - 1)))
        for t in (2.0 * math.sqrt(m), 10.0, 1e3, 1e70, 1e200):
            tt = mpmath.mpf(t)
            ref = float(const * tt ** (1 - m * m) * (tt * tt - m) ** (e - 2)
                        * mpmath.hyp2f1(mpmath.mpf(m - 1) / 2, mpmath.mpf(m) / 2 + 1, e - 1,
                                        m - tt * tt))
            assert abs(uni.inv_sigma_min_density(t, m) - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("m", [3, 8, 18])
def test_inv_sigma_min_density_finite_everywhere(m):
    for t in math.sqrt(m) * np.logspace(1e-6, 307, 400):
        assert math.isfinite(uni.inv_sigma_min_density(t, m))


@functools.cache
def _legendre_rule(n=200):
    # Gauss-Legendre nodes and weights correct to the last bit: leggauss(200)
    # carries weight errors of about 1e-14 relative (its rule misses the
    # integral of exp(3x) over [-1, 1] by 8e-14), as large as the tolerance
    # below, so each node takes Newton steps on P_n at 40 digits
    start, _ = np.polynomial.legendre.leggauss(n)
    nodes, weights = [], []
    with mpmath.workdps(40):
        for x in map(mpmath.mpf, start[:n // 2]):
            for _ in range(3):
                p0, p1 = 1, x
                for k in range(2, n + 1):
                    p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
                dp = n * (x * p1 - p0) / (x * x - 1)
                x -= p1 / dp
            nodes.append(float(x))
            weights.append(float(2 / ((1 - x * x) * dp * dp)))
    nodes, weights = np.array(nodes), np.array(weights)
    return np.concatenate([nodes, -nodes[::-1]]), np.concatenate([weights, weights[::-1]])


def _cdf_200_node_rule(t, m):
    # the whole interval [sqrt(m)/t, 1] in x = sqrt(m)/t under one 200-node rule
    if t * t <= m:
        return 0.0
    nodes, weights = _legendre_rule()
    lo = math.sqrt(m) / t
    half = (1.0 - lo) / 2.0
    x = (1.0 + lo) / 2.0 + half * nodes
    vals = np.array([uni.inv_sigma_min_density(v, m) for v in math.sqrt(m) / x])
    return float(np.sum(weights * vals * math.sqrt(m) / x**2) * half)


def _cdf_quad(t, m):
    if t * t <= m:
        return 0.0
    r = math.sqrt(m)
    val, _ = integrate.quad(lambda x: uni.inv_sigma_min_density(r / x, m) * r / x**2,
                            r / t, 1.0, limit=500, epsabs=1e-15, epsrel=1e-13)
    return val


@pytest.mark.parametrize("m", [3, 4, 8, 12, 18])
def test_inv_sigma_min_cdf_array_matches_scalar_rule_and_quad(m):
    r = math.sqrt(m)
    # unsorted, with duplicates, values on and below the support edge, inf,
    # NaN, and x = sqrt(m)/t from 1e-12 up to 1 - 1e-6
    t = np.array([3.0 * r, 0.5 * r, 1.2 * r, np.inf, r, 3.0 * r, 30.0 * r, 1.05 * r,
                  r * 1e3, 2.0, 1.2 * r, 6.0 * r, r * 1e12, r / (1.0 - 1e-6), np.nan, -r])
    cdf = uni.inv_sigma_min_cdf(t, m)
    assert cdf.shape == t.shape
    scalar = [uni.inv_sigma_min_cdf(v, m) for v in t]
    assert all(isinstance(v, float) for v in scalar)
    assert np.array_equal(cdf, scalar, equal_nan=True)
    assert cdf[1] == cdf[4] == cdf[15] == 0.0 and cdf[3] == 1.0 and np.isnan(cdf[14])
    assert cdf[0] == cdf[5] and cdf[2] == cdf[10]
    finite = np.isfinite(t) & (t > 0.0)
    rule = np.array([_cdf_200_node_rule(v, m) for v in t[finite]])
    quad = np.array([_cdf_quad(v, m) for v in t[finite]])
    assert np.abs(cdf[finite] - rule).max() <= 1e-14
    assert np.abs(cdf[finite] - quad).max() <= 1e-14
    # the total mass of the series, which t = inf would give if not set to 1
    assert abs(uni._cdf_series(m)[1] - 1.0) <= 1e-14
    # a probability on a dense grid, down in the lower tail where the series
    # is only accurate to rounding
    dense = uni.inv_sigma_min_cdf(r / np.linspace(1e-12, 1.0, 2001), m)
    assert dense.min() >= 0.0 and dense.max() <= 1.0 and (np.diff(dense) <= 1e-15).all()
    # the 2-d layout is kept
    assert np.array_equal(uni.inv_sigma_min_cdf(t.reshape(4, 4), m), cdf.reshape(4, 4),
                          equal_nan=True)


def test_inv_sigma_min_cdf_m2_array_matches_scalar():
    t = np.array([1.5, 0.3, np.inf, 1e160, 2.0, math.sqrt(2.0), 1.5, np.nan])
    cdf = uni.inv_sigma_min_cdf(t, 2)
    assert np.array_equal(cdf, [uni.inv_sigma_min_cdf(v, 2) for v in t], equal_nan=True)
    assert cdf[1] == 0.0 and cdf[2] == 1.0 and cdf[3] == 1.0 and np.isnan(cdf[7])


def test_inv_sigma_min_histogram_matches_density():
    z = uniform_preshapes(50_000, seed=6)
    tt = 1.0 / np.linalg.svd(z, compute_uv=False)[:, -1]
    # 40 equal-probability bins from the closed-form m=2 quantile
    probs = np.linspace(0.0, 1.0, 41)
    edges = np.empty(41)
    edges[0], edges[-1] = math.sqrt(2.0), np.inf
    for i, p in enumerate(probs[1:-1], start=1):
        x = 2.0 * (1.0 + math.sqrt(1.0 - (1.0 - p) ** 2)) / (1.0 - p) ** 2
        edges[i] = math.sqrt(x)
    counts = np.histogram(tt, bins=edges)[0]
    expected = len(tt) / 40.0
    chi2 = ((counts - expected) ** 2 / expected).sum()
    assert stats.chi2.sf(chi2, 39) > 0.01


def _near_singular_2x2(seed):
    # rank-one matrices plus a perturbation of size eps, so kappa =
    # sigma_max/sigma_min runs up to about 1/eps = 1e8; each norm is then put
    # off 1 by up to 1e-6, as far as the suite's check allows; and last the
    # singular row 1,0,0,0
    rng = samp.RngSeed(seed).generator()
    blocks = []
    for eps in (1.0, 1e-2, 1e-4, 1e-6, 1e-8):
        u, v = rng.standard_normal((2, 20, 2))
        z = u[:, :, None] * v[:, None, :] + eps * rng.standard_normal((20, 2, 2))
        z /= np.linalg.norm(z.reshape(20, 4), axis=1)[:, None, None]
        blocks.append(z * (1.0 + rng.uniform(-1e-6, 1e-6, 20))[:, None, None])
    return np.concatenate([*blocks, [[[1.0, 0.0], [0.0, 0.0]]]])


def test_inv_sigma_min_2x2_closed_form_against_mpmath():
    z = _near_singular_2x2(seed=17)
    got = uni._inv_sigma_min(z, tuple(_gram(z)))
    assert got[-1] == np.inf
    kappas = []
    with mpmath.workdps(40):
        for zi, g in zip(z[:-1], got[:-1]):
            s = mpmath.svd_r(mpmath.matrix(zi.tolist()), compute_uv=False)
            kappa = float(max(s) / min(s))
            assert abs(float(g * min(s)) - 1.0) <= 1e-13 * kappa
            kappas.append(kappa)
    assert max(kappas) > 1e7
    # the suite takes the same values: the KS statistic against the closed
    # form of the CDF comes out as with LAPACK's sigma_min
    svd = 1.0 / np.linalg.svd(z[:-1], compute_uv=False)[:, -1]
    cdf = lambda v: uni.inv_sigma_min_cdf(v, 2)
    report = uni.uniformity_suite(z[:-1], which="sigma-min").reports[0]
    assert abs(report.statistic - uni.ks_test(svd, cdf).statistic) <= 1e-12


def test_sigma_min_series_built_once_and_only_above_2x2(tmp_path):
    # in a fresh interpreter: importing the CLI and testing a 2x2 file leave
    # numpy.polynomial unimported (startup time); two 3x3 runs build the
    # m = 3 series once
    code = """if True:
        import sys
        from trishape import cli, uniformity
        assert "numpy.polynomial" not in sys.modules
        for argv in (["gaussian", "-o", "p2.csv"], ["ndim", "--m", "3", "--k", "4", "-o", "p3.csv"]):
            assert cli.main(["sample", *argv, "-n", "40", "--emit", "preshapes"]) == 0
        assert cli.main(["test", "p2.csv", "-o", "r2.txt"]) in (0, 3)
        assert "numpy.polynomial" not in sys.modules
        for _ in range(2):
            assert cli.main(["test", "p3.csv", "-o", "r3.txt"]) in (0, 3)
        assert uniformity._cdf_series.cache_info().misses == 1
    """
    src = os.path.dirname(os.path.dirname(uni.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=tmp_path, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# KS test


def test_ks_quantile_samples_small_d():
    t = 1000
    samples = (np.arange(1, t + 1)) / (t + 1.0)
    report = uni.ks_test(samples, lambda x: x)
    assert report.statistic < 2.0 / t


def test_ks_null_calibration():
    rng = samp.RngSeed(7).generator()
    rejections = 0
    reps = 400
    for _ in range(reps):
        report = uni.ks_test(rng.uniform(size=400), lambda x: x)
        rejections += report.p_value < 0.1
    # binomial(400, 0.1): allow 4 sigma around the nominal rate
    assert abs(rejections / reps - 0.1) < 4 * math.sqrt(0.1 * 0.9 / reps)


def test_ks_det_ratio_uniform_non_rejection():
    rng = samp.RngSeed(8).generator()
    g = rng.standard_normal((50_000, 2, 2))
    ratio = np.abs(g[:, 0, 0] * g[:, 1, 1] - g[:, 0, 1] * g[:, 1, 0]) / (g**2).sum(axis=(1, 2))
    report = uni.ks_test(ratio, lambda v: np.clip(2.0 * v, 0.0, 1.0))
    assert report.p_value > 0.01


def test_ks_array_cdf_matches_scalar_loop():
    rng = samp.RngSeed(16).generator()
    samples = rng.gamma(2.0, size=300) + math.sqrt(3.0)
    # the same arithmetic elementwise gives the same D and p bit for bit
    array = uni.ks_test(samples, lambda v: np.clip(v / 6.0, 0.0, 1.0))
    loop = uni.ks_test(samples, lambda v: np.array([min(max(x / 6.0, 0.0), 1.0) for x in v]))
    assert (array.statistic, array.p_value) == (loop.statistic, loop.p_value)
    # and so does the sigma-min series, which evaluates each value on its own
    array = uni.ks_test(samples, lambda v: uni.inv_sigma_min_cdf(v, 3))
    loop = uni.ks_test(samples, lambda v: np.array([uni.inv_sigma_min_cdf(x, 3) for x in v]))
    assert (array.statistic, array.p_value) == (loop.statistic, loop.p_value)


def test_ks_empty_rejected():
    with pytest.raises(ValueError):
        uni.ks_test([], lambda x: x)
    with pytest.raises(ValueError, match="sample holds NaN"):
        uni.ks_test([0.1, math.nan, 0.5], lambda v: v)
    with pytest.raises(ValueError, match="CDF returned NaN"):
        uni.ks_test([0.1, 0.5], lambda v: np.where(v > 0.2, math.nan, v))
    # as is a value outside [0, 1], where D used to exceed 1 or be inf
    for cdf in (lambda v: v * 10.0, lambda v: v - 1.0, lambda v: np.where(v > 2.0, np.inf, 0.5)):
        with pytest.raises(ValueError, match=r"CDF returned NaN or a value outside \[0, 1\]"):
            uni.ks_test([1.0, 2.0, 3.0], cdf)
    # +inf stays a sample: a singular matrix has 1/sigma_min = inf, where the CDF is 1
    assert uni.ks_test([0.5, math.inf], lambda v: np.minimum(v, 1.0)).statistic == 0.5


# ---------------------------------------------------------------------------
# suite


def test_suite_uniform_passes():
    z = uniform_preshapes(20_000, seed=9)
    suite = uni.uniformity_suite(z)
    names = [r.name for r in suite.reports]
    assert names == ["chikuse-jupp", "sigma-min-ks", "height-ks", "longitude-ks"]
    assert not suite.rejected(0.01)


def test_suite_catches_equilateral_point_mass_via_sigma_min():
    z = rotations(2000, seed=10) / np.sqrt(2.0)
    suite = uni.uniformity_suite(z)
    by_name = {r.name: r for r in suite.reports}
    assert by_name["chikuse-jupp"].p_value == 1.0      # blind spot
    assert by_name["sigma-min-ks"].p_value < 1e-6      # but the spectrum test sees it
    assert suite.rejected(0.01)


@pytest.mark.parametrize("t", [5, 50, 1000])
def test_planar_sigma_min_test_is_the_height_test(t):
    # at unit norm sigma_min^2 = (1 - sqrt(1 - 4 det^2)) / 2 falls as the height |det Z|
    # rises, and a KS test does not change under a monotone map: the same D and p
    for seed in range(20):
        suite = uni.uniformity_suite(uniform_preshapes(t, seed=seed))
        by_name = {r.name: r for r in suite.reports}
        sigma, height = by_name["sigma-min-ks"], by_name["height-ks"]
        assert abs(sigma.statistic - height.statistic) <= 1e-12
        assert abs(sigma.p_value - height.p_value) <= 1e-10


def test_suite_single_sample():
    z = uniform_preshapes(1, seed=11)
    suite = uni.uniformity_suite(z)
    assert len(suite.reports) == 4
    for r in suite.reports:
        assert 0.0 <= r.p_value <= 1.0


def test_suite_nonsquare_skips_sigma_min():
    z = uniform_preshapes(100, m=3, q=4, seed=12)
    suite = uni.uniformity_suite(z)
    assert [r.name for r in suite.reports] == ["chikuse-jupp"]


def test_suite_which_runs_one_test():
    names = {"chikuse-jupp": ["chikuse-jupp"], "sigma-min": ["sigma-min-ks"],
             "hemisphere": ["height-ks", "longitude-ks"]}
    needs = {"sigma-min": "square, at most 18x18", "hemisphere": "m=2, k=3"}
    for m, q, applying in ((2, 2, ["chikuse-jupp", "sigma-min", "hemisphere"]),
                           (3, 3, ["chikuse-jupp", "sigma-min"]), (2, 4, ["chikuse-jupp"]),
                           (5, 2, ["chikuse-jupp"]), (3, 1, ["chikuse-jupp"]),
                           (18, 18, ["chikuse-jupp", "sigma-min"]), (19, 19, ["chikuse-jupp"])):
        z = uniform_preshapes(500 if m * q <= 9 else 30, m, q, seed=13)
        # 'all' is the single runs that apply, in table order, field for field
        single = [uni.uniformity_suite(z, which=which).reports for which in applying]
        assert [[r.name for r in reports] for reports in single] == [names[w] for w in applying]
        full = uni.uniformity_suite(z, which="all").reports
        assert [vars(r) for r in full] == [vars(r) for reports in single for r in reports]
        for which in names.keys() - applying:
            with pytest.raises(ValueError) as err:
                uni.uniformity_suite(z, which=which)
            assert str(err.value) == f"{which} test needs {needs[which]} preshapes, got {m}x{q}"


def test_suite_which_rejects_inapplicable_and_unknown_tests():
    z = uniform_preshapes(50, m=2, q=4, seed=14)
    for which in ("sigma-min", "hemisphere"):
        with pytest.raises(ValueError, match=f"{which} test needs"):
            uni.uniformity_suite(z, which=which)
    with pytest.raises(ValueError, match="unknown"):
        uni.uniformity_suite(z, which="bogus")


def test_sigma_min_above_18x18_is_not_applicable():
    z = uniform_preshapes(30, m=19, q=19, seed=16)
    assert [r.name for r in uni.uniformity_suite(z).reports] == ["chikuse-jupp"]
    with pytest.raises(ValueError, match="sigma-min test needs square, at most 18x18"):
        uni.uniformity_suite(z, which="sigma-min")
    for law in (uni.inv_sigma_min_cdf, uni.inv_sigma_min_density):
        with pytest.raises(ValueError, match="up to 18x18, got 19x19"):
            law(5.0, 19)
    z18 = uniform_preshapes(30, m=18, q=18, seed=16)
    assert [r.name for r in uni.uniformity_suite(z18).reports] == ["chikuse-jupp", "sigma-min-ks"]


@pytest.mark.parametrize("m,q", [(2, 2), (3, 3), (5, 2), (2, 4)])
def test_suite_computes_the_gram_once(m, q, monkeypatch):
    # the norm check and every row of TESTS read one set of Gram entries
    calls = []
    monkeypatch.setattr(uni, "_gram", lambda z: calls.append(z.shape) or _gram(z))
    z = uniform_preshapes(200, m, q, seed=26)
    uni.uniformity_suite(z, "all")
    assert calls == [(200, m, q)]
    uni.chikuse_jupp(z)
    assert calls == [(200, m, q)] * 2


def _direct_ks(name, x, cdf):
    x = np.sort(x)
    t = x.size
    f = cdf(x)
    d = float(max((np.arange(1, t + 1) / t - f).max(), (f - np.arange(0, t) / t).max(), 0.0))
    return (name, d, f"kolmogorov(sqrt(t) D), t={t}", kolmogorov_sf(math.sqrt(t) * d), t)


def _direct_suite(z):
    """The suite's reports by their direct formulas: norms from np.linalg.norm, the
    Chikuse-Jupp mean of the einsum Gram matrices, longitudes from np.mod."""
    t, m, q = z.shape
    assert np.abs(np.linalg.norm(z.reshape(t, -1), axis=1) - 1.0).max() <= 1e-6
    w = np.einsum("tij,tik->tjk", z, z)
    dev = w.mean(axis=0) - np.eye(q) / q
    stat = (q * (q * m + 2.0) / 2.0) * t * float(np.trace(dev @ dev))
    df = (q - 1) * (q + 2) / 2.0
    reports = [("chikuse-jupp", stat, f"chi2(df={df:g})", uni.chi2_upper_tail(stat, df), t)]
    if m != q:
        return reports
    with np.errstate(divide="ignore"):
        if m > 2:
            inv = 1.0 / np.linalg.svd(z, compute_uv=False)[:, -1]
        else:
            g11, g12, g22 = w[:, 0, 0], w[:, 0, 1], w[:, 1, 1]
            det = np.abs(z[:, 0, 0] * z[:, 1, 1] - z[:, 0, 1] * z[:, 1, 0])
            inv = np.sqrt((g11 + g22) / 2.0 + np.hypot((g11 - g22) / 2.0, g12)) / det
    reports.append(_direct_ks("sigma-min-ks", inv, lambda v: uni.inv_sigma_min_cdf(v, m)))
    if m == 2:
        longitude = np.mod(np.arctan2(g12, (g11 - g22) / 2.0), 2.0 * math.pi)
        reports += [_direct_ks("height-ks", det, lambda v: np.clip(2.0 * v, 0.0, 1.0)),
                    _direct_ks("longitude-ks", longitude, lambda v: v / (2.0 * math.pi))]
    return reports


def _bits(report):
    name, stat, reference, p, t = report
    return name, float(stat).hex(), reference, float(p).hex(), t


@pytest.mark.parametrize("m,q,t", [(2, 2, 25_000), (3, 3, 2000), (5, 2, 2000), (2, 4, 2000),
                                   (12, 12, 300)])
def test_suite_reports_equal_the_direct_formulas(m, q, t):
    # field for field and bit for bit, and each single run is its slice of 'all'
    z = uniform_preshapes(t, m, q, seed=26 + m * q)
    full = [_bits(astuple(r)) for r in uni.uniformity_suite(z, "all").reports]
    assert full == [_bits(r) for r in _direct_suite(z)]
    start = 0
    for which, test in uni.TESTS.items():
        if test.applies(m, q):
            single = [_bits(astuple(r)) for r in uni.uniformity_suite(z, which).reports]
            assert single == full[start:start + len(single)]
            start += len(single)
    assert start == len(full)
    assert _bits(astuple(uni.chikuse_jupp(z))) == full[0]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_suite_rejects_non_finite_preshapes(bad):
    z = uniform_preshapes(50, seed=15)
    z[7, 1, 0] = bad
    for which in (*uni.TESTS, "all"):
        with pytest.raises(ValueError, match="finite"):
            uni.uniformity_suite(z, which=which)
