import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, special, stats

from trishape import core, specfun, uniformity
from trishape import sampling as samp
from trishape.core import HELMERT3
from trishape.errors import INPUT_TOL, DomainError, integer

from helpers import distance_correlation


def ks_pvalue(values, cdf):
    return stats.kstest(values, cdf).pvalue


def preshape_sides(z):
    """Squared sides of (n, m, 2) triangle preshapes: the columns of z @ HELMERT3
    are the edge vectors."""
    e = z @ HELMERT3
    return (e * e).sum(axis=1)


# ---------------------------------------------------------------------------
# determinism and stream machinery


def test_same_seed_reproduces_samples():
    a = samp.gaussian_shapes(samp.RngSeed(7).generator(), 100)
    b = samp.gaussian_shapes(samp.RngSeed(7).generator(), 100)
    assert np.array_equal(a, b)
    c = samp.gaussian_shapes(samp.RngSeed(7, stream=1).generator(), 100)
    assert not np.array_equal(a, c)


def test_mc_totals_independent_of_workers():
    for workers in (1, 2, 5):
        est = samp.acute_probability_mc(200_000, seed=3, workers=workers)
        if workers == 1:
            base = est.estimate
        assert est.estimate == base


def test_iter_blocks_partition_budget_by_block_generator():
    n = 2 * samp.BLOCK_SIZE + 5
    blocks = list(samp.iter_blocks(n, (7, 3)))
    assert [c for _, c in blocks] == [samp.BLOCK_SIZE, samp.BLOCK_SIZE, 5]
    for i, (rng, _) in enumerate(blocks):
        ref = samp.RngSeed(7, 3).generator(block=i)
        assert np.array_equal(rng.standard_normal(4), ref.standard_normal(4))


@pytest.mark.parametrize("call", [
    lambda n: samp.class_fractions("gaussian", n),
    lambda n: samp.angle_bin_counts("gaussian", n),
    lambda n: samp.broken_stick_fraction(n),
    lambda n: samp.iter_blocks(n, 0),
], ids=["class_fractions", "angle_bin_counts", "broken_stick_fraction", "iter_blocks"])
@pytest.mark.parametrize("n", [100.5, 2.5, 7.5, math.nan, True, np.float64(3.0)], ids=repr)
def test_sample_count_must_be_an_integer(call, n):
    # every sampled path counts its samples through iter_blocks; a bool is not a count
    with pytest.raises(ValueError, match="^the sample count must be an integer >= 1, got"):
        call(n)


@pytest.mark.parametrize("call", [
    lambda w: samp.class_fractions("gaussian", 10, workers=w),
    lambda w: samp.angle_bin_counts("gaussian", 10, workers=w),
    lambda w: samp.broken_stick_fraction(10, workers=w),
], ids=["class_fractions", "angle_bin_counts", "broken_stick_fraction"])
@pytest.mark.parametrize("workers", [0, -2, 2.5, True], ids=repr)
def test_workers_must_be_an_integer_at_least_one(call, workers):
    with pytest.raises(ValueError, match="^workers must be an integer >= 1, got"):
        call(workers)


@pytest.mark.parametrize("call", [
    lambda v: samp.hemisphere_heights(samp.RngSeed(0).generator(), 3, v),
    lambda v: samp.ndim_shapes(v, 3, samp.RngSeed(0).generator(), 2),
    lambda v: samp.ndim_shapes(3, v, samp.RngSeed(0).generator(), 2),
    lambda v: samp.class_fractions("ndim", 10, m=v),    # at the call, through check_model
], ids=["hemisphere_heights-m", "ndim_shapes-m", "ndim_shapes-k", "class_fractions-m"])
@pytest.mark.parametrize("value", [2.5, 1.5, True, np.float64(3.0)], ids=repr)
def test_sampler_dimensions_must_be_integers(call, value):
    with pytest.raises(ValueError, match="^[mk] must be an integer >= [12], got"):
        call(value)


def test_sample_count_may_be_a_numpy_integer():
    assert samp.class_fractions("gaussian", np.int64(100), seed=1)["n_samples"] == 100


# every site that takes a count, size, dimension, seed or stream: (name, least, call)
_INTEGER_SITES = {
    "iter_blocks": ("the sample count", 1, lambda v: samp.iter_blocks(v, 0)),
    "class_fractions-n": ("the sample count", 1, lambda v: samp.class_fractions("gaussian", v)),
    "class_fractions-workers": ("workers", 1,
                                lambda v: samp.class_fractions("gaussian", 10, workers=v)),
    "class_fractions-m": ("m", 1, lambda v: samp.class_fractions("ndim", 10, m=v)),
    "angle_bin_counts-n": ("the sample count", 1, lambda v: samp.angle_bin_counts("angles", v)),
    "angle_bin_counts-bins_per_side": (
        "bins_per_side", 1, lambda v: samp.angle_bin_counts("angles", 10, bins_per_side=v)),
    "broken_stick_fraction": ("the sample count", 1, lambda v: samp.broken_stick_fraction(v)),
    "hemisphere_heights-m": ("m", 1,
                             lambda v: samp.hemisphere_heights(samp.RngSeed(0).generator(), 3, v)),
    "ndim_shapes-m": ("m", 1, lambda v: samp.ndim_shapes(v, 3, samp.RngSeed(0).generator(), 2)),
    "ndim_shapes-k": ("k", 2, lambda v: samp.ndim_shapes(3, v, samp.RngSeed(0).generator(), 2)),
    "gaussian_shapes": ("n", 0, lambda v: samp.gaussian_shapes(samp.RngSeed(0).generator(), v)),
    "uniform_angles_batch": ("n", 0, lambda v: samp.uniform_angles_batch(
        samp.RngSeed(0).generator(), v)),
    "hemisphere_heights-n": ("n", 0,
                             lambda v: samp.hemisphere_heights(samp.RngSeed(0).generator(), v)),
    "ndim_shapes-n": ("n", 0, lambda v: samp.ndim_shapes(3, 3, samp.RngSeed(0).generator(), v)),
    "disk_batch": ("count", 0,
                   lambda v: samp.disk_batch("gaussian", samp.RngSeed(0).generator(), v)),
    "sides_batch": ("count", 0,
                    lambda v: samp.sides_batch("gaussian", samp.RngSeed(0).generator(), v)),
    "radius_counts": ("count", 0, lambda v: samp.radius_counts(
        "hemisphere", samp.RngSeed(0).generator(), v, 4)),
    "radius_counts-bins": ("bins", 1, lambda v: samp.radius_counts(
        "hemisphere", samp.RngSeed(0).generator(), 10, v)),
    "angle_bins": ("bins_per_side", 1, samp.angle_bins),
    "helmert": ("n", 2, core.helmert),
    "obtuse_probability_ndim": ("n", 2, specfun.obtuse_probability_ndim),
    "inv_sigma_min_cdf": ("m", 2, lambda v: uniformity.inv_sigma_min_cdf(2.0, v)),
    "as_rng_seed-seed": ("seed", 0, samp.as_rng_seed),
    "as_rng_seed-stream": ("stream", 0, lambda v: samp.as_rng_seed((0, v))),
}


_NOT_INTEGERS = {"True": True, "2.5": 2.5, "nan": math.nan, "float64(3.0)": np.float64(3.0),
                 "'3'": "3"}


@pytest.mark.parametrize("site", _INTEGER_SITES)
@pytest.mark.parametrize("bad", [*_NOT_INTEGERS, "least-1"])
def test_every_integer_argument_takes_the_one_rule(site, bad):
    name, least, call = _INTEGER_SITES[site]
    value = _NOT_INTEGERS.get(bad, least - 1)
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= {least}, got "):
        call(value)


@pytest.mark.parametrize("site", _INTEGER_SITES)
def test_every_integer_argument_takes_a_numpy_integer(site):
    _, least, call = _INTEGER_SITES[site]
    call(np.int64(least))


def test_the_integer_rule_returns_a_python_int():
    n = integer("n", np.int64(5), 0)
    assert type(n) is int and n == 5
    with pytest.raises(ValueError, match="^n must be an integer >= 0, got np.True_$"):
        integer("n", np.True_, 0)


@pytest.mark.parametrize("call", [
    lambda: samp.as_rng_seed((1.5, 2.7)), lambda: samp.as_rng_seed(True),
    lambda: samp.as_rng_seed((0, True)), lambda: samp.RngSeed(1.5),
    lambda: samp.class_fractions("gaussian", 10, seed=(1.9, 0)),
], ids=["as_rng_seed-floats", "as_rng_seed-bool", "as_rng_seed-bool-stream", "RngSeed-float",
        "class_fractions-float-seed"])
def test_a_seed_or_stream_that_is_not_an_integer_is_refused(call):
    # no float is truncated to a seed and no bool read as 0 or 1
    with pytest.raises(ValueError, match="^(seed|stream) must be an integer >= 0, got "):
        call()


def test_a_numpy_integer_seed_draws_the_python_integer_stream():
    assert samp.RngSeed(np.int64(5)) == samp.RngSeed(5)
    assert samp.as_rng_seed((np.int64(5), np.int32(3))) == samp.RngSeed(5, 3)
    for block in (None, 2):
        assert np.array_equal(samp.RngSeed(np.int64(5)).generator(block).random(8),
                              samp.RngSeed(5).generator(block).random(8))


def _dimensions(row, read=(3, 5, 12)):
    """The dimensions m a test runs a model at: those it reads, or 2 if planar."""
    return read if row.reads_m else (2,)


def test_sides_batch_models():
    # every row of the table, so a new model is covered as it is added
    rng = lambda: samp.RngSeed(8).generator()
    for model, row in samp.MODELS.items():
        m = _dimensions(row, (5,))[0]
        # an empty batch is empty, not an error
        assert list(row.counts(rng(), 0, m)) == [0] * 3
        if row.disk is None:
            with pytest.raises(ValueError, match="disk coordinates need model"):
                samp.disk_batch(model, rng(), 10)
            continue
        s2 = samp.sides_batch(model, rng(), 100, m)
        assert s2.shape == (100, 3)
        assert np.allclose(s2.sum(axis=1), 1.0)
        assert ((s2 * s2).sum(axis=1) <= 0.5 + 1e-12).all()
        assert samp.sides_batch(model, rng(), 0, m).shape == (0, 3)
    assert samp.ndim_shapes(3, 4, rng(), 0).shape == (0, 3, 3)
    with pytest.raises(ValueError, match="^m must be an integer >= 1, got 0$"):
        samp.sides_batch("ndim", rng(), 10, 0)


def test_sampler_guard_and_errors():
    with pytest.raises(ValueError):
        samp.acute_probability_mc(0)
    for n in (0, -5):
        with pytest.raises(ValueError, match="^the sample count must be an integer >= 1, got"):
            samp.iter_blocks(n, 0)   # at the call, before any block is drawn
    with pytest.raises(ValueError):
        samp.ndim_shapes(0, 3, samp.RngSeed(0).generator(), 2)
    for seed in (-1, (0, -2), (-3, 0)):
        with pytest.raises(ValueError, match="^(seed|stream) must be an integer >= 0, got -"):
            samp.iter_blocks(10, seed)   # at the call, before any block is drawn
    m = samp.gaussian_shapes(samp.RngSeed(0).generator(), 1)[0]
    assert m.shape == (2, 2) and abs(np.linalg.norm(m) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# the exponential facts behind the samplers


def test_chi2_2_is_exponential_and_ratio_uniform():
    rng = samp.RngSeed(11).generator()
    z = rng.standard_normal((20_000, 2))
    ss = (z**2).sum(axis=1)
    assert ks_pvalue(ss, lambda x: 1.0 - np.exp(-x / 2.0)) > 0.01
    e = rng.exponential(size=(20_000, 2))
    assert ks_pvalue(e[:, 0] / e.sum(axis=1), "uniform") > 0.01


# ---------------------------------------------------------------------------
# Gaussian shapes: the uniform-hemisphere facts


def test_gaussian_det_ratio_uniform():
    rng = samp.RngSeed(21).generator()
    g = rng.standard_normal((100_000, 2, 2))
    ratio = np.abs(g[:, 0, 0] * g[:, 1, 1] - g[:, 0, 1] * g[:, 1, 0]) \
        / (g**2).sum(axis=(1, 2))
    result = stats.kstest(2.0 * ratio, "uniform")
    assert result.statistic < 0.01
    assert result.pvalue > 0.01


def test_gaussian_longitude_uniform():
    m = samp.gaussian_shapes(samp.RngSeed(22).generator(), 100_000)
    g11, g12, g22 = core._gram(m)
    x, y = (g11 - g22) / 2.0, g12
    lon = np.mod(np.arctan2(y, x), 2 * np.pi)
    result = stats.kstest(lon / (2 * np.pi), "uniform")
    assert result.statistic < 0.01
    assert result.pvalue > 0.01


def test_gaussian_squared_sides_uniform_on_two_thirds():
    m = samp.gaussian_shapes(samp.RngSeed(23).generator(), 50_000)
    g11, g12, g22 = core._gram(m)
    s2 = core._sides_from_xy((g11 - g22) / 2.0, g12)
    for i in range(3):
        assert ks_pvalue(s2[:, i] * 1.5, "uniform") > 0.01


def test_gaussian_area_uniform():
    m = samp.gaussian_shapes(samp.RngSeed(24).generator(), 50_000)
    g11, g12, g22 = core._gram(m)
    s2 = core._sides_from_xy((g11 - g22) / 2.0, g12)
    k = np.sqrt(np.maximum(1.0 - 2.0 * (s2**2).sum(axis=1), 0.0)) / 4.0
    assert ks_pvalue(k * math.sqrt(48.0), "uniform") > 0.01


def test_gaussian_height_longitude_independent():
    m = samp.gaussian_shapes(samp.RngSeed(25).generator(), 100_000)
    g11, g12, g22 = core._gram(m)
    x, y = (g11 - g22) / 2.0, g12
    height = np.sqrt(np.maximum(0.25 - (x * x + y * y), 0.0))
    lon = np.mod(np.arctan2(y, x), 2 * np.pi)
    assert distance_correlation(height, lon) < 0.02


def test_distance_correlation_helper_sanity():
    rng = np.random.default_rng(0)
    x = rng.normal(size=600)
    y = rng.normal(size=600)
    # against the O(n^2) definition
    def direct(x, y):
        ax = np.abs(x[:, None] - x[None, :])
        ay = np.abs(y[:, None] - y[None, :])
        ax = ax - ax.mean(0) - ax.mean(1)[:, None] + ax.mean()
        ay = ay - ay.mean(0) - ay.mean(1)[:, None] + ay.mean()
        return math.sqrt(max((ax * ay).mean(), 0.0)
                         / math.sqrt((ax * ax).mean() * (ay * ay).mean()))
    assert abs(distance_correlation(x, y) - direct(x, y)) < 1e-10
    assert distance_correlation(x, 2 * x + 1) > 0.999


# ---------------------------------------------------------------------------
# hemisphere and angle samplers


def test_hemisphere_height_uniform_and_radius_density():
    lat, lon = samp.uniform_hemisphere_batch(samp.RngSeed(31).generator(), 50_000)
    assert ks_pvalue(np.sin(lat), "uniform") > 0.01
    r = np.cos(lat) / 2.0
    # CDF of the radius shadow: F(r) = 1 - sqrt(1 - 4 r^2)
    assert ks_pvalue(r, lambda v: 1.0 - np.sqrt(np.maximum(1 - 4 * v**2, 0.0))) > 0.01


def test_uniform_angles_marginal_and_obtuse_fraction():
    ang = samp.uniform_angles_batch(samp.RngSeed(32).generator(), 50_000)
    # Dirichlet(1,1,1) marginal has density 2(1 - x)
    assert ks_pvalue(ang[:, 0], lambda x: x * (2.0 - x)) > 0.01
    fr = samp.class_fractions("angles", 200_000, seed=33)
    assert abs(fr["obtuse"] - 0.75) < 4 * fr["obtuse_stderr"]


def test_uniform_angles_batch_of_one():
    a = samp.uniform_angles_batch(samp.RngSeed(1).generator(), 1)
    assert a.shape == (1, 3) and abs(a.sum() - 1.0) < 1e-12
    samp.SimplexAngles(*a[0])     # a valid simplex point


# ---------------------------------------------------------------------------
# classification and probabilities


def test_classify_codes_examples():
    s2 = np.array([[0.5, 0.25, 0.25], [1 / 3, 1 / 3, 1 / 3], [0.6, 0.3, 0.1]])
    codes = samp._classify_codes(samp._column_max(s2))
    assert [samp.CLASS_NAMES[c] for c in codes] == ["right", "acute", "obtuse"]


def test_acute_probability_small_run():
    est = samp.acute_probability_mc(10_000, seed=5)
    assert abs(est.estimate - 0.25) < 3 * est.stderr + 1e-9


def test_obtuse_probability_values():
    assert abs(specfun.obtuse_probability_ndim(2) - 0.75) < 1e-12
    assert round(specfun.obtuse_probability_ndim(12), 2) == 0.10
    assert round(specfun.obtuse_probability_ndim(26), 2) == 0.01
    assert round(specfun.obtuse_probability_ndim(40), 3) == 0.001
    for n in (2, 3, 7, 12, 26, 40):
        ref = 3.0 * (1.0 - special.betainc(n / 2, n / 2, 0.75))
        assert abs(specfun.obtuse_probability_ndim(n) - ref) < 1e-12
    with pytest.raises(ValueError):
        specfun.obtuse_probability_ndim(1)


@pytest.mark.parametrize("n", [3, 12, 50, 200, 2000])
def test_obtuse_probability_full_relative_precision(n):
    ref = 3.0 * special.betainc(n / 2, n / 2, 0.25)
    assert specfun.obtuse_probability_ndim(n) == pytest.approx(ref, rel=1e-10, abs=0.0)


def test_ndim_mc_agrees_with_analytic():
    for n in (2, 3, 5, 12):
        est = samp.obtuse_fraction_ndim_mc(n, 100_000, seed=6)
        assert abs(est.estimate - specfun.obtuse_probability_ndim(n)) < 4 * est.stderr


@pytest.mark.parametrize("m", [2, 3, 5, 12, 30])
def test_ndim_height_law(m):
    # twice the height has CDF s^(m-1); the longitude is uniform
    height, lon = samp.hemisphere_heights(samp.RngSeed(40 + m).generator(), 50_000, m)
    assert ks_pvalue(2.0 * height, lambda s: s ** (m - 1)) > 0.01
    assert ks_pvalue(lon / (2.0 * math.pi), lambda v: v) > 0.01


@pytest.mark.parametrize("m", [3, 5, 12])
def test_gaussian_preshape_ellipticity_law(m):
    # 2 sqrt(det G) / tr G, G the Gram matrix of a raw m x 2 Gaussian
    # preshape, has the law hemisphere_heights draws twice the height from
    z = samp.ndim_shapes(m, 3, samp.RngSeed(50 + m).generator(), 50_000)
    g = np.einsum("nij,nik->njk", z, z)
    stat = 2.0 * np.sqrt(np.maximum(np.linalg.det(g), 0.0)) / np.trace(g, axis1=1, axis2=2)
    assert ks_pvalue(stat, lambda s: s ** (m - 1)) > 0.01


@pytest.mark.parametrize("m", [3, 5, 12])
def test_ndim_sides_batch_squared_side_marginal(m):
    s2 = samp.sides_batch("ndim", samp.RngSeed(70 + m).generator(), 20_000, m)
    cdf = np.vectorize(lambda x: specfun.squared_side_marginal_cdf(m, float(x), clamp=True))
    for col in range(3):
        assert ks_pvalue(s2[:, col], cdf) > 0.01


def test_ndim_m2_is_hemisphere_and_m1_is_collinear():
    rng = lambda: samp.RngSeed(9, 3).generator(block=1)
    for a, b in zip(samp.disk_batch("ndim", rng(), 1000, 2),
                    samp.disk_batch("hemisphere", rng(), 1000)):
        assert np.array_equal(a, b)
    # height 0, so the disk radius is 1/2 exactly: collinear triangles
    height, _ = samp.hemisphere_heights(rng(), 1000, 1)
    assert not height.any()
    assert np.array_equal(np.cos(np.arcsin(2.0 * height)) / 2.0, np.full(1000, 0.5))
    assert np.allclose(np.hypot(*samp.disk_batch("ndim", rng(), 1000, 1)), 0.5,
                       rtol=0.0, atol=1e-15)
    s2 = samp.sides_batch("ndim", rng(), 1000, 1)
    assert (samp._classify_codes(samp._column_max(s2)) == 2).all()
    assert samp.class_fractions("ndim", 10_000, seed=9, m=1)["obtuse"] == 1.0


def test_ndim_squared_side_marginal():
    z = samp.ndim_shapes(3, 3, samp.RngSeed(41).generator(), 50_000)
    s2 = preshape_sides(z)
    # squared side ~ (2/3) Beta(3/2, 3/2)
    assert ks_pvalue(s2[:, 2], lambda x: special.betainc(1.5, 1.5, np.clip(1.5 * x, 0, 1))) > 0.01
    # same check through the package CDF
    assert ks_pvalue(s2[:, 0],
                     lambda x: specfun.squared_side_marginal_cdf(3, float(np.clip(x, 0, 2 / 3)))
                     if np.isscalar(x) else
                     np.array([specfun.squared_side_marginal_cdf(3, float(v))
                               for v in np.clip(x, 0, 2 / 3)])) > 0.01


def test_squared_side_marginal_cdf_values():
    assert abs(specfun.squared_side_marginal_cdf(2, 0.4) - 0.6) < 1e-12
    assert specfun.squared_side_marginal_cdf(5, 2 / 3) == 1.0
    assert abs(specfun.squared_side_marginal_cdf(4, 1 / 3) - 0.5) < 1e-12
    for bad in (0.7, math.nan):
        with pytest.raises(DomainError):
            specfun.squared_side_marginal_cdf(4, bad)
    assert specfun.squared_side_marginal_cdf(4, 0.7, clamp=True) == 1.0


# ---------------------------------------------------------------------------
# angle density


def test_angle_density_permutation_symmetric():
    rng = np.random.default_rng(51)
    for _ in range(50):
        a = samp.uniform_angles_batch(rng, 1)[0]
        vals = {samp.angle_density((a[i], a[j], a[k]))
                for i, j, k in [(0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)]}
        assert max(vals) - min(vals) < 1e-12


def test_angle_density_boundary_flagged():
    assert samp.angle_density((0.0, 0.5, 0.5)) == math.inf


def jacobian_route_density(alpha, beta, gamma):
    """Oracle: assemble the full 3x3 Jacobian of the law-of-sines map and
    take det(D J D^T) / sqrt(1 - 4 r^2) literally, no simplification."""
    from trishape.core import HELMERT3

    ang = np.array([alpha, beta, gamma])
    sin2 = np.sin(np.pi * ang) ** 2
    sigma = sin2.sum()
    p = np.sin(2 * np.pi * ang)
    jac = np.diag(p) / sigma - np.outer(sin2, p) / sigma**2
    dj = HELMERT3 @ jac @ HELMERT3.T
    s = sin2 / sigma
    x = (s[0] + s[1]) / 2 - s[2]
    y = math.sqrt(3) / 2 * (s[0] - s[1])
    return abs(np.linalg.det(dj)) / math.sqrt(1.0 - 4.0 * (x * x + y * y))


def test_angle_density_matches_jacobian_route():
    rng = np.random.default_rng(52)
    for _ in range(200):
        a = samp.uniform_angles_batch(rng, 1)[0]
        if a.min() < 1e-3:
            continue
        mine = samp.angle_density(tuple(a))
        ref = jacobian_route_density(*a)
        assert abs(mine - ref) < 1e-10 * max(1.0, ref)
    # the closed form also pins the equilateral value and corner asymptote
    assert abs(samp.angle_density((1 / 3, 1 / 3, 1 / 3)) - 4 / 27) < 1e-14
    d = 1e-7
    corner = samp.angle_density((d, d, 1 - 2 * d))
    assert abs(corner * d - 1 / (9 * math.sqrt(3) * math.pi)) < 1e-5


def test_angle_density_normalization():
    probs = samp.angle_bin_probabilities(bins_per_side=10)
    assert len(probs) == 100
    assert abs(sum(probs.values()) - 1.0) < 1e-12
    # obtuse region (any angle over 1/2) carries 3/4 of the mass; the
    # bin edges tile the three right-angle lines exactly
    obtuse_mass = sum(
        p for (i, j, orient), p in probs.items()
        if i >= 5 or j >= 5
        or (orient == "up" and i + j <= 4) or (orient == "down" and i + j <= 3)
    )
    assert abs(obtuse_mass - 0.75) < 1e-12


def test_angle_bin_probabilities_small_n():
    assert samp.angle_bin_probabilities(bins_per_side=1) == {(0, 0, "up"): 1.0}
    probs = samp.angle_bin_probabilities(bins_per_side=2)
    assert list(probs) == samp.angle_bins(2)
    for p in probs.values():
        assert abs(p - 0.25) < 1e-15


def _relabel(label, perm, n):
    """Bin holding the angles of `label` permuted by perm; a bin is fixed by
    its lower ('up') or upper ('down') bounds on (alpha, beta, gamma)."""
    i, j, orient = label
    if orient == "up":
        b = (i, j, n - 1 - i - j)
        return (b[perm[0]], b[perm[1]], "up")
    b = (i + 1, j + 1, n - 1 - i - j)
    return (b[perm[0]] - 1, b[perm[1]] - 1, "down")


@pytest.mark.parametrize("n", [3, 7, 10])
def test_angle_bin_probabilities_sum_and_symmetry(n):
    probs = samp.angle_bin_probabilities(bins_per_side=n)
    assert len(probs) == n * n
    assert abs(math.fsum(probs.values()) - 1.0) < 1e-12
    assert min(probs.values()) > 0.0
    for perm in ((0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)):
        for label, p in probs.items():
            assert abs(probs[_relabel(label, perm, n)] - p) < 1e-13


@pytest.mark.parametrize("n,label", [(10, (3, 3, "up")), (10, (2, 5, "down")),
                                     (7, (1, 2, "down"))])
def test_angle_bin_probabilities_match_density_integral(n, label):
    i, j, orient = label
    h = 1.0 / n
    a0, b0 = i * h, j * h
    if orient == "up":
        lo, hi = (lambda a: b0), (lambda a: b0 + h - (a - a0))
    else:
        lo, hi = (lambda a: b0 + h - (a - a0)), (lambda a: b0 + h)
    ref, _ = integrate.dblquad(
        lambda b, a: samp.angle_density((a, b, 1.0 - a - b), normalized=True),
        a0, a0 + h, lo, hi, epsabs=1e-12, epsrel=1e-12)
    assert abs(samp.angle_bin_probabilities(n)[label] - ref) < 1e-8


@pytest.mark.parametrize("n", [3, 10, 25])
def test_angle_pair_tail_against_mpmath(n):
    # the Gauss-Bonnet lens area at 50 digits, with each cap normal built as a
    # vector, (2 sin t u, sqrt(3) cos t) / sqrt(3 + sin^2 t) for the disk
    # direction u of a2 or b2 (conversions._plane of its unit weight)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        r3 = mpmath.sqrt(3)

        def cap(k, uy):
            s, c = mpmath.sinpi(mpmath.mpf(k) / n), mpmath.cospi(mpmath.mpf(k) / n)
            norm = mpmath.sqrt(3 + s * s)
            return [s / norm, 2 * s * uy / norm, r3 * c / norm], s / norm

        for p in range(n):
            for q in range(n - p):
                if p == q == 0:
                    continue
                (m1, d1), (m2, d2) = cap(p, r3 / 2), cap(q, -r3 / 2)
                c = mpmath.fsum(x * y for x, y in zip(m1, m2))
                s1, s2, st = (mpmath.sqrt(1 - v * v) for v in (d1, d2, c))
                ref = (mpmath.pi - mpmath.acos((c - d1 * d2) / (s1 * s2))
                       - d1 * mpmath.acos((d2 - c * d1) / (st * s1))
                       - d2 * mpmath.acos((d1 - c * d2) / (st * s2))) / mpmath.pi
                assert abs(samp._angle_pair_tail(p, q, n) - ref) < 1e-15, (p, q)


def test_angle_bin_counts_match_index_helper():
    counts = samp.angle_bin_counts("angles", 5_000, seed=8)
    ang = samp.uniform_angles_batch(samp.RngSeed(8).generator(block=0), 5_000)
    manual = {}
    for a, b, _ in ang:
        lab = samp.angle_bin_index(a, b)
        manual[lab] = manual.get(lab, 0) + 1
    for lab, c in counts.items():
        assert manual.get(lab, 0) == c
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            samp.angle_bin_index(bad, 0.2)


def test_angle_bin_index_refuses_points_off_the_simplex():
    tol = INPUT_TOL
    for alpha, beta in [(-0.5, 0.1), (0.1, -2 * tol), (0.6, 0.6), (0.5, 0.5 + 2 * tol)]:
        with pytest.raises(ValueError, match="in the simplex"):
            samp.angle_bin_index(alpha, beta)
    # within INPUT_TOL of the simplex, a point falls in an edge bin angle_bins holds
    for alpha, beta in [(-tol, 0.1), (0.5, 0.5 + tol), (0.0, 1.0)]:
        assert samp.angle_bin_index(alpha, beta) in samp.angle_bins()


def test_angle_bins_uniform_model_flat():
    counts = samp.angle_bin_counts("angles", 100_000, seed=9)
    arr = np.array(list(counts.values()))
    assert len(arr) == 100
    expected = 1000.0
    chi2 = ((arr - expected) ** 2 / expected).sum()
    assert stats.chi2.sf(chi2, 99) > 0.01


def test_angle_histogram_matches_density_moderate():
    counts = samp.angle_bin_counts("gaussian", 200_000, seed=10)
    probs = samp.angle_bin_probabilities()
    labels = list(counts)
    obs = np.array([counts[lab] for lab in labels], dtype=float)
    exp = 200_000 * np.array([probs[lab] for lab in labels])
    chi2 = ((obs - exp) ** 2 / exp).sum()
    assert stats.chi2.sf(chi2, len(labels) - 1) > 0.01


# ---------------------------------------------------------------------------
# broken stick


def test_broken_stick_converges():
    est = samp.broken_stick_fraction(200_000, seed=12)
    assert abs(est.estimate - samp.BROKEN_STICK_FRACTION) < 4 * est.stderr


def test_broken_stick_quartic_equivalence():
    rng = samp.RngSeed(13).generator()
    e = rng.exponential(size=(5_000, 3))
    s2 = e / e.sum(axis=1)[:, None]
    quartic = (s2**2).sum(axis=1) <= 0.5
    lengths = np.sort(np.sqrt(s2), axis=1)
    raw = lengths[:, 0] + lengths[:, 1] >= lengths[:, 2]
    margin = np.abs((s2**2).sum(axis=1) - 0.5) > 1e-12
    assert np.array_equal(quartic[margin], raw[margin])


# ---------------------------------------------------------------------------
# counting from raw draws against the normalised rule

# more rows than one chunk, and not a multiple of it
_ROWS = 2 * samp.CHUNK_ROWS + 1808


def _reference_counts(model, rng, count, m):
    """Acute/right/obtuse counts by the normalised rule: unit-size squared
    sides (or angles over pi, for a model without shapes), the largest against 1/2."""
    row = samp.MODELS[model]
    if row.disk is None:
        vals = row.angles(rng, count)
    else:
        vals = samp.sides_batch(model, rng, count, m)
    d = vals.max(axis=1) - 0.5
    right = np.abs(d) <= samp.RIGHT_ANGLE_TOL
    obtuse = d > samp.RIGHT_ANGLE_TOL
    return [count - right.sum() - obtuse.sum(), right.sum(), obtuse.sum()]


@pytest.mark.parametrize("model,m", [(model, m) for model, row in samp.MODELS.items()
                                     for m in _dimensions(row)])
def test_block_counts_equal_normalised_reference(model, m):
    counts = samp.MODELS[model].counts
    for seed in range(30):
        rng = lambda: samp.RngSeed(seed, 4).generator(block=seed)
        assert list(counts(rng(), _ROWS, m)) == _reference_counts(model, rng(), _ROWS, m)


@pytest.mark.parametrize("model", [model for model, row in samp.MODELS.items() if row.radius])
def test_radius_counts_equal_histogram_of_disk_radii(model):
    edges = np.linspace(0.0, 0.5, 51)
    for seed in range(100):
        for count in (1, samp.CHUNK_ROWS - 1, samp.CHUNK_ROWS + 1, samp.BLOCK_SIZE):
            rng = lambda: samp.RngSeed(seed, 5).generator(block=count)
            ref = np.histogram(np.hypot(*samp.disk_batch(model, rng(), count)), bins=edges)[0]
            assert np.array_equal(samp.radius_counts(model, rng(), count, 50), ref)
    assert list(samp.radius_counts(model, rng(), 0, 50)) == [0] * 50


def _screened_counts(screen, rule, *rows):
    # one chunk through a float32 screen, its band rows through the float64 rule
    band = []
    counts = screen(band, *rows)
    return list(counts + rule(*map(np.concatenate, zip(*band))) if band else counts)


def _screened_heights(height, lon):
    return _screened_counts(samp._height_screen, samp._height_counts64, height, lon)


def _unfolded_height_counts(height, lon):
    # the class rule on the disk point (x, y): three times the largest squared
    # side is 1 + max(x + sqrt(3) |y|, -2x)
    r = np.sqrt(0.25 - height * height)
    x, y = r * np.cos(lon), r * np.sin(lon)
    return list(samp._class_counts(1.0 + np.maximum(x + core.SQRT3 * np.abs(y), -2.0 * x), 3.0))


@pytest.mark.parametrize("m", [2, 3, 12])
def test_folded_height_counts_equal_disk_counts(m):
    for seed in range(30):
        height, lon = samp.hemisphere_heights(samp.RngSeed(seed, 6).generator(), _ROWS, m)
        assert _screened_heights(height, lon) == _unfolded_height_counts(height, lon)


@pytest.mark.parametrize("m", [2, 3, 12])
def test_height_block_counts_in_slices_equal_whole_block(m):
    # one draw per block, classified CHUNK_ROWS rows at a time: the counts of
    # the screen on the whole block, for a count that is not a multiple of
    # CHUNK_ROWS and for count 0
    for seed in range(4):
        for count in (_ROWS, 0):
            rng = lambda: samp.RngSeed(seed, 7).generator(block=count)
            whole = _screened_heights(*samp.hemisphere_heights(rng(), count, m))
            assert list(samp._height_block_counts(rng(), count, m)) == whole
    assert list(samp._height_block_counts(rng(), 0, m)) == [0, 0, 0]


@pytest.mark.parametrize("m", [1, 2, 3, 12])
def test_height_cursors_follow_the_block_stream_layout(m, monkeypatch):
    # a block's heights are its first count doubles, drawn as uniform(0, 1/2),
    # and its longitudes the next count, as uniform(0, 2 pi); the chunks that
    # _height_block_counts classifies, joined, have those bits, and it leaves
    # the block generator where hemisphere_heights does
    bits = lambda a: np.concatenate(a).view(np.uint64)
    chunks = []
    def collect(band, *bufs):
        chunks.append(np.copy(bufs))
        return np.zeros(3, dtype=np.int64)
    monkeypatch.setattr(samp, "_height_screen", collect)
    for count in (1, samp.CHUNK_ROWS - 1, samp.CHUNK_ROWS + 1, samp.BLOCK_SIZE):
        rng = lambda: samp.RngSeed(count, 8).generator(block=m)
        ref = rng()
        u = ref.uniform(0.0, 0.5, size=count)
        height = 0.5 * (2.0 * u) ** (1.0 / (m - 1)) if m > 1 else np.zeros(count)
        lon = ref.uniform(0.0, 2.0 * math.pi, size=count)
        whole, cursors = rng(), rng()
        assert np.array_equal(bits(samp.hemisphere_heights(whole, count, m)), bits([height, lon]))
        chunks.clear()
        samp._height_block_counts(cursors, count, m)
        assert len(chunks) == -(-count // samp.CHUNK_ROWS)
        assert np.array_equal(bits([c[0] for c in chunks]), bits([height]))
        assert np.array_equal(bits([c[1] for c in chunks]), bits([lon]))
        assert ref.bit_generator.state == whole.bit_generator.state == cursors.bit_generator.state


@pytest.mark.parametrize("kernel", [
    lambda rng: samp._height_block_counts(rng, samp.BLOCK_SIZE, 12),
    lambda rng: samp._height_radius(rng, samp.BLOCK_SIZE, 50),
], ids=["counts", "radius"])
def test_height_kernels_hold_no_block_sized_array(kernel):
    # NumPy reports its buffers to tracemalloc; one float64 block is 512 KB
    rng = samp.RngSeed(9).generator(block=0)
    tracemalloc.start()
    try:
        kernel(rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < samp.BLOCK_SIZE * 8 // 2


def test_folded_height_counts_at_sector_edges():
    # the sector edges 0, 2 pi/3 and 4 pi/3, the floats either side of each,
    # and the last float below 2 pi, where height 0 is a right angle, and the
    # sector middles pi/3, pi and 5 pi/3, where heights below 1/2 are obtuse
    lons = [v for e in (0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0)
            for v in (np.nextafter(e, -1.0), e, np.nextafter(e, 7.0))]
    lons += [np.nextafter(2.0 * math.pi, 0.0), math.pi / 3.0, math.pi, 5.0 * math.pi / 3.0]
    total = np.zeros(3, dtype=np.int64)
    for h in (0.0, 0.5, 0.1, 0.4):
        for lon in lons:
            one = np.array([h]), np.array([lon])
            counts = _screened_heights(*one)
            assert counts == _unfolded_height_counts(*one)
            total += counts
    assert list(total) == [33, 10, 9]


def _rows_at_q(targets, lon):
    """Heights at which the float64 rule's q = r cos(d) - 1/4 is each target, at
    each longitude where that needs r <= 1/2, and those longitudes."""
    d = lon - (2.0 * math.pi / 3.0) * np.floor(lon * (1.5 / math.pi)) - math.pi / 3.0
    r = (0.25 + np.asarray(targets)[:, None]) / np.cos(d)
    keep = r <= 0.5
    return np.sqrt(0.25 - r[keep] ** 2), np.broadcast_to(lon, r.shape)[keep]


def test_screened_height_counts_equal_float64_rule_at_the_band():
    # the float32 screen must hand every row near the right angle to the float64
    # rule: rows at the band's edges, at the rule's right-angle tolerance and at q
    # = 0; at sector edges with h = 0 (right angles, as at m = 1; float32 rounds
    # the last float below 2 pi up to 2 pi); and at h = 1/2 and just below it.
    # Each row is classified alone, so no two errors can cancel in a total
    band = samp.SCREEN_BAND
    edges = [0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0, np.nextafter(2.0 * math.pi, 0.0)]
    lon = np.concatenate([edges, np.random.default_rng(28).uniform(0.0, 2.0 * math.pi, 400)])
    targets = [s * band * (1.0 + e) for s in (-1.0, 1.0) for e in (-1e-3, 1e-3)]
    height, lons = _rows_at_q(targets + [-1.5e-9, 0.0, 1.5e-9], lon)
    height = np.concatenate([height, np.repeat([0.0, 0.5, np.nextafter(0.5, 0.0)], lon.size)])
    lons = np.concatenate([lons, np.tile(lon, 3)])
    assert height.size > 2500
    total = np.zeros(3, dtype=np.int64)
    for row in zip(height[:, None], lons[:, None]):
        counts = _screened_heights(*row)
        assert counts == list(samp._height_counts64(*row)), row
        total += counts
    assert _screened_heights(height, lons) == list(total)
    at_edges = _screened_heights(np.zeros(4), np.array(edges))
    assert list(at_edges) == [0, 4, 0] and total[1] >= 4


@pytest.mark.parametrize("m", [1, 2, 3, 12])
def test_screened_height_counts_equal_float64_rule_on_seeded_rows(m):
    height, lon = samp.hemisphere_heights(samp.RngSeed(28, m).generator(), 10**6, m)
    for lo in range(0, height.size, samp.CHUNK_ROWS):
        chunk = height[lo:lo + samp.CHUNK_ROWS], lon[lo:lo + samp.CHUNK_ROWS]
        assert _screened_heights(*chunk) == list(samp._height_counts64(*chunk)), lo


class _Rows:
    """A stand-in generator whose standard_normal(out=...) hands out the entries of
    fixed (n, 2, 2) rows in order, as a block's draws."""

    def __init__(self, z):
        self.flat, self.at = np.ravel(z), 0

    def standard_normal(self, out):
        out.reshape(-1)[:] = self.flat[self.at:self.at + out.size]
        self.at += out.size
        return out


def _radius_rule(z, bins):
    # the float64 rule of the gaussian radius kernel: the disk radius from the raw
    # Gram entries, a flat row's clamped to 1/2, binned by np.histogram
    g11, g12, g22 = core._gram(z)
    x, y = g11 - g22, 2.0 * g12
    r = np.minimum(np.sqrt(x * x + y * y) / (2.0 * (g11 + g22)), 0.5)
    return np.histogram(r, bins=np.linspace(0.0, 0.5, bins + 1))[0], r


def _turned(gram_rows, gen):
    """(n, 2, 2) rows with the given (g11, g12, g22) Gram entries in exact arithmetic:
    a Cholesky factor turned by a random rotation or reflection and scaled by a random
    factor, so no entry is special."""
    g11, g12, g22 = (np.asarray(g) for g in gram_rows)
    chol = np.zeros((g11.size, 2, 2))
    chol[:, 0, 0] = np.sqrt(g11)
    chol[:, 0, 1] = g12 / np.sqrt(g11)
    chol[:, 1, 1] = np.sqrt(np.maximum(g22 - g12 * g12 / g11, 0.0))
    turn, _ = np.linalg.qr(gen.standard_normal((g11.size, 2, 2)))
    scale = 2.0 ** gen.uniform(-20.0, 20.0, g11.size)
    return scale[:, None, None] * (turn @ chol)


def _preshapes_at(targets, gen, per_target=8):
    """Rows whose q / s, the screened value of the gaussian class screen, is each target,
    on both branches of q = max(2 sqrt(3) |g12| - 2 g22, g22 - 3 g11).  With s = 1, g11 =
    1/2 + X and g22 = 1/2 - X for the disk point (X, Y = g12), q = max(2 sqrt(3) |Y| + 2X -
    1, -1 - 4X), and (X, Y) lies in the disk of radius 1/2."""
    rows = []
    for t in targets:
        x2 = np.full(per_target, -(1.0 + t) / 4.0)                 # second branch
        y2 = gen.uniform(-0.99, 0.99, per_target) * np.sqrt(0.25 - x2 * x2)
        x1 = gen.uniform(-(1.0 + t) / 4.0, 0.5, 4 * per_target)     # first branch
        y1 = (1.0 + t - 2.0 * x1) / (2.0 * core.SQRT3) * gen.choice([-1.0, 1.0], x1.size)
        keep = x1 * x1 + y1 * y1 < 0.25
        x = np.concatenate([x2, x1[keep][:per_target]])
        y = np.concatenate([y2, y1[keep][:per_target]])
        rows.append(_turned((0.5 + x, y, 0.5 - x), gen))
    return np.concatenate(rows)


def test_screened_gaussian_counts_equal_float64_rule_at_the_band():
    # rows at the band's edges, within 1e-5 s of the right angle, at the rule's
    # right-angle tolerance edges (|q| <= 6e-9 s) and at q = 0: each row classified
    # alone by the screen and its band equals the float64 rule, so no two errors
    # can cancel in a total
    gen = np.random.default_rng(34)
    band, tol = samp.SCREEN_BAND, 6.0 * samp.RIGHT_ANGLE_TOL
    targets = [sign * v * (1.0 + e) for sign in (-1.0, 1.0) for v in (band, tol)
               for e in (-1e-3, 0.0, 1e-3)] + [0.0] + list(gen.uniform(-1e-5, 1e-5, 60))
    z = _preshapes_at(targets, gen)
    assert z.shape[0] > 900
    q = [samp._preshape_counts(row[None]) for row in z]
    assert {int(np.argmax(c)) for c in q} == {0, 1, 2}
    total = np.zeros(3, dtype=np.int64)
    for row, want in zip(z, q):
        counts = _screened_counts(samp._gaussian_screen, samp._preshape_counts, row[None])
        assert counts == list(want), row
        total += counts
    assert _screened_counts(samp._gaussian_screen, samp._preshape_counts, z) == list(total)
    assert list(samp.MODELS["gaussian"].counts(_Rows(z), len(z), 2)) == list(total)


@pytest.mark.parametrize("bins", [1, 7, 50, 1000])
def test_screened_radius_counts_equal_float64_rule_at_the_edges(bins):
    # rows whose radius is at, or within 1e-6 of, every edge k / (2 bins), r = 0 and
    # r = 1/2 included; rows whose rule puts them in one bin go through the screen
    # together, so any row the screen puts elsewhere shows in the counts
    gen = np.random.default_rng(bins)
    edges = np.arange(bins + 1) / (2.0 * bins)
    r = np.clip((edges[:, None] + [0.0, -1e-6, 1e-6, -1e-8, 1e-8, -1e-12, 1e-12]).ravel(), 0.0, 0.5)
    r = np.repeat(r, 2)
    theta = gen.uniform(0.0, 2.0 * math.pi, r.size)     # the disk point's direction
    z = _turned((0.5 + r * np.cos(theta), r * np.sin(theta), 0.5 - r * np.cos(theta)), gen)
    _, r64 = _radius_rule(z, bins)
    assert np.abs(r64 - r).max() < 1e-12
    rule_bin = np.minimum(np.searchsorted(np.linspace(0.0, 0.5, bins + 1), r64, "right") - 1,
                          bins - 1)
    for k in np.unique(rule_bin):
        group = z[rule_bin == k]
        counts = samp.radius_counts("gaussian", _Rows(group), len(group), bins)
        assert counts[k] == len(group) and counts.sum() == len(group), k
    assert np.array_equal(samp.radius_counts("gaussian", _Rows(z), len(z), bins),
                          _radius_rule(z, bins)[0])


@pytest.mark.parametrize("count", [1, samp.CHUNK_ROWS - 1, samp.CHUNK_ROWS + 1, samp.BLOCK_SIZE])
def test_screened_gaussian_kernels_equal_float64_rules_on_seeded_blocks(count):
    for seed in range(8):
        rng = lambda: samp.RngSeed(seed, 34).generator(block=count)
        z = rng().standard_normal((count, 2, 2))
        counts = samp.MODELS["gaussian"].counts(rng(), count, 2)
        assert list(counts) == list(samp._preshape_counts(z)), seed
        for bins in (1, 7, 50, 1000):
            radius = samp.radius_counts("gaussian", rng(), count, bins)
            assert np.array_equal(radius, _radius_rule(z, bins)[0]), (seed, bins)


def test_radius_counts_keep_flat_shapes():
    # rank-one rows [[a, 3a], [b, 3b]] are flat, r = 1/2, and their float64 radius
    # may round to 1/2 + 1 ulp, past np.histogram's last edge; near rank one, r is
    # within 1e-17 of 1/2.  Every row is in the closed last bin.  At 10^6 bins the
    # screen's margin exceeds a bin, so every row takes the float64 rule and its clamp
    ab = samp.RngSeed(34).generator().standard_normal((10000, 2, 1))
    flat = np.concatenate([ab, 3.0 * ab], axis=2)
    near = flat + 1e-9 * samp.RngSeed(35).generator().standard_normal(flat.shape)
    for z in (flat, near):
        assert (_radius_rule(z, 1)[1] == 0.5).sum() > 1000      # the clamp is exercised
        for bins in (1, 7, 50, 1000, 10**6):
            counts = samp.radius_counts("gaussian", _Rows(z), len(z), bins)
            assert counts.sum() == counts[-1] == len(z), bins


# sha256 of the first 10^5 draws of each method from RngSeed(seed).generator(block=0),
# as float64 little-endian bytes, drawn by NumPy 2.4.6
_DRAW_STREAMS = {
    ("standard_normal", 0): "5b435a4b26b2a822e0121c53ce3fc9a7c1150e981ea08de4ce1926f3d8c0c690",
    ("standard_normal", 34): "a18a92d9860deb707f3587b8775ebce752750cabe0d2650ae1ca58b1d56d6df1",
    ("standard_exponential", 0):
        "70390b1d1375fd63941ff06eadd8420a3d9a4b9e0c37377e4f75d3a71228eae4",
    ("standard_exponential", 34):
        "e47de5e83f692f4a75d22977e205019890ee7f8fd601ae84ac816bc4b354a405",
}


@pytest.mark.parametrize("method,seed", sorted(_DRAW_STREAMS))
def test_numpy_draw_streams_are_the_pinned_ones(method, seed):
    # the gaussian and ndim models and preshape files draw standard_normal, the
    # angles model and the broken stick standard_exponential.  NumPy keeps the bit
    # generators' streams but may change these methods between releases (NEP 19),
    # which would move the goldens that pin their seeded outputs
    x = getattr(samp.RngSeed(seed).generator(block=0), method)(10**5)
    assert hashlib.sha256(x.astype("<f8").tobytes()).hexdigest() == _DRAW_STREAMS[method, seed], (
        f"NumPy {np.__version__} draws other {method} deviates than NumPy 2.4.6, whose "
        "seeded outputs the goldens and this test pin")


def test_broken_stick_block_equals_normalised_reference():
    for seed in range(30):
        est = samp.broken_stick_fraction(_ROWS, seed=(seed, 4))
        s2 = samp.uniform_angles_batch(samp.RngSeed(seed, 4).generator(block=0), _ROWS)
        assert round(est.estimate * _ROWS) == ((s2 * s2).sum(axis=1) <= 0.5).sum()


def _row_codes(counts_of, rows):
    # the class of each row alone: the index of its one nonzero count
    return [int(np.argmax(counts_of(row[None]))) for row in rows]


@pytest.mark.parametrize("m", [2, 3, 12])
def test_preshape_codes_unchanged_by_scale(m):
    z = samp.RngSeed(60 + m).generator().standard_normal((400, m, 2))
    codes = _row_codes(samp._preshape_counts, z)
    assert set(codes) >= {0, 2}
    for scale in (2.0**40, 2.0**-40):
        assert _row_codes(samp._preshape_counts, z * scale) == codes
        assert np.array_equal(samp._preshape_counts(z * scale), samp._preshape_counts(z))


def test_preshape_gram_equals_einsum_reference():
    # core._gram's upper-triangle entries are the einsum Gram matrices to the bit
    for m, q in ((2, 2), (3, 2), (7, 2), (3, 3), (7, 4)):
        z = samp.RngSeed(66).generator().standard_normal((5000, m, q))
        g = np.einsum("nij,nik->njk", z, z)
        j, k = np.triu_indices(q)
        assert np.array_equal(np.stack(list(core._gram(z)), axis=1), g[:, j, k])
    # and g11 + g22 is the einsum squared Frobenius norm of 2x2 preshapes
    z = samp.gaussian_shapes(samp.RngSeed(67).generator(), 25000)
    g11, _, g22 = core._gram(z)
    assert np.array_equal(g11 + g22, np.einsum("tij,tij->t", z, z))


def test_angle_codes_unchanged_by_scale():
    e = samp.RngSeed(64).generator().standard_exponential((400, 3))
    codes = _row_codes(samp._angle_counts, e)
    for scale in (2.0**40, 2.0**-40):
        assert _row_codes(samp._angle_counts, e * scale) == codes


@pytest.mark.parametrize("m", [2, 3, 7])
def test_exact_right_preshape_is_right_at_every_scale(m):
    # the columns of z @ HELMERT3 are the edge vectors, whose squared lengths
    # are the squared sides: edges (1, 0), (-1, 1), (0, -1) have 1, 2, 1, a
    # right angle; in R^m the plane is turned by a random rotation
    edges = np.zeros((m, 3))
    edges[:2] = [[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]]
    rot, _ = np.linalg.qr(samp.RngSeed(65).generator().standard_normal((m, m)))
    z = (rot @ edges) @ HELMERT3.T
    assert np.allclose(preshape_sides(z[None] / np.linalg.norm(z)), [[0.25, 0.5, 0.25]])
    for scale in (2.0**-40, 1e-7, 1.0, 3.7e5, 2.0**40):
        assert list(samp._preshape_counts(scale * z[None])) == [0, 1, 0]


@pytest.mark.parametrize("model,m", [(model, m) for model, row in samp.MODELS.items()
                                     for m in _dimensions(row, (3, 12))])
def test_class_fractions_workers_agree(model, m):
    n = 3 * samp.BLOCK_SIZE + 7
    one = samp.class_fractions(model, n, seed=66, m=m, workers=1)
    assert samp.class_fractions(model, n, seed=66, m=m, workers=2) == one
    assert (samp.broken_stick_fraction(n, seed=66, workers=2)
            == samp.broken_stick_fraction(n, seed=66, workers=1))


def test_class_fractions_rejects_bad_model_and_m():
    with pytest.raises(ValueError, match="unknown model"):
        samp.class_fractions("disk", 10)
    with pytest.raises(ValueError, match="need model 'gaussian' or 'hemisphere'"):
        samp.radius_counts("angles", samp.RngSeed(0).generator(), 10, 2)
    # at the call: n = 0 would raise "the sample count must be ..." once blocks are drawn
    with pytest.raises(ValueError, match="angle bins need model 'gaussian' or 'angles'"):
        samp.angle_bin_counts("hemisphere", 0)
    with pytest.raises(ValueError, match="^m must be an integer >= 1, got 0$"):
        samp.class_fractions("ndim", 10, m=0)


@pytest.mark.parametrize("call", [
    lambda model, m: samp.class_fractions(model, 100, seed=1, m=m),
    lambda model, m: samp.disk_batch(model, samp.RngSeed(1).generator(), 10, m),
    lambda model, m: samp.sides_batch(model, samp.RngSeed(1).generator(), 10, m),
], ids=["class_fractions", "disk_batch", "sides_batch"])
def test_m_is_checked_against_the_model(call):
    # a planar model takes m = 2 alone; a model that reads m takes integers >= 1
    for model, m in (("gaussian", 5), ("hemisphere", 3), ("gaussian", 1), ("hemisphere", 2.5)):
        with pytest.raises(ValueError, match=f"model '{model}' takes m = 2 alone"):
            call(model, m)
    for m in (2.5, 0, -1, np.float64(3.0)):
        with pytest.raises(ValueError, match="^m must be an integer >= 1, got"):
            call("ndim", m)
    for model, m in (("gaussian", 2), ("hemisphere", 2), ("ndim", 1), ("ndim", np.int64(4))):
        call(model, m)
    with pytest.raises(ValueError, match="model 'angles' takes m = 2 alone"):
        samp.class_fractions("angles", 100, m=3)


def test_angles_kernel_calls_the_module_sampler_by_name(monkeypatch):
    # a wrapper installed on the module's name, as the benchmark's tracer does,
    # sees the calls the table makes
    calls, original = [], samp.uniform_angles_batch
    monkeypatch.setattr(samp, "uniform_angles_batch",
                        lambda rng, n: calls.append(n) or original(rng, n))
    samp.angle_bin_counts("angles", 10)
    assert calls == [10]


def test_check_model_names_the_models_that_would_do():
    assert samp.check_model("ndim", "disk", m=7) is samp.MODELS["ndim"]
    with pytest.raises(ValueError, match="^unknown model: expected 'gaussian' or 'hemisphere' "
                                         "or 'angles' or 'ndim', got 'disk'$"):
        samp.check_model("disk")
    with pytest.raises(ValueError, match="^disk coordinates need model 'gaussian' or "
                                         "'hemisphere' or 'ndim', got 'angles'$"):
        samp.check_model("angles", "disk")
    # without an m to give, the models that read one do not fit
    with pytest.raises(ValueError, match="^disk coordinates need model 'gaussian' or "
                                         "'hemisphere', got 'ndim'$"):
        samp.check_model("ndim", "disk", m=None)
    with pytest.raises(ValueError, match="^--m applies to model 'ndim' only, got 'gaussian'$"):
        samp.check_model("gaussian", "reads_m", "--m applies to model")


@pytest.mark.parametrize("n", [0, -1, 2.5, True])
def test_bins_per_side_below_one_is_rejected(n):
    for call in (lambda: samp.angle_bin_counts("gaussian", 100, bins_per_side=n),
                 lambda: samp.angle_bin_probabilities(n), lambda: samp.angle_bins(n),
                 lambda: samp.angle_bin_index(0.2, 0.3, n)):
        with pytest.raises(ValueError, match="bins_per_side must be an integer >= 1"):
            call()
