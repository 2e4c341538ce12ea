"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Statistical criteria use fixed seeds for reproducibility; tolerances
are pinned in the assertions.
"""

import math
import subprocess
import sys
import time

import numpy as np
from scipy import integrate

from trishape import conversions as conv
from trishape import core, geometry, specfun
from trishape import sampling as samp
from trishape import uniformity as uni


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {status}: {detail}")
    assert ok, f"criterion {number}: {detail}"


# ---------------------------------------------------------------------------


def test_criterion_01_roundtrip_completeness():
    n = 10_000
    m = samp.gaussian_shapes(samp.RngSeed(101).generator(), n)
    g11, g12, g22 = core._gram(m)
    sides = core._sides_from_xy((g11 - g22) / 2.0, g12)
    t0 = time.perf_counter()
    worst = 0.0
    for row in sides:
        rep = conv.roundtrip_all(conv.SquaredSides(*row), include_matrix=False)
        worst = max(worst, rep.max_discrepancy)
    elapsed = time.perf_counter() - t0
    report(1, worst < 1e-10 and elapsed < 5.0,
           f"{n} shapes, all 4-representation cycles: max discrepancy "
           f"{worst:.2e} (< 1e-10), runtime {elapsed:.2f}s (< 5s)")


def test_criterion_02_worked_example():
    t = np.array([[-2.0, 1.0, 1.0], [-1.0, -1.0, 2.0]])
    e = core.vertices_to_edges(t)
    e_ok = np.abs(e - [[-3.0, 3.0, 0.0], [-3.0, 0.0, 3.0]]).max() < 1e-12
    mv = t @ core.helmert(3).T
    me = e @ core.helmert(3).T
    mv_ok = np.abs(mv + [[math.sqrt(4.5), math.sqrt(1.5)],
                         [0.0, math.sqrt(6.0)]]).max() < 1e-12
    me_ok = np.abs(me + [[math.sqrt(18.0), 0.0],
                         [math.sqrt(4.5), math.sqrt(13.5)]]).max() < 1e-12
    rel = np.abs(mv - me @ core.EDGE_TO_VERTEX_VIEW).max()
    report(2, e_ok and mv_ok and me_ok and rel < 1e-12,
           f"edge matrix, both shape views, and the fixed rotation-scaling "
           f"relation reproduced (relation residual {rel:.2e} < 1e-12)")


def test_criterion_03_acute_fraction():
    t0 = time.perf_counter()
    est = samp.acute_probability_mc(10_000_000, seed=103)
    elapsed = time.perf_counter() - t0
    report(3, 0.2495 <= est.estimate <= 0.2505 and elapsed < 60.0,
           f"acute fraction {est.estimate:.5f} in [0.2495, 0.2505] over 1e7 "
           f"Gaussian shapes, runtime {elapsed:.1f}s (< 60s)")


def test_criterion_04_hemisphere_uniformity():
    n = 100_000
    m = samp.gaussian_shapes(samp.RngSeed(104).generator(), n)
    g11, g12, g22 = core._gram(m)
    x, y = (g11 - g22) / 2.0, g12
    height = np.sqrt(np.maximum(0.25 - (x * x + y * y), 0.0))
    lon = np.mod(np.arctan2(y, x), 2.0 * math.pi)
    s2 = core._sides_from_xy(x, y)
    area = np.sqrt(np.maximum(1.0 - 2.0 * (s2**2).sum(axis=1), 0.0)) / 4.0
    pvals = {
        "height": uni.ks_test(2.0 * height, lambda v: v).p_value,
        "longitude": uni.ks_test(lon / (2 * math.pi), lambda v: v).p_value,
        "side_a": uni.ks_test(1.5 * s2[:, 0], lambda v: v).p_value,
        "side_b": uni.ks_test(1.5 * s2[:, 1], lambda v: v).p_value,
        "side_c": uni.ks_test(1.5 * s2[:, 2], lambda v: v).p_value,
        "area": uni.ks_test(math.sqrt(48.0) * area, lambda v: v).p_value,
    }
    ok = all(p >= 0.01 for p in pvals.values())
    detail = ", ".join(f"{k} p={p:.3f}" for k, p in pvals.items())
    report(4, ok, f"KS uniformity on 1e5 Gaussian shapes at alpha=0.01: {detail}")


def test_criterion_05_radius_shadow():
    n = 100_000
    lat, _ = samp.uniform_hemisphere_batch(samp.RngSeed(105).generator(), n)
    r = np.cos(lat) / 2.0
    edges = np.linspace(0.0, 0.5, 51)
    counts = np.histogram(r, bins=edges)[0]
    cdf = 1.0 - np.sqrt(np.maximum(1.0 - 4.0 * edges**2, 0.0))
    expected = n * np.diff(cdf)
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    p = uni.chi2_upper_tail(chi2, 49.0)
    report(5, p >= 0.01,
           f"radius histogram vs 4r/sqrt(1-4r^2) over 50 bins: chi2={chi2:.1f}, "
           f"p={p:.3f} >= 0.01")


def test_criterion_06_ndim_obtuse_probability():
    exact2 = specfun.obtuse_probability_ndim(2)
    vals = {n: specfun.obtuse_probability_ndim(n) for n in (12, 26, 40)}
    analytic_ok = (abs(exact2 - 0.75) < 1e-12
                   and round(vals[12], 2) == 0.10
                   and round(vals[26], 2) == 0.01
                   and round(vals[40], 3) == 0.001)
    mc_ok = True
    mc_detail = []
    for n in (3, 12):
        est = samp.obtuse_fraction_ndim_mc(n, 1_000_000, seed=106 + n)
        diff = abs(est.estimate - specfun.obtuse_probability_ndim(n))
        mc_ok = mc_ok and diff <= 3.0 * est.stderr
        mc_detail.append(f"n={n}: |mc-analytic|={diff:.2e} <= 3se={3 * est.stderr:.2e}")
    report(6, analytic_ok and mc_ok,
           f"analytic 0.75/{vals[12]:.4f}/{vals[26]:.4f}/{vals[40]:.5f} match rounded "
           f"claims; MC: {'; '.join(mc_detail)}")


def test_criterion_07_hopf_equivariance():
    rng = samp.RngSeed(107).generator()
    worst = 0.0
    for _ in range(1000):
        q = rng.standard_normal(4)
        quat = conv.UnitQuaternion(*(q / np.linalg.norm(q)))
        m = rng.standard_normal((2, 2))
        worst = max(worst, conv.hopf_equivariance_check(quat, m / np.linalg.norm(m)))
    report(7, worst < 1e-11,
           f"max residual of Hopf(Q4 M) - Q3 Hopf(M) over 1e3 pairs: {worst:.2e} < 1e-11")


def test_criterion_08_three_similar_triangles():
    rng = samp.RngSeed(108).generator()
    worst_ratio = 0.0
    worst_foot = 0.0
    n_done = 0
    while n_done < 1000:
        m = rng.standard_normal((2, 2))
        s = conv.shape_to_sides(m / np.linalg.norm(m))
        if geometry.area(s) < 1e-4:
            continue   # nondegenerate shapes only
        n_done += 1
        abc = np.sort(s.lengths())
        res = geometry.construct_in_hemisphere(s)
        p = res.foot[:2]
        for tri in res.triangles:
            lengths = np.sort([np.linalg.norm(tri[0] - tri[1]),
                               np.linalg.norm(tri[0] - tri[2]),
                               np.linalg.norm(tri[1] - tri[2])])
            ratios = lengths / abc
            worst_ratio = max(worst_ratio, float(np.abs(ratios / ratios.mean() - 1.0).max()))
            u, v = tri[1][:2], tri[2][:2]
            d = (v - u) / np.linalg.norm(v - u)
            foot = u + ((p - u) @ d) * d
            worst_foot = max(worst_foot, float(np.linalg.norm(foot - p)))
    report(8, worst_ratio < 1e-9 and worst_foot < 1e-10,
           f"1e3 shapes: side-ratio error {worst_ratio:.2e} < 1e-9, "
           f"altitude-foot residual {worst_foot:.2e} < 1e-10")


def test_criterion_09_special_triangle_tables():
    ok = True
    notes = []
    # right family: area and tabulated squared sides
    worst_area = worst_table = 0.0
    for k in np.linspace(1e-3, 0.125, 100):
        disk, sides = geometry.special_triangle("right", k)
        worst_area = max(worst_area, abs(geometry.area(sides) - k))
        arr = np.sort(sides.as_array())
        off = math.sqrt(1.0 - 64.0 * k * k) / 4.0
        worst_table = max(worst_table, abs(arr[2] - 0.5),
                          abs(arr[1] - (0.25 + off)), abs(arr[0] - (0.25 - off)))
    ok &= worst_area < 1e-10 and worst_table < 1e-12
    notes.append(f"right: area err {worst_area:.1e}, table err {worst_table:.1e}")
    # isosceles families
    for kind, two, third in (("isosceles_sharp", 1.0, -2.0), ("isosceles_flat", -1.0, 2.0)):
        worst_area = worst_table = 0.0
        for k in np.linspace(1e-3, geometry.EQUILATERAL_AREA, 100):
            disk, sides = geometry.special_triangle(kind, k)
            worst_area = max(worst_area, abs(geometry.area(sides) - k))
            arr = np.sort(sides.as_array())
            pair = (1.0 + two * disk.r) / 3.0
            odd = (1.0 + third * disk.r) / 3.0
            expected = np.sort([pair, pair, odd])
            worst_table = max(worst_table, float(np.abs(arr - expected).max()))
        ok &= worst_area < 1e-10 and worst_table < 1e-12
        notes.append(f"{kind}: area err {worst_area:.1e}, table err {worst_table:.1e}")
    # singular family: r pinned at 1/2 (zero area exactly) and actual-side formulas
    worst_table = 0.0
    for phi in np.linspace(0.0, 2 * math.pi, 100, endpoint=False):
        disk, sides = geometry.special_triangle("singular", 0.0, phi=phi)
        assert disk.r == 0.5
        expected = np.sort(geometry.singular_sides(phi))
        worst_table = max(worst_table, float(np.abs(np.sort(sides.lengths()) - expected).max()))
    ok &= worst_table < 1e-12
    notes.append(f"singular: side err {worst_table:.1e}")
    # small-K right-triangle expansion 8K^2 + 128K^4: residual slope 4 on log-log
    ks = np.logspace(-3.5, -2.0, 12)
    resid = [np.sort(geometry.special_triangle("right", k)[1].as_array())[0] - 8 * k * k
             for k in ks]
    slope = float(np.polyfit(np.log(ks), np.log(resid), 1)[0])
    ok &= abs(slope - 4.0) < 0.05
    notes.append(f"small-K residual slope {slope:.3f} ~ 4")
    report(9, ok, "; ".join(notes))


def test_criterion_10_broken_stick():
    est = samp.broken_stick_fraction(1_000_000, seed=110)
    diff = abs(est.estimate - samp.BROKEN_STICK_FRACTION)
    report(10, diff < 0.002,
           f"broken-stick fraction {est.estimate:.5f} within {diff:.5f} (< 0.002) "
           f"of pi/sqrt(27) = {samp.BROKEN_STICK_FRACTION:.5f} at 1e6 samples")


def test_criterion_11_uniform_angle_obtuse():
    fr = samp.class_fractions("angles", 10_000_000, seed=111)
    diff = abs(fr["obtuse"] - 0.75)
    report(11, diff <= 0.001,
           f"uniform-angle obtuse fraction {fr['obtuse']:.5f} within {diff:.5f} "
           f"(<= 0.001) of 3/4 at 1e7 samples")


def test_criterion_12_angle_density():
    # permutation symmetry, exact
    rng = samp.RngSeed(112).generator()
    sym_worst = 0.0
    for _ in range(100):
        a = samp.uniform_angles_batch(rng, 1)[0]
        perms = [samp.angle_density((a[i], a[j], a[k]))
                 for i, j, k in ((0, 1, 2), (1, 0, 2), (2, 1, 0),
                                 (0, 2, 1), (1, 2, 0), (2, 0, 1))]
        sym_worst = max(sym_worst, max(perms) - min(perms))
    # normalization by quadrature over the barycentric bins
    probs = samp.angle_bin_probabilities(bins_per_side=10)
    norm_err = abs(sum(probs.values()) - 1.0)
    # chi-square of a 1e6-sample histogram against the integrated density
    counts = samp.angle_bin_counts("gaussian", 1_000_000, seed=112)
    labels = list(counts)
    obs = np.array([counts[lab] for lab in labels], dtype=float)
    expected = 1_000_000 * np.array([probs[lab] for lab in labels])
    chi2 = float(((obs - expected) ** 2 / expected).sum())
    p = uni.chi2_upper_tail(chi2, len(labels) - 1.0)
    report(12, sym_worst < 1e-12 and norm_err < 1e-3 and p >= 0.01,
           f"permutation symmetry {sym_worst:.1e} < 1e-12; normalization error "
           f"{norm_err:.1e} < 1e-3; histogram chi2={chi2:.1f} over 100 bins, "
           f"p={p:.3f} >= 0.01")


def test_criterion_13_uniformity_tests():
    # (a) analytic zero point
    th = samp.RngSeed(113).generator().uniform(0.0, 2.0 * math.pi, 300)
    balanced = np.stack([
        np.stack([np.cos(th), -np.sin(th)], axis=-1),
        np.stack([np.sin(th), np.cos(th)], axis=-1),
    ], axis=-2) / math.sqrt(2.0)
    zero = uni.chikuse_jupp(balanced)
    zero_ok = zero.statistic < 1e-12 and zero.p_value == 1.0
    # (b) null mean of S matches the reference df within 5%
    rng = samp.RngSeed(0, stream=13).generator()
    z = rng.standard_normal((500, 1000, 2, 2))
    z /= np.linalg.norm(z.reshape(500, 1000, 4), axis=2)[:, :, None, None]
    stats_ = np.array([uni.chikuse_jupp(z[i]).statistic for i in range(500)])
    df = 2.0
    mean_ok = abs(stats_.mean() - df) < 0.05 * df
    # (c) density of 1/sigma_min integrates to one and matches an MC histogram
    integral, _ = integrate.quad(uni.inv_sigma_min_density, math.sqrt(2.0), np.inf,
                                 args=(2,), limit=300)
    zz = samp.gaussian_shapes(samp.RngSeed(213).generator(), 100_000)
    tt = 1.0 / np.linalg.svd(zz, compute_uv=False)[:, -1]
    qs = np.linspace(0.0, 1.0, 41)
    edges = np.empty(41)
    edges[0], edges[-1] = math.sqrt(2.0), np.inf
    for i, pq in enumerate(qs[1:-1], start=1):
        edges[i] = math.sqrt(2.0 * (1.0 + math.sqrt(1.0 - (1.0 - pq) ** 2))
                             / (1.0 - pq) ** 2)
    hist = np.histogram(tt, bins=edges)[0]
    chi2 = float(((hist - 2500.0) ** 2 / 2500.0).sum())
    p_hist = uni.chi2_upper_tail(chi2, 39.0)
    dens_ok = abs(integral - 1.0) < 1e-6 and p_hist >= 0.01
    # (d) a point mass at a fixed non-equilateral shape is rejected
    m0 = conv.svd_to_shape(conv.sides_to_svd(conv.SquaredSides(0.5, 0.25, 0.25)))
    point = np.broadcast_to(m0, (1000, 2, 2)).copy()
    p_reject = uni.chikuse_jupp(point).p_value
    reject_ok = p_reject < 1e-6
    report(13, zero_ok and mean_ok and dens_ok and reject_ok,
           f"zero point S={zero.statistic:.1e}, p=1; null mean S={stats_.mean():.3f} "
           f"within 5% of df={df:g}; density integral {integral:.8f}, histogram "
           f"p={p_hist:.3f}; point-mass p={p_reject:.1e} < 1e-6")


def test_criterion_14_determinism(tmp_path):
    cmd = [sys.executable, "-m", "trishape.cli", "sample", "gaussian", "-n", "2000",
           "--seed", "42", "--stream", "3"]
    outs = []
    for name in ("one.csv", "two.csv"):
        path = tmp_path / name
        proc = subprocess.run(cmd + ["--output", str(path)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(path.read_bytes())
    same = outs[0] == outs[1]
    report(14, same and len(outs[0]) > 0,
           f"repeated seeded sample command produced byte-identical files "
           f"({len(outs[0])} bytes)")
