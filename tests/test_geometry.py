import math

import mpmath
import numpy as np
import pytest

from trishape import cli
from trishape import conversions as conv
from trishape import core
from trishape import geometry as geo
from trishape.errors import DomainError, NotATriangleError

RNG = np.random.default_rng(314)

SIDES_345 = conv.SquaredSides(9 / 50, 16 / 50, 25 / 50)
SIDES_RIGHT_ISO = conv.SquaredSides(0.5, 0.25, 0.25)
EQUILATERAL = conv.SquaredSides(1 / 3, 1 / 3, 1 / 3)


def random_sides(min_area=0.0):
    while True:
        m = RNG.normal(size=(2, 2))
        s = conv.shape_to_sides(m / np.linalg.norm(m))
        if geo.area(s) >= min_area:
            return s


# ---------------------------------------------------------------------------
# area and angles


def test_area_examples():
    assert abs(geo.area(EQUILATERAL) - 1 / math.sqrt(48)) < 1e-15
    assert geo.area((0.5, 0.5, 0.0)) == 0.0
    assert abs(geo.area(SIDES_RIGHT_ISO) - 0.125) < 1e-15


def test_area_general_345():
    assert abs(geo.area_general(3.0, 4.0, 5.0) - 6.0) < 1e-12
    with pytest.raises(NotATriangleError):
        geo.area_general(1.0, 1.0, 5.0)


@pytest.mark.parametrize("bad", [math.inf, math.nan, -1.0])
def test_area_general_refuses_non_finite_and_negative_sides(bad):
    for sides in ((bad, 1.0, 1.0), (1.0, bad, 1.0), (1.0, 1.0, bad)):
        with pytest.raises(ValueError, match="side lengths must be finite and nonnegative"):
            geo.area_general(*sides)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_singular_sides_refuses_a_non_finite_angle(bad):
    with pytest.raises(DomainError, match="angle must be finite"):
        geo.singular_sides(bad)


def test_two_hero_forms_agree():
    for _ in range(500):
        s = random_sides()
        a, b, c = s.lengths()
        scale = RNG.uniform(0.5, 3.0)
        normalized = geo.area_general(scale * a, scale * b, scale * c) / scale**2
        assert abs(normalized - geo.area(s)) < 1e-12


def test_angles_345():
    ang = geo.angles_from_sides(SIDES_345)
    assert abs(ang.A - math.atan2(0.48, 1 - 18 / 50)) < 1e-15
    assert abs(math.tan(ang.A) - 0.75) < 1e-12
    assert abs(ang.C - math.pi / 2) < 1e-12       # denominator exactly zero
    assert abs(ang.A + ang.B + ang.C - math.pi) < 1e-10


def test_angles_equilateral_and_right_iso():
    assert np.abs(geo.angles_from_sides(EQUILATERAL).as_array() - math.pi / 3).max() < 1e-12
    ang = geo.angles_from_sides(SIDES_RIGHT_ISO)
    assert np.abs(ang.as_array() - [math.pi / 2, math.pi / 4, math.pi / 4]).max() < 1e-12


def test_angles_degenerate_patterns():
    # generic rim point: angles (0, 0, pi)
    ang = geo.angles_from_sides(conv.disk_to_sides(conv.DiskPoint(0.5, 2.0)))
    assert sorted(ang.as_array()) == pytest.approx([0.0, 0.0, math.pi], abs=1e-9)
    # collapsed pair (1/2, 1/2, 0): the (theta, pi - theta, 0) family limit
    ang = geo.angles_from_sides((0.5, 0.5, 0.0))
    assert np.abs(np.sort(ang.as_array()) - [0.0, math.pi / 2, math.pi / 2]).max() < 1e-12


def test_angle_sum_random():
    for _ in range(500):
        total = geo.angles_from_sides(random_sides()).as_array().sum()
        assert abs(total - math.pi) < 1e-10


def test_scalar_angles_are_the_batch_kernel_bit_for_bit():
    # angles_from_sides is core._sides_angles on a batch of one: seeded shapes,
    # the collapsed pair, the right isosceles and rim points give the same bits
    # as their rows of one batch
    rng = np.random.default_rng(2023)
    m = rng.normal(size=(2000, 2, 2))
    sides = [conv.shape_to_sides(x / np.linalg.norm(x)) for x in m]
    sides += [conv.SquaredSides(0.5, 0.5, 0.0), SIDES_RIGHT_ISO, SIDES_345, EQUILATERAL]
    sides += [conv.disk_to_sides(conv.DiskPoint(0.5, phi))
              for phi in np.linspace(0.0, 2.0 * math.pi, 60).tolist()]
    batch = core._sides_angles(np.array([s.as_array() for s in sides]))
    scalar = np.array([geo.angles_from_sides(s).as_array() for s in sides])
    assert scalar.tobytes() == batch.tobytes()
    assert scalar[2000].tolist() == [math.pi / 2.0, math.pi / 2.0, 0.0]


def test_angle_kernel_flat_rule_only_where_both_arguments_vanish():
    four_k = np.array([[0.0], [0.0], [1e-13], [2e-12], [-1e-13]])
    den = np.array([[0.0, 1.0, -1.0], [1e-13, -1e-13, 2e-12],
                    [-1e-13, 0.5, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    expect = np.arctan2(four_k, den)
    flat = (np.abs(four_k) <= geo.DEGENERATE_TOL) & (np.abs(den) <= geo.DEGENERATE_TOL)
    expect[flat] = math.pi / 2.0
    assert core._angles(four_k, den).tobytes() == expect.tobytes()
    assert flat.sum() == 6


# ---------------------------------------------------------------------------
# the hemisphere map's closed-form angle kernel


def hemisphere_map_rows(grid, capsys):
    """Rows (lat, lon, alpha, beta, gamma) of `plot-data hemisphere-map`."""
    capsys.readouterr()
    assert cli.main(["plot-data", "hemisphere-map", "--grid", str(grid)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "latitude,longitude,alpha,beta,gamma"
    return np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


def mp_angles(lat, lon):
    """Angles / pi at the float point (lat, lon), in 40-digit arithmetic."""
    with mpmath.workdps(40):
        lat, lon = mpmath.mpf(lat), mpmath.mpf(lon)
        num = mpmath.sin(lat) / mpmath.sqrt(3)
        return [mpmath.atan2(num, (1 + 2 * mpmath.cos(lat) * mpmath.cos(lon + o)) / 3)
                / mpmath.pi for o in (2 * mpmath.pi / 3, -2 * mpmath.pi / 3, 0)]


@pytest.mark.parametrize("grid", [2, 8, 24])
def test_hemisphere_map_interior_rows_against_mpmath(grid, capsys):
    rows = hemisphere_map_rows(grid, capsys)
    assert len(rows) == 2 * grid * grid
    for lat, lon, *ang in rows[rows[:, 0] > 0]:
        assert max(abs(float(a - b)) for a, b in zip(ang, mp_angles(lat, lon))) <= 2e-15


@pytest.mark.parametrize("grid", [2, 8, 24])
def test_hemisphere_map_rim_rows_are_exactly_degenerate(grid, capsys):
    rows = hemisphere_map_rows(grid, capsys)
    rim = rows[rows[:, 0] == 0]
    assert len(rim) == 2 * grid
    for ang in rim[:, 2:].tolist():
        assert sorted(ang) in ([0.0, 0.0, 1.0], [0.0, 0.5, 0.5])


@pytest.mark.parametrize("lat", [1e-3, 1e-6, 1e-9])
def test_hemisphere_angles_smallest_angle_near_the_rim(lat):
    lon = np.concatenate([np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False),
                          RNG.uniform(0.0, 2.0 * math.pi, 24)])
    ang = geo._hemisphere_angles(np.full(lon.shape, lat), lon) / math.pi
    for row, x in zip(ang, lon):
        i = int(np.argmin(row))
        ref = mp_angles(lat, x)[i]
        assert abs(float((row[i] - ref) / ref)) <= 1e-13


@pytest.mark.parametrize("grid", [2, 8, 24])
def test_hemisphere_map_interior_rows_match_scalar_chain(grid, capsys):
    rows = hemisphere_map_rows(grid, capsys)
    for lat, lon, *ang in rows[rows[:, 0] > 0]:
        sides = conv.hemisphere_to_sides(conv.HemispherePoint(lat, lon))
        assert np.abs(geo.angles_from_sides(sides).as_array() / math.pi - ang).max() <= 1e-13


# ---------------------------------------------------------------------------
# special triangles


def test_right_family_at_max_area():
    disk, sides = geo.special_triangle("right", 0.125)
    assert abs(disk.r - 0.25) < 1e-12
    assert np.abs(np.sort(sides.as_array()) - [0.25, 0.25, 0.5]).max() < 1e-12
    assert abs(geo.area(sides) - 0.125) < 1e-12


def test_right_family_table_formulas():
    # area sweep starts at 1e-3: Hero's formula from rounded sides has
    # absolute error ~sqrt(eps) at the rim, so smaller K is unverifiable
    for k in np.linspace(1e-3, 0.125, 100):
        disk, sides = geo.special_triangle("right", k)
        assert abs(geo.area(sides) - k) < 1e-10
        arr = np.sort(sides.as_array())
        off = math.sqrt(max(1 - 64 * k * k, 0.0)) / 4.0
        assert abs(arr[2] - 0.5) < 1e-12                 # hypotenuse
        assert abs(arr[1] - (0.25 + off)) < 1e-12
        assert abs(arr[0] - (0.25 - off)) < 1e-12
        assert disk.r >= 0.25 - 1e-12
        # the right family keeps one side-offset cosine pinned at -1/(4r),
        # which is what makes that squared side exactly 1/2
        assert abs(math.cos(disk.phi + 2 * math.pi / 3) + 1.0 / (4 * disk.r)) < 1e-9


def test_right_family_small_area_expansion():
    for k in np.logspace(-4, -2, 30):
        _, sides = geo.special_triangle("right", k)
        small = np.sort(sides.as_array())[0]
        model = 8 * k**2 + 128 * k**4
        assert abs(small - model) < 1e-3 * model + 5e-15
    # log-log slope of the residual after 8K^2 is 4 (the K^4 term)
    ks = np.logspace(-3.5, -2, 12)
    resid = []
    for k in ks:
        _, sides = geo.special_triangle("right", k)
        resid.append(np.sort(sides.as_array())[0] - 8 * k**2)
    slope = np.polyfit(np.log(ks), np.log(resid), 1)[0]
    assert abs(slope - 4.0) < 0.05


def test_isosceles_families():
    for k in np.linspace(1e-3, geo.EQUILATERAL_AREA, 100):
        disk, sides = geo.special_triangle("isosceles_sharp", k)
        r = disk.r
        arr = np.sort(sides.as_array())
        assert abs(geo.area(sides) - k) < 1e-10
        assert abs(arr[2] - (1 + r) / 3) < 1e-12 and abs(arr[1] - (1 + r) / 3) < 1e-12
        assert abs(arr[0] - (1 - 2 * r) / 3) < 1e-12
        disk, sides = geo.special_triangle("isosceles_flat", k)
        r = disk.r
        arr = np.sort(sides.as_array())
        assert abs(geo.area(sides) - k) < 1e-10
        assert abs(arr[0] - (1 - r) / 3) < 1e-12 and abs(arr[1] - (1 - r) / 3) < 1e-12
        assert abs(arr[2] - (1 + 2 * r) / 3) < 1e-12


def test_isosceles_sharp_limit_is_right_triangle():
    _, sides = geo.special_triangle("isosceles_sharp", 1e-9)
    assert abs(max(sides.as_array()) - 0.5) < 1e-6    # approaches the right-angle line


def test_singular_family():
    for phi in np.linspace(0.0, 2 * math.pi, 100, endpoint=False):
        disk, sides = geo.special_triangle("singular", 0.0, phi=phi)
        assert disk.r == 0.5
        assert geo.area(sides) < 1e-8   # rim-level Hero noise
        lengths = np.sort(sides.lengths())
        expected = np.sort(geo.singular_sides(phi))
        assert np.abs(lengths - expected).max() < 1e-12
        # longest side equals the sum of the other two
        assert abs(lengths[2] - (lengths[0] + lengths[1])) < 1e-12


def test_special_triangle_range_errors():
    with pytest.raises(DomainError):
        geo.special_triangle("right", 0.2)
    with pytest.raises(DomainError):
        geo.special_triangle("isosceles_sharp", 0.2)
    with pytest.raises(DomainError):
        geo.special_triangle("singular", 0.01)
    with pytest.raises(ValueError):
        geo.special_triangle("scalene", 0.01)


# ---------------------------------------------------------------------------
# barycentric frames and parallelians


def test_frames_relation():
    frames = geo.barycentric_frames()
    assert np.abs(frames.little + 0.5 * frames.big).max() < 1e-15
    assert np.abs(np.linalg.norm(frames.big, axis=0) - 1.0).max() < 1e-12
    assert np.abs(np.linalg.norm(frames.little, axis=0) - 0.5).max() < 1e-12


def test_little_coords_examples():
    assert np.abs(geo.little_coords(EQUILATERAL) - 1 / 3).max() < 1e-12
    assert np.abs(geo.little_coords(SIDES_RIGHT_ISO) - [0.0, 0.5, 0.5]).max() < 1e-12
    assert np.abs(geo.little_coords((0.5, 0.5, 0.0)) - [0.0, 0.0, 1.0]).max() < 1e-12


def test_sides_are_validated_once_and_used_as_validated(monkeypatch):
    # the clamp to >= +0.0 reaches the results: no -0.0, no coordinate above 1
    u = geo.parallelian_endpoints((0.5, -0.0, 0.5))[1].big_endpoints[0]
    assert math.copysign(1.0, u[1]) == 1.0
    assert geo.little_coords((0.5 + 5e-10, -5e-10, 0.5))[1] == 1.0
    checks = []
    post_init = conv.SquaredSides.__post_init__
    monkeypatch.setattr(conv.SquaredSides, "__post_init__",
                        lambda self: checks.append(post_init(self)))
    geo.construct_in_hemisphere((0.5, 0.25, 0.25))
    assert len(checks) == 1


def test_clamped_sides_are_renormalised_onto_the_simplex():
    # when the clamp raises a side, the largest gives back what it added, so the
    # sides sum to 1.  Sides at a vertex of the little triangle but for a clamped
    # -5e-10 land on it, in the closed little triangle, where the clamp alone put
    # them 1e-9 outside.  Sides the clamp leaves alone keep their bits
    assert list(geo.little_coords((0.5 + 5e-10, -5e-10, 0.5))) == [0.0, 1.0, 0.0]
    for raw, want in [((0.5 + 5e-10, -5e-10, 0.5), (0.5, 0.0, 0.5)),
                      ((-1e-9, 0.5 + 1e-9, 0.5), (0.0, 0.5, 0.5)),
                      ((0.5, 0.5, -3e-10), (0.5, 0.5, 0.0))]:
        sides = conv.SquaredSides(*raw)
        assert (sides.a2, sides.b2, sides.c2) == want, raw
        assert geo.little_coords(raw).min() >= 0.0 and sum(want) == 1.0
    for raw in [(0.17, 0.36, 0.47), (0.5, -0.0, 0.5), (0.3, 0.3, 0.4 + 5e-10)]:
        vals = conv.SquaredSides(*raw).as_array()
        assert vals.tobytes() == (np.array(raw) + 0.0).tobytes(), raw


def test_big_frame_is_the_old_literal_byte_for_byte():
    # the big frame is built from conversions._plane of the unit weights; it must
    # keep the bytes (and the layout) of the literal disk frame, axes swapped
    literal = np.array([[math.sqrt(3.0) / 2.0, -math.sqrt(3.0) / 2.0, 0.0],
                        [0.5, 0.5, -1.0]])
    frames = geo.barycentric_frames()
    assert frames.big.tobytes() == literal.tobytes()
    assert frames.big.flags.c_contiguous
    assert frames.little.tobytes() == (-0.5 * literal).tobytes()


def test_frame_change_identity():
    frames = geo.barycentric_frames()
    for _ in range(200):
        s = random_sides()
        lhs = frames.big @ s.as_array()
        rhs = frames.little @ geo.little_coords(s)
        assert np.abs(lhs - rhs).max() < 1e-12


def test_parallelian_table_right_iso():
    paras = geo.parallelian_endpoints(SIDES_RIGHT_ISO)
    u, v = paras[0].big_endpoints
    assert np.abs(u - [0.5, 0.5, 0.0]).max() < 1e-12
    assert np.abs(v - [0.5, 0.0, 0.5]).max() < 1e-12


def test_parallelians_through_centroid_for_equilateral():
    paras = geo.parallelian_endpoints(EQUILATERAL)
    lengths = []
    for para in paras:
        u, v = para.cartesian_endpoints
        # centroid (0, 0) lies on every segment
        d = v - u
        t = -(u @ d) / (d @ d)
        assert 0.0 <= t <= 1.0
        assert np.linalg.norm(u + t * d) < 1e-12
        lengths.append(np.linalg.norm(d))
    assert np.ptp(lengths) < 1e-12


def test_parallelian_frames_and_lengths():
    frames = geo.barycentric_frames()
    for _ in range(200):
        s = random_sides()
        arr = s.as_array()
        p = frames.big @ arr
        for para in geo.parallelian_endpoints(s):
            ub, vb = para.big_endpoints
            ul, vl = para.little_endpoints
            cu, cv = para.cartesian_endpoints
            # both frames name identical Cartesian points
            assert np.abs(frames.big @ ub - frames.little @ ul).max() < 1e-12
            assert np.abs(frames.big @ vb - frames.little @ vl).max() < 1e-12
            # full segment length sqrt(3) * squared-side
            assert abs(np.linalg.norm(cu - cv) - math.sqrt(3) * arr[para.index - 1]) < 1e-12
            # parallel to the matching little-triangle side
            side = np.delete(frames.little, para.index - 1, axis=1)
            side_dir = side[:, 0] - side[:, 1]
            cross = (cu - cv)[0] * side_dir[1] - (cu - cv)[1] * side_dir[0]
            assert abs(cross) < 1e-12
            # P splits the segment into pieces |omega (1/2 - s_j)|; absolute
            # values because P sits outside the little triangle for obtuse shapes
            others = np.delete(arr, para.index - 1)
            pieces = sorted([np.linalg.norm(p - cu), np.linalg.norm(p - cv)])
            expect = sorted(math.sqrt(3) * np.abs(0.5 - others))
            assert np.abs(np.array(pieces) - expect).max() < 1e-12


# ---------------------------------------------------------------------------
# hemisphere construction


def test_construction_equilateral():
    res = geo.construct_in_hemisphere(EQUILATERAL)
    assert np.abs(res.apex - [0.0, 0.0, 0.5]).max() < 1e-12
    assert abs(np.linalg.norm(res.apex - res.foot) - 0.5) < 1e-12
    x, y = res.triangles[2][1], res.triangles[2][2]
    assert abs(np.linalg.norm(x - y) - math.sqrt(3) / 3) < 1e-12


def test_construction_lengths():
    for s in (SIDES_RIGHT_ISO, SIDES_345, random_sides(1e-3)):
        a, b, c = s.lengths()
        res = geo.construct_in_hemisphere(s)
        tri = res.triangles[2]                   # the S-X-Y triangle
        sx = np.linalg.norm(tri[0] - tri[1])
        sy = np.linalg.norm(tri[0] - tri[2])
        xy = np.linalg.norm(tri[1] - tri[2])
        w = math.sqrt(3)
        assert abs(sx - w * b * c) < 1e-10
        assert abs(sy - w * a * c) < 1e-10
        assert abs(xy - w * c * c) < 1e-10
        # apex sits on the hemisphere, altitude equals sqrt(12) K
        assert abs(np.linalg.norm(res.apex) - 0.5) < 1e-12
        assert abs(res.apex[2] - math.sqrt(12) * geo.area(s)) < 1e-10


def test_three_similar_triangles_ratios():
    for s in (SIDES_345, SIDES_RIGHT_ISO, EQUILATERAL):
        abc = np.sort(s.lengths())
        tris = geo.three_similar_triangles(s)
        assert len(tris) == 3
        scales = []
        for tri in tris:
            lengths = np.sort([
                np.linalg.norm(tri[0] - tri[1]),
                np.linalg.norm(tri[0] - tri[2]),
                np.linalg.norm(tri[1] - tri[2]),
            ])
            ratios = lengths / abc
            assert np.abs(ratios / ratios.mean() - 1.0).max() < 1e-10
            scales.append(ratios.mean())
        # the three scales are omega * a, omega * b, omega * c
        assert np.abs(np.sort(scales) - math.sqrt(3) * abc).max() < 1e-10


def test_three_triangles_share_altitude_foot():
    for _ in range(100):
        s = random_sides(1e-3)
        res = geo.construct_in_hemisphere(s)
        p = res.foot[:2]
        for tri in res.triangles:
            u, v = tri[1][:2], tri[2][:2]
            d = (v - u) / np.linalg.norm(v - u)
            foot = u + ((p - u) @ d) * d
            assert np.linalg.norm(foot - p) < 1e-10


def test_two_congruent_for_isosceles():
    tris = geo.three_similar_triangles(SIDES_RIGHT_ISO)
    def sides_of(t):
        return np.sort([np.linalg.norm(t[0] - t[1]), np.linalg.norm(t[0] - t[2]),
                        np.linalg.norm(t[1] - t[2])])
    assert np.abs(sides_of(tris[1]) - sides_of(tris[2])).max() < 1e-12


def test_degenerate_construction_flagged():
    res = geo.construct_in_hemisphere((0.5, 0.5, 0.0))
    assert res.degenerate
    assert abs(res.apex[2]) < 1e-9


def test_isosceles_apex_and_foot_lie_on_the_axis():
    # a2 = b2: P_x = (sqrt(3)/2)(a2 - b2) is 0.0 itself, not a rounding of it
    for a2 in np.linspace(1 / 6, 0.5, 201).tolist():
        res = geo.construct_in_hemisphere((a2, a2, 1.0 - 2.0 * a2))
        xs = [res.apex[0], res.foot[0], *(tri[0][0] for tri in res.triangles)]
        assert all(x == 0.0 for x in xs), a2


def test_apex_height_is_sqrt12_times_the_area():
    # so it is 0.0 where the area is, and a triangle flagged degenerate has its
    # apex within sqrt(12) DEGENERATE_TOL of the rim
    for s in ((0.5, 0.5, 0.0), (0.5, -0.0, 0.5), (-0.0, 0.5, 0.5), (0.5, 0.5, -0.0)):
        res = geo.construct_in_hemisphere(s)
        assert res.degenerate and res.apex[2] == 0.0, s
    for phi in np.linspace(0.0, 2.0 * math.pi, 360, endpoint=False).tolist():
        s = conv.disk_to_sides(conv.DiskPoint(0.5, phi))
        res = geo.construct_in_hemisphere(s)
        assert res.apex[2] == math.sqrt(12.0) * geo.area(s)
        assert res.degenerate == (res.apex[2] <= math.sqrt(12.0) * geo.DEGENERATE_TOL)


# ---------------------------------------------------------------------------
# triangle-inequality equivalence


def test_triangle_inequality_three_predicates_agree():
    rng = np.random.default_rng(99)
    e = rng.exponential(size=(100_000, 3))
    s2 = e / e.sum(axis=1)[:, None]
    quartic_ok = (s2**2).sum(axis=1) <= 0.5
    lengths = np.sort(np.sqrt(s2), axis=1)
    raw_ok = lengths[:, 0] + lengths[:, 1] >= lengths[:, 2]
    # exclude razor-thin boundary cases where the two float predicates may differ
    margin = np.abs((s2**2).sum(axis=1) - 0.5) > 1e-12
    assert np.array_equal(quartic_ok[margin], raw_ok[margin])
    for row, ok in zip(s2[:200], quartic_ok[:200]):
        succeeded = True
        try:
            conv.sides_to_disk(conv.SquaredSides(*row))
        except NotATriangleError:
            succeeded = False
        assert succeeded == ok
