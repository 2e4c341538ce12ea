import itertools
import math
import struct
from dataclasses import astuple

import numpy as np
import pytest

from trishape import conversions as conv
from trishape import core
from trishape.errors import INPUT_TOL, DomainError, NotATriangleError

RNG = np.random.default_rng(77)


def random_unit_matrix():
    m = RNG.normal(size=(2, 2))
    return m / np.linalg.norm(m)


def random_sides():
    return conv.shape_to_sides(random_unit_matrix())


def _rotation(theta):
    """2x2 counterclockwise rotation by theta, R(theta) of svd2x2_factors' M = U S R^T."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


# ---------------------------------------------------------------------------
# value types


def test_squared_sides_validation():
    with pytest.raises(NotATriangleError):
        conv.SquaredSides(0.7, 0.2, 0.1)
    with pytest.raises(DomainError):
        conv.SquaredSides(0.5, 0.4, 0.4)
    with pytest.raises(DomainError):
        conv.SquaredSides(-0.1, 0.6, 0.5)


def test_disk_point_validation():
    with pytest.raises(DomainError):
        conv.DiskPoint(0.6, 0.0)
    d = conv.DiskPoint(0.25, -np.pi)
    assert 0.0 <= d.phi < 2 * np.pi


def test_svd_shape_canonicalizes_theta():
    s = conv.SvdShape(1.0, 0.0, 3.5 * np.pi)
    assert abs(s.theta - 0.5 * np.pi) < 1e-12
    with pytest.raises(DomainError):
        conv.SvdShape(0.9, 0.9, 0.0)


def test_quaternion_validation():
    with pytest.raises(DomainError):
        conv.UnitQuaternion(1.0, 1.0, 0.0, 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("make", [
    lambda v: conv.SquaredSides(v, 0.5, 0.5),
    lambda v: conv.SquaredSides(0.5, v, 0.25),
    lambda v: conv.DiskPoint(v, 0.0),
    lambda v: conv.DiskPoint(0.25, v),
    lambda v: conv.HemispherePoint(v, 0.0),
    lambda v: conv.HemispherePoint(0.5, v),
    lambda v: conv.SvdShape(v, 0.0, 0.0),
    lambda v: conv.SvdShape(1.0, 0.0, v),
    lambda v: conv.UnitQuaternion(v, 0.0, 0.0, 0.0),
    lambda v: conv.shape_to_sides(np.array([[v, 0.0], [0.0, 0.0]])),
], ids=["a2", "b2", "r", "phi", "latitude", "longitude", "sigma1", "theta",
        "quaternion", "matrix"])
def test_non_finite_values_rejected(make, bad):
    with pytest.raises(DomainError):
        make(bad)


# ---------------------------------------------------------------------------
# closed-form SVD


def test_svd2x2_equilateral_convention():
    s = conv.svd2x2(np.eye(2) / np.sqrt(2))
    assert abs(s.sigma1 - 1 / np.sqrt(2)) < 1e-12
    assert abs(s.sigma2 - 1 / np.sqrt(2)) < 1e-12
    assert s.theta == 0.0


def test_svd2x2_degenerate():
    s = conv.svd2x2(np.diag([1.0, 0.0]))
    assert (s.sigma1, s.sigma2, s.theta) == (1.0, 0.0, 0.0)


def test_svd2x2_reconstruction_and_invariants():
    for _ in range(1000):
        m = random_unit_matrix()
        u, (s1, s2), theta = conv.svd2x2_factors(m)
        assert 1.0 + 1e-12 >= s1 >= s2 >= 0.0
        assert abs(s1 * s1 + s2 * s2 - 1.0) < 1e-12
        assert 0.0 <= theta < np.pi
        recon = u @ np.diag([s1, s2]) @ _rotation(theta).T
        assert np.abs(m - recon).max() < 1e-12
        assert np.abs(u @ u.T - np.eye(2)).max() < 1e-9
        # numpy SVD as an independent oracle for the singular values
        ref = np.linalg.svd(m, compute_uv=False)
        assert np.abs(ref - [s1, s2]).max() < 1e-12


def test_svd2x2_factors_bounds_on_seeded_matrices():
    # 24000 matrices: Gaussian ones, ones of sigma2 from 1e-16 down to 0, ones of
    # sigma1 - sigma2 from 1e-2 down into the tie band, and each of them reflected
    rng = np.random.default_rng(2029)
    n = 4000
    z = rng.standard_normal((n, 2, 2))
    s2 = np.concatenate([10.0 ** rng.uniform(-300, -16, n - 400), np.zeros(400)])
    gap = 10.0 ** rng.uniform(-12, -2, n)
    lo = (np.sqrt(2.0 - gap * gap) - gap) / 2.0
    sigma = np.concatenate([np.stack([np.sqrt(1.0 - s2 * s2), s2], 1), np.stack([lo + gap, lo], 1)])
    left, right = (np.array([_rotation(t) for t in rng.uniform(0.0, 2.0 * np.pi, 2 * n)])
                   for _ in range(2))
    mats = np.concatenate([z, left * sigma[:, None, :] @ right.transpose(0, 2, 1)])
    mats = np.concatenate([mats, mats * [[1.0], [-1.0]]])
    for m in mats / np.linalg.norm(mats, axis=(1, 2))[:, None, None]:
        u, (s1, s2), theta = conv.svd2x2_factors(m)
        s = conv.svd2x2(m)
        assert struct.pack("3d", s1, s2, theta) == struct.pack("3d", *astuple(s))
        assert np.abs(m - u @ np.diag([s1, s2]) @ _rotation(theta).T).max() <= 1e-15
        if s1 - s2 >= conv.DEGENERATE_SVD_TOL:
            assert np.abs(u @ u.T - np.eye(2)).max() <= 1e-15
        # the determinant of M's floats as the products' difference; at rank one the
        # exact one is rounding noise, and this is 0 where it is below rounding
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        if det != 0.0:
            assert np.sign(u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]) == np.sign(det)


# ---------------------------------------------------------------------------
# pairwise conversions


def test_svd_to_hemisphere_examples():
    pole = conv.svd_to_hemisphere(conv.SvdShape(1 / np.sqrt(2), 1 / np.sqrt(2), 0.0))
    assert abs(pole.latitude - np.pi / 2) < 1e-12
    flat = conv.svd_to_hemisphere(conv.SvdShape(1.0, 0.0, 0.3))
    assert flat.latitude == 0.0
    h = conv.svd_to_hemisphere(conv.SvdShape(np.sqrt(3) / 2, 0.5, np.pi / 3))
    assert abs(h.latitude - np.pi / 3) < 1e-12
    assert abs(h.longitude - 2 * np.pi / 3) < 1e-12


def test_hemisphere_to_svd_examples():
    s = conv.hemisphere_to_svd(conv.HemispherePoint(np.pi / 2, 1.0))
    assert abs(s.sigma1 - 1 / np.sqrt(2)) < 1e-12 and abs(s.sigma2 - 1 / np.sqrt(2)) < 1e-12
    s = conv.hemisphere_to_svd(conv.HemispherePoint(0.0, 0.0))
    assert (s.sigma1, s.sigma2, s.theta) == (1.0, 0.0, 0.0)


def test_hemisphere_svd_roundtrip():
    for _ in range(1000):
        h = conv.HemispherePoint(np.arcsin(RNG.uniform()), RNG.uniform(0, 2 * np.pi))
        back = conv.svd_to_hemisphere(conv.hemisphere_to_svd(h))
        assert conv.shape_distance(h, back) < 1e-12


def test_hemisphere_disk_examples():
    assert conv.hemisphere_to_disk(conv.HemispherePoint(np.pi / 2, 0.2)).r < 1e-12
    assert abs(conv.hemisphere_to_disk(conv.HemispherePoint(0.0, 0.2)).r - 0.5) < 1e-12
    assert abs(conv.hemisphere_to_disk(conv.HemispherePoint(np.pi / 3, 0.2)).r - 0.25) < 1e-12


def test_disk_to_sides_examples():
    thirds = conv.disk_to_sides(conv.DiskPoint(0.0, 0.0))
    assert np.abs(thirds.as_array() - 1 / 3).max() < 1e-12
    rim = conv.disk_to_sides(conv.DiskPoint(0.5, 0.0))
    assert np.abs(rim.as_array() - [0.5, 0.5, 0.0]).max() < 1e-12
    right = conv.disk_to_sides(conv.DiskPoint(0.25, np.pi))
    assert abs(right.c2 - 0.5) < 1e-12


def test_sides_to_disk_examples():
    assert conv.sides_to_disk(conv.SquaredSides(1 / 3, 1 / 3, 1 / 3)).r < 1e-12
    d = conv.sides_to_disk(conv.SquaredSides(0.5, 0.25, 0.25))
    assert abs(d.r - 0.25) < 1e-12
    assert abs(d.phi - np.pi / 3) < 1e-12


@pytest.mark.parametrize("a2,b2,c2", [(0.500000000005673, 0.499999999994327, 0.0),
                                      (0.4 + 3e-9, 0.4 - 3e-9, 0.2), (0.4 + 1e-13, 0.4, 0.2 - 1e-13)])
def test_sides_to_disk_keeps_a_small_angle_to_full_precision(a2, b2, c2):
    # y = (sqrt(3)/2)(a2 - b2), where a2 - b2 is exact: a small phi keeps its
    # digits, of which the product's rounded terms lost up to half
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    a, b, c = map(mpmath.mpf, (a2, b2, c2))
    phi = mpmath.atan2(mpmath.sqrt(3) / 2 * (a - b), (a + b) / 2 - c)
    got = conv.sides_to_disk(conv.SquaredSides(a2, b2, c2)).phi
    assert abs(got - phi) <= 4e-16 * phi


def test_disk_sides_roundtrip():
    for _ in range(1000):
        d = conv.DiskPoint(0.5 * np.sqrt(RNG.uniform()), RNG.uniform(0, 2 * np.pi))
        back = conv.sides_to_disk(conv.disk_to_sides(d))
        assert conv.shape_distance(d, back) < 1e-12


def test_svd_to_sides_closed_form_vs_diag_oracle():
    equal = conv.svd_to_sides(conv.SvdShape(1 / np.sqrt(2), 1 / np.sqrt(2), 0.9))
    assert np.abs(equal.as_array() - 1 / 3).max() < 1e-12
    worked = conv.shape_to_sides(core.shape_from_edges(
        np.array([[-3.0, 3.0, 0.0], [-3.0, 0.0, 3.0]])))
    assert np.abs(worked.as_array() - [0.5, 0.25, 0.25]).max() < 1e-12
    for _ in range(500):
        s = conv.svd2x2(random_unit_matrix())
        closed = conv.svd_to_sides(s).as_array()
        # oracle: diag((M D)^T (M D)) on the canonical matrix of s
        diag = conv.shape_to_sides(conv.svd_to_shape(s)).as_array()
        assert np.abs(closed - diag).max() < 1e-12


def test_svd_to_disk_two_formulas_agree():
    for _ in range(500):
        s = conv.svd2x2(random_unit_matrix())
        # the radius from the area: sqrt(1/4 - (sigma1 sigma2)^2)
        r = math.sqrt(max(0.25 - (s.sigma1 * s.sigma2) ** 2, 0.0))
        assert abs(conv.svd_to_disk(s).r - r) < 1e-12


def test_disk_to_sides_quartic_invariant():
    for _ in range(1000):
        d = conv.DiskPoint(0.5 * np.sqrt(RNG.uniform()), RNG.uniform(0, 2 * np.pi))
        arr = conv.disk_to_sides(d).as_array()
        assert (arr**2).sum() <= 0.5 + 1e-12


# ---------------------------------------------------------------------------
# Hopf map and quaternions


def test_hopf_examples():
    assert np.abs(conv.hopf(np.diag([1.0, 0.0])) - [1.0, 0.0, 0.0]).max() < 1e-15
    assert np.abs(conv.hopf(np.eye(2) / np.sqrt(2)) - [0.0, 0.0, 1.0]).max() < 1e-15


def test_hopf_unit_norm_and_det_sign():
    for _ in range(1000):
        m = random_unit_matrix()
        v = conv.hopf(m)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        assert np.sign(v[2]) == np.sign(np.linalg.det(m)) or v[2] == 0.0


def test_hemisphere_cartesian_examples_and_cross_route():
    assert np.abs(conv.shape_to_hemisphere_cartesian(np.eye(2) / np.sqrt(2))
                  - [0.0, 0.0, 0.5]).max() < 1e-15
    assert np.abs(conv.shape_to_hemisphere_cartesian(np.diag([1.0, 0.0]))
                  - [0.5, 0.0, 0.0]).max() < 1e-15
    for _ in range(1000):
        m = random_unit_matrix()
        direct = conv.shape_to_hemisphere_cartesian(m)
        via_svd = conv.hemisphere_to_cartesian(conv.svd_to_hemisphere(conv.svd2x2(m)))
        assert np.abs(direct - via_svd).max() < 1e-12


def random_quaternion():
    q = RNG.normal(size=4)
    return conv.UnitQuaternion(*(q / np.linalg.norm(q)))


def test_q3_q4_identity_quaternion():
    q = conv.UnitQuaternion(1.0, 0.0, 0.0, 0.0)
    assert np.abs(conv.q3_from_quaternion(q) - np.eye(3)).max() < 1e-15
    assert np.abs(conv.q4_from_quaternion(q) - np.eye(4)).max() < 1e-15


def test_q3_axis_rotation():
    psi = 0.37
    q = conv.UnitQuaternion(np.cos(psi), np.sin(psi), 0.0, 0.0)
    q3 = conv.q3_from_quaternion(q)
    # axis (1, 0, 0) fixed, rotation angle 2 psi = 2 acos(alpha)
    assert np.abs(q3 @ [1.0, 0.0, 0.0] - [1.0, 0.0, 0.0]).max() < 1e-12
    assert abs(np.trace(q3) - (1.0 + 2.0 * np.cos(2 * psi))) < 1e-12


def test_q3_q4_orthogonal_rotations():
    for _ in range(100):
        q = random_quaternion()
        q3 = conv.q3_from_quaternion(q)
        q4 = conv.q4_from_quaternion(q)
        assert np.abs(q3 @ q3.T - np.eye(3)).max() < 1e-12
        assert np.abs(q4 @ q4.T - np.eye(4)).max() < 1e-12
        assert abs(np.linalg.det(q3) - 1.0) < 1e-12
        assert abs(np.linalg.det(q4) - 1.0) < 1e-12


def test_hopf_equivariance():
    ident = conv.UnitQuaternion(1.0, 0.0, 0.0, 0.0)
    assert conv.hopf_equivariance_check(ident, np.diag([1.0, 0.0])) == 0.0
    fixed_q = conv.UnitQuaternion(0.5, 0.5, 0.5, 0.5)
    fixed_m = np.array([[0.6, 0.0], [0.0, 0.8]])
    assert conv.hopf_equivariance_check(fixed_q, fixed_m) < 1e-12
    worst = max(conv.hopf_equivariance_check(random_quaternion(), random_unit_matrix())
                for _ in range(1000))
    assert worst < 1e-11


# ---------------------------------------------------------------------------
# roundtrips and shared invariants


def test_roundtrip_equilateral_everywhere():
    values = [
        conv.SquaredSides(1 / 3, 1 / 3, 1 / 3),
        conv.HemispherePoint(np.pi / 2, 0.0),
        conv.DiskPoint(0.0, 0.0),
        conv.SvdShape(1 / np.sqrt(2), 1 / np.sqrt(2), 0.0),
        np.eye(2) / np.sqrt(2),
    ]
    for v in values:
        report = conv.roundtrip_all(v)
        assert report.max_discrepancy < 1e-12
        assert report.n_cycles == 64


def test_roundtrip_worked_example():
    report = conv.roundtrip_all(conv.SquaredSides(0.5, 0.25, 0.25))
    assert report.max_discrepancy < 1e-12


def test_roundtrip_random_shapes():
    worst = 0.0
    for _ in range(300):
        worst = max(worst, conv.roundtrip_all(random_sides()).max_discrepancy)
    assert worst < 1e-10


# Reference copies of shape_distance and of roundtrip_all's loop as they were
# written before the memoised walk: numpy comparisons, every cycle run from
# the start through convert.  The walk must give the same report exactly.


def _reference_shape_distance(x, y) -> float:
    src = conv.kind_of(x)
    if src == "sides":
        return float(np.abs(x.as_array() - y.as_array()).max())
    if src == "disk":
        return float(np.abs(x.xy() - y.xy()).max())
    if src == "hemisphere":
        return float(np.abs(conv.hemisphere_to_cartesian(x)
                            - conv.hemisphere_to_cartesian(y)).max())
    if src == "svd":
        return _reference_shape_distance(conv.svd_to_hemisphere(x), conv.svd_to_hemisphere(y))
    return _reference_shape_distance(conv.shape_to_sides(x), conv.shape_to_sides(y))


def _reference_roundtrip(x, include_matrix):
    start = conv.kind_of(x)
    others = [k for k in conv.REPRESENTATIONS
              if k != start and (include_matrix or k != "matrix")]
    worst, worst_cycle, n = 0.0, (start, start), 0
    for size in range(1, len(others) + 1):
        for path in itertools.permutations(others, size):
            value = x
            for step in (*path, start):
                value = conv.convert(value, step)
            n += 1
            dist = _reference_shape_distance(x, value)
            if dist > worst:
                worst, worst_cycle = dist, (start, *path, start)
    return n, worst, worst_cycle


def _seeded_values(n=200, seed=2024):
    """n seeded shapes, every fourth nearly collinear and every fourth
    nearly equilateral, each in all five representations."""
    rng = np.random.default_rng(seed)
    values = []
    for i in range(n):
        z = rng.standard_normal((2, 2))
        if i % 4 == 1:
            z[:, 1] *= 1e-9
        elif i % 4 == 2:
            z = np.eye(2) + 1e-9 * z
        z /= np.linalg.norm(z)
        values += [z, conv.svd2x2(z), conv.shape_to_sides(z),
                   conv.shape_to_hemisphere(z), conv.shape_to_disk(z)]
    return values


_EDGE_VALUES = [
    conv.SvdShape(1 / math.sqrt(2), 1 / math.sqrt(2), 0.0),         # equilateral
    conv.SquaredSides(1 / 3, 1 / 3, 1 / 3),
    conv.HemispherePoint(math.pi / 2, 0.0),
    conv.DiskPoint(0.0, 0.0),
    np.eye(2) / math.sqrt(2),
    conv.SquaredSides(0.5, 0.5, 0.0),                                # degenerate
    conv.HemispherePoint(0.4, 7.5),                                  # longitude wraps
    conv.DiskPoint(0.5, 1.0),                                        # rim
    conv.DiskPoint(0.5, 0.0),
    conv.SvdShape(1.0, 0.0, 0.0),
    conv.SquaredSides(0.5, 0.25, 0.25),
    # signed-zero twins: equal as floats, but atan2 tells them apart
    np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[1.0, 0.0], [-0.0, 0.0]]),
    [[1.0, 0.0], [0.0, -0.0]], [[1, 0], [0, 0]],
    conv.DiskPoint(0.0, -0.0), conv.DiskPoint(0.25, -0.0),
    conv.HemispherePoint(0.0, -0.0), conv.SvdShape(1.0, 0.0, -0.0),
]


@pytest.mark.parametrize("include_matrix", [True, False])
def test_roundtrip_matches_reference_loop(include_matrix):
    for v in _seeded_values() + _EDGE_VALUES:
        report = conv.roundtrip_all(v, include_matrix)
        assert report.start_kind == conv.kind_of(v)
        got = (report.n_cycles, report.max_discrepancy, report.worst_cycle)
        assert got == _reference_roundtrip(v, include_matrix), v


def test_shape_distance_matches_reference():
    values = _seeded_values()
    pairs = [p for p in itertools.chain(zip(values, values[5:]),      # same kind, 5 apart
                                        itertools.product(_EDGE_VALUES, values[-25:]),
                                        itertools.combinations(_EDGE_VALUES, 2))
             if conv.kind_of(p[0]) == conv.kind_of(p[1])]
    assert len(pairs) > 1000
    for x, y in pairs:
        assert conv.shape_distance(x, y) == _reference_shape_distance(x, y), (x, y)


def test_roundtrip_runs_each_primitive_once_per_input(monkeypatch):
    runs = []       # (primitive, input bits, input floats) of each primitive run

    def counted(step):
        def run(*value):
            # a kernel takes the floats of one representation, a matrix's as its rows
            floats = [*value[0], *value[1]] if type(value[0]) is tuple else value
            assert all(type(v) is float for v in floats), value
            runs.append((step.__name__, conv._bits(value), tuple(floats)))
            return step(*value)
        return run

    wrapped = {f: counted(f) for chain in conv._ROUTES.values() for f in chain}
    assert len(wrapped) == 14
    monkeypatch.setattr(conv, "_ROUTES", {route: tuple(map(wrapped.get, chain))
                                          for route, chain in conv._ROUTES.items()})
    for v in (conv.SquaredSides(0.5, 0.25, 0.25), *_seeded_values()[:5],
              conv.SvdShape(0.70710678118654757, 0.70710678118654757, 0.0)):
        runs.clear()
        assert conv.roundtrip_all(v).n_cycles == 64
        assert len(runs) == len({run[:2] for run in runs})
    # these cycles pass through signed-zero twins, values equal as floats
    # but not in bits; each twin is converted on its own
    runs.clear()
    conv.roundtrip_all(np.array([[0.8, -0.0], [-0.0, 0.6]]))
    assert len(runs) == len({run[:2] for run in runs})
    assert len({(step, floats) for step, _, floats in runs}) < len(runs)


@pytest.mark.parametrize("include_matrix", [True, False])
def test_roundtrip_builds_no_record_inside_the_walk(monkeypatch, include_matrix):
    # records check values at the public boundary: the walk runs on floats and
    # makes only its report
    values = _seeded_values(4, 9) + _EDGE_VALUES
    made = []
    for cls in (conv.SvdShape, conv.SquaredSides, conv.HemispherePoint, conv.DiskPoint):
        check = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__",
                            lambda self, check=check: made.append(self) or check(self))
    for v in values:
        conv.roundtrip_all(v, include_matrix)
    assert made == []
    conv.svd_to_sides(values[1])        # a public conversion makes its output record
    assert [type(r) for r in made] == [conv.SquaredSides]


# Frozen copies of the 20 conversion routes and of roundtrip_all's walk as they
# stood before routes became chains of memoised primitives: svd2x2 from NumPy
# scalars, svd_to_shape as a matrix product, the embeddings through NumPy
# arrays and each route memoised as a whole.  Every route output and every
# report must keep its bits.


def _frozen_svd2x2(m):
    m = np.asarray(m, dtype=float)
    if not abs(np.linalg.norm(m) - 1.0) <= conv.INPUT_TOL:
        raise DomainError("shape matrix must have unit Frobenius norm")
    e, f = (m[0, 0] + m[1, 1]) / 2.0, (m[0, 0] - m[1, 1]) / 2.0
    g, h = (m[1, 0] + m[0, 1]) / 2.0, (m[1, 0] - m[0, 1]) / 2.0
    q, p = math.hypot(e, h), math.hypot(f, g)
    s1, s2 = q + p, abs(q - p)
    a1 = math.atan2(g, f) if p > 0.0 else 0.0
    a2 = math.atan2(h, e) if q > 0.0 else 0.0
    theta = 0.0 if s1 - s2 < conv.DEGENERATE_SVD_TOL else conv._wrap((a1 - a2) / 2.0, math.pi)
    return conv.SvdShape(min(s1, 1.0), max(s2, 0.0), theta)


def _frozen_svd_to_shape(s):
    return np.diag([s.sigma1, s.sigma2]) @ _rotation(s.theta).T


def _then(*steps):
    return lambda x: x if not steps else _then(*steps[1:])(steps[0](x))


_FROZEN_ROUTES = {
    ("svd", "sides"): conv.svd_to_sides,
    ("svd", "hemisphere"): conv.svd_to_hemisphere,
    ("svd", "disk"): conv.svd_to_disk,
    ("svd", "matrix"): _frozen_svd_to_shape,
    ("sides", "svd"): _then(conv.sides_to_disk, conv.disk_to_svd),
    ("sides", "hemisphere"): _then(conv.sides_to_disk, conv.disk_to_hemisphere),
    ("sides", "disk"): conv.sides_to_disk,
    ("sides", "matrix"): _then(conv.sides_to_disk, conv.disk_to_svd, _frozen_svd_to_shape),
    ("hemisphere", "svd"): conv.hemisphere_to_svd,
    ("hemisphere", "sides"): _then(conv.hemisphere_to_disk, conv.disk_to_sides),
    ("hemisphere", "disk"): conv.hemisphere_to_disk,
    ("hemisphere", "matrix"): _then(conv.hemisphere_to_svd, _frozen_svd_to_shape),
    ("disk", "svd"): conv.disk_to_svd,
    ("disk", "sides"): conv.disk_to_sides,
    ("disk", "hemisphere"): conv.disk_to_hemisphere,
    ("disk", "matrix"): _then(conv.disk_to_svd, _frozen_svd_to_shape),
    ("matrix", "svd"): _frozen_svd2x2,
    ("matrix", "sides"): conv.shape_to_sides,
    ("matrix", "hemisphere"): conv.shape_to_hemisphere,
    ("matrix", "disk"): conv.shape_to_disk,
}


def _frozen_embedding(kind, value) -> list:
    if kind == "sides":
        return [value.a2, value.b2, value.c2]
    if kind == "disk":
        return np.array([value.r * math.cos(value.phi), value.r * math.sin(value.phi)]).tolist()
    if kind == "hemisphere":
        cl = math.cos(value.latitude)
        return (0.5 * np.array([cl * math.cos(value.longitude), cl * math.sin(value.longitude),
                                math.sin(value.latitude)])).tolist()
    if kind == "svd":
        return _frozen_embedding("hemisphere", conv.svd_to_hemisphere(value))
    return _frozen_embedding("sides", conv.shape_to_sides(value))


def _frozen_bits(kind, value) -> bytes:
    floats = value if kind == "matrix" else [*vars(value).values()]
    return np.asarray(floats, dtype=float).tobytes()


def _frozen_roundtrip(x, include_matrix):
    start = conv.kind_of(x)
    others = [k for k in conv.REPRESENTATIONS if k != start and (include_matrix or k != "matrix")]
    ref = _frozen_embedding(start, x)
    steps, closes = {}, {}
    nodes = {(): (x, _frozen_bits(start, x))}
    worst, worst_cycle = 0.0, (start, start)
    for size in range(1, len(others) + 1):
        for path in itertools.permutations(others, size):
            prev, kind = (path[-2] if size > 1 else start), path[-1]
            value, bits = nodes[path[:-1]]
            if (prev, bits, kind) not in steps:
                child = _FROZEN_ROUTES[prev, kind](value)
                steps[prev, bits, kind] = child, _frozen_bits(kind, child)
            nodes[path] = value, bits = steps[prev, bits, kind]
            if (kind, bits) not in closes:
                back = _FROZEN_ROUTES[kind, start](value)
                closes[kind, bits] = conv._discrepancy(ref, _frozen_embedding(start, back))
            if closes[kind, bits] > worst:
                worst, worst_cycle = closes[kind, bits], (start, *path, start)
    return len(nodes) - 1, struct.pack("d", worst), worst_cycle


def _differential_values():
    """1000 seeded shapes in each kind, the edge values, the CLI's signed-zero
    matrix and the equilateral SVD point."""
    return _seeded_values(1000, 1313) + _EDGE_VALUES + [
        np.array([[0.0, -0.0], [1.0, -0.0]]),
        conv.SvdShape(0.70710678118654757, 0.70710678118654757, 0.0),
        conv.SvdShape(0.70710678118654757, 0.70710678118654757, math.pi / 2),
        conv.HemispherePoint(0.0, math.pi), conv.DiskPoint(0.5, math.pi),
    ]


def _typed_bits(value) -> tuple:
    kind = conv.kind_of(value)
    return kind, type(value).__name__, _frozen_bits(kind, value)


# the public composites that run a route of more than one primitive
_COMPOSITES = {
    ("sides", "svd"): conv.sides_to_svd, ("sides", "hemisphere"): conv.sides_to_hemisphere,
    ("hemisphere", "sides"): conv.hemisphere_to_sides, ("sides", "matrix"): conv.sides_to_shape,
}


def test_routes_keep_the_frozen_bits():
    for v in _differential_values():
        src = conv.kind_of(v)
        for target in conv.REPRESENTATIONS:
            if target == src:
                continue
            want = _typed_bits(_FROZEN_ROUTES[src, target](v))
            assert _typed_bits(conv.convert(v, target)) == want, (v, target)
            if (src, target) in _COMPOSITES:
                assert _typed_bits(_COMPOSITES[src, target](v)) == want, (v, target)
        assert conv._embedding(src, _as_floats(v)) == _frozen_embedding(src, v), v


@pytest.mark.parametrize("include_matrix", [True, False])
def test_roundtrip_keeps_the_frozen_reports(include_matrix):
    for v in _differential_values():
        report = conv.roundtrip_all(v, include_matrix)
        got = (report.n_cycles, struct.pack("d", report.max_discrepancy), report.worst_cycle)
        assert got == _frozen_roundtrip(v, include_matrix), v


# the public function of each route that has a name of its own
_NAMED = {
    ("svd", "sides"): conv.svd_to_sides, ("svd", "hemisphere"): conv.svd_to_hemisphere,
    ("svd", "disk"): conv.svd_to_disk, ("svd", "matrix"): conv.svd_to_shape,
    ("sides", "svd"): conv.sides_to_svd, ("sides", "hemisphere"): conv.sides_to_hemisphere,
    ("sides", "disk"): conv.sides_to_disk, ("sides", "matrix"): conv.sides_to_shape,
    ("hemisphere", "svd"): conv.hemisphere_to_svd, ("hemisphere", "disk"): conv.hemisphere_to_disk,
    ("hemisphere", "sides"): conv.hemisphere_to_sides, ("disk", "svd"): conv.disk_to_svd,
    ("disk", "sides"): conv.disk_to_sides, ("disk", "hemisphere"): conv.disk_to_hemisphere,
    ("matrix", "svd"): conv.svd2x2, ("matrix", "sides"): conv.shape_to_sides,
    ("matrix", "hemisphere"): conv.shape_to_hemisphere, ("matrix", "disk"): conv.shape_to_disk,
}


def _as_floats(v):
    """v as the conversions carry it inside: a tuple of floats, a matrix a 2x2 tuple."""
    return tuple(map(tuple, np.asarray(v, dtype=float).tolist())) if conv.kind_of(v) == "matrix" \
        else tuple(vars(v).values())


def test_public_functions_equal_their_float_routes():
    values = _seeded_values(1000, 4242) + _EDGE_VALUES
    assert sum(conv.kind_of(v) == "matrix" for v in values) > 1000
    for v in values:
        src = conv.kind_of(v)
        for target in conv.REPRESENTATIONS:
            if target == src:
                continue
            route = conv._follow((src, target), _as_floats(v))
            public = conv.convert(v, target)
            assert type(route) is tuple
            assert type(public) is (np.ndarray if target == "matrix" else
                                    conv.REPRESENTATIONS[target])
            want = np.asarray(route, dtype=float).tobytes()
            assert _frozen_bits(target, public) == want, (v, target)
            if (src, target) in _NAMED:
                assert _frozen_bits(target, _NAMED[src, target](v)) == want, (v, target)
        if src == "matrix":
            assert conv.hopf(v).tobytes() == np.asarray(conv._hopf(_as_floats(v))).tobytes()


def test_a_matrix_is_any_2x2_container():
    zs = [v for v in _seeded_values(40, 5) if conv.kind_of(v) == "matrix"]
    for z in zs + [np.array([[0.0, -0.0], [1.0, -0.0]]), np.eye(2) / math.sqrt(2)]:
        forms = [z, z.tolist(), tuple(map(tuple, z.tolist()))]
        assert [conv.kind_of(f) for f in forms] == ["matrix"] * 3
        for target in conv.REPRESENTATIONS:
            bits = {_frozen_bits(target, conv.convert(f, target)) for f in forms}
            assert len(bits) == 1, (z, target)
        reports = {(r.n_cycles, struct.pack("d", r.max_discrepancy), r.worst_cycle)
                   for r in map(conv.roundtrip_all, forms)}
        assert len(reports) == 1, z
    for bad in ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], np.zeros((2, 2, 1)), [1.0, 0.0], "ab", 0.5):
        with pytest.raises(ValueError, match="not a shape representation"):
            conv.kind_of(bad)
    with pytest.raises(DomainError, match="unit Frobenius norm"):
        conv.convert([[1.0, 0.0], [0.0, 1.0]], "svd")


def test_all_pairwise_routes_commute():
    kinds = ("svd", "sides", "hemisphere", "disk", "matrix")
    for _ in range(100):
        start = random_sides()
        for target in kinds:
            if target == "sides":
                continue
            direct = conv.convert(start, target)
            for mid in kinds:
                if mid in ("sides", target):
                    continue
                via = conv.convert(conv.convert(start, mid), target)
                assert conv.shape_distance(direct, via) < 1e-10


def test_area_consistency_chain():
    for _ in range(500):
        m = random_unit_matrix()
        s = conv.svd2x2(m)
        sides = conv.shape_to_sides(m).as_array()
        d = conv.shape_to_disk(m)
        h = conv.shape_to_hemisphere(m)
        k1 = s.sigma1 * s.sigma2 / np.sqrt(12.0)
        k2 = 0.25 * np.sqrt(max(1.0 - 2.0 * (sides**2).sum(), 0.0))
        k3 = np.sqrt(max((1.0 - 4.0 * d.r**2) / 48.0, 0.0))
        k4 = np.sin(h.latitude) / np.sqrt(48.0)
        assert max(abs(k1 - k2), abs(k1 - k3), abs(k1 - k4)) < 1e-10


def test_height_is_inverse_condition_number_sum():
    for _ in range(500):
        s = conv.svd2x2(random_unit_matrix())
        if s.sigma2 <= 1e-6:
            continue
        kappa = s.sigma1 / s.sigma2
        height = 0.5 * np.sin(conv.svd_to_hemisphere(s).latitude)
        assert abs(height - 1.0 / (kappa + 1.0 / kappa)) < 1e-10
        assert abs(height - s.sigma1 * s.sigma2) < 1e-12


def _edge_values():
    """Values each record accepts at its tolerance edges, and matrices at
    _unit_matrix's: squared norm 1 +- 0.49 INPUT_TOL."""
    tol = INPUT_TOL
    sides = [(-tol, 0.5, 0.5 + tol), (0.5 + 0.5 * tol, -tol, 0.5), (0.3 + 0.9 * tol, 0.3, 0.4),
             (0.50001, 0.49999, 0.0), (0.50002, 0.49998, 0.0), (0.0, 0.49998, 0.50002)]
    values = [conv.SquaredSides(*s) for s in sides]
    values += [conv.DiskPoint(0.5 + tol, phi) for phi in (0.0, 1.0, 4.0)]
    values += [conv.HemispherePoint(math.pi / 2.0 + tol, 2.0), conv.HemispherePoint(-tol, 5.0)]
    values += [conv.SvdShape(1.0 + 0.49 * tol, 0.0, 1.0)]
    for m in ([[1.0, 0.0], [0.0, 0.0]], [[0.6, 0.0], [0.8, 0.0]], np.eye(2) / math.sqrt(2.0),
              [[0.3, -0.5], [0.7, 0.1]]):
        m = np.asarray(m) / np.linalg.norm(m)
        values += [m * math.sqrt(1.0 + 0.49 * tol), m * math.sqrt(1.0 - 0.49 * tol)]
    return values


def test_values_at_the_tolerance_edges_convert_everywhere():
    # one owner per rule: a value a record or _unit_matrix accepts is not
    # refused by a tighter check downstream
    from trishape import geometry
    for v in _edge_values():
        for target in conv.REPRESENTATIONS:
            conv.convert(v, target)
        conv.roundtrip_all(v)
        sides = conv.convert(v, "sides")
        geometry.construct_in_hemisphere(sides)
        geometry.angles_from_sides(sides)
        geometry.area(sides)
    for s in [(0.50001, 0.49999, 0.0), (-INPUT_TOL, 0.5, 0.5 + INPUT_TOL)]:
        assert geometry.area(s) == 0.0 and geometry.construct_in_hemisphere(s).degenerate


def test_unit_matrix_tests_the_squared_norm_the_records_check():
    edge = [[1.0 + 9e-10, 0.0], [0.0, 0.0]]     # |M| within INPUT_TOL of 1, |M|^2 not
    for m in (edge, [[2.0, 0.0], [0.0, 0.0]]):
        for target in conv.REPRESENTATIONS:     # the identity route too
            with pytest.raises(DomainError, match="unit Frobenius norm"):
                conv.convert(m, target)
    unit = [[0.6, 0.0], [0.0, 0.8]]
    out = conv.convert(unit, "matrix")          # an array, as from every other source
    assert isinstance(out, np.ndarray) and out.tolist() == unit
    with pytest.raises(DomainError, match="unit Frobenius norm"):
        conv.roundtrip_all(edge)
