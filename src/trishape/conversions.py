"""Conversions among the triangle shape representations.

A shape lives in any of five equivalent forms:

1. ``SvdShape``        -- (sigma1, sigma2, theta), the reduced SVD of the
                          shape matrix with the left factor discarded
2. ``SquaredSides``    -- (a2, b2, c2), normalized squared side lengths
3. ``HemispherePoint`` -- (latitude, longitude) on the radius-1/2 hemisphere
4. ``DiskPoint``       -- (r, phi), the vertical projection onto the disk
5. shape matrix        -- unit-Frobenius 2x2 array (known only modulo the
                          rotation/reflection it shares with congruent copies)

Every ordered pair of representations has a conversion here, plus the Hopf
map and the quaternion machinery that makes it rotation-equivariant.

The records check their values at the public boundary only.  Inside, a
conversion is a chain of float kernels (_ROUTES), a shape matrix a 2x2 tuple,
each applying its output record's clamp and wrap but no range check; each
matrix product is a sum in a fixed order, so no BLAS kernel decides a bit.
NumPy is imported only by the public functions that return an ndarray.
"""

import itertools
import math
import struct
from dataclasses import dataclass, field
from operator import attrgetter

from .errors import INPUT_TOL, DomainError, NotATriangleError, simplex_point

TWO_PI = 2.0 * math.pi
SQRT3 = math.sqrt(3.0)
_SIDE_OFFSETS = (TWO_PI / 3.0, -TWO_PI / 3.0, 0.0)   # of the squared sides a2, b2, c2

# Tie-break for the SVD rotation angle when sigma1 ~ sigma2 (V is arbitrary
# at the equilateral point; theta = 0 keeps output deterministic).
DEGENERATE_SVD_TOL = 1e-9


def _array(x):             # NumPy is imported on first use
    import numpy as np
    return np.array(x)


def _clamp(x: float, lo: float, hi: float) -> float:
    return lo if x < lo else hi if x > hi else x + 0.0      # + 0.0: never -0.0


def _wrap(angle: float, period: float) -> float:
    if not math.isfinite(angle):
        raise DomainError(f"angle must be finite, got {angle}")
    a = math.fmod(angle, period)
    if a < 0.0:
        a += period
    return a + 0.0 if a < period else 0.0      # + 0.0: never -0.0


# The clamp and wrap of each record, which the kernels apply to what they return;
# each is idempotent, so a record made from a kernel's floats keeps their bits.
def _svd(s1: float, s2: float, theta: float) -> tuple:
    s1 = _clamp(s1, 0.0, 1.0)
    return s1, _clamp(s2, 0.0, s1), _wrap(theta, math.pi)


def _sides(a2: float, b2: float, c2: float) -> tuple:     # simplex_point's clamp
    return max(a2, 0.0) + 0.0, max(b2, 0.0) + 0.0, max(c2, 0.0) + 0.0


def _hemisphere(lat: float, lon: float) -> tuple:
    return _clamp(lat, 0.0, math.pi / 2.0), _wrap(lon, TWO_PI)


def _disk(r: float, phi: float) -> tuple:
    return _clamp(r, 0.0, 0.5), _wrap(phi, TWO_PI)


@dataclass
class SvdShape:
    """Singular values and right-rotation angle of a unit-norm shape matrix."""

    sigma1: float
    sigma2: float
    theta: float

    def __post_init__(self):
        s1, s2 = float(self.sigma1), float(self.sigma2)
        if not (-INPUT_TOL <= s2 <= s1 + INPUT_TOL and s1 <= 1.0 + INPUT_TOL):
            raise DomainError(f"need 1 >= sigma1 >= sigma2 >= 0, got ({s1}, {s2})")
        if not abs(s1 * s1 + s2 * s2 - 1.0) <= INPUT_TOL:
            raise DomainError(f"sigma1^2 + sigma2^2 must be 1, got {s1*s1 + s2*s2}")
        self.sigma1, self.sigma2, self.theta = _svd(s1, s2, float(self.theta))


@dataclass
class SquaredSides:
    """Squared side lengths (a2, b2, c2) normalized so a2 + b2 + c2 = 1."""

    a2: float
    b2: float
    c2: float

    def __post_init__(self):
        vals = simplex_point((self.a2, self.b2, self.c2), "squared sides")
        quartic = sum(v * v for v in vals)
        if quartic > 0.5 + INPUT_TOL:
            raise NotATriangleError(
                f"triangle inequality fails: a^4 + b^4 + c^4 = {quartic} > 1/2"
            )
        self.a2, self.b2, self.c2 = vals

    def as_array(self):
        return _array([self.a2, self.b2, self.c2])

    def lengths(self):
        return _array([math.sqrt(self.a2), math.sqrt(self.b2), math.sqrt(self.c2)])


@dataclass
class HemispherePoint:
    """Latitude in [0, pi/2] and longitude in [0, 2 pi) on the radius-1/2 hemisphere."""

    latitude: float
    longitude: float

    def __post_init__(self):
        lat = float(self.latitude)
        if not (-INPUT_TOL <= lat <= math.pi / 2.0 + INPUT_TOL):
            raise DomainError(f"latitude must lie in [0, pi/2], got {lat}")
        self.latitude, self.longitude = _hemisphere(lat, float(self.longitude))


@dataclass
class DiskPoint:
    """Polar point (r, phi) with r in [0, 1/2] on the radius-1/2 disk."""

    r: float
    phi: float

    def __post_init__(self):
        r = float(self.r)
        if not (-INPUT_TOL <= r <= 0.5 + INPUT_TOL):
            raise DomainError(f"disk radius must lie in [0, 1/2], got {r}")
        self.r, self.phi = _disk(r, float(self.phi))

    def xy(self):
        return _array(_embedding("disk", (self.r, self.phi)))


@dataclass
class UnitQuaternion:
    """Quaternion (alpha, beta, gamma, delta) with unit norm."""

    alpha: float
    beta: float
    gamma: float
    delta: float

    def __post_init__(self):
        a, b, g, d = self.alpha, self.beta, self.gamma, self.delta
        n2 = a * a + b * b + g * g + d * d
        if not abs(n2 - 1.0) <= INPUT_TOL:
            raise DomainError(f"quaternion must have unit norm, got |q|^2 = {n2}")


def rotation(theta: float):
    """2x2 counterclockwise rotation by theta."""
    c, s = math.cos(theta), math.sin(theta)
    return _array([[c, -s], [s, c]])


def _unit_matrix(m) -> tuple:
    """A 2x2 array-like as a 2x2 tuple of floats, checked to have unit Frobenius norm."""
    if kind_of(m) != "matrix":
        raise ValueError(f"shape matrix must be 2x2, got {m!r}")
    m = tuple(tuple(map(float, row)) for row in m)
    norm = math.hypot(*m[0], *m[1])
    # the squared norm, which the records check, within a margin they cannot undercut
    if not abs(norm * norm - 1.0) <= INPUT_TOL / 2:
        raise DomainError(f"shape matrix must have unit Frobenius norm, got {norm}")
    return m


# ---------------------------------------------------------------------------
# The primitive kernels, from the floats of one representation to those of another


def _svd_parts(m11: float, m12: float, m21: float, m22: float) -> tuple:
    """(sigma1, sigma2, theta, nu, mu, q - p) from the rotation-component split of
    M, so sigma2 has no cancellation; theta wraps nu, or is 0 where sigma1 ~ sigma2."""
    e, f = (m11 + m22) / 2.0, (m11 - m22) / 2.0
    g, h = (m21 + m12) / 2.0, (m21 - m12) / 2.0
    q, p = math.hypot(e, h), math.hypot(f, g)
    s1, s2 = q + p, abs(q - p)
    a1 = math.atan2(g, f) if p > 0.0 else 0.0
    a2 = math.atan2(h, e) if q > 0.0 else 0.0
    nu = (a1 - a2) / 2.0
    theta = 0.0 if s1 - s2 < DEGENERATE_SVD_TOL else _wrap(nu, math.pi)
    return s1, s2, theta, nu, (a1 + a2) / 2.0, q - p


def _svd2x2(*m: tuple) -> tuple:
    """Reduced SVD of a unit-norm shape matrix; the left factor is not formed."""
    return _svd(*_svd_parts(*m[0], *m[1])[:3])


def _svd_to_shape(s1: float, s2: float, theta: float) -> tuple:
    """Canonical shape matrix Sigma @ V^T (left factor I), with its product's signed zeros."""
    c, t = math.cos(theta), math.sin(theta)
    return (s1 * c + 0.0, s1 * t + 0.0), (0.0 - s2 * t, s2 * c + 0.0)


def _svd_to_hemisphere(s1: float, s2: float, theta: float) -> tuple:
    """(2 atan2(sigma2, sigma1), 2 theta): the latitude asin(2 sigma1 sigma2), taken
    so that the pole (sigma1 = sigma2) does not lose half the significant digits."""
    return _hemisphere(2.0 * math.atan2(s2, s1), 2.0 * theta)


def _hemisphere_to_svd(lat: float, lon: float) -> tuple:
    return _svd(math.cos(lat / 2.0), math.sin(lat / 2.0), lon / 2.0)


def _hemisphere_to_disk(lat: float, lon: float) -> tuple:
    return _disk(math.cos(lat) / 2.0, lon)


def _disk_to_hemisphere(r: float, phi: float) -> tuple:
    return _hemisphere(math.acos(2.0 * r), phi)


def _disk_to_sides(r: float, phi: float) -> tuple:
    """Squared sides (1 - 2 r cos(phi + offset))/3 at the _SIDE_OFFSETS +2pi/3, -2pi/3, 0."""
    return _sides(*((1.0 - 2.0 * r * math.cos(phi + offset)) / 3.0 for offset in _SIDE_OFFSETS))


def _plane(u1: float, u2: float, u3: float) -> tuple:
    """Point of barycentric weights u on the triangle (1/2, +-sqrt(3)/2), (-1, 0)
    around the radius-1/2 disk: squared sides go to their disk point.  Its y,
    (sqrt(3)/2) (u1 - u2), keeps full relative precision where u1 ~ u2 and is
    0.0 where they are equal; its x is summed from +0.0, so neither is -0.0."""
    return 0.0 + 0.5 * u1 + 0.5 * u2 - u3, SQRT3 / 2.0 * (u1 - u2)


def _sides_to_disk(a2: float, b2: float, c2: float) -> tuple:
    """Polar coordinates of _plane(a2, b2, c2); inverse of disk_to_sides."""
    x, y = _plane(a2, b2, c2)
    return _disk(math.hypot(x, y), math.atan2(y, x))


def _svd_to_sides(s1: float, s2: float, theta: float) -> tuple:
    """Closed-form squared sides (1 - (sigma1^2 - sigma2^2) cos(2 theta + offset))/3."""
    return _disk_to_sides((s1 * s1 - s2 * s2) / 2.0, 2.0 * theta)


def _svd_to_disk(s1: float, s2: float, theta: float) -> tuple:
    return _disk((s1 * s1 - s2 * s2) / 2.0, 2.0 * theta)


def _disk_to_svd(r: float, phi: float) -> tuple:
    return _svd(math.sqrt(0.5 + r), math.sqrt(0.5 - r), phi / 2.0)


def _shape_to_sides(*m: tuple) -> tuple:
    """Squared sides as diag((M D)^T (M D)) for the Helmert frame D = helmert(3)."""
    (a, b), (c, d) = m
    r2, r6 = 1.0 / math.sqrt(2.0), 1.0 / math.sqrt(6.0)      # HELMERT3's entries, summed out
    e = [(a * u + b * v, c * u + d * v) for u, v in ((r2, r6), (-r2, r6), (0.0, -2.0 * r6))]
    return _sides(*(p * p + q * q for p, q in e))


def _shape_to_disk(*m: tuple) -> tuple:
    """Disk point from the Gram matrix: (r cos phi, r sin phi) = ((G11 - G22)/2, G12),
    half the first two Hopf coordinates (exactly), the second summed from +0.0,
    so that a zero is never -0.0."""
    x, y, _ = _hopf(m)
    x, y = x / 2.0, 0.0 + y / 2.0
    return _disk(math.hypot(x, y), math.atan2(y, x))


def _shape_to_hemisphere(*m: tuple) -> tuple:
    x, y, z = _hopf(m)
    return _hemisphere(math.atan2(abs(z), math.hypot(x, y)), math.atan2(y, x))


def svd2x2_factors(m):
    """Closed-form SVD of a unit-norm 2x2 matrix.

    Returns (U, (sigma1, sigma2), theta) with M = U @ diag(sigma) @ R(theta).T,
    sigma1 >= sigma2 >= 0 and theta in [0, pi).  U absorbs any reflection, so
    it is orthogonal but not necessarily a rotation.
    """
    import numpy as np
    m = _unit_matrix(m)
    sigma1, sigma2, theta, nu, mu, gap = _svd_parts(*m[0], *m[1])
    if sigma1 - sigma2 < DEGENERATE_SVD_TOL:
        # V arbitrary at the equilateral point; theta is pinned, so refit U
        return np.array(m) @ np.diag([1.0 / sigma1, 1.0 / sigma2]), (sigma1, sigma2), theta

    u = rotation(mu)
    if gap < 0.0:
        u = u @ np.diag([1.0, -1.0])
    # wrapping nu by an odd multiple of pi flips R(theta); compensate in U
    if round((theta - nu) / math.pi) % 2:
        u = -u
    return u, (sigma1, sigma2), theta


def hemisphere_to_cartesian(h: HemispherePoint):
    """Embed (latitude, longitude) as the 3-vector (1/2)(cos lat cos lon, cos lat sin lon, sin lat)."""
    return _array(_embedding("hemisphere", (h.latitude, h.longitude)))


# ---------------------------------------------------------------------------
# Hopf map and quaternion equivariance


def _hopf(m: tuple) -> tuple:
    """(G11 - G22, 2 G12, 2 det M) of a 2x2 tuple M, with G = M^T M its Gram matrix."""
    (a, b), (c, d) = m
    return (a * a + c * c) - (b * b + d * d), 2.0 * (a * b + c * d), 2.0 * (a * d - c * b)


def hopf(m):
    """Hopf map of a unit-norm 2x2 matrix onto the unit sphere.

    The third coordinate is 2 det(M), so its sign records the orientation;
    the shape construction folds it positive (see shape_to_hemisphere_cartesian).
    """
    return _array(_hopf(_unit_matrix(m)))


def shape_to_hemisphere_cartesian(m):
    """Cartesian hemisphere point (1/2) Hopf(M) with the height folded positive."""
    v = 0.5 * hopf(m)
    v[2] = abs(v[2])
    return v


def q3_from_quaternion(quat: UnitQuaternion):
    """3x3 rotation about axis (beta, gamma, delta) by angle 2 acos(alpha)."""
    a, b, g, d = quat.alpha, quat.beta, quat.gamma, quat.delta
    return _array([
        [a * a + b * b - g * g - d * d, 2.0 * (a * d + b * g), 2.0 * (b * d - a * g)],
        [-2.0 * (a * d - b * g), a * a - b * b + g * g - d * d, 2.0 * (a * b + g * d)],
        [2.0 * (a * g + b * d), -2.0 * (a * b - g * d), a * a - b * b - g * g + d * d],
    ])


def q4_from_quaternion(quat: UnitQuaternion):
    """4x4 rotation acting on column-flattened 2x2 matrices, paired with q3_from_quaternion."""
    a, b, g, d = quat.alpha, quat.beta, quat.gamma, quat.delta
    return _array([
        [a, -b, d, -g],
        [b, a, g, d],
        [-d, -g, a, b],
        [g, -d, -b, a],
    ])


def hopf_equivariance_check(quat: UnitQuaternion, m) -> float:
    """Residual ||Hopf(Q4 M) - Q3 Hopf(M)|| (zero in exact arithmetic).

    Q4 acts by flattening M to (M11, M21, M12, M22), rotating, and reshaping.
    """
    import numpy as np
    m = np.array(_unit_matrix(m))
    q3 = q3_from_quaternion(quat)
    q4 = q4_from_quaternion(quat)
    rotated = (q4 @ m.flatten(order="F")).reshape(2, 2, order="F")
    return float(np.linalg.norm(hopf(rotated) - q3 @ hopf(m)))


# ---------------------------------------------------------------------------
# routes, the public conversions and roundtrips

# Each representation kind and its type; a "matrix" is any 2x2 array-like, and
# has none.  The order is the order in which roundtrip_all visits the kinds.
REPRESENTATIONS = {
    "svd": SvdShape,
    "sides": SquaredSides,
    "hemisphere": HemispherePoint,
    "disk": DiskPoint,
    "matrix": None,
}
_KIND_OF_TYPE = {cls: kind for kind, cls in REPRESENTATIONS.items() if kind != "matrix"}
_FIELDS = {kind: attrgetter(*cls.__match_args__) for cls, kind in _KIND_OF_TYPE.items()}
_PACK = {n: struct.Struct(f"{n}d").pack for n in (2, 3, 4)}

# Each ordered pair of kinds and the chain of primitive kernels that runs it;
# roundtrip_all memoises each primitive, not each route.
_ROUTES = {
    ("svd", "sides"): (_svd_to_sides,), ("svd", "hemisphere"): (_svd_to_hemisphere,),
    ("svd", "disk"): (_svd_to_disk,), ("svd", "matrix"): (_svd_to_shape,),
    ("sides", "svd"): (_sides_to_disk, _disk_to_svd), ("sides", "disk"): (_sides_to_disk,),
    ("sides", "hemisphere"): (_sides_to_disk, _disk_to_hemisphere),
    ("sides", "matrix"): (_sides_to_disk, _disk_to_svd, _svd_to_shape),
    ("hemisphere", "svd"): (_hemisphere_to_svd,), ("hemisphere", "disk"): (_hemisphere_to_disk,),
    ("hemisphere", "sides"): (_hemisphere_to_disk, _disk_to_sides),
    ("hemisphere", "matrix"): (_hemisphere_to_svd, _svd_to_shape),
    ("disk", "svd"): (_disk_to_svd,), ("disk", "sides"): (_disk_to_sides,),
    ("disk", "hemisphere"): (_disk_to_hemisphere,),
    ("disk", "matrix"): (_disk_to_svd, _svd_to_shape),
    ("matrix", "svd"): (_svd2x2,), ("matrix", "sides"): (_shape_to_sides,),
    ("matrix", "hemisphere"): (_shape_to_hemisphere,), ("matrix", "disk"): (_shape_to_disk,),
}
# the kind whose embedding shape_distance compares, where it is not the value's own
_COMPARED_AS = {"svd": "hemisphere", "matrix": "sides"}


def _follow(route: tuple, x: tuple) -> tuple:
    for step in _ROUTES[route]:
        x = step(*x)
    return x


def kind_of(x) -> str:
    """Representation tag of a value: a key of REPRESENTATIONS."""
    kind = _KIND_OF_TYPE.get(type(x))
    if kind is not None:
        return kind
    try:                    # a 2x2 array-like: an ndarray, or nested sequences
        if getattr(x, "shape", (2, 2)) == (2, 2) and len(x) == 2 and all(len(r) == 2 for r in x):
            return "matrix"
    except TypeError:
        pass
    raise ValueError(f"not a shape representation: {x!r}")


def _floats(kind: str, x) -> tuple:
    """A record's fields, checked when it was made, or a matrix as a 2x2 tuple, checked here."""
    return _unit_matrix(x) if kind == "matrix" else _FIELDS[kind](x)


def convert(x, target: str):
    """Convert a shape value to the named target representation."""
    src = kind_of(x)
    if target not in REPRESENTATIONS:
        raise ValueError(f"unknown representation {target!r}")
    if src == target:   # a record was checked when it was made; a matrix is checked here
        return _array(_unit_matrix(x)) if src == "matrix" else x
    return _CONVERSIONS[src, target](x)


def _conversion(src: str, dst: str):
    """The function of a route, from a value's floats through the route's kernels to a
    record, which checks them, or an ndarray; named for its kinds but for svd2x2."""
    def conversion(x):
        out = _follow((src, dst), _floats(src, x))
        return _array(out) if dst == "matrix" else REPRESENTATIONS[dst](*out)
    conversion.__name__ = conversion.__qualname__ = "svd2x2" if (src, dst) == ("matrix", "svd") \
        else f"{src}_to_{dst}".replace("matrix", "shape")
    conversion.__doc__ = f"The {dst} of a {src} value, by the kernels of _ROUTES[{src!r}, {dst!r}]."
    return conversion


_CONVERSIONS = {route: _conversion(*route) for route in _ROUTES}
# the public ones: all but hemisphere and disk to matrix
globals().update((f.__name__, f) for route, f in _CONVERSIONS.items()
                 if route not in (("hemisphere", "matrix"), ("disk", "matrix")))


def _embedding(kind: str, value: tuple) -> list:
    """The floats shape_distance compares: smooth embeddings of the angles, so the
    wrap at 2 pi and the undefined pole or disk-center angle do not register; svd
    values via the hemisphere, matrices via their sides (_COMPARED_AS)."""
    if kind in _COMPARED_AS:
        return _embedding(_COMPARED_AS[kind], _follow((kind, _COMPARED_AS[kind]), value))
    if kind == "sides":
        return list(value)
    if kind == "disk":
        r, phi = value
        return [r * math.cos(phi), r * math.sin(phi)]
    lat, lon = value
    cl = math.cos(lat)
    return [0.5 * (cl * math.cos(lon)), 0.5 * (cl * math.sin(lon)), 0.5 * math.sin(lat)]


def _discrepancy(a: list, b: list) -> float:
    return max(abs(p - q) for p, q in zip(a, b))


def shape_distance(x, y) -> float:
    """Largest gap between the _embedding floats of two values of one kind."""
    src = kind_of(x)
    if kind_of(y) != src:
        raise ValueError("cannot compare different representations")
    return _discrepancy(_embedding(src, _floats(src, x)), _embedding(src, _floats(src, y)))


@dataclass
class RoundtripReport:
    """Worst-case discrepancy over all conversion cycles from one start value."""

    start_kind: str
    n_cycles: int
    max_discrepancy: float
    worst_cycle: tuple = field(default_factory=tuple)

    def __str__(self):
        path = " -> ".join(self.worst_cycle)
        return (
            f"{self.n_cycles} cycles from {self.start_kind}: "
            f"max discrepancy {self.max_discrepancy:.3e} (worst: {path})"
        )


def _bits(value: tuple) -> bytes:
    """The bit pattern of a float tuple (a matrix's rows in turn), in which -0.0 and 0.0 differ."""
    return _PACK[4](*value[0], *value[1]) if type(value[0]) is tuple else _PACK[len(value)](*value)


def roundtrip_all(x, include_matrix: bool = True) -> RoundtripReport:
    """Run every conversion cycle that starts and ends at x's representation.

    Cycles visit each subset of the other representations in every order.
    The report carries the largest discrepancy and the first cycle, in
    itertools.permutations order, that reaches it.  One memoised walk of the
    cycle tree gives the report that running every cycle in full would: each
    path extends its prefix by one route, each route is a chain of primitive
    kernels (_ROUTES), and within the call each primitive runs once on each
    distinct input (its float bits), the _COMPARED_AS routes too.  The walk is
    on floats: it makes no record.
    """
    start = kind_of(x)
    x = _floats(start, x)
    others = [k for k in REPRESENTATIONS if k != start and (include_matrix or k != "matrix")]
    end = _COMPARED_AS.get(start, start)        # the kind whose embeddings are compared
    via = _ROUTES[start, end] if end != start else ()
    runs = {}                                # (primitive, input bits) -> output and its bits

    def follow(chain, value, bits):
        for step in chain:
            run = runs.get((step, bits))
            if run is None:
                out = step(*value)
                run = runs[step, bits] = out, _bits(out)
            value, bits = run
        return value, bits

    nodes = {(): (x, _bits(x))}              # path -> its value and the value's bits
    ref = _embedding(end, follow(via, *nodes[()])[0])
    closes = {}
    worst, worst_cycle = 0.0, (start, start)
    for size in range(1, len(others) + 1):
        for path in itertools.permutations(others, size):
            prev, kind = (path[-2] if size > 1 else start), path[-1]
            nodes[path] = value, bits = follow(_ROUTES[prev, kind], *nodes[path[:-1]])
            if (kind, bits) not in closes:
                back, _ = follow(_ROUTES[kind, start] + via, value, bits)
                closes[kind, bits] = _discrepancy(ref, _embedding(end, back))
            if closes[kind, bits] > worst:
                worst, worst_cycle = closes[kind, bits], (start, *path, start)
    return RoundtripReport(start, len(nodes) - 1, worst, worst_cycle)
