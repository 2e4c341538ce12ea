"""Triangle-space geometry on the hemisphere and its equatorial disk.

Covers the angle/area formulas tied to the normalized squared sides, the
fixed-area special-triangle families, the big/little barycentric frames
with their parallelians, and the construction that realizes a triangle of
the correct proportions inside the hemisphere itself.  Records check values
at the public boundary only: the construction is one float kernel,
_construction, of closed forms (conversions._plane) on checked squared sides,
so no BLAS kernel decides a bit.  NumPy is imported only where arrays are made.
"""

import math
from dataclasses import dataclass

from .conversions import _SIDE_OFFSETS, DiskPoint, SquaredSides, _array, _plane, disk_to_sides
from .errors import DEGENERATE_TOL, INPUT_TOL, DomainError, NotATriangleError

EQUILATERAL_AREA = 1.0 / math.sqrt(48.0)   # largest area at unit squared-side sum


def _sides3(s) -> SquaredSides:
    """s as validated squared sides, which internal calls pass on: one check per call."""
    if isinstance(s, SquaredSides):
        return s
    import numpy as np
    arr = np.asarray(s, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"expected three squared sides, got shape {arr.shape}")
    return SquaredSides(*arr.tolist())


@dataclass
class TriangleAngles:
    """Interior angles (A, B, C) in radians, opposite sides a, b, c."""

    A: float
    B: float
    C: float

    def as_array(self) -> "np.ndarray":
        return _array([self.A, self.B, self.C])


@dataclass
class BarycentricFrames:
    """The big equilateral frame and the inverted little frame (= -big/2)."""

    big: "np.ndarray"
    little: "np.ndarray"


@dataclass
class Parallelian:
    """One segment through P parallel to a side of the little triangle.

    Endpoints are given as barycentric triples in both frames and as the
    common Cartesian points they map to.
    """

    index: int
    big_endpoints: tuple
    little_endpoints: tuple
    cartesian_endpoints: tuple


@dataclass
class ConstructionResult:
    """The in-hemisphere realization of a triangle shape.

    ``apex`` is the hemisphere point S; ``foot`` is its vertical projection P
    (third coordinate zero).  ``parallelians`` are the three segments through
    P, and ``triangles`` the three similar triangles with apex S standing on
    them, each a 3x3 array of vertex rows (S, endpoint, endpoint).
    """

    apex: "np.ndarray"
    foot: "np.ndarray"
    parallelians: list
    triangles: list
    degenerate: bool


def area(s) -> float:
    """Area K = (1/4) sqrt(1 - 2 (a^4 + b^4 + c^4)) of normalized squared sides."""
    s = _sides3(s)
    radicand = 1.0 - 2.0 * (s.a2 * s.a2 + s.b2 * s.b2 + s.c2 * s.c2)
    return math.sqrt(max(radicand, 0.0)) / 4.0


def area_general(a: float, b: float, c: float) -> float:
    """Area from raw side lengths via 16 K^2 = (a+b+c)(-a+b+c)(a-b+c)(a+b-c)."""
    if not all(0.0 <= v < math.inf for v in (a, b, c)):
        raise ValueError(f"side lengths must be finite and nonnegative, got ({a}, {b}, {c})")
    prod = (a + b + c) * (-a + b + c) * (a - b + c) * (a + b - c)
    scale = max(a * a + b * b + c * c, 1.0)
    if prod < -1e-12 * scale * scale:
        raise NotATriangleError(f"sides ({a}, {b}, {c}) violate the triangle inequality")
    return math.sqrt(max(prod, 0.0)) / 4.0


def angles_from_sides(s) -> TriangleAngles:
    """Angles atan2(4K, 1 - 2 a^2) and cyclic, core._sides_angles on a batch of one:
    (0, 0, pi) on the rim, or a right angle where a squared side is exactly 1/2."""
    from .core import _sides_angles
    return TriangleAngles(*_sides_angles(_sides3(s).as_array()[None])[0].tolist())


def _hemisphere_angles(lat: "np.ndarray", lon: "np.ndarray") -> "np.ndarray":
    """(n, 3) angles in radians at hemisphere points (unchecked): core._angles
    of the closed forms 4K = sin(lat)/sqrt(3) and
    1 - 2 s_i = (1 + 2 cos(lat) cos(lon + o_i))/3, exactly degenerate on the rim."""
    import numpy as np
    from .core import _angles
    num = np.sin(lat)[:, None] / math.sqrt(3.0)
    den = (1.0 + 2.0 * np.cos(lat)[:, None] * np.cos(lon[:, None] + _SIDE_OFFSETS)) / 3.0
    return _angles(num, den)


def special_triangle(kind: str, K: float, phi: float | None = None):
    """Fixed-area representative of a special family, as (DiskPoint, SquaredSides).

    kind is one of ``right`` (K <= 1/8), ``isosceles_sharp`` / ``isosceles_flat``
    (K <= 1/sqrt(48)), or ``singular`` (K = 0, sweep the rim with ``phi``).
    """
    if K < -INPUT_TOL:
        raise DomainError(f"area must be nonnegative, got {K}")
    K = max(float(K), 0.0)

    if kind == "singular":
        if K > INPUT_TOL:
            raise DomainError(f"singular triangles have area 0, got K = {K}")
        disk = DiskPoint(0.5, math.pi if phi is None else phi)
        return disk, disk_to_sides(disk)

    if phi is not None:
        raise ValueError("phi only parametrizes the singular family")
    radicand = 1.0 - 48.0 * K * K

    if kind == "right":
        if K > 0.125 + INPUT_TOL:
            raise DomainError(f"right triangles need K <= 1/8, got {K}")
        r = math.sqrt(max(radicand, 0.25)) / 2.0
        disk = DiskPoint(r, math.acos(max(-1.0, -1.0 / (4.0 * r))) - 2.0 * math.pi / 3.0)
        return disk, disk_to_sides(disk)

    if kind in ("isosceles_sharp", "isosceles_flat"):
        if K > EQUILATERAL_AREA + INPUT_TOL:
            raise DomainError(f"isosceles triangles need K <= 1/sqrt(48), got {K}")
        r = math.sqrt(max(radicand, 0.0)) / 2.0
        disk = DiskPoint(r, 0.0 if kind == "isosceles_sharp" else math.pi / 3.0)
        return disk, disk_to_sides(disk)

    raise ValueError(f"unknown special-triangle kind {kind!r}")


def singular_sides(phi: float) -> "np.ndarray":
    """Actual (not squared) sides of the rim triangle at angle phi.

    These are sqrt(2/3) |sin(x/2)| at x = phi + 2pi/3, phi - 2pi/3, phi;
    the longest equals the sum of the other two.
    """
    if not math.isfinite(phi):
        raise DomainError(f"angle must be finite, got {phi}")
    import numpy as np
    return math.sqrt(2.0 / 3.0) * np.abs(np.sin(np.add(phi, _SIDE_OFFSETS) / 2.0))


def barycentric_frames() -> BarycentricFrames:
    """The big equilateral triangle's vertices (columns, norm 1) are _plane of the unit
    weights, axes swapped, so big @ u is _plane(*u) reversed; the inverted little one
    of its edge midpoints (norm 1/2) is inscribed in the radius-1/2 disk."""
    import numpy as np
    big = np.array([_plane(*u)[::-1] for u in np.eye(3).tolist()]).T.copy()
    return BarycentricFrames(big, -0.5 * big)


def little_coords(s) -> "np.ndarray":
    """Coordinates (1 - 2a^2, 1 - 2b^2, 1 - 2c^2) on the inverted little triangle."""
    return 1.0 - 2.0 * _sides3(s).as_array()


def parallelian_endpoints(s) -> list:
    """The three parallelians through P = (a2, b2, c2), endpoints per frame.

    Segment i is parallel to side i of the little triangle, has total length
    sqrt(3) * (squared side i), and is split by P into pieces of length
    sqrt(3) (1/2 - s_j) for the other two squared sides s_j.  The Cartesian
    endpoints are closed forms on floats: _plane(*u) reversed, as for barycentric_frames().big.
    """
    return construct_in_hemisphere(s).parallelians


def _construction(s: SquaredSides) -> tuple:
    """(apex, foot, parallelians, degenerate) on floats: apex and foot 3-tuples, and each
    parallelian's endpoints as weights (u, v) in the big frame, in the little frame, and
    as Cartesian points (_plane(*u)[::-1], _plane(*v)[::-1])."""
    a2, b2, c2 = s.a2, s.b2, s.c2
    weights = [
        (((a2, 0.5, 0.5 - a2), (a2, 0.5 - a2, 0.5)),
         ((1.0 - 2.0 * a2, 0.0, 2.0 * a2), (1.0 - 2.0 * a2, 2.0 * a2, 0.0))),
        (((0.5, b2, 0.5 - b2), (0.5 - b2, b2, 0.5)),
         ((0.0, 1.0 - 2.0 * b2, 2.0 * b2), (2.0 * b2, 1.0 - 2.0 * b2, 0.0))),
        (((0.5, 0.5 - c2, c2), (0.5 - c2, 0.5, c2)),
         ((0.0, 2.0 * c2, 1.0 - 2.0 * c2), (2.0 * c2, 0.0, 1.0 - 2.0 * c2))),
    ]
    paras = [(big, little, tuple(_plane(*u)[::-1] for u in big)) for big, little in weights]
    K = area(s)
    py, px = _plane(a2, b2, c2)                 # the big-frame point of (a2, b2, c2)
    return (px, py, math.sqrt(12.0) * K), (px, py, 0.0), paras, K <= DEGENERATE_TOL


def construct_in_hemisphere(s) -> ConstructionResult:
    """Stand the triangle up inside the hemisphere.

    The foot P is the point of the big frame at barycentric weights
    (a2, b2, c2), which is the shape's disk point with its axes swapped, and
    the apex S is P lifted to the sphere: 1/4 - |P|^2 = 12 K^2, so its height
    is sqrt(12) K, exactly 0 where the area is.  Over the third parallelian,
    with endpoints X and Y, triangle S-X-Y has sides sqrt(3) b c,
    sqrt(3) a c and sqrt(3) c^2, i.e. proportions a : b : c, and the other
    two parallelians carry the two rotated copies (the three similar
    triangles).  All of it is _construction's floats, put in arrays.
    """
    apex, foot, paras, degenerate = _construction(_sides3(s))
    return ConstructionResult(
        _array(apex), _array(foot),
        [Parallelian(i, *(tuple(map(_array, pair)) for pair in para))
         for i, para in enumerate(paras, start=1)],
        [_array([apex, [*u, 0.0], [*v, 0.0]]) for _, _, (u, v) in paras], degenerate)


def three_similar_triangles(s) -> list:
    """The three similar triangles over the parallelians, each a 3x3 vertex array.

    All three share the vertical segment from apex to foot as an altitude and
    have side lengths proportional to a, b, c.
    """
    return construct_in_hemisphere(s).triangles
