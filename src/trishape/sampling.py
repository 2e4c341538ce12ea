"""Random shapes, classification, and the exact probabilities they obey.

Samplers draw from four models, one row each of MODELS: independent Gaussian
vertex coordinates (equivalently a Gaussian 2x2 shape matrix), the uniform
measure on the hemisphere, uniform angles on the simplex, and Gaussian
triangles in R^m.  Monte Carlo drivers stream fixed-size blocks, each with
its own deterministically derived generator, so totals are reproducible for
any worker count.

Draws come from NumPy Generators on PCG64 streams keyed by (seed, stream,
block); frozen statistics in the test-suite assume this generator.  Gaussian
shapes and preshapes take standard_normal (ziggurat) deviates.  In a block of
count triangles in R^m the heights are the first count doubles, whatever m, and
the longitudes the next count (hemisphere_heights).  Count kernels draw
CHUNK_ROWS rows at a time (_chunked), so none holds a block-sized array.
"""

# annotations stay unevaluated, so np.random.Generator in them does not load numpy.random
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .core import SQRT3, _column_sum, _gram, _sides_angles, _sides_from_xy
from .errors import INPUT_TOL, simplex_point

BLOCK_SIZE = 1 << 16
CHUNK_ROWS = 1 << 12      # rows a count kernel classifies at a time
RIGHT_ANGLE_TOL = 1e-9
SCREEN_BAND = 1e-5        # B: _height_counts rechecks rows with |q32| <= B in float64

BROKEN_STICK_FRACTION = math.pi / math.sqrt(27.0)
# Normalizer of the angle density over the (alpha, beta) simplex; the
# unnormalized density integrates to 1/ANGLE_DENSITY_NORM.
ANGLE_DENSITY_NORM = 3.0 * SQRT3 * math.pi

CLASS_NAMES = ("acute", "right", "obtuse")


@dataclass(frozen=True)
class RngSeed:
    """Reproducible stream identity: (seed, stream) plus per-block spawning."""

    seed: int
    stream: int = 0

    def __post_init__(self):    # SeedSequence would reject them only once a block is drawn
        for name, value in (("seed", self.seed), ("stream", self.stream)):
            if value < 0:
                raise ValueError(f"{name} must be at least 0, got {value}")

    def generator(self, block: int | None = None) -> np.random.Generator:
        key = (self.stream,) if block is None else (self.stream, block)
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=key))


def as_rng_seed(seed) -> RngSeed:
    if isinstance(seed, RngSeed):
        return seed
    if isinstance(seed, (int, np.integer)):
        return RngSeed(int(seed))
    if isinstance(seed, (tuple, list)) and len(seed) == 2:
        return RngSeed(int(seed[0]), int(seed[1]))
    raise ValueError(f"cannot interpret {seed!r} as an rng seed")


@dataclass
class SimplexAngles:
    """Angles divided by pi: nonnegative (alpha, beta, gamma) summing to one."""

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        self.alpha, self.beta, self.gamma = simplex_point(
            (self.alpha, self.beta, self.gamma), "simplex angles")

    def as_array(self) -> np.ndarray:
        return np.array([self.alpha, self.beta, self.gamma])


@dataclass
class MonteCarloEstimate:
    estimate: float
    stderr: float
    n_samples: int


# ---------------------------------------------------------------------------
# samplers


def gaussian_shapes(rng: np.random.Generator, n: int) -> np.ndarray:
    """Batch of n unit-norm Gaussian shape matrices, shape (n, 2, 2)."""
    return _unit_norm(rng.standard_normal((n, 2, 2)))


def _unit_norm(z: np.ndarray) -> np.ndarray:
    """Each of the n matrices of z over its Frobenius norm (zero ones unchanged)."""
    norms = np.linalg.norm(z.reshape(len(z), math.prod(z.shape[1:])), axis=1)
    norms[norms == 0.0] = 1.0   # probability-zero guard
    return z / norms[:, None, None]


def uniform_hemisphere_batch(rng: np.random.Generator, n: int):
    """Latitudes and longitudes of n points uniform on the hemisphere."""
    height, lon = hemisphere_heights(rng, n)
    return np.arcsin(2.0 * height), lon


def hemisphere_heights(rng: np.random.Generator, n: int, m: int = 2):
    """Heights h in [0, 1/2] and longitudes of n Gaussian triangles in R^m on
    the hemisphere.  2h = 2 sqrt(det G) / tr G, G the Gram matrix of an m x 2
    Gaussian preshape, has CDF s^(m-1) on [0, 1] and is independent of the
    uniform longitude (Muirhead 1982, sec. 3.2), so h = u^(1/(m-1)) / 2 for
    u uniform on [0, 1): u / 2 at m = 2, and 0 at m = 1 (collinear).  The
    heights take the first n doubles of rng, the longitudes the next n."""
    _integer("m", m)
    if m < 1:
        raise ValueError(f"need m >= 1, got m={m}")
    return _heights(rng.random(n), m), rng.random(n) * (2.0 * math.pi)


def _heights(u: np.ndarray, m: int) -> np.ndarray:
    """hemisphere_heights' heights from its doubles u, in place; u / 2 has the
    bits of uniform(0, 1/2), and 2 (u / 2) = u exactly."""
    if m > 2:
        u **= 1.0 / (m - 1)
    u *= 0.5 if m > 1 else 0.0
    return u


def uniform_angles_batch(rng: np.random.Generator, n: int) -> np.ndarray:
    e = rng.exponential(size=(n, 3))
    # the column sum adds in the same order as e.sum(axis=1), several times faster
    return e / (e[:, 0] + e[:, 1] + e[:, 2])[:, None]


def ndim_shapes(m: int, k: int, rng: np.random.Generator, n: int) -> np.ndarray:
    """n unit-Frobenius m x (k-1) matrices of iid normals (k-point shapes in R^m)."""
    _integer("m", m)
    _integer("k", k)
    if m < 1 or k < 2:
        raise ValueError(f"need m >= 1 and k >= 2, got m={m}, k={k}")
    return _unit_norm(rng.standard_normal((n, m, k - 1)))


# ---------------------------------------------------------------------------
# classification


def _column_max(vals: np.ndarray) -> np.ndarray:
    """Largest entry of each row of an (n, 3) array; three column maxima cost
    a fraction of vals.max(axis=1), which reduces over the short axis."""
    return np.maximum(np.maximum(vals[:, 0], vals[:, 1]), vals[:, 2])


def _class_masks(top: np.ndarray, total=1.0):
    """(right or obtuse, obtuse) for rows whose largest squared side or angle
    is top and whose entries sum to total (1 for normalised rows).  A row is
    obtuse when top exceeds half the total by more than RIGHT_ANGLE_TOL times
    the total, and right within that.  The rule is the same at every scale,
    so unnormalised rows need no division."""
    d = top - 0.5 * total
    tol = RIGHT_ANGLE_TOL * total
    return d >= -tol, d > tol


def _classify_codes(top: np.ndarray, total=1.0) -> np.ndarray:
    """0 acute / 1 right / 2 obtuse, by _class_masks."""
    return np.add(*_class_masks(top, total), dtype=np.intp)


def _class_counts(top: np.ndarray, total=1.0) -> np.ndarray:
    """(acute, right, obtuse) counts, by _class_masks."""
    not_acute, obtuse = (np.count_nonzero(v) for v in _class_masks(top, total))
    return np.array([top.size - not_acute, not_acute - obtuse, obtuse])


def _disk_counts(x: np.ndarray, y: np.ndarray, t=1.0) -> np.ndarray:
    """Class counts of shapes of squared size t whose disk point, times t, is
    (x, y).  Their squared sides times 3t are t + x + sqrt(3) y,
    t + x - sqrt(3) y and t - 2x, so three times the largest is
    t + max(x + sqrt(3) |y|, -2x)."""
    top = t + np.maximum(x + SQRT3 * np.abs(y), -2.0 * x)
    return _class_counts(top, 3.0 * t)


def _preshape_counts(z: np.ndarray) -> np.ndarray:
    """Class counts of (n, m, 2) triangle preshapes, from their Gram entries:
    the disk point times 2 (g11 + g22) is (g11 - g22, 2 g12)."""
    g11, g12, g22 = _gram(z)
    return _disk_counts(g11 - g22, 2.0 * g12, 2.0 * (g11 + g22))


def _angle_counts(e: np.ndarray) -> np.ndarray:
    """Class counts of (n, 3) exponentials, whose rows over their sums are
    angles over pi."""
    return _class_counts(_column_max(e), e[:, 0] + e[:, 1] + e[:, 2])


def _height_counts64(height: np.ndarray, lon: np.ndarray) -> np.ndarray:
    """Class counts by the float64 rule: three times the largest squared side is 1 + 2r cos(d),
    r = sqrt(1/4 - h^2), d in [-pi/3, pi/3] the offset of lon from its sector's middle."""
    d = lon - (2.0 * math.pi / 3.0) * np.floor(lon * (1.5 / math.pi)) - math.pi / 3.0
    return _class_counts(1.0 + 2.0 * np.sqrt(0.25 - height * height) * np.cos(d), 3.0)


def _height_counts(height: np.ndarray, lon: np.ndarray) -> np.ndarray:
    """The class counts of _height_counts64, from a float32 screen of q = r cos(d) - 1/4 =
    (top - 3/2)/2 (right: |q| <= 1.5e-9): rows with |q32| > B = SCREEN_BAND take its sign, the
    rest (under 1e-4) the float64 rule.  With q, r, d exact and u = 2^-24, where r >= 1/5,
    |q32 - q| <= E = 28u < 1.7e-6 < B/4.  The offset errs <= 18u: the cast of lon 4u, the
    constants 2pi/3 (times k <= 3) and pi/3 7u, the arithmetic 7u.  Its floor is a sector off
    only within 11.5u of an edge (lon (1.5/pi) errs <= 5.5u), where both offsets' cosines are
    within 10u of cos(+-pi/3) = 1/2: 20u.  Float32 cos errs <= 1.5 ulp <= 3u: 41u in all, times
    r32 <= 1/2.  The cast h, its square and 1/4 - h^2 err <= u, so |r32 - r| <= u/r + u/2 <=
    5.5u; the product and difference add u.  Where r < 1/5, q < -1/20 and q32 < -0.0499997:
    screened acute, as it is.  Elsewhere the float64 rule errs < 1e-14 in q, so agrees."""
    lon32, r = lon.astype(np.float32), height.astype(np.float32)
    q = np.floor(lon32 * (1.5 / math.pi)) * (2.0 * math.pi / 3.0)  # weak scalars: float32
    np.subtract(np.subtract(lon32, q, out=q), math.pi / 3.0, out=q)
    np.sqrt(np.subtract(0.25, np.square(r, out=r), out=r), out=r)
    np.subtract(np.multiply(np.cos(q, out=q), r, out=q), 0.25, out=q)
    counts = np.array([np.count_nonzero(q < -SCREEN_BAND), 0, np.count_nonzero(q > SCREEN_BAND)])
    if counts[0] + counts[2] < q.size:      # the band is rarely occupied
        band = np.flatnonzero(np.abs(q) <= SCREEN_BAND)
        counts += _height_counts64(height[band], lon[band])
    return counts


# ---------------------------------------------------------------------------
# blocks and models


def _integer(name: str, value):
    """ValueError unless value is an int or a NumPy integer; a bool is not one."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def iter_blocks(n: int, seed):
    """Iterator of (generator, count) for each block of an n-sample budget;
    block i draws from the generator keyed by (seed, stream, i).  An n that
    is not an integer >= 1 (a bool or a float included) raises ValueError at
    the call, before any caller writes output."""
    _integer("the sample count", n)
    if n < 1:
        raise ValueError(f"need at least one sample, got {n}")
    seed = as_rng_seed(seed)
    return ((seed.generator(block=i), min(BLOCK_SIZE, n - i * BLOCK_SIZE))
            for i in range((n + BLOCK_SIZE - 1) // BLOCK_SIZE))


def _chunked(draw, row_shape: tuple, count: int, kernel, *cursors) -> list:
    """kernel(*bufs) of each chunk of count rows: draw(out=...), then each draw
    in cursors, writes CHUNK_ROWS rows at a time into its own reused buffer,
    which kernel must not return.  Each draw goes on along its stream, so its
    rows are those of one draw of count rows; the buffers and temporaries stay
    in cache and below malloc's mmap threshold."""
    draws = (draw, *cursors)
    bufs = [np.empty((min(CHUNK_ROWS, count), *row_shape)) for _ in draws]
    return [kernel(*(d(out=b[:min(CHUNK_ROWS, count - lo)]) for d, b in zip(draws, bufs)))
            for lo in range(0, max(count, 1), CHUNK_ROWS)]     # count 0: one empty chunk


def _gaussian_disk(rng: np.random.Generator, count: int, m: int = 2):
    # the rows of gaussian_shapes; normalising whole blocks costs 3x the draws
    def disk(z):
        g11, g12, g22 = _gram(_unit_norm(z))
        return (g11 - g22) / 2.0, g12
    return np.concatenate(_chunked(rng.standard_normal, (2, 2), count, disk), axis=1)


def _gaussian_radius(rng: np.random.Generator, count: int, edges) -> np.ndarray:
    def hist(z):    # (x, y) is the disk point times 2 (g11 + g22), as in _preshape_counts
        g11, g12, g22 = _gram(z)
        x, y = g11 - g22, 2.0 * g12
        return np.histogram(np.sqrt(x * x + y * y) / (2.0 * (g11 + g22)), bins=edges)[0]
    return sum(_chunked(rng.standard_normal, (2, 2), count, hist))


def _height_block_counts(rng: np.random.Generator, count: int, m: int) -> np.ndarray:
    """Class counts of hemisphere_heights(rng, count, m), its heights drawn from a
    cursor at rng's state and its longitudes from rng advanced past them."""
    cursor = np.random.Generator(np.random.PCG64(0))    # a fixed seed: no OS entropy
    cursor.bit_generator.state = rng.bit_generator.state
    rng.bit_generator.advance(count)
    return sum(_chunked(lambda out: _heights(cursor.random(out=out), m), (), count, _height_counts,
                        lambda out: np.multiply(rng.random(out=out), 2.0 * math.pi, out=out)))


def _height_disk(rng: np.random.Generator, count: int, m: int):
    height, lon = hemisphere_heights(rng, count, m)
    r = np.cos(np.arcsin(2.0 * height)) / 2.0
    return r * np.cos(lon), r * np.sin(lon)


def _height_radius(rng: np.random.Generator, count: int, edges) -> np.ndarray:
    hist = lambda h: np.histogram(np.sqrt(0.25 - h * h), bins=edges)[0]
    return sum(_chunked(lambda out: _heights(rng.random(out=out), 2), (), count, hist))


# A row of MODELS: kernels drawing one block of count rows from rng (None where
# the model has none) and what it supports.  counts(rng, count, m): class counts
# of raw draws; disk(rng, count, m): disk points (x, y); radius(rng, count,
# edges): histogram counts of disk radii; angles(rng, count): angles over pi.
# reads_m: triangles in R^m, not planar; preshapes: drawn by ndim_shapes.
Model = namedtuple("Model", "counts disk radius angles reads_m preshapes",
                   defaults=(None, None, None, False, False))

MODELS = {
    "gaussian": Model(
        counts=lambda rng, n, m: sum(_chunked(rng.standard_normal, (2, 2), n, _preshape_counts)),
        disk=_gaussian_disk, radius=_gaussian_radius,
        angles=lambda rng, n: _sides_angles(_sides_from_xy(*_gaussian_disk(rng, n))) / math.pi,
        preshapes=True),
    "hemisphere": Model(counts=_height_block_counts, disk=_height_disk, radius=_height_radius),
    "angles": Model(
        counts=lambda rng, n, m: sum(_chunked(rng.standard_exponential, (3,), n, _angle_counts)),
        angles=lambda rng, n: uniform_angles_batch(rng, n)),   # late-bound: patchable by name
    "ndim": Model(counts=_height_block_counts, disk=_height_disk, reads_m=True, preshapes=True),
}

_NEEDS = {None: "unknown model: expected", "disk": "disk coordinates need model",
          "radius": "radius counts need model", "angles": "angle bins need model"}


def check_model(model: str, need: str | None = None, label: str | None = None, m=2) -> Model:
    """The row of model if it has the field need and takes m (None: the caller has
    no m, so no model that reads one); else ValueError, whose message starts with
    label (by default _NEEDS[need]) and names the models that fit."""
    fits = [name for name, row in MODELS.items()
            if (need is None or getattr(row, need)) and (m is not None or not row.reads_m)]
    if model not in fits:
        listed = " or ".join(map(repr, fits)) + (" only" if len(fits) == 1 else "")
        raise ValueError(f"{label or _NEEDS[need]} {listed}, got {model!r}")
    row = MODELS[model]
    integer = isinstance(m, (int, np.integer)) and not isinstance(m, bool)
    if m is not None and not (integer and m >= 1 if row.reads_m else m == 2):
        wants = "an integer m >= 1" if row.reads_m else "m = 2 alone, as it is planar"
        raise ValueError(f"model {model!r} takes {wants}, got m={m!r}")
    return row


def disk_batch(model: str, rng: np.random.Generator, count: int, m: int = 2):
    """Disk coordinates (x, y) of count shapes of a model with a disk kernel."""
    return check_model(model, "disk", m=m).disk(rng, count, m)


def sides_batch(model: str, rng: np.random.Generator, count: int, m: int = 2) -> np.ndarray:
    """(count, 3) squared sides of the shapes disk_batch draws."""
    return _sides_from_xy(*disk_batch(model, rng, count, m))


def radius_counts(model: str, rng: np.random.Generator, count: int, edges) -> np.ndarray:
    """np.histogram counts over edges of the disk radii of a model with a radius kernel."""
    return check_model(model, "radius").radius(rng, count, edges)


# ---------------------------------------------------------------------------
# block-wise Monte Carlo


def _mc_sum(n_samples: int, block_fn, seed, workers: int = 1) -> np.ndarray:
    """Sum block_fn(rng, count) over the blocks of iter_blocks(n_samples, seed).

    block_fn must return integer counts so the total is exactly independent
    of how blocks are scheduled across workers.  With workers > 1 it runs in
    worker threads, so every trishape module it reads must already be loaded
    (see the package docstring).
    """
    _integer("workers", workers)
    if workers < 1:
        raise ValueError(f"need workers >= 1, got workers={workers}")
    blocks = iter_blocks(n_samples, seed)
    run = lambda block: np.asarray(block_fn(*block), dtype=np.int64)
    if workers <= 1:
        return np.sum([run(b) for b in blocks], axis=0)
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return np.sum(list(pool.map(run, blocks)), axis=0)


def _binomial(count, n_samples: int) -> MonteCarloEstimate:
    p = count / n_samples
    return MonteCarloEstimate(p, math.sqrt(p * (1.0 - p) / n_samples), n_samples)


def class_fractions(model: str, n_samples: int, seed=0, m: int = 2,
                    workers: int = 1) -> dict:
    """Acute/right/obtuse fractions with binomial standard errors.

    model is a key of MODELS; m is the dimension of a model that reads it
    (triangles in R^m), and must stay 2 for the planar ones.
    """
    row = check_model(model, m=m)
    counts = _mc_sum(n_samples, lambda rng, count: row.counts(rng, count, m), seed, workers)
    out = {"n_samples": n_samples, "counts": {n: int(c) for n, c in zip(CLASS_NAMES, counts)}}
    for name, c in zip(CLASS_NAMES, counts):
        est = _binomial(c, n_samples)
        out[name], out[f"{name}_stderr"] = est.estimate, est.stderr
    return out


def acute_probability_mc(n_samples: int, seed=0, workers: int = 1) -> MonteCarloEstimate:
    """Fraction of Gaussian shapes that are acute (exact right angles count as acute;
    the boundary has probability zero)."""
    fr = class_fractions("gaussian", n_samples, seed=seed, workers=workers)
    return _binomial(fr["counts"]["acute"] + fr["counts"]["right"], n_samples)


def obtuse_fraction_ndim_mc(n_dim: int, n_samples: int, seed=0,
                            workers: int = 1) -> MonteCarloEstimate:
    """Monte Carlo obtuse fraction for Gaussian triangles in R^n."""
    fr = class_fractions("ndim", n_samples, seed=seed, m=n_dim, workers=workers)
    return _binomial(fr["counts"]["obtuse"], n_samples)


def broken_stick_fraction(n_samples: int, seed=0, workers: int = 1) -> MonteCarloEstimate:
    """Fraction of uniform-simplex triples (a2, b2, c2) that form a triangle.

    The acceptance region is a^4 + b^4 + c^4 <= 1/2, i.e. the inscribed disk;
    the fraction converges to pi / sqrt(27).
    """

    def good(e: np.ndarray) -> int:
        # the simplex point is e / sum(e): test sum(e^2) <= sum(e)^2 / 2 unscaled
        total = e[:, 0] + e[:, 1] + e[:, 2]
        return np.count_nonzero(_column_sum(e * e) <= 0.5 * total * total)

    block = lambda rng, count: [sum(_chunked(rng.standard_exponential, (3,), count, good))]
    return _binomial(int(_mc_sum(n_samples, block, seed, workers)[0]), n_samples)


# ---------------------------------------------------------------------------
# density of angles under the uniform shape measure


def _angle_density_arrays(alpha, beta, gamma):
    """Unnormalized density at simplex points, vectorized; inf on the boundary.

    The density is |det(D J D^T)| / (sqrt(48) K): the Jacobian of the
    law-of-sines map from angles to the squared-sides disk (D the 3-point
    Helmert frame), composed with the disk-to-hemisphere area factor
    1/sqrt(1 - 4 r^2) = 1/(sqrt(48) K).  Expanding the determinant with the
    2x2 adjugate identity and sin(pi(alpha+beta+gamma)) = 0 collapses the
    whole expression to a closed form with no cancellation anywhere:

        (2/sqrt(3)) sin(pi a) sin(pi b) sin(pi g) / sigma^2,

    sigma the sum of squared sines.  It diverges like 1/(9 sqrt(3) pi d) at
    distance d from a simplex corner and vanishes on the open edges.
    """
    alpha, beta, gamma = np.broadcast_arrays(
        np.asarray(alpha, dtype=float), np.asarray(beta, dtype=float),
        np.asarray(gamma, dtype=float))
    ang = np.stack([alpha, beta, gamma], axis=-1)
    sines = np.sin(math.pi * ang)
    sigma = (sines**2).sum(axis=-1)
    interior = ang.min(axis=-1) > 0.0
    sigma_safe = np.where(interior, sigma, 1.0)
    out = (2.0 / SQRT3) * np.prod(sines, axis=-1) / sigma_safe**2
    return np.where(interior, np.abs(out), np.inf)


def angle_density(angles, normalized: bool = False) -> float:
    """Density of (alpha, beta, gamma) when the shape is uniform on the hemisphere.

    Evaluated per unit d(alpha) d(beta) on the simplex.  By default returns
    the raw inverse-Jacobian value; with normalized=True it is scaled by
    ANGLE_DENSITY_NORM so it integrates to one.  Boundary points return inf
    (degenerate triangles; the density diverges at the simplex corners).
    """
    if isinstance(angles, SimplexAngles):
        a, b, g = angles.alpha, angles.beta, angles.gamma
    else:
        a, b, g = (float(v) for v in angles)
        SimplexAngles(a, b, g)  # validate
    val = float(_angle_density_arrays(a, b, g))
    return val * ANGLE_DENSITY_NORM if normalized else val


# ---------------------------------------------------------------------------
# barycentric binning of the angle simplex (the "N^2 bins" picture)


def _bins_per_side(n) -> int:    # for angle_bins (so the counts and masses) and angle_bin_index
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError(f"bins_per_side must be an integer >= 1, got {n!r}")
    return int(n)


def angle_bins(bins_per_side: int = 10) -> list:
    """Bin labels (i, j, orientation) covering the simplex with n^2 triangles.

    i and j index floor(alpha n) and floor(beta n); orientation is 'up' for
    the lower cell half (i + j + k = n - 1) and 'down' for the upper half.
    """
    n = _bins_per_side(bins_per_side)
    return ([(i, j, "up") for i in range(n) for j in range(n - i)]
            + [(i, j, "down") for i in range(n - 1) for j in range(n - 1 - i)])


def _bin_coords(ang: np.ndarray, n: int):
    """(i, j, up) arrays placing rows (alpha, beta, ...) of angles over pi in
    the n^2 bins."""
    i = np.minimum((ang[:, 0] * n).astype(np.int64), n - 1)
    j = np.minimum((ang[:, 1] * n).astype(np.int64), n - 1)
    # points exactly on a cell diagonal or the simplex edge count as 'up'
    up = (ang[:, 0] * n + ang[:, 1] * n <= i + j + 1.0) | (i + j >= n - 1)
    return i, np.where(up, np.minimum(j, n - 1 - i), j), up


def angle_bin_index(alpha: float, beta: float, bins_per_side: int = 10) -> tuple:
    """Label of the bin holding one point, by the rule angle_bin_counts uses; the
    point must lie in the simplex, to within INPUT_TOL."""
    if not (alpha >= -INPUT_TOL and beta >= -INPUT_TOL and alpha + beta <= 1.0 + INPUT_TOL):
        raise ValueError(f"angles must be finite and in the simplex, got ({alpha}, {beta})")
    i, j, up = _bin_coords(np.array([[alpha, beta]], float), _bins_per_side(bins_per_side))
    return (int(i[0]), int(j[0]), "up" if up[0] else "down")


def _angle_pair_tail(p: int, q: int, n: int) -> float:
    """P(alpha >= p/n, beta >= q/n): the area over 2 pi of the lens cut by the
    two caps, whose vertices are the angle point and the collision of the
    vertices A and B.  By Gauss-Bonnet the area is 2 (pi - phi - d1 psi1 -
    d2 psi2): pi - phi is the interior angle at both vertices, and d_i psi_i
    the geodesic curvature of circle i along its half-arc in the other cap.

    On the hemisphere z = (sqrt(3)/2) tan A (1 - 2 a^2), so {A >= t} is the
    cap {m . x >= d} of the upper unit sphere x = 2 (x, y, z), with normal
    m = (2 sin t u_A, sqrt(3) cos t) / N, u_A the disk direction of a^2, and
    d = sin t / N, N = sqrt(3 + sin^2 t); t = 0 gives the whole hemisphere.
    As u_A . u_B = -1/2, the normals meet at (3 cos1 cos2 - 2 sin1 sin2)/(N1 N2)."""
    if p + q >= n:
        return 0.0
    if p == q == 0:
        return 1.0
    (sin1, cos1), (sin2, cos2) = ((math.sin(math.pi * k / n), math.cos(math.pi * k / n))
                                  for k in (p, q))
    n1, n2 = math.sqrt(3.0 + sin1 * sin1), math.sqrt(3.0 + sin2 * sin2)
    d1, d2 = sin1 / n1, sin2 / n2
    c = (3.0 * cos1 * cos2 - 2.0 * sin1 * sin2) / (n1 * n2)
    s1, s2, st = math.sqrt(1.0 - d1 * d1), math.sqrt(1.0 - d2 * d2), math.sqrt(1.0 - c * c)
    acos = lambda v: math.acos(min(max(v, -1.0), 1.0))
    phi = acos((c - d1 * d2) / (s1 * s2))
    psi1 = acos((d2 - c * d1) / (st * s1))
    psi2 = acos((d1 - c * d2) / (st * s2))
    return (math.pi - phi - d1 * psi1 - d2 * psi2) / math.pi


def angle_bin_probabilities(bins_per_side: int = 10) -> dict:
    """Exact probability mass of each barycentric bin under the uniform shape measure.

    Uniform shapes are uniform on the hemisphere, so a bin's mass is its
    spherical area over 2 pi.  An 'up' bin is {angles >= b} for the lower
    bounds b = (i, j, n-1-i-j)/n and a 'down' bin is {angles <= b} for the
    upper bounds b = (i+1, j+1, n-1-i-j)/n.  Either way inclusion-exclusion
    gives 1 - sum_s G(b_s, 0) + sum_{s<t} G(b_s, b_t) with G the pair tail
    of _angle_pair_tail, the same for every pair of angles by symmetry; no
    triple term occurs because lower bounds sum to at most 1 and upper
    bounds to at least 1.  The masses sum to one up to rounding.
    """
    n = bins_per_side
    out = {}
    for label in angle_bins(n):
        i, j, orient = label
        b = (i, j, n - 1 - i - j) if orient == "up" else (i + 1, j + 1, n - 1 - i - j)
        out[label] = (1.0 - sum(_angle_pair_tail(v, 0, n) for v in b)
                      + _angle_pair_tail(b[0], b[1], n) + _angle_pair_tail(b[0], b[2], n)
                      + _angle_pair_tail(b[1], b[2], n))
    return out


def angle_bin_counts(model: str, n_samples: int, seed=0, bins_per_side: int = 10,
                     workers: int = 1) -> dict:
    """Histogram over the barycentric bins of the angles a model's angle kernel draws."""
    row = check_model(model, "angles")
    labels = angle_bins(bins_per_side)
    n = bins_per_side
    up_base = np.cumsum([0] + [n - ii for ii in range(n)])
    down_base = up_base[n] + np.cumsum([0] + [n - 1 - ii for ii in range(n - 1)])

    def block(rng: np.random.Generator, count: int) -> np.ndarray:
        i, j, up = _bin_coords(row.angles(rng, count), n)
        flat = np.where(up, up_base[i] + j, down_base[np.minimum(i, n - 2)] + j)
        return np.bincount(flat, minlength=len(labels))

    counts = _mc_sum(n_samples, block, seed, workers)
    return dict(zip(labels, (int(c) for c in counts)))
