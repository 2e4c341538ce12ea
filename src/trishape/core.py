"""Reference frames and triangle matrix representations.

Triangles are carried as small NumPy arrays:

* vertex matrix: 2x3, columns are vertex coordinates; centered means each
  row sums to zero (centroid at the origin)
* edge matrix: 2x3, columns are edge vectors; columns sum to the zero
  vector, which is what makes the triangle close up
* shape matrix: 2x2 with unit Frobenius norm

The bridge between the 2x3 matrices and the 2x2 shape matrix is the
3-point Helmert frame: M = X @ helmert(3).T, rescaled to unit norm.
"""

import numpy as np

from .errors import DEGENERATE_TOL, INPUT_TOL, DomainError, integer

SQRT3 = float(np.sqrt(3.0))

# E = T @ EDGE_FROM_VERTEX maps centered vertices to edge vectors;
# T = E @ VERTEX_FROM_EDGE inverts it on the zero-column-sum subspace
# (the two 3x3 matrices are pseudoinverses of each other).
EDGE_FROM_VERTEX = np.array([
    [1.0, -1.0, 0.0],
    [0.0, 1.0, -1.0],
    [-1.0, 0.0, 1.0],
])
VERTEX_FROM_EDGE = np.array([
    [1.0, 0.0, -1.0],
    [-1.0, 1.0, 0.0],
    [0.0, -1.0, 1.0],
]) / 3.0

# Fixed rotation-scaling relating the two shape-matrix views of the same
# triangle: M_vertex = M_edge @ EDGE_TO_VERTEX_VIEW.
EDGE_TO_VERTEX_VIEW = np.array([
    [0.5, np.sqrt(3.0) / 6.0],
    [-np.sqrt(3.0) / 6.0, 0.5],
])


def helmert(n: int) -> np.ndarray:
    """(n-1) x n frame with orthonormal rows orthogonal to (1, ..., 1).

    Row j is (1, ..., 1, -j, 0, ..., 0) / sqrt(j (j+1)) with j leading ones.
    The columns are the vertices (equivalently edges) of a regular simplex,
    so helmert(3) is the reference equilateral triangle.
    """
    integer("n", n, 2)
    mat = np.zeros((n - 1, n))
    for j in range(1, n):
        mat[j - 1, :j] = 1.0
        mat[j - 1, j] = -float(j)
        mat[j - 1] /= np.sqrt(j * (j + 1.0))
    return mat


HELMERT3 = helmert(3)


def _as_2x3(x, what: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (2, 3):
        raise ValueError(f"{what} matrix must be 2x3, got shape {x.shape}")
    return x


def center_vertices(t_raw) -> np.ndarray:
    """Translate the centroid of a 2x3 vertex matrix to the origin."""
    t_raw = _as_2x3(t_raw, "vertex")
    return t_raw - t_raw.mean(axis=1, keepdims=True)


def vertices_to_edges(t) -> np.ndarray:
    """Edge matrix of a centered vertex matrix (columns sum to zero)."""
    return _as_2x3(t, "vertex") @ EDGE_FROM_VERTEX


def edges_to_vertices(e) -> np.ndarray:
    """Centered vertex matrix recovered from an edge matrix."""
    e = _as_2x3(e, "edge")
    colsum = e.sum(axis=1)
    if np.abs(colsum).max() > INPUT_TOL * max(1.0, np.abs(e).max()):
        raise DomainError(
            "edge matrix columns must sum to zero (not a closed triangle), "
            f"got column sum {colsum}"
        )
    return e @ VERTEX_FROM_EDGE


def _shape_from(x) -> np.ndarray:
    m = x @ HELMERT3.T
    norm = np.linalg.norm(m)
    if norm <= 0.0:
        raise DomainError("zero matrix has no shape")
    return m / norm


def shape_from_vertices(t) -> np.ndarray:
    """Unit-norm 2x2 shape matrix in the vertex view: T @ helmert(3).T, normalized."""
    return _shape_from(_as_2x3(t, "vertex"))


def shape_from_edges(e) -> np.ndarray:
    """Unit-norm 2x2 shape matrix in the edge view (the default view): E @ helmert(3).T."""
    return _shape_from(_as_2x3(e, "edge"))


def _column_sum(a: np.ndarray) -> np.ndarray:
    """Row sums of a 2-d array, adding its columns left to right: a fixed
    order, which _gram's exact results rely on, and for few columns several
    times faster than a reduction over the short axis."""
    return sum((a[:, i] for i in range(1, a.shape[1])), a[:, 0])


def _gram(z: np.ndarray):
    """Iterator over the upper-triangle entries of the Gram matrices z^T z of an
    (n, m, q) batch, row by row: (g11, g12, g22) for triangles, whose disk point
    times g11 + g22 is ((g11 - g22)/2, g12).  Each is the _column_sum of a column
    product: the bits of einsum "nij,nik->njk" of z with z, several times faster."""
    q = z.shape[2]
    return (_column_sum(z[:, :, j] * z[:, :, k]) for j in range(q) for k in range(j, q))


def _longitude(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """arctan2(y, x) wrapped to [0, 2 pi] with the bits of np.mod(., 2 pi) at a quarter of
    its cost: the angle plus 0.0 (so -0.0 is +0.0), and below 0 plus 2 pi, rounded once."""
    out = np.where((a := np.arctan2(y, x)) < 0.0, 2.0 * np.pi, 0.0)
    out += a
    return out


def _sides_from_xy(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(n, 3) squared sides of the shapes at disk Cartesian coordinates (x, y)."""
    a2 = (1.0 + x + SQRT3 * y) / 3.0
    b2 = (1.0 + x - SQRT3 * y) / 3.0
    c2 = (1.0 - 2.0 * x) / 3.0
    return np.stack([a2, b2, c2], axis=1)


def _angles(four_k: np.ndarray, den: np.ndarray) -> np.ndarray:
    """(n, 3) angles atan2(4K, 1 - 2 s_i) in radians of an (n, 1) column of 4K and
    (n, 3) rows of 1 - 2 s_i, and pi/2 where both are within DEGENERATE_TOL (a
    collapsed pair of sides at 1/2): 1 - 2 s_i is tested on the flat rows only."""
    out = np.arctan2(four_k, den)
    flat = np.flatnonzero(np.abs(four_k[:, 0]) <= DEGENERATE_TOL)
    out[flat] = np.where(np.abs(den[flat]) <= DEGENERATE_TOL, np.pi / 2.0, out[flat])
    return out


def _sides_angles(s2: np.ndarray) -> np.ndarray:
    """_angles of an (n, 3) squared-sides array, 4K = sqrt(1 - 2 (a^4 + b^4 + c^4))."""
    four_k = np.sqrt(np.maximum(1.0 - 2.0 * (s2 * s2).sum(axis=1), 0.0))
    return _angles(four_k[:, None], 1.0 - 2.0 * s2)
