import numpy as np
import pytest

from trishape import core
from trishape.errors import DomainError

RNG = np.random.default_rng(2024)

# the worked 45-45-90 example with edge lengths 3*sqrt(2), 3, 3
T_RIGHT = np.array([[-2.0, 1.0, 1.0], [-1.0, -1.0, 2.0]])
E_RIGHT = np.array([[-3.0, 3.0, 0.0], [-3.0, 0.0, 3.0]])


def test_helmert3_rows():
    d = core.helmert(3)
    expected = np.array([
        [1 / np.sqrt(2), -1 / np.sqrt(2), 0.0],
        [1 / np.sqrt(6), 1 / np.sqrt(6), -2 / np.sqrt(6)],
    ])
    assert np.abs(d - expected).max() < 1e-15


def test_helmert2_single_row():
    d = core.helmert(2)
    assert d.shape == (1, 2)
    assert np.abs(d - [[1 / np.sqrt(2), -1 / np.sqrt(2)]]).max() < 1e-15


@pytest.mark.parametrize("n", range(2, 21))
def test_helmert_product_identities(n):
    d = core.helmert(n)
    assert np.abs(d @ d.T - np.eye(n - 1)).max() < 1e-12
    assert np.abs(d.T @ d - (np.eye(n) - np.ones((n, n)) / n)).max() < 1e-12
    assert np.abs(d @ np.ones(n)).max() < 1e-12


@pytest.mark.parametrize("bad", [1, 0, -3])
def test_helmert_rejects_small_n(bad):
    with pytest.raises(ValueError):
        core.helmert(bad)


def test_helmert_rotation_identity():
    # differencing the columns equals sqrt(3) times a rotation by pi/6
    d = core.helmert(3)
    rot = np.array([
        [np.cos(np.pi / 6), -np.sin(np.pi / 6)],
        [np.sin(np.pi / 6), np.cos(np.pi / 6)],
    ])
    lhs = d @ np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0], [-1.0, 0.0, 1.0]])
    assert np.abs(lhs - np.sqrt(3.0) * rot @ d).max() < 1e-12


def test_center_vertices_fixed_point():
    assert np.abs(core.center_vertices(T_RIGHT) - T_RIGHT).max() < 1e-15


def test_center_vertices_collapses_equal_points():
    t = np.tile([[2.0], [-5.0]], (1, 3))
    assert np.abs(core.center_vertices(t)).max() == 0.0


def test_center_vertices_zero_column_sums():
    for _ in range(50):
        t = core.center_vertices(RNG.normal(size=(2, 3)) * 10)
        assert np.abs(t.sum(axis=1)).max() < 1e-14


def test_vertices_to_edges_worked_example():
    assert np.abs(core.vertices_to_edges(T_RIGHT) - E_RIGHT).max() < 1e-15


def test_vertices_to_edges_zero():
    assert np.abs(core.vertices_to_edges(np.zeros((2, 3)))).max() == 0.0


def test_edges_to_vertices_worked_example():
    assert np.abs(core.edges_to_vertices(E_RIGHT) - T_RIGHT).max() < 1e-15


def test_edge_vertex_roundtrips():
    for _ in range(100):
        t = core.center_vertices(RNG.normal(size=(2, 3)))
        e = core.vertices_to_edges(t)
        assert np.abs(e.sum(axis=1)).max() < 1e-14
        assert np.abs(core.edges_to_vertices(e) - t).max() < 1e-12
        assert np.abs(core.vertices_to_edges(core.edges_to_vertices(e)) - e).max() < 1e-12


def test_edges_to_vertices_rejects_open_polygon():
    with pytest.raises(DomainError):
        core.edges_to_vertices(np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]]))


def test_shape_views_worked_example():
    mv_raw = T_RIGHT @ core.helmert(3).T
    me_raw = E_RIGHT @ core.helmert(3).T
    assert np.abs(mv_raw - (-np.array([[np.sqrt(9 / 2), np.sqrt(3 / 2)],
                                       [0.0, np.sqrt(6.0)]]))).max() < 1e-12
    assert np.abs(me_raw - (-np.array([[np.sqrt(18.0), 0.0],
                                       [np.sqrt(9 / 2), np.sqrt(27 / 2)]]))).max() < 1e-12
    # the two views differ by a fixed rotation-scaling
    assert np.abs(mv_raw - me_raw @ core.EDGE_TO_VERTEX_VIEW).max() < 1e-12
    # normalized versions keep the same relation up to the scaling sqrt(3)
    mv = core.shape_from_vertices(T_RIGHT)
    me = core.shape_from_edges(E_RIGHT)
    assert abs(np.linalg.norm(mv) - 1.0) < 1e-12
    assert abs(np.linalg.norm(me) - 1.0) < 1e-12
    assert np.abs(mv - me @ core.EDGE_TO_VERTEX_VIEW * np.sqrt(3.0)).max() < 1e-12


def test_shape_rejects_zero():
    with pytest.raises(DomainError):
        core.shape_from_edges(np.zeros((2, 3)))


@pytest.mark.parametrize("k", [-1000, -600, 0, 600, 1000])
def test_shape_is_exactly_scale_invariant(k):
    # the power of two of the largest entry is divided out before any sum or
    # norm, so 2^k T has the bits of T where the squared norm leaves the doubles
    t = np.array([[0.3, 1.7, -0.4], [0.2, -0.9, 1.1]])
    e = core.vertices_to_edges(core.center_vertices(t))
    for shape, x in ((core.shape_from_vertices, t), (core.shape_from_edges, e)):
        assert np.array_equal(shape(np.ldexp(x, k)), shape(x))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("fn", [core.center_vertices, core.vertices_to_edges,
                                core.edges_to_vertices, core.shape_from_vertices,
                                core.shape_from_edges])
def test_non_finite_matrices_are_refused(fn, bad):
    # a DomainError, where NaN used to flow into the result (RuntimeWarnings fail the suite)
    x = E_RIGHT.copy()
    x[1, 2] = bad
    with pytest.raises(DomainError, match="matrix must be finite"):
        fn(x)


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
def test_edges_to_vertices_closure_is_relative(scale):
    # an open edge matrix is refused at every size, a closed one kept
    with pytest.raises(DomainError, match="not a closed triangle"):
        core.edges_to_vertices(np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]]) * scale)
    assert np.array_equal(core.edges_to_vertices(E_RIGHT * scale),
                          core.edges_to_vertices(E_RIGHT) * scale)


def test_shape_translation_invariance():
    for _ in range(25):
        t_raw = RNG.normal(size=(2, 3))
        shift = RNG.normal(size=(2, 1)) * 100
        e1 = core.vertices_to_edges(t_raw)
        e2 = core.vertices_to_edges(t_raw + shift)
        assert np.abs(core.shape_from_edges(e1) - core.shape_from_edges(e2)).max() < 1e-12
        m1 = core.shape_from_vertices(core.center_vertices(t_raw))
        m2 = core.shape_from_vertices(core.center_vertices(t_raw + shift))
        assert np.abs(m1 - m2).max() < 1e-12


def test_longitude_has_the_bits_of_np_mod():
    y, x = np.random.default_rng(26).standard_normal((2, 100_000))
    # (y, x) whose arctan2 is each edge of the wrap: +-0, +-pi, the negative
    # subnormal that 2 pi absorbs (-5e-324, which is nextafter(0, -1)), and
    # the float just above -pi
    edges = [(0.0, 1.0, 0.0), (-0.0, 1.0, -0.0), (0.0, -1.0, np.pi), (-0.0, -1.0, -np.pi),
             (-5e-324, 1.0, -5e-324), (-5e-324, 1.0, np.nextafter(0.0, -1.0)),
             (-5e-16, -1.0, np.nextafter(-np.pi, 0.0))]
    for ey, ex, angle in edges:
        assert np.arctan2(ey, ex).tobytes() == np.float64(angle).tobytes()
    y = np.concatenate([y, [e[0] for e in edges]])
    x = np.concatenate([x, [e[1] for e in edges]])
    want = np.mod(np.arctan2(y, x), 2.0 * np.pi)
    assert core._longitude(y, x).tobytes() == want.tobytes()
