"""Triangle shape space: representations, geometry, random shapes, and tests.

The shape of a triangle (its similarity class with ordered vertices) is a
point on a hemisphere of radius 1/2.  This package converts losslessly
among five equivalent representations of that point, constructs the
shape's geometry inside the hemisphere, draws random shapes whose
hemisphere distribution is provably uniform, and tests empirical shape
samples for uniformity.

Importing the package runs no submodule: each runs on its first attribute
access, so a one-shot command pays only for the modules it uses.  That first
access must not be in a worker thread; lazy loading is not thread-safe on
CPython 3.11.
"""

import importlib.util
import sys

__version__ = "0.1.0"

_SUBMODULES = ("conversions", "core", "errors", "geometry", "sampling", "specfun", "uniformity")

# each public name and the submodule that defines it
_EXPORTS = {
    **dict.fromkeys((
        "DiskPoint", "HemispherePoint", "RoundtripReport", "SquaredSides", "SvdShape",
        "UnitQuaternion", "convert", "disk_to_hemisphere", "disk_to_sides", "disk_to_svd",
        "hemisphere_to_cartesian", "hemisphere_to_disk", "hemisphere_to_sides",
        "hemisphere_to_svd", "hopf", "hopf_equivariance_check", "kind_of",
        "q3_from_quaternion", "q4_from_quaternion", "roundtrip_all", "shape_distance",
        "shape_to_disk", "shape_to_hemisphere", "shape_to_hemisphere_cartesian",
        "shape_to_sides", "sides_to_disk", "sides_to_hemisphere", "sides_to_shape",
        "sides_to_svd", "svd2x2", "svd2x2_factors", "svd_to_disk", "svd_to_hemisphere",
        "svd_to_shape", "svd_to_sides"), "conversions"),
    **dict.fromkeys((
        "EDGE_TO_VERTEX_VIEW", "center_vertices", "edges_to_vertices", "helmert",
        "shape_from_edges", "shape_from_vertices", "vertices_to_edges"), "core"),
    **dict.fromkeys(("DomainError", "NotATriangleError"), "errors"),
    **dict.fromkeys((
        "BarycentricFrames", "ConstructionResult", "Parallelian", "TriangleAngles",
        "angles_from_sides", "area", "area_general", "barycentric_frames",
        "construct_in_hemisphere", "little_coords", "parallelian_endpoints", "singular_sides",
        "special_triangle", "three_similar_triangles"), "geometry"),
    **dict.fromkeys((
        "MonteCarloEstimate", "RngSeed", "SimplexAngles", "acute_probability_mc",
        "angle_bin_counts", "angle_bin_probabilities", "angle_density", "broken_stick_fraction",
        "class_fractions", "gaussian_shapes", "ndim_shapes", "obtuse_fraction_ndim_mc"),
        "sampling"),
    **dict.fromkeys(("acute_probability_ndim", "gauss_2f1", "obtuse_probability_ndim",
                     "squared_side_marginal_cdf"), "specfun"),
    **dict.fromkeys((
        "SuiteReport", "TestReport", "chi2_upper_tail", "chikuse_jupp", "inv_sigma_min_cdf",
        "inv_sigma_min_density", "ks_test", "preshape", "uniformity_suite"), "uniformity"),
}

__all__ = [*_EXPORTS, *_SUBMODULES]

# the bulk row writer and the sample file reader, which are not exported
for _name in (*_SUBMODULES, "_rows", "_fields"):
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    globals()[_name] = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(globals()[_name])


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_EXPORTS[name]], name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
