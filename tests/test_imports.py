"""What a fresh process runs: the package's lazy submodules and its exports."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

# every public name of `import trishape` before its submodules became lazy,
# which `from trishape import *` gave then, less the batch-of-one sampler
# wrappers and classify, deleted since
EXPORTED = """
BarycentricFrames ConstructionResult DiskPoint DomainError EDGE_TO_VERTEX_VIEW
HemispherePoint MonteCarloEstimate NotATriangleError Parallelian RngSeed RoundtripReport
SimplexAngles SquaredSides SuiteReport SvdShape TestReport TriangleAngles UnitQuaternion
acute_probability_mc acute_probability_ndim angle_bin_counts angle_bin_probabilities
angle_density angles_from_sides area area_general barycentric_frames broken_stick_fraction
center_vertices chi2_upper_tail chikuse_jupp class_fractions construct_in_hemisphere
conversions convert core disk_to_hemisphere disk_to_sides disk_to_svd edges_to_vertices errors
gauss_2f1 gaussian_shapes geometry helmert hemisphere_to_cartesian hemisphere_to_disk
hemisphere_to_sides hemisphere_to_svd hopf hopf_equivariance_check inv_sigma_min_cdf
inv_sigma_min_density kind_of ks_test little_coords ndim_shapes obtuse_fraction_ndim_mc
obtuse_probability_ndim parallelian_endpoints preshape q3_from_quaternion q4_from_quaternion
roundtrip_all sampling shape_distance shape_from_edges shape_from_vertices
shape_to_disk shape_to_hemisphere shape_to_hemisphere_cartesian shape_to_sides sides_to_disk
sides_to_hemisphere sides_to_shape sides_to_svd singular_sides special_triangle specfun
squared_side_marginal_cdf svd2x2 svd2x2_factors svd_to_disk svd_to_hemisphere svd_to_shape
svd_to_sides three_similar_triangles uniformity uniformity_suite vertices_to_edges
""".split()

LAZY = ("conversions", "core", "errors", "geometry", "sampling", "specfun", "uniformity")


def fresh(code: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def ran_after(code: str) -> set:
    """The trishape submodules whose bodies ran, and the modules of interest
    loaded, in a fresh process after code."""
    return set(fresh(
        f"import sys\n{code}\n"
        "print(*[name for name, m in sys.modules.items() if name.startswith('trishape.')"
        " and type(m).__name__ != '_LazyModule'], *[name for name in"
        " ('numpy', 'numpy.random', 'concurrent.futures', 'json') if name in sys.modules])").split())


def test_import_runs_no_submodule():
    assert ran_after("import trishape") == set()
    assert ran_after("import trishape.cli") == {"trishape.cli", "trishape.errors"}


def test_every_exported_name_resolves_to_its_submodule():
    import trishape

    for name in EXPORTED:
        value = getattr(trishape, name)
        if name in LAZY:
            assert value is sys.modules[f"trishape.{name}"]
        else:
            assert any(getattr(getattr(trishape, m), name, None) is value for m in LAZY)
    assert set(trishape.__all__) == set(EXPORTED)
    with pytest.raises(AttributeError):
        trishape.no_such_name


def test_star_import_gives_the_exported_names():
    names = fresh("ns = {}\nexec('from trishape import *', ns)\n"
                  "print(*sorted(set(ns) - {'__builtins__'}))").split()
    assert names == sorted(EXPORTED)


def test_benchmark_traced_names_resolve():
    # the benchmark's tracer wraps each (module, function) of TRACED by name,
    # so a deleted or renamed one breaks its traced runs
    spans = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    traced = next(ast.literal_eval(node.value) for node in ast.parse(spans.read_text()).body
                  if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TRACED")
    assert traced
    for module, name in traced:
        assert callable(getattr(importlib.import_module(f"trishape.{module}"), name))


def _cli(*argv: str) -> str:
    """Code that runs one command, its stdout discarded, and checks its exit code
    (--help exits through SystemExit(0))."""
    return ("import contextlib, io\nfrom trishape import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    try:\n        assert cli.main({list(argv)!r}) == 0\n"
            "    except SystemExit as exc:\n        assert exc.code == 0")


def test_one_shot_commands_load_only_what_they_use(tmp_path):
    f = tmp_path / "pre.csv"
    fresh(_cli("sample", "gaussian", "-n", "64", "--emit", "preshapes", "-o", str(f)))
    base = {"trishape.cli", "trishape.errors", "trishape.conversions"}
    assert ran_after(_cli("convert", "--from", "disk", "--to", "sides", "0.1", "0.2")) == base
    assert ran_after(_cli("test", str(f))) == {"trishape.cli", "trishape.errors", "trishape.core",
                                               "trishape.uniformity", "trishape.specfun",
                                               "trishape._fields", "numpy"}
    assert ran_after(_cli("construct", "0.3", "0.3", "0.4")) == base | {"trishape.geometry"}
    assert ran_after(_cli("prob", "3")) == {"trishape.cli", "trishape.errors", "trishape.specfun"}
    # sampling takes its disk and sides kernels from core, not conversions
    drawing = {"trishape.cli", "trishape.errors", "trishape.core", "trishape.sampling",
               "numpy", "numpy.random"}
    assert ran_after(_cli("sample", "angles", "-n", "100", "--summary")) == drawing
    assert ran_after(_cli("sample", "gaussian", "-n", "100")) == drawing | {"trishape._rows"}
    assert "json" in ran_after(_cli("prob", "3", "--format", "json"))
    assert "numpy" in ran_after(_cli("plot-data", "hemisphere-map", "--grid", "2"))


# one convert from each source kind, and --roundtrip and --format json
_CONVERTS = [
    ["--from", "svd", "--to", "matrix", "0.8", "0.6", "0.3"],
    ["--from", "sides", "--to", "hemisphere", "0.17", "0.36", "0.47", "--roundtrip"],
    ["--from", "hemisphere", "--to", "svd", "0.4", "7.5", "--format", "json"],
    ["--from", "disk", "--to", "matrix", "0.3", "2.5", "--roundtrip", "--format", "csv"],
    ["--from", "matrix", "--to", "disk", "0", "-0", "1", "-0", "--roundtrip", "--format", "json"],
]


@pytest.mark.parametrize("argv", [["--help"], ["convert", "--help"], ["prob", "12"],
                                  *(["convert", *a] for a in _CONVERTS),
                                  *(["construct", "0.17", "0.36", "0.47", *f] for f in
                                    ([], ["--format", "csv"], ["--format", "json"]))],
                         ids=" ".join)
def test_scalar_commands_load_no_numpy(argv):
    loaded = ran_after(_cli(*argv))
    assert not loaded & {"numpy", "trishape.core", "trishape._rows", "trishape._fields"}, loaded


def test_prob_loads_no_dataclasses():
    # cli names a representation's fields without the dataclasses module
    watch = "import sys\nprint('dataclasses' in sys.modules)"
    if fresh(watch) != "False\n":
        pytest.skip("this interpreter loads dataclasses at startup")
    assert fresh(_cli("prob", "12") + "\n" + watch) == "False\n"


@pytest.mark.parametrize("argv", [
    ["sample", "gaussian", "--summary"],
    ["plot-data", "radius-histogram"],
    ["plot-data", "angle-bins"],
], ids=" ".join)
def test_workers_2_from_a_fresh_process(argv):
    # the worker threads start before the package has run most module bodies
    def run(workers):
        proc = subprocess.run([sys.executable, "-m", "trishape.cli", *argv, "-n", "200000",
                               "--seed", "5", "--workers", workers],
                              capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    assert run("2") == run("1")
