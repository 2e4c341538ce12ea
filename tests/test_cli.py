import csv
import json
import math
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from trishape import cli


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_record(text):
    rec = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition(" = ")
        rec[key] = value
    return rec


# ---------------------------------------------------------------------------
# convert


def test_convert_right_triangle_to_disk(capsys):
    code, out, _ = run_cli(["convert", "--from", "sides", "--to", "disk",
                            "0.5", "0.25", "0.25"], capsys)
    assert code == 0
    rec = parse_record(out)
    assert abs(float(rec["r"]) - 0.25) < 1e-12
    assert abs(float(rec["phi"]) - math.pi / 3) < 1e-12


def test_convert_disk_center_to_sides(capsys):
    code, out, _ = run_cli(["convert", "--from", "disk", "--to", "sides", "0", "0"], capsys)
    assert code == 0
    rec = parse_record(out)
    for key in ("a2", "b2", "c2"):
        assert abs(float(rec[key]) - 1 / 3) < 1e-12


def test_convert_domain_error_exit_code(capsys):
    code, _, err = run_cli(["convert", "--from", "sides", "--to", "disk",
                            "0.7", "0.2", "0.1"], capsys)
    assert code == 2
    assert "triangle inequality" in err


def test_convert_usage_errors(capsys):
    code, _, _ = run_cli(["convert", "--from", "sides", "--to", "disk", "0.5", "0.25"],
                         capsys)
    assert code == 1
    code, _, _ = run_cli(["convert", "--from", "nonsense", "--to", "disk", "1"], capsys)
    assert code == 1


@pytest.mark.parametrize("rep,values", [
    ("sides", ["nan", "0.5", "0.5"]),
    ("sides", ["0.5", "inf", "0.25"]),
    ("disk", ["nan", "0"]),
    ("disk", ["0.25", "nan"]),
    ("disk", ["0.25", "inf"]),
    ("hemisphere", ["nan", "1"]),
    ("hemisphere", ["0.5", "inf"]),
    ("svd", ["nan", "0", "0"]),
    ("svd", ["1", "0", "nan"]),
    ("matrix", ["nan", "1", "0", "1"]),
    ("matrix", ["inf", "1", "0", "1"]),
    ("matrix", ["1e308", "-inf", "0", "1"]),
    ("matrix", ["0", "0", "0", "0"]),
])
def test_convert_non_finite_input_is_domain_error(rep, values, capsys):
    to = "disk" if rep != "disk" else "svd"
    code, out, err = run_cli(["convert", "--from", rep, "--to", to, *values], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("trishape: domain error:") and err.count("\n") == 1


@pytest.mark.parametrize("values,code", [
    (["0.5", "-1.5e-05", "0.3", "0.2"], 0),
    (["-2E-3", "1", "-.5", "0.1"], 0),
    (["-inf", "1", "0", "1"], 2),
    (["0.5", "-Infinity", "0", "1"], 2),
    (["-nan", "1", "0", "1"], 2),
])
def test_convert_takes_negative_values_in_every_float_form(values, code, capsys):
    # argparse on its own reads -1.5e-05 and -inf as unknown options (exit 1)
    got = run_cli(["convert", "--from", "matrix", "--to", "svd", *values], capsys)
    assert got[0] == code
    assert got == run_cli(["convert", "--from", "matrix", "--to", "svd", "--", *values], capsys)


def test_convert_roundtrip_flag_and_json(capsys):
    code, out, _ = run_cli(["convert", "--from", "sides", "--to", "svd",
                            "0.5", "0.25", "0.25", "--roundtrip", "--format", "json"],
                           capsys)
    assert code == 0
    rec = json.loads(out)
    assert rec["representation"] == "svd"
    assert rec["roundtrip_max_discrepancy"] < 1e-10
    assert rec["roundtrip_cycles"] == 64


def test_convert_csv_record(capsys):
    code, out, _ = run_cli(["convert", "--from", "disk", "--to", "sides", "0", "0",
                            "--format", "csv"], capsys)
    assert code == 0
    header, values = out.strip().splitlines()
    assert header == "representation,a2,b2,c2"
    cells = values.split(",")
    assert cells[0] == "sides"
    assert all(abs(float(v) - 1 / 3) < 1e-12 for v in cells[1:])


def test_convert_matrix_input(capsys):
    v = 1 / math.sqrt(2)
    code, out, _ = run_cli(["convert", "--from", "matrix", "--to", "hemisphere",
                            str(v), "0", "0", str(v)], capsys)
    assert code == 0
    rec = parse_record(out)
    assert abs(float(rec["latitude"]) - math.pi / 2) < 1e-9


@pytest.mark.parametrize("values,want", [
    (["1e200", "0", "0", "1e200"], (1 / math.sqrt(2), 1 / math.sqrt(2))),    # equilateral
    (["1e-320", "0", "0", "0"], (1.0, 0.0)),                                  # collinear
])
def test_convert_matrix_input_is_normalised_without_overflow(values, want, capsys):
    # the squared norm of either matrix overflows or underflows as a float
    code, out, err = run_cli(["convert", "--from", "matrix", "--to", "svd", *values], capsys)
    assert (code, err) == (0, "")
    rec = parse_record(out)
    assert float(rec["sigma1"]) == pytest.approx(want[0], abs=1e-15)
    assert float(rec["sigma2"]) == pytest.approx(want[1], abs=1e-15)
    assert rec["theta"] == "0"


# ---------------------------------------------------------------------------
# sample


def test_sample_deterministic_bytes(tmp_path, capsys):
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for f in (f1, f2):
        code, _, _ = run_cli(["sample", "gaussian", "-n", "500", "--seed", "9",
                              "--output", str(f)], capsys)
        assert code == 0
    assert f1.read_bytes() == f2.read_bytes()
    code, _, _ = run_cli(["sample", "gaussian", "-n", "500", "--seed", "10",
                          "--output", str(f2)], capsys)
    assert f1.read_bytes() != f2.read_bytes()


def test_sample_rows_parse_and_satisfy_invariants(capsys):
    code, out, _ = run_cli(["sample", "gaussian", "-n", "200", "--seed", "1"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "a2,b2,c2,r,phi,class"
    assert len(lines) == 201
    for line in lines[1:]:
        a2, b2, c2, r, phi, cls = line.split(",")
        vals = [float(a2), float(b2), float(c2)]
        assert abs(sum(vals) - 1.0) < 1e-9
        assert sum(v * v for v in vals) <= 0.5 + 1e-9
        assert 0.0 <= float(r) <= 0.5 + 1e-12
        assert cls in ("acute", "right", "obtuse")


def test_sample_summary_angles(capsys):
    code, out, _ = run_cli(["sample", "angles", "-n", "100000", "--seed", "2",
                            "--summary"], capsys)
    assert code == 0
    rec = parse_record(out)
    assert abs(float(rec["obtuse"]) - 0.75) < 0.01


def test_sample_ndim_needs_m(capsys):
    code, _, err = run_cli(["sample", "ndim", "-n", "10"], capsys)
    assert code == 1
    assert "--m" in err


def test_sample_preshape_file_feeds_test_command(tmp_path, capsys):
    f = tmp_path / "pre.csv"
    code, _, _ = run_cli(["sample", "gaussian", "-n", "4000", "--seed", "3",
                          "--emit", "preshapes", "--output", str(f)], capsys)
    assert code == 0
    lines = f.read_text().splitlines()
    assert lines[0] == "m,k" and lines[1] == "2,3"
    assert len(lines) == 4002
    code, out, _ = run_cli(["test", str(f), "--which", "all", "--alpha", "0.01"], capsys)
    assert code == 0
    assert "chikuse-jupp" in out and "sigma-min-ks" in out


def test_test_csv_format_is_one_row_per_test(tmp_path, capsys):
    f = tmp_path / "pre.csv"
    run_cli(["sample", "gaussian", "-n", "300", "--seed", "21", "--emit", "preshapes",
             "-o", str(f)], capsys)
    _, structured, _ = run_cli(["test", str(f)], capsys)
    _, as_json, _ = run_cli(["test", str(f), "--format", "json"], capsys)
    code, out, err = run_cli(["test", str(f), "--format", "csv"], capsys)
    assert code == 0 and err == ""
    header, *rows = csv.reader(out.splitlines())
    assert header == ["name", "statistic", "reference", "p_value", "n_samples", "alpha",
                      "result"]
    tests = json.loads(as_json)["tests"]
    assert [r[0] for r in rows] == [t["name"] for t in tests] == \
        [line.split(":")[0] for line in structured.splitlines()]
    for row, t in zip(rows, tests):
        # the reference keeps its comma inside quotes; floats are _fmt's
        assert row[1:] == [cli._fmt(t["statistic"]), t["reference"], cli._fmt(t["p_value"]),
                           str(t["n_samples"]), "0.01", "pass"]
    assert '"kolmogorov(sqrt(t) D), t=300"' in out
    # a rejection is REJECT, with the exit code of the other formats
    code, out, _ = run_cli(["test", str(f), "--which", "sigma-min", "--alpha", "0.9",
                            "--format", "csv"], capsys)
    assert code == 3 and out.splitlines()[1].endswith(",0.90000000000000002,REJECT")


def test_preshape_rows_are_unit_norm(tmp_path, capsys):
    f = tmp_path / "pre.csv"
    run_cli(["sample", "ndim", "-n", "50", "--m", "3", "--k", "4", "--seed", "4",
             "--emit", "preshapes", "--output", str(f)], capsys)
    lines = f.read_text().splitlines()
    assert lines[1] == "3,4"
    for line in lines[2:]:
        vals = np.array([float(v) for v in line.split(",")])
        assert vals.size == 9
        assert abs(np.linalg.norm(vals) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# prob / construct


def test_prob_values(capsys):
    code, out, _ = run_cli(["prob", "2"], capsys)
    assert code == 0
    rec = parse_record(out)
    assert abs(float(rec["obtuse"]) - 0.75) < 1e-12
    code, out, _ = run_cli(["prob", "26"], capsys)
    rec = parse_record(out)
    assert round(float(rec["obtuse"]), 2) == 0.01
    code, _, _ = run_cli(["prob", "1"], capsys)
    assert code == 1


def test_construct_equilateral(capsys):
    third = repr(1 / 3)
    code, out, _ = run_cli(["construct", third, third, third], capsys)
    assert code == 0
    rec = parse_record(out)
    sz = float(rec["S"].split()[2])
    assert abs(sz - 0.5) < 1e-12
    assert rec["degenerate"] == "false"
    for i in (1, 2, 3):
        assert float(rec[f"triangle_{i}_ratio_residual"]) < 1e-10


def test_construct_degenerate_flagged(capsys):
    code, out, _ = run_cli(["construct", "0.5", "0.5", "0.0"], capsys)
    assert code == 0
    rec = parse_record(out)
    assert rec["degenerate"] == "true"


def test_construct_accepts_the_sides_squared_sides_accepts(capsys):
    # a^4 + b^4 + c^4 = 1/2 + 2e-10: within INPUT_TOL of the rim, so flat
    code, out, err = run_cli(["construct", "0.50001", "0.49999", "0"], capsys)
    assert (code, err) == (0, "")
    assert parse_record(out)["degenerate"] == "true"


def test_construct_not_a_triangle(capsys):
    code, _, _ = run_cli(["construct", "0.7", "0.2", "0.1"], capsys)
    assert code == 2


@pytest.mark.parametrize("argv,field", [
    (["convert", "--from", "hemisphere", "--to", "svd", "-0", "1"], "sigma2"),
    (["convert", "--from", "sides", "--to", "sides", "-0", "0.5", "0.5"], "a2"),
    (["construct", "0.5", "-0", "0.5"], "b2"),
    (["convert", "--from", "svd", "--to", "svd", "1", "0", "-0"], "theta"),
    (["convert", "--from", "disk", "--to", "disk", "-0", "-0"], "phi"),
    (["convert", "--from", "disk", "--to", "hemisphere", "0.2", "-0"], "longitude"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_no_negative_zero_in_a_record(argv, field, capsys):
    code, out, _ = run_cli(argv, capsys)
    rec = parse_record(out)
    assert code == 0 and rec[field] == "0"
    assert "-0" not in (v for value in rec.values() for v in value.split())


@pytest.mark.parametrize("argv,code", [
    (["test", "missing.csv"], 1),
    (["construct", "0.3", "0.3", "0.5"], 2),
    (["convert", "--from", "sides", "--to", "disk", "0.9", "0.05", "0.05"], 2),
    (["prob", "1"], 1),
], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_a_failing_command_leaves_output_as_it_was(argv, code, tmp_path, capsys):
    f = tmp_path / "out.txt"
    argv = [str(tmp_path / a) if a == "missing.csv" else a for a in argv] + ["-o", str(f)]
    assert run_cli(argv, capsys)[0] == code and not f.exists()
    f.write_bytes(b"kept\n")
    assert run_cli(argv, capsys)[0] == code and f.read_bytes() == b"kept\n"


@pytest.mark.parametrize("error", [MemoryError("Unable to allocate 149. GiB"),
                                   ValueError("bad value"), OSError("no space left")])
def test_a_failing_writer_leaves_no_output_and_no_traceback(error, monkeypatch, tmp_path,
                                                            capsys):
    def plot(args, out):
        out.write("latitude,longitude,alpha,beta,gamma\n")
        raise error

    monkeypatch.setitem(cli._PLOTS, "hemisphere-map", (plot, None))
    f = tmp_path / "map.csv"
    code, out, err = run_cli(["plot-data", "hemisphere-map", "-o", str(f)], capsys)
    assert code == 1 and out == "" and not f.exists()
    assert err == f"trishape: error: {error}\n"


def _numpy_ratio_residual(tri, sides):
    """The ratio residual from NumPy's elementwise operations, each side length
    sqrt((dx dx + dy dy) + dz dz) summed in that order, so that no BLAS kernel
    decides a bit; then NumPy sorts and masks."""
    d = tri[[0, 0, 1]] - tri[[1, 2, 2]]
    lengths = np.sort(np.sqrt((d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) + d[:, 2] * d[:, 2]))
    ref = np.sort(np.sqrt(sides))
    if ref[2] == 0.0:
        return 0.0
    ratio = lengths / np.where(ref > 0, ref, 1.0)
    scale = lengths[2] / ref[2]
    if scale == 0.0:
        return 0.0
    return float(np.abs(ratio[ref > 0] / scale - 1.0).max())


def _ratio_residual_bits(cases) -> list:
    """cli's ratio residual of each triangle construct_in_hemisphere stands on each
    case's sides, in hex, each checked bit for bit against _numpy_ratio_residual."""
    from trishape import conversions as conv
    from trishape import geometry

    out = []
    for a2, b2, c2 in cases:
        sides = conv.SquaredSides(a2, b2, c2)
        ref = sorted(map(math.sqrt, (sides.a2, sides.b2, sides.c2)))
        for tri in geometry.construct_in_hemisphere(sides).triangles:
            got = cli._triangle_ratio_residual(tuple(map(tuple, tri.tolist())), ref)
            assert type(got) is float
            assert got.hex() == _numpy_ratio_residual(tri, sides.as_array()).hex(), (a2, b2, c2)
            out.append(got.hex())
    return out


def test_construct_ratio_residual_keeps_the_numpy_bits():
    from trishape import conversions as conv

    rng = np.random.default_rng(77)
    cases = [(1 / 3, 1 / 3, 1 / 3), (0.5, 0.5, 0.0), (0.25, 0.25, 0.5), (0.3, 0.3, 0.4)]
    for _ in range(2000):
        z = rng.standard_normal((2, 2))
        cases.append(tuple(conv.shape_to_sides(z / np.linalg.norm(z)).as_array().tolist()))
    want = _ratio_residual_bits(cases)
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return
    # the same cases, in a child whose environment alone sets the OpenBLAS core
    # type: no kernel may move a bit of the residual
    from numpy._core._multiarray_umath import __cpu_features__

    code = ("import json, sys\n"
            f"sys.path[:0] = {[str(Path(cli.__file__).parents[1]), str(Path(__file__).parent)]!r}\n"
            "from test_cli import _ratio_residual_bits\n"
            "print(json.dumps(_ratio_residual_bits(json.load(sys.stdin))))\n")
    for core in ["Prescott"] + (["Haswell"] if __cpu_features__.get("AVX2") else []):
        proc = subprocess.run([sys.executable, "-c", code], input=json.dumps(cases),
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "OPENBLAS_CORETYPE": core})
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == want, core


# ---------------------------------------------------------------------------
# test command


def test_point_mass_file_rejected(tmp_path, capsys):
    f = tmp_path / "point.csv"
    m0 = np.diag([math.sqrt(0.75), math.sqrt(0.25)])
    lines = ["m,k", "2,3"] + [",".join(f"{v:.17g}" for v in m0.ravel())] * 1000
    f.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli(["test", str(f), "--which", "chikuse-jupp"], capsys)
    assert code == 3
    assert "REJECT" in out


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("norm,code", [(1 + 0.9e-6, 0), (1 - 0.9e-6, 0),
                                       (1 + 1.1e-6, 1), (1 - 1.1e-6, 1)])
@pytest.mark.parametrize("rows", ["all", "one"])
def test_norm_check_at_its_bound(m, norm, code, rows, tmp_path, capsys):
    # |norm - 1| <= 1e-6 passes; beyond it the file is a usage error
    rng = np.random.default_rng(26)
    z = rng.standard_normal((400, m * m))
    z /= np.linalg.norm(z, axis=1)[:, None]
    z[slice(None) if rows == "all" else slice(7, 8)] *= norm
    f = tmp_path / "pre.csv"
    f.write_text(f"m,k\n{m},{m + 1}\n" + "".join(",".join(f"{v:.17g}" for v in r) + "\n"
                                               for r in z))
    got, out, err = run_cli(["test", str(f)], capsys)
    assert got == code
    message = "trishape: error: preshapes must have unit Frobenius norm\n"
    assert err == ("" if code == 0 else message)
    assert (out == "") == (code == 1)


def test_empty_file_usage_error(tmp_path, capsys):
    f = tmp_path / "empty.csv"
    f.write_text("")
    code, _, _ = run_cli(["test", str(f)], capsys)
    assert code == 1


def test_sigma_min_requires_square(tmp_path, capsys):
    f = tmp_path / "rect.csv"
    z = np.full(6, 1.0) / math.sqrt(6.0)
    lines = ["m,k", "2,4"] + [",".join(f"{v:.17g}" for v in z)] * 10
    f.write_text("\n".join(lines) + "\n")
    code, _, _ = run_cli(["test", str(f), "--which", "sigma-min"], capsys)
    assert code == 1


@pytest.mark.parametrize("which", ["chikuse-jupp", "sigma-min", "hemisphere", "all"])
def test_non_finite_preshape_file_usage_error(which, tmp_path, capsys):
    f = tmp_path / "pre.csv"
    run_cli(["sample", "gaussian", "-n", "50", "--seed", "3", "--emit", "preshapes",
             "--output", str(f)], capsys)
    lines = f.read_text().splitlines()
    lines[10] = "nan," + lines[10].split(",", 1)[1]
    f.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(["test", str(f), "--which", which], capsys)
    assert code == 1
    assert out == ""
    assert "finite" in err and "Traceback" not in err


def test_sigma_min_singular_preshape(tmp_path, capsys):
    f = tmp_path / "pre.csv"
    run_cli(["sample", "gaussian", "-n", "40", "--seed", "3", "--emit", "preshapes",
             "--output", str(f)], capsys)
    with f.open("a") as fh:
        fh.write("1,0,0,0\n")              # unit norm, sigma_min = 0
    code, out, err = run_cli(["test", str(f), "--which", "sigma-min", "--format", "json"],
                             capsys)

    def no_constant(name):
        raise ValueError(f"invalid JSON constant {name}")

    (report,) = json.loads(out, parse_constant=no_constant)["tests"]
    assert math.isfinite(report["statistic"]) and math.isfinite(report["p_value"])
    assert code == (3 if report["p_value"] < 0.01 else 0)
    assert err == ""


@pytest.mark.parametrize("m", [3, 8])
def test_sigma_min_near_singular_rows(m, tmp_path, capsys):
    # two rows with sigma_min about 1e-100 and 1e-70 put quadrature nodes out
    # where t^(m - 3) overflows
    f = tmp_path / "pre.csv"
    run_cli(["sample", "ndim", "--m", str(m), "--k", str(m + 1), "-n", "30", "--seed", "5",
             "--emit", "preshapes", "-o", str(f)], capsys)
    lines = f.read_text().splitlines()
    for tiny in (1e-100, 1e-70):
        z = np.eye(m)
        z[-1, -1] = tiny
        z /= np.linalg.norm(z)
        lines.append(",".join(f"{v:.17g}" for v in z.ravel()))
    f.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(["test", str(f), "--which", "sigma-min", "--format", "json"],
                             capsys)

    def no_constant(name):
        raise ValueError(f"invalid JSON constant {name}")

    (report,) = json.loads(out, parse_constant=no_constant)["tests"]
    assert math.isfinite(report["statistic"]) and math.isfinite(report["p_value"])
    assert code == (3 if report["p_value"] < 0.01 else 0)
    assert err == ""


@pytest.mark.parametrize("rows", [
    ["0.5,0.5,0.5,0.5", "1,0,0"],                   # ragged
    ["0.5,0.5,0.5,0.5,0", "0.5,0.5,0.5,0.5,0"],     # width 5, not m (k - 1) = 4
    ["0.5,0.5,0.5", "1,0,0"],                       # width 3
    ["0.5,0.5,0.5,0.5", "# a comment"],             # no comment lines
    ["0.5,0.5,0.5,0.5 # a comment"],
])
def test_malformed_sample_file_usage_error(rows, tmp_path, capsys):
    f = tmp_path / "bad.csv"
    f.write_text("\n".join(["m,k", "2,3", *rows]) + "\n")
    code, out, err = run_cli(["test", str(f)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("trishape: error: cannot parse sample file")


@pytest.mark.parametrize("header", ["-1,5", "2,-1", "0,3", "2,1"])
def test_bad_header_usage_error(header, tmp_path, capsys):
    # 4-value rows, which a reshape inferring a -1 would accept
    f = tmp_path / "bad.csv"
    f.write_text("\n".join(["m,k", header, *["0.5,0.5,0.5,0.5"] * 3]) + "\n")
    for which in ("all", "chikuse-jupp"):
        code, out, err = run_cli(["test", str(f), "--which", which], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("trishape: error: cannot parse sample file")
        assert "m >= 1 and k >= 2" in err


def test_sample_file_reader_values(tmp_path):
    f = tmp_path / "pre.csv"
    rows = ["0.5, 0.5,0.5 ,0.5", "1e-3,-0.25,nan,inf", "", "0.125,0,0,-0"]
    f.write_text("\r\n".join(["m,k", "2,3", *rows]) + "\r\n")
    z = cli._read_preshape_file(f)
    expected = [[float(v) for v in row.split(",")] for row in rows if row]
    assert z.shape == (3, 2, 2)
    assert np.array_equal(z.reshape(3, 4), np.array(expected), equal_nan=True)


def test_sample_file_reader_skips_whitespace_lines(tmp_path):
    f = tmp_path / "pre.csv"
    f.write_text("\n \nm,k\n 2,3 \n\t\n0.5,0.5,0.5,0.5\n   \n0.5,0.5,0.5,-0.5\n")
    assert cli._read_preshape_file(f).tolist() == [[[0.5, 0.5], [0.5, 0.5]],
                                                   [[0.5, 0.5], [0.5, -0.5]]]
    # rows are numbered among the non-blank data lines
    f.write_text("m,k\n2,3\n0.5,0.5,0.5,0.5\n\n  \n0.5,x,0.5,0.5\n")
    with pytest.raises(ValueError, match="at row 1, column 2"):
        cli._read_preshape_file(f)


def test_parser_built_once_and_not_at_import():
    code = ("import trishape.cli as c; assert c._build_parser.cache_info().currsize == 0; "
            "c.main(['prob', '3']); c.main(['prob', '4']); "
            "assert c._build_parser.cache_info().misses == 1")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_parser_choices_match_their_modules():
    # the parser names them without loading the modules that define them
    from trishape import conversions, sampling, uniformity

    assert cli._REPRESENTATIONS == tuple(sorted(conversions.REPRESENTATIONS))
    assert cli._MODELS == tuple(sampling.MODELS)
    assert cli._SUITE_TESTS == tuple(uniformity.TESTS)


@pytest.mark.parametrize("alpha", ["nan", "inf", "0", "1", "-0.5"])
def test_alpha_outside_unit_interval_is_usage_error(alpha, tmp_path, capsys):
    missing = tmp_path / "never-read.csv"
    code, out, err = run_cli(["test", str(missing), f"--alpha={alpha}"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("trishape: error: --alpha")


def test_sigma_min_overflow_is_usage_error(tmp_path, capsys):
    f = tmp_path / "pre20.csv"
    code, _, _ = run_cli(["sample", "ndim", "--m", "20", "--k", "21", "-n", "20",
                          "--emit", "preshapes", "-o", str(f)], capsys)
    assert code == 0
    code, out, err = run_cli(["test", str(f), "--which", "sigma-min"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("trishape: error:") and "Traceback" not in err


def test_sigma_min_above_18x18(tmp_path, capsys):
    f = tmp_path / "pre19.csv"
    code, _, _ = run_cli(["sample", "ndim", "--m", "19", "--k", "20", "-n", "20",
                          "--emit", "preshapes", "-o", str(f)], capsys)
    assert code == 0
    code, out, err = run_cli(["test", str(f), "--which", "sigma-min"], capsys)
    assert (code, out) == (1, "")
    assert err == ("trishape: error: sigma-min test needs square, at most 18x18 preshapes, "
                   "got 19x19\n")
    # 'all' runs the tests that apply, here chikuse-jupp alone, and exits by its verdict
    for alpha, verdict in (("0.01", 0), ("0.999999", 3)):
        code, out, err = run_cli(["test", str(f), "--which", "all", "--alpha", alpha], capsys)
        assert (code, err) == (verdict, "")
        assert [line.split(":")[0] for line in out.splitlines()] == ["chikuse-jupp"]


@pytest.mark.parametrize("n", ["0", "-5"])
@pytest.mark.parametrize("argv", [
    ["sample", "gaussian"], ["sample", "hemisphere"], ["sample", "angles"],
    ["sample", "ndim", "--m", "3"], ["sample", "gaussian", "--summary"],
    ["sample", "gaussian", "--emit", "preshapes"],
    ["sample", "ndim", "--m", "3", "--k", "5", "--emit", "preshapes"],
    ["plot-data", "disk-scatter"], ["plot-data", "radius-histogram"],
    ["plot-data", "angle-bins"], ["plot-data", "angle-bins", "--model", "angles"],
], ids=" ".join)
def test_sample_count_below_one_is_usage_error(argv, n, tmp_path, capsys):
    f = tmp_path / "out.csv"
    code, out, err = run_cli(argv + ["-n", n, "-o", str(f)], capsys)
    assert code == 1
    assert out == "" and not f.exists()
    assert f"the sample count must be an integer >= 1, got {n}" in err


# every command that draws, as it would write rows
_DRAWING = [
    ["sample", "gaussian"], ["sample", "ndim", "--m", "3"], ["sample", "angles", "--summary"],
    ["sample", "ndim", "--m", "3", "--k", "5", "--emit", "preshapes"],
    ["plot-data", "disk-scatter"], ["plot-data", "radius-histogram"], ["plot-data", "angle-bins"],
]


@pytest.mark.parametrize("flag,value", [("--seed", "-1"), ("--stream", "-2")])
@pytest.mark.parametrize("argv", _DRAWING, ids=" ".join)
def test_negative_seed_or_stream_is_usage_error(argv, flag, value, tmp_path, capsys):
    f = tmp_path / "out.csv"
    code, out, err = run_cli([*argv, "-n", "3", flag, value, "-o", str(f)], capsys)
    assert code == 1
    assert out == "" and not f.exists()
    assert err == f"trishape: error: {flag[2:]} must be an integer >= 0, got {value}\n"


@pytest.mark.parametrize("value", ["0", "-3"])
@pytest.mark.parametrize("argv", _DRAWING, ids=" ".join)
def test_workers_below_one_is_usage_error(argv, value, tmp_path, capsys):
    f = tmp_path / "out.csv"
    code, out, err = run_cli([*argv, "-n", "3", "--workers", value, "-o", str(f)], capsys)
    assert code == 1
    assert out == "" and not f.exists()
    assert err == f"trishape: error: --workers must be an integer >= 1, got {value}\n"


def test_ndim_m2_rows_are_hemisphere_rows(tmp_path, capsys):
    files = [tmp_path / "ndim.csv", tmp_path / "hemisphere.csv"]
    for model, f in zip((["ndim", "--m", "2"], ["hemisphere"]), files):
        assert run_cli(["sample", *model, "-n", "70000", "--seed", "31", "--stream", "4",
                        "-o", str(f)], capsys)[0] == 0
    assert files[0].read_bytes() == files[1].read_bytes()


@pytest.mark.parametrize("argv,flag", [
    (["plot-data", "angle-bins", "-n", "10", "--bins-per-side", "0"], "--bins-per-side"),
    (["plot-data", "angle-bins", "-n", "10", "--bins-per-side", "-2"], "--bins-per-side"),
    (["plot-data", "radius-histogram", "-n", "10", "--bins", "0"], "--bins"),
    (["plot-data", "radius-histogram", "-n", "10", "--bins", "-3"], "--bins"),
    (["plot-data", "hemisphere-map", "--grid", "0"], "--grid"),
    (["sample", "ndim", "--m", "0", "-n", "5"], "--m"),
    (["sample", "ndim", "--m", "3", "--k", "1", "-n", "5", "--emit", "preshapes"], "--k"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_size_flag_below_range_is_usage_error(argv, flag, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith(f"trishape: error: {flag} must be an integer >= ")


@pytest.mark.parametrize("argv,message", [
    (["sample", "gaussian", "--summary", "--emit", "preshapes"], "--summary"),
    (["sample", "ndim", "--m", "3", "--summary", "--emit", "preshapes"], "--summary"),
    (["sample", "gaussian", "--m", "3"], "--m and --k apply to model 'ndim' only"),
    (["sample", "hemisphere", "--m", "2", "--summary"], "--m and --k apply"),
    (["sample", "angles", "--k", "4"], "--m and --k apply"),
    (["sample", "gaussian", "--k", "4", "--emit", "preshapes"], "--m and --k apply"),
    (["sample", "ndim", "--m", "3", "--k", "4", "--summary"], "--summary classifies triangles"),
    (["sample", "ndim", "--m", "3", "--k", "2", "--summary"], "--summary classifies triangles"),
    (["sample", "hemisphere", "--emit", "preshapes"], "--emit preshapes needs model"),
    (["sample", "ndim", "--m", "3", "--k", "4"], "per-sample rows need triangles (k = 3)"),
    (["sample", "gaussian", "--format", "json"], "--format applies to --summary alone"),
    (["sample", "gaussian", "--emit", "preshapes", "--format", "csv"], "--format applies"),
    (["sample", "angles", "--format", "structured"], "--format applies"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_sample_option_its_mode_ignores_is_usage_error(argv, message, tmp_path, capsys):
    f = tmp_path / "out.csv"
    code, out, err = run_cli([*argv, "-n", "5", "-o", str(f)], capsys)
    assert code == 1
    assert out == "" and not f.exists()
    assert err.startswith("trishape: error:") and message in err


def test_sample_summary_accepts_k_3(capsys):
    code, out, _ = run_cli(["sample", "ndim", "--m", "3", "--k", "3", "-n", "50", "--summary"],
                           capsys)
    assert code == 0 and "obtuse = " in out


# Every subcommand takes only the options it reads; these are the pairs that
# a shared option set used to accept and ignore.
_BASE_ARGV = {
    "convert": ["convert", "--from", "sides", "--to", "disk", "0.5", "0.25", "0.25"],
    "sample": ["sample", "gaussian", "-n", "5"],
    "prob": ["prob", "12"],
    "construct": ["construct", "0.5", "0.25", "0.25"],
    "test": ["test", "pre.csv"],
    "plot-data": ["plot-data", "hemisphere-map", "--grid", "2"],
}
_UNREAD = [
    *((cmd, flag) for cmd in ("convert", "prob", "construct")
      for flag in ("--seed", "--stream", "--alpha", "--workers")),
    ("sample", "--alpha"),
    ("test", "--seed"), ("test", "--stream"), ("test", "--workers"),
    ("plot-data", "--format"), ("plot-data", "--alpha"),
]


def _check_unread(argv, flag, tmp_path, capsys):
    """argv with flag and a value: argparse rejects the pair, exit 1, and no
    -o or --svg file is made."""
    f, svg = tmp_path / "out.csv", tmp_path / "x.svg"
    value = {"--format": "json", "--alpha": "0.1", "--model": "angles",
             "--svg": str(svg)}.get(flag, "2")
    code, out, err = run_cli([*argv, flag, value, "-o", str(f)], capsys)
    assert code == 1
    assert out == ""
    assert f"unrecognized arguments: {flag} {value}" in err
    assert not f.exists() and not svg.exists()


@pytest.mark.parametrize("command,flag", _UNREAD)
def test_unread_option_is_usage_error(command, flag, tmp_path, capsys):
    _check_unread(_BASE_ARGV[command], flag, tmp_path, capsys)


_PLOT_OPTIONS = {
    "disk-scatter": {"-n", "--model", "--seed", "--stream", "--workers", "--svg"},
    "radius-histogram": {"-n", "--model", "--seed", "--stream", "--workers", "--bins"},
    "angle-bins": {"-n", "--model", "--seed", "--stream", "--workers", "--bins-per-side"},
    "hemisphere-map": {"--grid"},
}


@pytest.mark.parametrize("kind", _PLOT_OPTIONS)
def test_plot_data_kind_help_lists_its_own_options(kind, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["plot-data", kind, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: trishape plot-data {kind} ")
    listed = set(re.findall(r"^  (-[-\w]+)", out, re.MULTILINE))
    assert listed == {"-h", "--output", *_PLOT_OPTIONS[kind]}


# ---------------------------------------------------------------------------
# plot-data


@pytest.mark.parametrize("kind", ["disk-scatter", "radius-histogram"])
def test_plot_disk_data_needs_shape_model(kind, capsys):
    code, out, err = run_cli(["plot-data", kind, "-n", "10", "--model", "angles"], capsys)
    assert code == 1
    assert out == ""
    assert "'gaussian' or 'hemisphere'" in err


def test_plot_angle_bins_needs_gaussian_or_angles(tmp_path, capsys):
    f = tmp_path / "bins.csv"
    code, out, err = run_cli(["plot-data", "angle-bins", "-n", "10", "--model", "hemisphere",
                              "-o", str(f)], capsys)
    assert code == 1
    assert out == "" and err == ("trishape: error: angle bins need model 'gaussian' or "
                                 "'angles', got 'hemisphere'\n")
    assert not f.exists()


@pytest.mark.parametrize("kind", ["disk-scatter", "radius-histogram", "angle-bins"])
def test_plot_data_takes_no_model_that_reads_m(kind, tmp_path, capsys):
    # plot-data has no --m to give the model
    f, svg = tmp_path / "out.csv", tmp_path / "x.svg"
    svg_argv = ["--svg", str(svg)] if kind == "disk-scatter" else []
    code, out, err = run_cli(["plot-data", kind, "-n", "10", "--model", "ndim", *svg_argv,
                              "-o", str(f)], capsys)
    assert code == 1
    assert out == "" and err.startswith("trishape: error:") and err.endswith(", got 'ndim'\n")
    assert not f.exists() and not svg.exists()


# each plot-data kind with each option that it does not read: its own parser
# rejects them as every subcommand's parser rejects its own
_PLOT_IGNORED = [
    *(("disk-scatter", flag) for flag in ("--bins", "--bins-per-side", "--grid")),
    *(("radius-histogram", flag) for flag in ("--bins-per-side", "--grid", "--svg")),
    *(("angle-bins", flag) for flag in ("--bins", "--grid", "--svg")),
    *(("hemisphere-map", flag) for flag in ("-n", "--bins", "--bins-per-side", "--model",
                                            "--svg", "--seed", "--stream", "--workers")),
]


@pytest.mark.parametrize("kind,flag", _PLOT_IGNORED)
def test_plot_data_option_its_kind_ignores_is_usage_error(kind, flag, tmp_path, capsys):
    _check_unread(["plot-data", kind], flag, tmp_path, capsys)


def test_plot_disk_scatter_with_an_unwritable_path_leaves_no_file(tmp_path, capsys):
    f, svg, missing = tmp_path / "out.csv", tmp_path / "x.svg", tmp_path / "no" / "such"
    code, out, err = run_cli(["plot-data", "disk-scatter", "-n", "10", "-o", str(f),
                              "--svg", str(missing / "x.svg")], capsys)
    assert (code, out) == (1, "") and err.startswith("trishape: error:")
    assert not f.exists()
    # and the --svg check leaves no file behind when -o is the path that fails
    code, out, err = run_cli(["plot-data", "disk-scatter", "-n", "10", "-o", str(missing),
                              "--svg", str(svg)], capsys)
    assert (code, out) == (1, "") and err.startswith("trishape: error:")
    assert not svg.exists()


@pytest.mark.parametrize("link", [False, True], ids=["regular", "symlink"])
def test_a_failed_writer_removes_only_a_regular_file(link, tmp_path, monkeypatch, capsys):
    # the writer raises once -o and --svg are open: each partial regular file
    # goes, and a symlink (to /dev/stdout, say) stays, and so does its target
    out, svg = tmp_path / "out.csv", tmp_path / "x.svg"
    targets = [tmp_path / "csv-target", tmp_path / "svg-target"]
    if link:
        for path, target in zip((out, svg), targets):
            target.write_text("kept\n")
            path.symlink_to(target)

    def fails(*args):
        raise BrokenPipeError(32, "Broken pipe")

    with monkeypatch.context() as patch:
        patch.setattr(cli._rows, "_write_rows", fails)
        code, stdout, err = run_cli(["sample", "gaussian", "-n", "500", "-o", str(out)], capsys)
    assert (code, stdout, err) == (1, "", "trishape: error: [Errno 32] Broken pipe\n")
    assert out.is_symlink() == link and os.path.lexists(out) == link
    # the SVG fails after its head and one block of CSV rows
    monkeypatch.setattr(cli._rows, "_write_lines", fails)
    code, stdout, err = run_cli(["plot-data", "disk-scatter", "-n", "500", "-o", str(out),
                                 "--svg", str(svg)], capsys)
    assert (code, stdout, err) == (1, "", "trishape: error: [Errno 32] Broken pipe\n")
    for path in (out, svg):
        assert path.is_symlink() == link and os.path.lexists(path) == link
    assert all(t.exists() == link for t in targets)


def test_svg_through_a_dangling_symlink_keeps_the_link(tmp_path, capsys):
    # the --svg check must not take the link for a file it made
    link, target = tmp_path / "link.svg", tmp_path / "target.svg"
    link.symlink_to(target)
    code, _, _ = run_cli(["plot-data", "disk-scatter", "-n", "10", "-o", str(tmp_path / "o.csv"),
                          "--svg", str(link)], capsys)
    assert code == 0 and link.is_symlink() and target.read_text().endswith("</svg>\n")


def test_plot_disk_scatter_inside_disk(tmp_path, capsys):
    f = tmp_path / "scatter.csv"
    svg = tmp_path / "scatter.svg"
    code, _, _ = run_cli(["plot-data", "disk-scatter", "-n", "2000", "--seed", "5",
                          "--output", str(f), "--svg", str(svg)], capsys)
    assert code == 0
    lines = f.read_text().splitlines()
    assert lines[0] == "x,y,class"
    assert len(lines) == 2001
    for line in lines[1:]:
        x, y, cls = line.split(",")
        assert math.hypot(float(x), float(y)) <= 0.5 + 1e-12
    text = svg.read_text()
    assert text.startswith("<svg") and text.count("<circle") == 2001


def test_plot_disk_scatter_streams_the_svg_block_by_block(tmp_path, capsys, monkeypatch):
    # each block's circles are written before the next block is drawn, so no
    # block is kept; the bytes are pinned by the scatter-* golden cases
    from trishape import _rows, sampling

    events, draw, write = [], sampling.disk_batch, _rows._write_lines
    monkeypatch.setattr(sampling, "disk_batch",
                        lambda *a: events.append("draw") or draw(*a))
    monkeypatch.setattr(_rows, "_write_lines", lambda out, line, columns: events.append(
        "svg" if out.name.endswith(".svg") else "csv") or write(out, line, columns))
    f, svg = tmp_path / "scatter.csv", tmp_path / "scatter.svg"
    n = sampling.BLOCK_SIZE + 10
    code, _, _ = run_cli(["plot-data", "disk-scatter", "-n", str(n), "-o", str(f),
                          "--svg", str(svg)], capsys)
    assert code == 0
    assert events == ["draw", "csv", "svg"] * 2
    text = svg.read_text()
    assert text.count("<circle") == n + 1 and text.endswith("</svg>\n")


def test_plot_radius_histogram_counts_and_curve(tmp_path, capsys):
    f = tmp_path / "hist.csv"
    code, _, _ = run_cli(["plot-data", "radius-histogram", "-n", "20000", "--seed", "6",
                          "--model", "hemisphere", "--bins", "50", "--output", str(f)],
                         capsys)
    assert code == 0
    lines = f.read_text().splitlines()
    assert lines[0] == "bin_lo,bin_hi,count,expected,density_mid"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 50
    assert sum(int(r[2]) for r in rows) == 20000
    assert abs(sum(float(r[3]) for r in rows) - 20000) < 1e-6
    chi2 = sum((int(r[2]) - float(r[3])) ** 2 / float(r[3]) for r in rows)
    from scipy import stats
    assert stats.chi2.sf(chi2, 49) > 0.01


def test_plot_angle_bins_uniform_model(tmp_path, capsys):
    f = tmp_path / "bins.csv"
    code, _, _ = run_cli(["plot-data", "angle-bins", "-n", "50000", "--seed", "7",
                          "--model", "angles", "--output", str(f)], capsys)
    assert code == 0
    rows = [line.split(",") for line in f.read_text().splitlines()[1:]]
    assert len(rows) == 100
    assert sum(int(r[3]) for r in rows) == 50000
    expected = 500.0
    assert all(abs(float(r[4]) - expected) < 1e-9 for r in rows)


def test_plot_hemisphere_map(tmp_path, capsys):
    f = tmp_path / "map.csv"
    code, _, _ = run_cli(["plot-data", "hemisphere-map", "--grid", "8",
                          "--output", str(f)], capsys)
    assert code == 0
    rows = [line.split(",") for line in f.read_text().splitlines()[1:]]
    assert len(rows) == 8 * 16
    for r in rows:
        total = float(r[2]) + float(r[3]) + float(r[4])
        assert abs(total - 1.0) < 1e-9


def test_plot_data_determinism(tmp_path, capsys):
    f1, f2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
    for f in (f1, f2):
        run_cli(["plot-data", "radius-histogram", "-n", "5000", "--seed", "11",
                 "--output", str(f)], capsys)
    assert f1.read_bytes() == f2.read_bytes()
