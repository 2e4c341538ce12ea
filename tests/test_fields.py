"""The sample file reader's NumPy kernel against float() and loadtxt.

The oracles are CPython's correctly rounded float() for each field, and the
reader the kernel sits in front of: the same files read through loadtxt,
which is what _read_preshape_file does where the kernel declines.  Every
comparison is on the bits.
"""

import hashlib
import math
import os
import platform
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from trishape import _fields, cli


def write_fields(path, fields, m=2, k=3):
    """A file in the form `sample --emit preshapes` writes, with the given
    field texts as its rows, padded with 0.5 to whole rows."""
    width = m * (k - 1)
    fields = list(fields) + ["0.5"] * (-len(fields) % width)
    rows = (",".join(fields[i:i + width]) for i in range(0, len(fields), width))
    path.write_text(f"m,k\n{m},{k}\n" + "".join(row + "\n" for row in rows))
    return fields


def kernel_read(path):
    z = _fields._read_preshapes(path)
    assert z is not None, "the kernel declined a file in the canonical form"
    return z


def loadtxt_read(path, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(_fields, "_read_preshapes", lambda path: None)
        return cli._read_preshape_file(path)


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


def assert_reads_as_float(path, fields, monkeypatch, most=None):
    """The kernel's value of each field is float()'s, bit for bit; with most,
    at least that share of the fields never reached float()."""
    calls = []

    def counting_float(text):
        calls.append(text)
        return float(text)

    with monkeypatch.context() as patch:
        patch.setattr(_fields, "float", counting_float, raising=False)
        got = kernel_read(path).ravel()
    want = np.array([float(f) for f in fields])
    mismatch = np.flatnonzero(bits(got) != bits(want))
    assert not mismatch.size, [fields[i] for i in mismatch[:5]]
    if most is not None:
        assert len(calls) <= (1.0 - most) * len(fields), len(calls)
    return calls


def random_decimals(rng, n):
    """'0.' and 1-19 random digits, signed at random."""
    digits = rng.integers(0, 10, (n, 19))
    count = rng.integers(1, 20, n)
    sign = rng.random(n) < 0.5
    return [("-" if s else "") + "0." + "".join(map(str, d[:c]))
            for d, c, s in zip(digits.tolist(), count.tolist(), sign.tolist())]


def test_random_decimals_read_as_float(tmp_path, monkeypatch):
    rng = np.random.default_rng(2020)
    fields = write_fields(tmp_path / "d.csv", random_decimals(rng, 60000))
    # the short ones, with fewer than 4 digits, are the likeliest to miss a digit
    assert_reads_as_float(tmp_path / "d.csv", fields, monkeypatch, most=0.99)


def test_g17_texts_read_as_float(tmp_path, monkeypatch):
    # what '%.17g' writes, over the kernel's range and a decade either side
    rng = np.random.default_rng(17)
    x = rng.random(60000) * 10.0 ** rng.integers(-5, 1, 60000)
    x[rng.random(60000) < 0.5] *= -1.0
    fields = write_fields(tmp_path / "g.csv", [f"{v:.17g}" for v in x.tolist()])
    assert_reads_as_float(tmp_path / "g.csv", fields, monkeypatch)


def test_decimals_at_double_midpoints_read_as_float(tmp_path, monkeypatch):
    # the decimal of 19 digits nearest a midpoint of two doubles in [2^-10, 1),
    # and its neighbours: only within 2^-69 of a midpoint do Q + R / 5**19 and
    # its bracket round apart
    rng = np.random.default_rng(54)
    d = (1.0 + rng.random(3000)) * 2.0 ** -rng.integers(1, 11, 3000)
    nearest = [round((Fraction(x) + Fraction(math.ulp(x)) / 2) * 10 ** 19) for x in d.tolist()]
    neighbours = [n + s for n in nearest for s in (-1, 1)]
    # just below 2^-j the spacing of doubles halves, and so does the distance
    # to the midpoint there
    below = []
    for j in range(1, 64):
        n = math.floor((Fraction(1, 2 ** j) - Fraction(1, 2 ** (j + 54))) * 10 ** 19)
        below += [n - 1, n, n + 1, n + 2]
    fields = [f"{s}0.{n:019d}" for n in nearest + neighbours + below for s in ("", "-")]
    fields = write_fields(tmp_path / "t.csv", fields)
    calls = assert_reads_as_float(tmp_path / "t.csv", fields, monkeypatch)
    went = {int(text.lstrip(b"-")[2:]) for text in calls}
    # about 1 in 30 of the nearest decimals, none of their neighbours, and
    # every field below 2^-15, where Q < 16 and the bracket spans a double
    assert 0 < len(went & set(nearest)) <= len(nearest) / 16
    assert not went & set(neighbours)
    assert {n for n in below if n < 10 ** 19 >> 15} <= went


SPECIAL = ["0", "-0", "1", "-1", "0.0", "-0.0", "0.", "-0.", ".5", "-.5", "5.", "00.5", "1e-05",
           "-2.5E-7", "1e0", "0.5e1", "nan", "-nan", "NaN", "inf", "-inf", "Infinity", "-infinity",
           "0.00012345678901234567", "-0.12345678901234567890123", "0.99999999999999999999",
           "0.9999999999999999999", "0.0000000000000000001", "0.0000000000000000000",
           "1.0000000000000000000000001", "12345.678", "-0.5"]


def test_other_forms_read_as_float_and_as_loadtxt(tmp_path, monkeypatch):
    f = tmp_path / "s.csv"
    fields = write_fields(f, SPECIAL)
    got = kernel_read(f)
    want = loadtxt_read(f, monkeypatch)
    assert got.tobytes() == want.tobytes()      # nan's sign included
    assert_reads_as_float(f, fields, monkeypatch)


def _seeded_files(path):
    """Seeded `sample --emit preshapes` files: 2x2, 3x3 and 5x2, and a 2x2 file
    with no newline after its last row."""
    argvs = {"p22": ["gaussian", "-n", "3000"],
             "p33": ["ndim", "--m", "3", "--k", "4", "-n", "500"],
             "p52": ["ndim", "--m", "5", "-n", "800"]}
    files = {}
    for name, argv in argvs.items():
        files[name] = path / f"{name}.csv"
        assert cli.main(["sample", *argv, "--seed", "11", "--emit", "preshapes",
                         "-o", str(files[name])]) == 0
    files["open-end"] = path / "open-end.csv"
    files["open-end"].write_bytes(files["p22"].read_bytes().rstrip(b"\n"))
    return files


@pytest.mark.parametrize("chunk", [_fields._CHUNK, 4096, 700])
def test_sample_files_read_as_loadtxt_reads_them(chunk, tmp_path, monkeypatch):
    # the smaller chunks cut every file into many; a 700-byte chunk holds a
    # few rows of each file
    monkeypatch.setattr(_fields, "_CHUNK", chunk)
    for name, f in _seeded_files(tmp_path).items():
        got = kernel_read(f)
        want = loadtxt_read(f, monkeypatch)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name


def test_a_row_longer_than_a_chunk_goes_to_loadtxt(tmp_path, monkeypatch):
    f = _seeded_files(tmp_path)["p33"]
    monkeypatch.setattr(_fields, "_CHUNK", 64)
    assert _fields._read_preshapes(f) is None
    assert cli._read_preshape_file(f).tobytes() == loadtxt_read(f, monkeypatch).tobytes()


@pytest.mark.parametrize("text", [
    "m,k\n2,3\n0.5, 0.5,0.5 ,0.5\n",                 # spaces
    "m,k\n2,3\n0.5 0.5,0.5,0.5\n",                   # a space or tab for a comma
    "m,k\n2,3\n0.5,0.5,0.5\t0.5\n",
    "m,k\r\n2,3\r\n0.5,0.5,0.5,0.5\r\n",             # CR
    "\nm,k\n2,3\n0.5,0.5,0.5,0.5\n",                 # a blank line
    "m,k\n2,3\n0.5,0.5,0.5,0.5\n\n",
    "m,k\n 2,3 \n0.5,0.5,0.5,0.5\n",
    "m,k\n2,3\n0.5,0.5,0.5,0.5\t\n",
    "m,k\n2,3\n0.5,0.5,0.5\n",                       # a short row
    "m,k\n2,3\n0.5,0.5,0.5,0.5,0.5\n",
    "m,k\n2,3\n0.5,0.5,0.5,0.5\n0.5,0.5\n0.5,0.5\n",  # as many fields, in other rows
    "m,k\n2,3\n0.5,0.5,0.5,0.5\n# a comment\n",
    "m,k\n2,3\n0.5,,0.5,0.5\n",                      # an empty field
    "m,k\n2,3\n0.5,x,0.5,0.5\n",
    "m,k\n2,3\n0.5,1_0,0.5,0.5\n",                   # float() takes it, loadtxt does not
    "m,k\n2,3\n0.5,+0.5,0.5,0.5\n",
    "m,k\n2,3\n0.5,١,0.5,0.5\n",                # an Arabic-Indic digit one
    "m,k\n2,3\n",                                    # no row
    "m,k\n0,3\n0.5\n",
    "m,k\n2,1\n0.5\n",
    "k,m\n2,3\n0.5,0.5,0.5,0.5\n",
])
def test_other_files_go_to_loadtxt(text, tmp_path):
    f = tmp_path / "other.csv"
    f.write_text(text, newline="")
    assert _fields._read_preshapes(f) is None


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_a_pipe_goes_to_loadtxt(tmp_path):
    # the kernel would have read what loadtxt then could not read again
    r, w = os.pipe()
    try:
        os.write(w, b"m,k\n2,3\n\n0.5,0.5,0.5,0.5\n")
        os.close(w)
        w = None
        assert cli._read_preshape_file(f"/dev/fd/{r}").tolist() == [[[0.5, 0.5], [0.5, 0.5]]]
    finally:
        os.close(r)
        if w is not None:
            os.close(w)


def test_every_file_tests_the_same_through_loadtxt(tmp_path, monkeypatch, capsys):
    files = _seeded_files(tmp_path)
    f = tmp_path / "odd.csv"
    write_fields(f, SPECIAL[:4] + ["0.5"] * 4)
    files["odd"] = f
    for name, f in files.items():
        for which in ("all", "chikuse-jupp"):
            argv = ["test", str(f), "--which", which, "--format", "json"]
            kernel = (cli.main(argv), capsys.readouterr())
            with monkeypatch.context() as patch:
                patch.setattr(_fields, "_read_preshapes", lambda path: None)
                through_loadtxt = (cli.main(argv), capsys.readouterr())
            assert kernel == through_loadtxt, (name, which)


def child_read_digest(path, prelude="", env=None):
    """The sha256 of the kernel's array for the file at path, read in a child
    process that runs prelude first and has env added to its environment."""
    code = (f"import hashlib, sys\n{prelude}"
            f"sys.path.insert(0, {str(Path(cli.__file__).parents[1])!r})\n"
            "from trishape import _fields\n"
            f"z = _fields._read_preshapes({str(path)!r})\n"
            "assert z is not None, 'the kernel declined the file'\n"
            "print(hashlib.sha256(z.tobytes()).hexdigest())")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env={**os.environ, **(env or {})})
    assert proc.returncode == 0, (env, proc.stderr)
    return proc.stdout


def test_reads_the_same_bits_where_long_double_is_a_double(tmp_path):
    # as on MSVC builds; the kernel uses no long double, so it reads the file
    # and gives the bits it gives here
    f = _seeded_files(tmp_path)["p22"]
    got = child_read_digest(f, "import numpy\nnumpy.longdouble = numpy.float64\n")
    assert got == hashlib.sha256(kernel_read(f).tobytes()).hexdigest() + "\n"


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the settings are x86-64 dispatch targets and OpenBLAS kernels")
def test_reads_the_same_bits_under_other_simd_and_blas_settings(tmp_path):
    # the kernel is integer arithmetic, int64-to-double casts, one divide,
    # adds and a scale by 2^-19, each exact or correctly rounded: no SIMD
    # dispatch or BLAS kernel may move a bit.  Each setting runs in a child,
    # whose environment alone it sets
    from numpy._core._multiarray_umath import __cpu_dispatch__

    f = tmp_path / "p22.csv"
    assert cli.main(["sample", "gaussian", "-n", "20000", "--seed", "9", "--emit", "preshapes",
                     "-o", str(f)]) == 0
    settings = [{}, {"OPENBLAS_CORETYPE": "Prescott"}]
    for targets in (["X86_V4", "AVX512_ICL", "AVX512_SPR"],
                    ["X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"]):     # baseline
        disabled = " ".join(t for t in targets if t in __cpu_dispatch__)
        if disabled:
            settings.append({"NPY_DISABLE_CPU_FEATURES": disabled})
    digests = {child_read_digest(f, env=env) for env in settings}
    digests.add(hashlib.sha256(cli._read_preshape_file(f).tobytes()).hexdigest() + "\n")
    assert len(digests) == 1
