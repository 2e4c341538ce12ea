"""The row writer's NumPy kernels against CPython's '%' formatting.

The oracle is the row writer the kernels replaced: CPython's correctly
rounded '%.17g' (and '%.6f' for the SVG) applied row by row.  Every
comparison is on the text, with ==.
"""

import contextlib
import hashlib
import io
import math
import os
import platform
from fractions import Fraction
from pathlib import Path
import subprocess
import sys

import numpy as np
import pytest

from trishape import _rows, cli


def reference_rows(columns):
    """The CSV writer before the kernels: line % row, 1024 rows at a time."""
    columns = [np.asarray(c) for c in columns]
    line = ",".join("%.17g" if c.dtype.kind == "f" else "%s" for c in columns) + "\n"
    out = io.StringIO()
    for lo in range(0, len(columns[0]), 1024):
        rows = zip(*(c[lo:lo + 1024].tolist() for c in columns))
        out.write("".join(line % row for row in rows))
    return out.getvalue()


def written(columns, line=None):
    out = io.StringIO()
    if line is None:
        _rows._write_rows(out, columns)
    else:
        _rows._write_lines(out, line, columns)
    return out.getvalue()


def as_columns(values, width=4):
    """values cut into `width` float columns (the tail dropped)."""
    values = np.asarray(values, dtype=float)
    rows = len(values) // width
    return list(values[:rows * width].reshape(rows, width).T)


def bit_patterns(rng, n):
    """n random float64 bit patterns: half over every exponent (subnormals,
    huge values, inf and NaN payloads among them), half with the exponent
    in the kernel's range and around it."""
    raw = rng.integers(0, 2 ** 64, n, dtype=np.uint64, endpoint=False)
    near = raw[n // 2:] & np.uint64((1 << 52) - 1)
    near |= (rng.integers(1023 - 45, 1023 + 150, n - n // 2).astype(np.uint64) << np.uint64(52))
    near |= raw[n // 2:] & np.uint64(1 << 63)
    return np.concatenate((raw[:n // 2], near)).view(np.float64)


def powers_of_ten(ulps):
    """Every float 10**j, j = -330..310, and `ulps` floats either side."""
    tens = np.array([float(f"1e{j}") for j in range(-330, 311)])
    steps = np.arange(-ulps, ulps + 1)
    around = (np.abs(tens).view(np.int64)[:, None] + steps).ravel()
    around = around[(around >= 0) & (around < 0x7FF0000000000000)].view(np.float64)
    return np.concatenate((around, -around))


EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 1e-11, -1e-11, 1e43, -1e43,
         math.nextafter(1e-11, 0), math.nextafter(1e-11, 1), math.nextafter(1e43, 0),
         math.nextafter(1e43, math.inf), 5e-324, -5e-324, 2.2250738585072014e-308,
         -2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
         1e-14, 0.5, 1.0, 10.0, 100.0, 120.0, 1e16, 1e17, 2.0 ** 53, 2.0 ** 53 + 2,
         123456789012345678.0, 0.1, 0.2, 0.30000000000000004, 1e-5, 1e-4, 9.5, 0.25e-4,
         math.nextafter(1e-4, 0), math.nextafter(1e17, 0)]


def test_a_million_random_bit_patterns_match_cpython():
    rng = np.random.default_rng(20240615)
    values = bit_patterns(rng, 1_000_000)
    assert np.isnan(values).any() and (np.abs(values) < 2.2250738585072014e-308).any()
    columns = as_columns(values)
    assert written(columns) == reference_rows(columns)


def test_powers_of_ten_and_their_neighbours_match_cpython():
    columns = as_columns(powers_of_ten(40), width=3)
    assert written(columns) == reference_rows(columns)


def kernel_cells(fmt, values):
    """Where the kernel of fmt formats values itself, and not CPython."""
    values = np.asarray(values, dtype=float)
    slot = np.empty((len(values), 3), _rows._WORD)
    return _rows._KERNELS[fmt](values, _rows._kernel_tables(), slot)


def fraction_decade(x):
    """The decade k of a positive double x, 10**k <= x < 10**(k + 1), in integers."""
    num, den = x.as_integer_ratio()
    k = len(str(num)) - len(str(den))
    at_least = lambda k: num * 10 ** max(-k, 0) >= den * 10 ** max(k, 0)
    while not at_least(k):
        k -= 1
    while at_least(k + 1):
        k += 1
    return k


def test_the_decade_may_miss_by_one_either_way(monkeypatch):
    # the decade is exact: the binary exponent's, plus one compare with the
    # next power of ten; here against the integer decade on every power of
    # ten in range, 40 doubles either side, and random in-range bit patterns
    rng = np.random.default_rng(5)
    ordinary = rng.uniform(-1e3, 1e3, 10_000)
    raw = rng.integers(0, 1 << 52, 100_000, dtype=np.int64)
    raw |= rng.integers(1023 - 14, 1023 + 57, len(raw)) << 52
    values = np.concatenate((np.abs(powers_of_ten(40)), raw.view(np.float64)))
    values = values[(values >= 1e-4) & (values < 1e17)]
    assert len(values) > 95_000
    decade = _rows._decade(values, _rows._kernel_tables())
    assert decade.tolist() == [fraction_decade(x) for x in values.tolist()]
    assert kernel_cells("%.17g", ordinary).all()
    # a decade forced off by one, either way, fails the range check: the
    # kernel leaves exactly those cells to CPython, whose bytes they get
    exact, off = kernel_cells("%.17g", values), rng.integers(-1, 2, len(values))
    found = _rows._decade
    monkeypatch.setattr(_rows, "_decade", lambda a, tables: found(a, tables) + off[:len(a)])
    assert np.array_equal(kernel_cells("%.17g", values), exact & (off == 0))
    assert (off != 0).mean() > 0.6
    monkeypatch.setattr(_rows, "_decade",
                        lambda a, tables: found(a, tables) + rng.integers(-1, 2, len(a)))
    columns = as_columns(np.concatenate((powers_of_ten(20), bit_patterns(rng, 100_000))))
    assert written(columns) == reference_rows(columns)


def written_columns(argv, monkeypatch):
    """The columns each _write_rows call of `trishape argv` writes, in order."""
    calls = []
    with monkeypatch.context() as patch, contextlib.redirect_stdout(io.StringIO()):
        patch.setattr(_rows, "_write_rows", lambda out, columns: calls.append(
            [np.asarray(c) for c in columns]))
        assert cli.main(argv) == 0
    return calls


def test_the_kernel_writes_all_but_the_ties_of_sampled_columns(monkeypatch):
    # a slower rewrite that left more cells to CPython would show here: of the
    # cells of seeded sides, r, phi and preshape columns, CPython gets the
    # exact ties and values out of range (53 of these 450000 cells, all out
    # of range or zero)
    draws = [["sample", "gaussian", "-n", "50000", "--seed", "31"],
             ["sample", "gaussian", "-n", "50000", "--seed", "32", "--emit", "preshapes"]]
    values = np.concatenate([c for argv in draws for columns in written_columns(argv, monkeypatch)
                             for c in columns if c.dtype.kind == "f"])
    assert len(values) == 9 * 50000
    assert kernel_cells("%.17g", values).mean() >= 0.9995


def test_exact_ties_match_cpython():
    # small odd multiples of powers of two: x * 10**(16 - k) is exactly a
    # half-integer for some of them (2**-25 = 2.98023223876953125e-08, say),
    # and CPython rounds those half to even
    odd = np.arange(1, 32, 2)
    values = (odd[None, :] * 2.0 ** -np.arange(1, 120)[:, None]).ravel()
    columns = as_columns(np.concatenate((values, -values)), width=2)
    assert written(columns) == reference_rows(columns)
    assert "%.17g" % 2.0 ** -25 == "2.9802322387695312e-08"
    # an exact tie is left to CPython, which rounds it half to even
    assert not kernel_cells("%.17g", [2.0 ** -25, 3 * 2.0 ** -25]).any()
    assert not kernel_cells("%.6f", np.arange(1, 256, 2) / 128.0).any()
    assert kernel_cells("%.6f", [0.0078124, 0.0078126]).all()


def test_edges_signs_and_specials_match_cpython():
    values = np.array(EDGES * 8)
    columns = as_columns(values, width=2)
    assert written(columns) == reference_rows(columns)
    # a 17-digit carry to a power of ten: 1e-14 is the float just below 10**-14;
    # none lies in the kernel's range, so CPython's cell writes it
    assert "%.17g" % 1e-14 == "1e-14" and Fraction(1e-14) < Fraction(1, 10 ** 14)
    # the kernel writes the cells that '%.17g' writes without an exponent
    inside = [1e-4, -1e-4, 0.5, 123.25, math.nextafter(1e17, 0)]
    outside = [math.nextafter(1e-4, 0), -1e-5, 1e17, 2.5e20, 1e-11]
    assert kernel_cells("%.17g", inside).all() and not kernel_cells("%.17g", outside).any()


def test_fixed_six_decimals_match_cpython():
    rng = np.random.default_rng(7)
    values = np.concatenate((
        rng.uniform(-0.5, 0.5, 50_000),
        np.arange(-4095, 4096, 2) / 128.0,                  # exact ties: 1/128 = 0.0078125
        (np.arange(-2000, 2000) + 0.5) / 1e6,             # near ties at the sixth decimal
        np.nextafter((np.arange(0, 2000) + 0.5) / 1e6, 0),
        9.9999996 * 10.0 ** np.arange(-6, 11),               # carries into a new digit
        -9.9999996 * 10.0 ** np.arange(-6, 11),
        EDGES, bit_patterns(rng, 20_000)))
    line = "<%.6f|%.6f>\n"
    columns = as_columns(values, width=2)
    want = "".join(line % row for row in zip(*(c.tolist() for c in columns)))
    assert written(columns, line) == want


def test_every_cell_through_cpython_when_the_guard_fails(monkeypatch):
    # kernels that refuse every cell, and leave junk in its slot, give the
    # same bytes: each cell is then CPython's
    rng = np.random.default_rng(11)
    columns = as_columns(np.concatenate((rng.random(3000), EDGES)))
    columns.append(np.array(["acute", "right"] * (len(columns[0]) // 2 + 1), dtype=object)
                   [:len(columns[0])])
    want = reference_rows(columns)

    def refuses(v, tables, slot):
        slot.fill(0x3737373737373737)
        return np.zeros(len(v), bool)

    monkeypatch.setattr(_rows, "_KERNELS", dict.fromkeys(_rows._KERNELS, refuses))
    assert written(columns) == want
    line = "<%.6f>\n"
    assert written(columns[:1], line) == "".join(line % v for v in columns[0].tolist())


def test_the_rounding_step_is_exact():
    # (N, d) against the exact product in integers, for each scale the
    # kernels use: random products over 1..2**60, exact half-integers
    # (x * 10**j = odd * 5**j / 2 for x = odd * 2**-(j + 1)), and products
    # next to 10**16 and 10**17
    rng, ties = np.random.default_rng(30), 0
    for j in range(21):
        p = float(10 ** j)
        odd = 2 * rng.integers(1, min(2 ** 52, 2 ** 59 // 5 ** j), 100) + 1
        near = [math.ldexp(float(x), -j - 1) for x in odd.tolist()]
        for e in (16, 17):
            around = np.array([float(f"1e{e - j}")]).view(np.int64) + np.arange(-40, 41)
            near += around.view(np.float64).tolist()
        a = np.concatenate((10.0 ** rng.uniform(-j, 18 - j, 300), near))
        a = a[a * p < 2.0 ** 60]
        n, d = _rows._round_scaled(a, p)
        assert n.dtype == np.int64
        for x, n_x, d_x in zip(a.tolist(), n.tolist(), d.tolist()):
            exact = Fraction(x) * 10 ** j
            rest = exact - n_x
            if abs(rest) == Fraction(1, 2):         # a tie: CPython decides
                assert abs(d_x) == 0.5, (x, j)
                ties += 1
                continue
            if abs(d_x) != 0.5:
                assert n_x == round(exact), (x, j)
            assert (d_x < 0) <= (rest < 0) and (d_x > 0) <= (rest > 0), (x, j)
            if exact >= 2 ** 52:
                assert d_x == rest, (x, j)
            else:
                assert abs(Fraction(d_x) - rest) <= Fraction(1, 2 ** 54), (x, j)
    assert ties >= 21 * 100


class Writes(io.StringIO):
    calls = 0

    def write(self, text):
        self.calls += 1
        return super().write(text)


@pytest.mark.parametrize("rows", [_rows._KERNEL_MIN_ROWS, 3 * _rows._ROWS_PER_WRITE + 17])
def test_mixed_columns_in_blocks_of_rows(rows):
    # floats, ints and strings; a row count that is not a multiple of the block
    rng = np.random.default_rng(rows)
    columns = [rng.standard_normal(rows), rng.integers(-10 ** 6, 10 ** 6, rows),
               np.array(["acute", "right", "obtuse"], dtype=object)[rng.integers(0, 3, rows)],
               rng.random(rows) * 10.0 ** rng.integers(-12, 40, rows), rng.random(rows)]
    out = Writes()
    _rows._write_rows(out, columns)
    assert out.getvalue() == reference_rows(columns)
    assert out.calls == -(-rows // _rows._ROWS_PER_WRITE)      # one write per block


def test_short_tables_take_cpython_and_the_kernel_agrees(monkeypatch):
    rng = np.random.default_rng(3)
    columns = [rng.random(50), rng.integers(0, 9, 50), rng.random(50) * 1e4]
    short = written(columns)
    monkeypatch.setattr(_rows, "_KERNEL_MIN_ROWS", 0)
    assert written(columns) == short == reference_rows(columns)


def test_bytes_columns_are_written_as_their_text():
    codes = np.random.default_rng(4).integers(0, 3, 300)
    names = np.array(["acute", "right", "obtuse"], dtype=object)[codes]
    for rows in (300, 20):    # the kernel and the CPython path
        assert (written([np.arange(rows), cli._class_column(codes[:rows])])
                == reference_rows([np.arange(rows), names[:rows]]))


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the settings are x86-64 dispatch targets and OpenBLAS kernels")
def test_writes_the_same_bytes_under_other_simd_and_blas_settings(tmp_path, monkeypatch):
    # the kernels are integer and float64 arithmetic (*, -, rint, floor and
    # compares, each exact or correctly rounded): no SIMD dispatch, baseline
    # included, or BLAS kernel may move a byte.  The columns are drawn once,
    # here, so that a difference can only be the writer's, and each setting
    # formats them in a child, whose environment alone it sets
    from numpy._core._multiarray_umath import __cpu_dispatch__

    calls = (written_columns(["sample", "gaussian", "-n", "20000", "--seed", "9"], monkeypatch)
             + written_columns(["plot-data", "hemisphere-map"], monkeypatch))
    f = tmp_path / "columns.npz"
    np.savez(f, *(c for columns in calls for c in columns))
    widths = [len(columns) for columns in calls]
    code = (f"import hashlib, io, sys\nsys.path.insert(0, {str(Path(cli.__file__).parents[1])!r})\n"
            "import numpy as np\nfrom trishape import _rows\n"
            f"z, out = np.load({str(f)!r}), io.StringIO()\ncells = iter(z[k] for k in z.files)\n"
            f"for width in {widths!r}:\n"
            "    _rows._write_rows(out, [next(cells) for _ in range(width)])\n"
            "print(hashlib.sha256(out.getvalue().encode()).hexdigest())")
    settings = [{}, {"OPENBLAS_CORETYPE": "Prescott"}]
    for targets in (["X86_V4", "AVX512_ICL", "AVX512_SPR"],
                    ["X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"]):
        disabled = " ".join(t for t in targets if t in __cpu_dispatch__)
        if disabled:
            settings.append({"NPY_DISABLE_CPU_FEATURES": disabled})
    digests = set()
    for env in settings:
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60, env={**os.environ, **env})
        assert proc.returncode == 0, (env, proc.stderr)
        digests.add(proc.stdout)
    want = "".join(reference_rows([c.astype(str) if c.dtype.kind == "S" else c for c in columns])
                   for columns in calls)
    assert digests == {hashlib.sha256(want.encode()).hexdigest() + "\n"}


def test_import_builds_no_kernel_table():
    code = ("import contextlib, io\n"
            "import trishape.cli as c, trishape._rows as r\n"
            "assert r._kernel_tables.cache_info().currsize == 0\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    c.main(['prob', '3'])\n"
            "    c.main(['plot-data', 'radius-histogram', '-n', '100'])\n"
            "assert r._kernel_tables.cache_info().currsize == 0\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    c.main(['sample', 'gaussian', '-n', '500'])\n"
            "    c.main(['plot-data', 'hemisphere-map'])\n"
            "assert r._kernel_tables.cache_info().misses == 1\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
