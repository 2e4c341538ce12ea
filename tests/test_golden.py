"""Golden bytes of seeded CLI output.

Each case runs one ``trishape`` command and pins the sha256 of its stdout,
of every file it writes and its exit code.  The cases cover every sampled
path (row emission, summaries, preshape files, plot data) with sample
counts past ``BLOCK_SIZE``, so a block boundary is crossed, and the
``test`` command with each ``--which`` on square and non-square files,
``convert --roundtrip`` from every representation, plus ``construct``
records and the hemisphere map.
Any change to these bytes must be deliberate and named in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from trishape import cli
from trishape.sampling import BLOCK_SIZE

N_ROWS = BLOCK_SIZE + 500      # crosses one block boundary
N_SUMMARY = 3 * BLOCK_SIZE + 17

# Input files for the ``test`` cases, written by the commands that make them.
INPUTS = {
    "pre22.csv": ["sample", "gaussian", "-n", "3000", "--seed", "21", "--emit", "preshapes"],
    "pre33.csv": ["sample", "ndim", "--m", "3", "--k", "4", "-n", "40", "--seed", "22",
                  "--emit", "preshapes"],
    "pre24.csv": ["sample", "ndim", "--m", "2", "--k", "5", "-n", "500", "--seed", "23",
                  "--emit", "preshapes"],
}

# (case id, argv, output file names passed as -o / --svg)
CASES = [
    ("rows-gaussian", ["sample", "gaussian", "-n", str(N_ROWS), "--seed", "3"], ("out",)),
    ("rows-hemisphere", ["sample", "hemisphere", "-n", str(N_ROWS), "--seed", "4"], ("out",)),
    ("rows-angles", ["sample", "angles", "-n", str(N_ROWS), "--seed", "5"], ("out",)),
    ("rows-ndim", ["sample", "ndim", "--m", "4", "-n", str(N_ROWS), "--seed", "6",
                   "--stream", "2"], ("out",)),
    ("summary-gaussian", ["sample", "gaussian", "-n", str(N_SUMMARY), "--seed", "7",
                          "--summary"], ()),
    ("summary-hemisphere", ["sample", "hemisphere", "-n", str(N_SUMMARY), "--seed", "8",
                            "--summary", "--workers", "2"], ()),
    ("summary-angles", ["sample", "angles", "-n", str(N_SUMMARY), "--seed", "9",
                        "--summary", "--format", "json"], ()),
    ("summary-ndim", ["sample", "ndim", "--m", "5", "-n", str(N_SUMMARY), "--seed", "10",
                      "--summary", "--format", "csv"], ()),
    ("preshapes-gaussian", ["sample", "gaussian", "-n", str(N_ROWS), "--seed", "11",
                            "--emit", "preshapes"], ("out",)),
    ("preshapes-ndim-k5", ["sample", "ndim", "--m", "3", "--k", "5", "-n", str(N_ROWS),
                           "--seed", "12", "--emit", "preshapes"], ("out",)),
    ("scatter-gaussian", ["plot-data", "disk-scatter", "-n", str(N_ROWS), "--seed", "13"],
     ("out", "svg")),
    ("scatter-hemisphere", ["plot-data", "disk-scatter", "-n", str(N_ROWS), "--seed", "14",
                            "--model", "hemisphere"], ("out", "svg")),
    ("radius-gaussian", ["plot-data", "radius-histogram", "-n", str(N_SUMMARY),
                         "--seed", "15"], ("out",)),
    ("radius-hemisphere", ["plot-data", "radius-histogram", "-n", str(N_SUMMARY),
                           "--seed", "16", "--model", "hemisphere", "--workers", "2"],
     ("out",)),
    ("angle-bins-angles", ["plot-data", "angle-bins", "-n", str(N_SUMMARY), "--seed", "17",
                           "--model", "angles"], ("out",)),
    ("angle-bins-gaussian", ["plot-data", "angle-bins", "-n", str(N_SUMMARY), "--seed", "18",
                             "--bins-per-side", "3"], ("out",)),
    ("test22-all", ["test", "pre22.csv", "--which", "all"], ()),
    ("test22-chikuse-jupp", ["test", "pre22.csv", "--which", "chikuse-jupp"], ()),
    ("test22-sigma-min", ["test", "pre22.csv", "--which", "sigma-min"], ()),
    ("test22-hemisphere", ["test", "pre22.csv", "--which", "hemisphere",
                           "--format", "json"], ()),
    ("test33-all", ["test", "pre33.csv", "--which", "all"], ()),
    ("test33-hemisphere", ["test", "pre33.csv", "--which", "hemisphere"], ()),
    ("test24-all", ["test", "pre24.csv", "--which", "all", "--format", "json"], ()),
    ("test24-sigma-min", ["test", "pre24.csv", "--which", "sigma-min"], ()),
    ("test24-csv", ["test", "pre24.csv", "--which", "all", "--format", "csv"], ()),
    ("convert-sides-disk", ["convert", "--from", "sides", "--to", "disk",
                            "0.5", "0.25", "0.25"], ()),
    ("convert-matrix-svd", ["convert", "--from", "matrix", "--to", "svd",
                            "0.3", "-1.2", "0.7", "0.1", "--format", "json"], ()),
    ("convert-hemisphere-roundtrip", ["convert", "--from", "hemisphere", "--to", "sides",
                                      "0.4", "7.5", "--roundtrip"], ()),
    ("convert-sides-roundtrip", ["convert", "--from", "sides", "--to", "matrix",
                                 "0.17", "0.36", "0.47", "--roundtrip", "--format", "csv"], ()),
    ("convert-disk-roundtrip", ["convert", "--from", "disk", "--to", "svd", "0.3", "2.5",
                                "--roundtrip", "--format", "json"], ()),
    ("convert-svd-equilateral-roundtrip", ["convert", "--from", "svd", "--to", "hemisphere",
                                           "0.70710678118654757", "0.70710678118654757", "0",
                                           "--roundtrip"], ()),
    ("convert-matrix-signed-zero-roundtrip", ["convert", "--from", "matrix", "--to", "disk",
                                              "0", "-0", "1", "-0", "--roundtrip"], ()),
    ("construct-isosceles", ["construct", "0.3", "0.3", "0.4"], ()),
    ("construct-generic", ["construct", "0.17", "0.36", "0.47", "--format", "csv"], ()),
    ("hemisphere-map-8", ["plot-data", "hemisphere-map", "--grid", "8"], ("out",)),
]

GOLDEN = {
    "rows-gaussian": {
        "code": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out": "80bc43a42846d560222e5f15a93d047147cda3b15ea74fba79a35d7976fdedfa",
    },
    "rows-hemisphere": {
        "code": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out": "44e84186412095751e70d9b676e536314d320a8511a5673f0dd02394b4830d9b",
    },
    "rows-angles": {
        "code": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out": "808225db677ffb28bc52e447660405551eb9b41a8423a9c0e91f5b847394b9ce",
    },
    "rows-ndim": {
        "code": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out": "6638332189bc851b8c9ee7c992d7a437f289554c65cece361f2cb60b939a877a",
    },
    "summary-gaussian": {
        "code": 0,
        "stdout": "1411e68220a5fc28a63e86f753466f7b78bc15c40ca57681a748fd54fab197bc",
    },
    "summary-hemisphere": {
        "code": 0,
        "stdout": "e18851f70af0992f7354602fc8b04be79f7cd9daa16ffbf95ef19616602bea4b",
    },
    "summary-angles": {
        "code": 0,
        "stdout": "a4405fda9637923f8633733018c203bc26e0cebf626d358375cd140ec0b045e9",
    },
    "summary-ndim": {
        "code": 0,
        "stdout": "1a809d5802b4ab7f3af7873f4d1f254bdca99455faf4de7c77aa5d1f5b7e802e",
    },
    "preshapes-gaussian": {
        "code": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out": "b9bfb88274b65125f669b9c89748eaebfa8f56d93c7ef688b443d3e1dfadb37a",
    },
    "preshapes-ndim-k5": {
        "code": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out": "6125694b2be98d8cba13ba8abaaf7f125649c257c18a8001bd15c8e3629dc333",
    },
    "scatter-gaussian": {
        "code": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out": "5477d34b7c6afe217edd4936e134fb93584e8293d0f2c276f0cc5cf20a0095c2",
        "svg": "9d92e5234b3a52d43f3ee5cf8f0d2a3831ba60e7ad75df41022e16dca8c92d97",
    },
    "scatter-hemisphere": {
        "code": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out": "52f4bd43d3fc683aa3b90a195eec71f577ad54c0dbee9b577490c4bd4d8784aa",
        "svg": "29013cbe42479ce27b4506a926ffa06e85be33facc0d06d91b950fa139366aa7",
    },
    "radius-gaussian": {
        "code": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out": "ae6d55a49bc7ac354b536ed68ed5b975c00fb6616a27ea3d21875d10c7fe1ea3",
    },
    "radius-hemisphere": {
        "code": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out": "b9d6ceffc2fedfa3e9d19cc814f328962bdb61c87b15c4d7e0bde85949edc679",
    },
    "angle-bins-angles": {
        "code": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out": "2d51615f25664dff894b8c66160cee06f8afee0c00f23c8151023d24edb48ac2",
    },
    "angle-bins-gaussian": {
        "code": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out": "d5ec80e4e9a4d27b60d97663037ea9d0e1211dd67e81e10f7cfa1fdb71760a7c",
    },
    "test22-all": {
        "code": 0,
        "stdout": "8972cfd469dfd8c92a1b0648c27d07f8325530f63e7645a302fe88c19e14ac94",
    },
    "test22-chikuse-jupp": {
        "code": 0,
        "stdout": "214b61e0acb120259a3d5cacd24e5ccf38f78bf597df916626c86b245232f829",
    },
    "test22-sigma-min": {
        "code": 0,
        "stdout": "5c3d2f4960f1cf76b4ecac6c5455743b6cd6c370772004154c89aace359c982e",
    },
    "test22-hemisphere": {
        "code": 0,
        "stdout": "6133736700b490c0108e174eab59e24dcab01e457e6e22fe9bcb62f6aa1d0ccd",
    },
    "test33-all": {
        "code": 0,
        "stdout": "54694857e0eda0b650df5fe653d7b3f53f70ed5ae4009d290d7f9d574c0b0fd0",
    },
    "test33-hemisphere": {
        "code": 1,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "test24-all": {
        "code": 3,
        "stdout": "3f52452469ac32b49e53e9c0f36c504852e4dfbfe64e14e8278c6ba1fa647e4b",
    },
    "test24-sigma-min": {
        "code": 1,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "test24-csv": {
        "code": 3,
        "stdout": "394a5a44e151eb131463b531c72c9083318209cf118694932a081ba615cea1a0",
    },
    "convert-sides-disk": {
        "code": 0,
        "stdout": "c6a7a8719925841f8756cdf80a06ccd7526687131bdcf67b3aaaf6ccc8138696",
    },
    "convert-matrix-svd": {
        "code": 0,
        "stdout": "31ef5b81169ce6a5a970e108bef2313d30b806114b4528bc39813ed66afb513c",
    },
    "convert-hemisphere-roundtrip": {
        "code": 0,
        "stdout": "aaa554f157b15769bfb577834f58f0cc779a886b39b003e0ebe1b8c6f6558ce2",
    },
    "convert-sides-roundtrip": {
        "code": 0,
        "stdout": "30e3e62f678f9d0e64b1b5450ac8061793b647db99a332b4b0076e0f457cf108",
    },
    "convert-disk-roundtrip": {
        "code": 0,
        "stdout": "cb83fe8c5d95c46613bb32954fd97536ed3fca7f07e1497b7439e96fbe690da6",
    },
    "convert-svd-equilateral-roundtrip": {
        "code": 0,
        "stdout": "b520d8859bf5c4e30fc6bc429a8283e4c0b2c941a80746c9cb02b6e79e244875",
    },
    "convert-matrix-signed-zero-roundtrip": {
        "code": 0,
        "stdout": "091c4c36aa6bd8e178c77d1380540c9cb05c569d7f6d7055142a7d74e3b75033",
    },
    "construct-isosceles": {
        "code": 0,
        "stdout": "13a360d2e401551d69c86e72f75f1382f072aa94c410036f28c25d447c540f9e",
    },
    "construct-generic": {
        "code": 0,
        "stdout": "96301f7d6fec4d912c6a87aaf4859ea614672b5b242b7eff6b3b8dde7d90e01b",
    },
    "hemisphere-map-8": {
        "code": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out": "e79daf15922dc3e462d12ec8cdb3ee1538b9329e0e01178673c84648e17f4c4c",
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue().encode()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("golden")


def digest_case(case_id, argv, files, workdir):
    """Run one case in workdir; return {"code", "stdout", <file>: sha256}."""
    for name, make in INPUTS.items():
        if name in argv and not (workdir / name).exists():
            code, _ = _run(make + ["-o", str(workdir / name)])
            assert code == 0, name
    argv = [str(workdir / a) if a in INPUTS else a for a in argv]
    paths = {f: workdir / f"{case_id}.{f}" for f in files}
    flags = {"out": "-o", "svg": "--svg"}
    for f, path in paths.items():
        argv = argv + [flags[f], str(path)]
    code, stdout = _run(argv)
    rec = {"code": code, "stdout": _sha(stdout)}
    for f, path in paths.items():
        rec[f] = _sha(path.read_bytes())
    return rec


@pytest.mark.parametrize("case_id,argv,files", CASES, ids=[c[0] for c in CASES])
def test_golden_bytes(case_id, argv, files, workdir):
    assert digest_case(case_id, argv, files, workdir) == GOLDEN[case_id]


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OpenBLAS core types are x86-64 kernels")
def test_blas_free_goldens_under_other_openblas_kernels(tmp_path):
    # these outputs are closed forms on floats: no OpenBLAS kernel may move a
    # bit of them.  Each core type runs in a child, whose environment alone it sets
    from numpy._core._multiarray_umath import __cpu_features__

    ids = [c for c, _, _ in CASES if c.startswith(("convert-", "construct-"))]
    ids.append("angle-bins-gaussian")
    code = ("import json, pathlib, sys\n"
            f"sys.path[:0] = {[str(Path(cli.__file__).parents[1]), str(Path(__file__).parent)]!r}\n"
            "from test_golden import CASES, digest_case\n"
            f"print(json.dumps({{c: digest_case(c, a, f, pathlib.Path({str(tmp_path)!r}))\n"
            f"                  for c, a, f in CASES if c in {ids!r}}}))\n")
    for core in ["Prescott"] + (["Haswell"] if __cpu_features__.get("AVX2") else []):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60, env={**os.environ, "OPENBLAS_CORETYPE": core})
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {c: GOLDEN[c] for c in ids}, core


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the settings are x86-64 SIMD dispatch targets")
def test_screened_summaries_under_other_simd_dispatch(tmp_path):
    # hemisphere and ndim summaries classify through a float32 screen whose
    # cosine moves its last bits with the SIMD target (without X86_V3 NumPy
    # runs its baseline float32 cosine); the counts, and so the bytes, must not
    # move.  Each setting runs in a child, whose environment alone it sets
    from numpy._core._multiarray_umath import __cpu_dispatch__

    ids = ["summary-hemisphere", "summary-ndim"]
    big = ["sample", "ndim", "--m", "12", "-n", str(1 << 18), "--seed", "28", "--summary"]
    code = ("import hashlib, json, pathlib, sys\n"
            f"sys.path[:0] = {[str(Path(cli.__file__).parents[1]), str(Path(__file__).parent)]!r}\n"
            "from test_golden import CASES, _run, digest_case\n"
            f"out = {{c: digest_case(c, a, f, pathlib.Path({str(tmp_path)!r}))\n"
            f"       for c, a, f in CASES if c in {ids!r}}}\n"
            f"code, stdout = _run({big!r})\n"
            "out['big'] = [code, hashlib.sha256(stdout).hexdigest()]\n"
            "print(json.dumps(out))\n")
    want = {**{c: GOLDEN[c] for c in ids},       # "big": the bytes of the float64 rule
            "big": [0, "c941f11824a18686e59a218ba3f275fd15817303dd1c73f4931c94ed3bb29209"]}
    code_big, stdout_big = _run(big)
    assert [code_big, _sha(stdout_big)] == want["big"]
    for targets in (["X86_V4", "AVX512_ICL", "AVX512_SPR"],
                    ["X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"]):
        disabled = " ".join(t for t in targets if t in __cpu_dispatch__)
        env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": disabled}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, env=env)
        assert proc.returncode == 0, (disabled, proc.stderr)
        assert json.loads(proc.stdout) == want, disabled


def test_convert_goldens_without_numpy():
    # prob, convert and construct compute on Python floats: with NumPy made
    # unimportable they print the golden bytes (and prob what it prints in this process)
    cases = [(c, argv) for c, argv, _ in CASES if c.startswith(("convert-", "construct-"))]
    code = ("import contextlib, hashlib, io, sys\n"
            "sys.modules['numpy'] = None\n"
            "from trishape import cli\n"
            f"for argv in {[argv for _, argv in cases] + [['prob', '3']]!r}:\n"
            "    out = io.StringIO()\n"
            "    with contextlib.redirect_stdout(out):\n"
            "        rc = cli.main(argv)\n"
            "    print(rc, hashlib.sha256(out.getvalue().encode()).hexdigest())\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    got = [line.split() for line in proc.stdout.splitlines()]
    want = [[str(GOLDEN[c]["code"]), GOLDEN[c]["stdout"]] for c, _ in cases]
    assert len(cases) == 9 and got[:-1] == want
    prob = subprocess.run([sys.executable, "-m", "trishape.cli", "prob", "3"],
                          capture_output=True, timeout=60)
    assert got[-1] == ["0", _sha(prob.stdout)]
