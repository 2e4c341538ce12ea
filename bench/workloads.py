"""The four benchmark workloads: inputs, command sequences and output checks.

A workload is a closed loop: one client issues each ``trishape`` command (or
library call) after the previous one returns.  ``steps()`` gives one round of
that loop; the runner repeats rounds for the measured time.  Every step
carries the check its output must pass, so a wrong answer counts as a failed
step just as a crash or an unexpected exit code does.

Inputs come only from the seed: Monte Carlo commands take it as ``--seed``
with one ``--stream`` per command, and the scalar shapes of ``exact-figures``
are drawn from a NumPy generator seeded with it.
"""

import hashlib
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SQRT3 = math.sqrt(3.0)
RIGHT_TOL = 1e-9          # sampling.RIGHT_ANGLE_TOL: a largest side within this of 1/2 is right
Z_LIMIT = 5.0             # Monte Carlo fractions must lie within this many standard errors
ALPHA = 0.01              # the CLI's default --alpha


class CheckFailed(Exception):
    pass


def expect(ok, message):
    if not ok:
        raise CheckFailed(message)


@dataclass
class Step:
    """One command of a round: a CLI argv, or a library call when argv is None."""

    label: str
    argv: list = None
    call: object = None
    files: tuple = ()          # files the command writes besides stdout
    shapes: int = 0            # shapes drawn, read or handled
    check: object = None       # check(stdout, value) raises CheckFailed
    codes: tuple = (0,)        # exit codes that count as success
    one_shot: bool = False     # a short scalar command: its latency is the cmd_p50/p95 sample


@dataclass
class Context:
    seed: int
    work: Path                 # directory for this run's files, inside the checkout
    smoke: bool = False        # tiny sizes, for the smoke test
    digests: dict = field(default_factory=dict)   # file digests seen, by key


def record(text):
    """Parse the CLI's default 'key = value' record format."""
    return dict(line.split(" = ", 1) for line in text.splitlines() if " = " in line)


def csv_rows(path, header):
    with open(path) as fh:
        expect(fh.readline().rstrip("\n") == header, f"{path.name}: header is not {header!r}")
        for line in fh:
            yield line.rstrip("\n").split(",")


def within_se(name, frac, p, n):
    se = math.sqrt(p * (1.0 - p) / n)
    expect(abs(frac - p) <= Z_LIMIT * se,
           f"{name}: fraction {frac} is more than {Z_LIMIT:g} standard errors from {p}")


def side_class(a2, b2, c2):
    """Class from the largest squared side; also right for angles over pi."""
    top = max(a2, b2, c2)
    if abs(top - 0.5) <= RIGHT_TOL:
        return "right"
    return "obtuse" if top > 0.5 else "acute"


def sides_from_xy(x, y):
    return (1.0 + x + SQRT3 * y) / 3.0, (1.0 + x - SQRT3 * y) / 3.0, (1.0 - 2.0 * x) / 3.0


# ---------------------------------------------------------------------------


class McSummary:
    name = "mc-summary"
    why = ("RNG and sampling kernels do almost all the work and the output is a few lines; "
           "bypasses row formatting, uniformity, specfun and conversions")

    def __init__(self, ctx):
        self.ctx = ctx
        self.n = 1 << 12 if ctx.smoke else 1 << 18

    def setup(self):
        pass

    def oracle_request(self):
        return {"obtuse_ndim": [3, 12]}

    def steps(self, oracle, warm=False):
        import trishape.sampling as sampling

        n = 1000 if warm else self.n
        seed = str(self.ctx.seed)
        steps = []
        models = [("gaussian", []), ("hemisphere", []), ("angles", []),
                  ("ndim", ["--m", "3"]), ("ndim", ["--m", "12"])]
        for stream, (model, extra) in enumerate(models, start=1):

            def check(out, _, model=model, extra=extra):
                rec = record(out)
                expect(int(rec["n_samples"]) == n, f"{model}: n_samples is {rec['n_samples']}")
                if model == "ndim":
                    field_, p = "obtuse", oracle["obtuse_ndim"][extra[1]]
                else:
                    field_, p = "acute", 0.25
                within_se(f"sample {model} {field_}", float(rec[field_]), p, n)

            steps.append(Step(f"summary-{model}{''.join(extra[1:])}",
                              ["sample", model, *extra, "-n", str(n), "--summary",
                               "--seed", seed, "--stream", str(stream), "--workers", "1"],
                              shapes=n, check=check))

        def check_hist(out, _):
            rows = [r.split(",") for r in out.splitlines()[1:]]
            cdf = lambda r: 1.0 - math.sqrt(max(1.0 - 4.0 * r * r, 0.0))
            expect(sum(int(r[2]) for r in rows) == n, "radius-histogram: counts do not sum to n")
            for lo, hi, count, expected, _ in rows:
                mass = n * (cdf(float(hi)) - cdf(float(lo)))
                expect(abs(float(expected) - mass) <= 1e-9 * n,
                       f"radius-histogram: expected {expected} != {mass}")
                sd = math.sqrt(mass * (1.0 - mass / n))
                expect(abs(int(count) - mass) <= Z_LIMIT * sd,
                       f"radius-histogram: bin [{lo}, {hi}) count {count} vs {mass}")

        steps.append(Step("radius-histogram",
                          ["plot-data", "radius-histogram", "-n", str(n), "--seed", seed,
                           "--stream", "6", "--workers", "1"],
                          shapes=n, check=check_hist))

        def check_stick(_, est):
            expect(est.n_samples == n, "broken-stick: wrong sample count")
            within_se("broken-stick", est.estimate, sampling.BROKEN_STICK_FRACTION, n)

        steps.append(Step("broken-stick",
                          call=lambda: sampling.broken_stick_fraction(
                              n, seed=(self.ctx.seed, 7), workers=1),
                          shapes=n, check=check_stick))
        return steps

    def fresh(self):
        return [["sample", "angles", "-n", "1000", "--summary",
                 "--seed", str(self.ctx.seed), "--stream", "9"]]


# ---------------------------------------------------------------------------


def _check_sides_rows(path, n):
    count = 0
    for a2, b2, c2, r, _, cls in csv_rows(path, "a2,b2,c2,r,phi,class"):
        a2, b2, c2, r = float(a2), float(b2), float(c2), float(r)
        expect(abs(a2 + b2 + c2 - 1.0) <= 1e-12, f"{path.name}: sides sum to {a2 + b2 + c2}")
        expect(cls == side_class(a2, b2, c2), f"{path.name}: class {cls} for ({a2}, {b2}, {c2})")
        expect(0.0 <= r <= 0.5 + 1e-12, f"{path.name}: r = {r} is off the disk")
        count += 1
    expect(count == n, f"{path.name}: {count} rows, expected {n}")


def _check_angle_rows(path, n):
    count = 0
    for a, b, g, cls in csv_rows(path, "alpha,beta,gamma,class"):
        a, b, g = float(a), float(b), float(g)
        expect(abs(a + b + g - 1.0) <= 1e-12, f"{path.name}: angles sum to {a + b + g}")
        expect(cls == side_class(a, b, g), f"{path.name}: class {cls} for angles ({a}, {b}, {g})")
        count += 1
    expect(count == n, f"{path.name}: {count} rows, expected {n}")


def _check_preshapes(path, n):
    with open(path) as fh:
        expect(fh.readline() == "m,k\n" and fh.readline() == "2,3\n",
               f"{path.name}: bad preshape header")
        count = 0
        for line in fh:
            v = [float(x) for x in line.split(",")]
            expect(len(v) == 4 and abs(math.fsum(x * x for x in v) - 1.0) <= 1e-12,
                   f"{path.name}: row {count} is not a unit-norm 2x2 preshape")
            count += 1
    expect(count == n, f"{path.name}: {count} rows, expected {n}")


def _check_scatter(path, n):
    count = 0
    for x, y, cls in csv_rows(path, "x,y,class"):
        x, y = float(x), float(y)
        expect(x * x + y * y <= 0.25 + 1e-12, f"{path.name}: ({x}, {y}) is off the disk")
        expect(cls == side_class(*sides_from_xy(x, y)), f"{path.name}: class {cls} at ({x}, {y})")
        count += 1
    expect(count == n, f"{path.name}: {count} rows, expected {n}")


def _check_svg(path, n):
    text = path.read_text()
    expect(text.startswith("<svg") and text.endswith("</svg>\n"), f"{path.name}: not an svg")
    expect(text.count("<circle") == n + 1, f"{path.name}: expected {n + 1} circles")


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class EmitRows:
    name = "emit-rows"
    why = ("same sampling kernels, but per-row cli formatting and file writing dominate; "
           "the write half of the file path")

    def __init__(self, ctx):
        self.ctx = ctx
        self.n = 2000 if ctx.smoke else 1 << 14
        self.out = ctx.work / "out"

    def setup(self):
        self.out.mkdir(parents=True, exist_ok=True)

    def oracle_request(self):
        return {}

    def _file_check(self, n, parsers):
        """Digest every file; parse a file back the first time its digest is seen.

        The digest is keyed by seed, size and file, so any later round or run
        of the same command that writes other bytes fails the check.
        """
        def check(out, _):
            for path, parse in parsers:
                key = f"{self.name}:{self.ctx.seed}:{n}:{path.name}"
                digest = file_digest(path)
                seen = self.ctx.digests.get(key)
                expect(seen in (None, digest), f"{path.name}: bytes differ from an earlier run")
                if seen is None:
                    parse(path, n)
                    self.ctx.digests[key] = digest

        return check

    def steps(self, oracle, warm=False):
        n = 200 if warm else self.n
        seed = str(self.ctx.seed)
        o = self.out
        spec = [
            ("rows-gaussian", ["gaussian"], o / "gaussian.csv", _check_sides_rows),
            ("rows-angles", ["angles"], o / "angles.csv", _check_angle_rows),
            ("rows-ndim3", ["ndim", "--m", "3"], o / "ndim3.csv", _check_sides_rows),
            ("preshapes-gaussian", ["gaussian", "--emit", "preshapes"], o / "preshapes.csv",
             _check_preshapes),
        ]
        steps = []
        for stream, (label, model, path, parse) in enumerate(spec, start=1):
            steps.append(Step(label, ["sample", *model, "-n", str(n), "--seed", seed,
                                      "--stream", str(stream), "--workers", "1", "-o", str(path)],
                              files=(path,), shapes=n,
                              check=None if warm else self._file_check(n, [(path, parse)])))
        csv, svg = o / "scatter.csv", o / "scatter.svg"
        steps.append(Step("disk-scatter",
                          ["plot-data", "disk-scatter", "-n", str(n), "--seed", seed,
                           "--stream", "5", "--workers", "1", "-o", str(csv), "--svg", str(svg)],
                          files=(csv, svg), shapes=n,
                          check=None if warm else self._file_check(
                              n, [(csv, _check_scatter), (svg, _check_svg)])))
        return steps

    def fresh(self):
        return [["sample", "gaussian", "-n", "1000", "--seed", str(self.ctx.seed),
                 "--stream", "9"]]


# ---------------------------------------------------------------------------

_TEST_LINE = re.compile(r"^(\S+): statistic = (\S+)\s+reference = .*\s+p = (\S+)\s+"
                        r"t = (\d+)\s+\[(pass|REJECT) at alpha=")


class TestFile:
    name = "test-file"
    why = ("the read half of the file path plus uniformity and specfun: the 3x3 file is "
           "sigma-min quadrature, the 2x2 file is parsing and per-element KS CDFs")

    def __init__(self, ctx):
        self.ctx = ctx
        self.n2 = 2000 if ctx.smoke else 25_000
        self.n3 = 10 if ctx.smoke else 50
        d = ctx.work / "in"
        self.p2, self.p3, self.tiny = d / "p2x2.csv", d / "p3x3.csv", d / "tiny2x2.csv"

    def setup(self):
        from trishape import cli

        self.p2.parent.mkdir(parents=True, exist_ok=True)
        seed = str(self.ctx.seed)
        for argv in (["gaussian", "-n", str(self.n2), "--stream", "1", "-o", str(self.p2)],
                     ["ndim", "--m", "3", "--k", "4", "-n", str(self.n3), "--stream", "2",
                      "-o", str(self.p3)],
                     ["gaussian", "-n", "64", "--stream", "3", "-o", str(self.tiny)]):
            rc = cli.main(["sample", *argv, "--emit", "preshapes", "--seed", seed])
            if rc != 0:
                raise RuntimeError(f"could not generate test input: sample {' '.join(argv)}")

    def oracle_request(self):
        return {"ks_2x2": str(self.p2)}

    def _check(self, n, names, oracle):
        def check(out, rc):
            reports = [_TEST_LINE.match(line) for line in out.splitlines()]
            expect(all(reports), "test: unparsable report line")
            expect([r[1] for r in reports] == names, f"test: ran {[r[1] for r in reports]}")
            for r in reports:
                p = float(r[3])
                expect(0.0 <= p <= 1.0, f"{r[1]}: p-value {p} outside [0, 1]")
                expect(int(r[4]) == n, f"{r[1]}: t = {r[4]}, expected {n}")
                expect((r[5] == "REJECT") == (p < ALPHA), f"{r[1]}: verdict {r[5]} at p = {p}")
                if r[1] in oracle:
                    d = float(r[2])
                    expect(abs(d - oracle[r[1]]) <= 1e-12,
                           f"{r[1]}: D = {d}, scipy.stats.kstest gives {oracle[r[1]]}")
            rejected = any(r[5] == "REJECT" for r in reports)
            expect(rc == (3 if rejected else 0), f"test: exit code {rc}")

        return check

    def steps(self, oracle, warm=False):
        if warm:
            return [Step("test-tiny", ["test", str(self.tiny), "--which", "all"], codes=(0, 3))]
        ks = oracle["ks_2x2"]
        return [
            Step("test-3x3", ["test", str(self.p3), "--which", "all"], shapes=self.n3,
                 codes=(0, 3), check=self._check(self.n3, ["chikuse-jupp", "sigma-min-ks"], {})),
            Step("test-2x2", ["test", str(self.p2), "--which", "all"], shapes=self.n2,
                 codes=(0, 3),
                 check=self._check(self.n2, ["chikuse-jupp", "sigma-min-ks", "height-ks",
                                             "longitude-ks"], ks)),
        ]

    def fresh(self):
        return [["test", str(self.tiny), "--which", "all"]]


# ---------------------------------------------------------------------------

_REPS = ("sides", "disk", "hemisphere", "svd", "matrix")


def _representations(m):
    """Every representation of the unit-norm 2x2 shape matrix m, as CLI values."""
    g11 = m[0, 0] ** 2 + m[1, 0] ** 2
    g22 = m[0, 1] ** 2 + m[1, 1] ** 2
    x, y = (g11 - g22) / 2.0, m[0, 0] * m[0, 1] + m[1, 0] * m[1, 1]
    r, phi = math.hypot(x, y), math.atan2(y, x) % (2.0 * math.pi)
    return {
        "sides": sides_from_xy(x, y),
        "disk": (r, phi),
        "hemisphere": (math.acos(min(2.0 * r, 1.0)), phi),
        "svd": (math.sqrt(0.5 + r), math.sqrt(0.5 - r), phi / 2.0),
        "matrix": tuple(m.ravel()),
    }


class ExactFigures:
    name = "exact-figures"
    why = ("the RNG-free path: one-shot scalar conversions, geometry and exact probabilities, "
           "plus the angle-bin quadrature; the only workload where those layers do the work")

    BINS_PER_SIDE = 2      # angle-bins quadrature size (the CLI default is 10)
    GRID = 24              # hemisphere-map latitude grid (the CLI default)

    def __init__(self, ctx):
        self.ctx = ctx
        self.n_shapes = 6 if ctx.smoke else 60
        self.bins = 2 if ctx.smoke else self.BINS_PER_SIDE
        self.grid = 4 if ctx.smoke else self.GRID
        self.n_bins = 1000 if ctx.smoke else 10_000

    def setup(self):
        rng = np.random.default_rng(self.ctx.seed)
        self.shapes, self.dims = [], []
        for _ in range(self.n_shapes):
            m = rng.standard_normal((2, 2))
            self.shapes.append(_representations(m / np.linalg.norm(m)))
            self.dims.append(int(rng.integers(2, 65)))

    def oracle_request(self):
        return {"prob": sorted(set(self.dims))}

    def one_shots(self, oracle):
        steps = []
        for i, (reps, dim) in enumerate(zip(self.shapes, self.dims)):
            # 20 consecutive shapes cover all 20 ordered pairs of representations
            src, dst = _REPS[i % 5], _REPS[(i % 5 + 1 + (i // 5) % 4) % 5]

            def check_convert(out, _, dst=dst):
                rec = record(out)
                expect(rec["representation"] == dst, f"convert: got {rec['representation']}")
                expect(rec["roundtrip_cycles"] == "64", "convert: wrong roundtrip cycle count")
                err = float(rec["roundtrip_max_discrepancy"])
                expect(err < 1e-10, f"convert: roundtrip discrepancy {err}")

            def check_construct(out, _):
                rec = record(out)
                expect(rec["degenerate"] == "false", "construct: flagged degenerate")
                for t in (1, 2, 3):
                    res = float(rec[f"triangle_{t}_ratio_residual"])
                    expect(res < 1e-9, f"construct: triangle {t} ratio residual {res}")

            def check_prob(out, _, dim=dim):
                rec = record(out)
                want = oracle["prob"][str(dim)]
                for key, value in (("obtuse", want), ("acute", 1.0 - want)):
                    expect(abs(float(rec[key]) - value) <= 1e-12,
                           f"prob {dim}: {key} = {rec[key]}, scipy gives {value}")

            steps.append(Step(f"convert-{src}-{dst}",
                              ["convert", "--from", src, "--to", dst,
                               *map(repr, map(float, reps[src])), "--roundtrip"],
                              shapes=1, one_shot=True, check=check_convert))
            steps.append(Step("construct", ["construct", *map(repr, map(float, reps["sides"]))],
                              shapes=1, one_shot=True, check=check_construct))
            steps.append(Step("prob", ["prob", str(dim)], one_shot=True, check=check_prob))
        return steps

    def steps(self, oracle, warm=False):
        if warm:
            return self.one_shots(oracle)[:15] + [
                Step("hemisphere-map", ["plot-data", "hemisphere-map", "--grid", "4"]),
                Step("angle-bins", ["plot-data", "angle-bins", "--model", "angles", "-n", "100"]),
            ]
        grid, bins, n = self.grid, self.bins, self.n_bins

        def check_map(out, _):
            rows = out.splitlines()
            expect(rows[0] == "latitude,longitude,alpha,beta,gamma", "hemisphere-map: header")
            expect(len(rows) == 1 + grid * 2 * grid, f"hemisphere-map: {len(rows) - 1} rows")
            for row in rows[1:]:
                a, b, g = (float(v) for v in row.split(",")[2:])
                expect(abs(a + b + g - 1.0) <= 1e-12, f"hemisphere-map: angles sum to {a + b + g}")

        def check_bins(out, _):
            rows = [r.split(",") for r in out.splitlines()[1:]]
            expect(len(rows) == bins * bins, f"angle-bins: {len(rows)} bins")
            expect(sum(int(r[3]) for r in rows) == n, "angle-bins: counts do not sum to n")
            total = math.fsum(float(r[4]) for r in rows)
            # angle_bin_probabilities documents a quadrature error well below 1e-3
            expect(abs(total - n) <= 1e-3 * n, f"angle-bins: expected column sums to {total}")

        return self.one_shots(oracle) + [
            Step("hemisphere-map", ["plot-data", "hemisphere-map", "--grid", str(grid)],
                 shapes=grid * 2 * grid, check=check_map),
            Step("angle-bins", ["plot-data", "angle-bins", "--bins-per-side", str(bins),
                                "-n", str(n), "--seed", str(self.ctx.seed), "--workers", "1"],
                 shapes=n, check=check_bins),
        ]

    def fresh(self):
        return [s.argv for s in self.one_shots({})]


WORKLOADS = {w.name: w for w in (McSummary, EmitRows, TestFile, ExactFigures)}
