"""Command-line surface: conversions, sampling, probabilities, constructions,
uniformity tests, and plot-data emission.

Exit codes: 0 success, 1 usage error, 2 domain violation (e.g. triangle
inequality), 3 statistical rejection (``test`` with ``--alpha``).

All floating-point output uses 17 significant digits so emitted files
reparse losslessly, and identical command lines with identical seeds
produce byte-identical bytes.
"""

import argparse
import json
import math
import sys

import numpy as np

from . import conversions as conv
from . import geometry, sampling, uniformity
from .errors import DomainError
from .sampling import CLASS_NAMES, iter_blocks

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_REJECTED = 3

_REP_FIELDS = {
    "sides": ("a2", "b2", "c2"),
    "disk": ("r", "phi"),
    "hemisphere": ("latitude", "longitude"),
    "svd": ("sigma1", "sigma2", "theta"),
    "matrix": ("m11", "m12", "m21", "m22"),
}


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    if isinstance(v, np.ndarray):
        return " ".join(_fmt(float(x)) for x in v.ravel())
    return str(v)


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the contract reserves 2 for
    # domain violations, so remap usage problems to exit code 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit_(EXIT_USAGE, f"{self.prog}: error: {message}")


class SystemExit_(Exception):
    def __init__(self, code, message=None):
        super().__init__(message)
        self.code = code
        self.message = message


def _rep_value(rep: str, values):
    fields = _REP_FIELDS[rep]
    if len(values) != len(fields):
        raise SystemExit_(EXIT_USAGE,
                          f"representation '{rep}' needs {len(fields)} values "
                          f"({', '.join(fields)}), got {len(values)}")
    if rep == "sides":
        return conv.SquaredSides(*values)
    if rep == "disk":
        return conv.DiskPoint(*values)
    if rep == "hemisphere":
        return conv.HemispherePoint(*values)
    if rep == "svd":
        return conv.SvdShape(*values)
    m = np.array(values, dtype=float).reshape(2, 2)
    norm = np.linalg.norm(m)
    if not 0.0 < norm < math.inf:
        raise DomainError(f"zero or non-finite matrix has no shape: {values}")
    return m / norm


def _rep_record(value) -> dict:
    kind = conv.kind_of(value)
    rec = {"representation": kind}
    if kind == "matrix":
        m = np.asarray(value)
        rec.update(m11=m[0, 0], m12=m[0, 1], m21=m[1, 0], m22=m[1, 1])
    else:
        for f in _REP_FIELDS[kind]:
            rec[f] = getattr(value, f)
    return rec


def _jsonable(v):
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, (np.floating,)):
        return float(v)
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.bool_,)):
        return bool(v)
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


def _emit_record(rec: dict, fmt: str, out):
    if fmt == "json":
        out.write(json.dumps({k: _jsonable(v) for k, v in rec.items()}, indent=2))
        out.write("\n")
    elif fmt == "csv":
        # one header row, one value row; vector cells are space-separated
        out.write(",".join(rec) + "\n")
        out.write(",".join(_fmt(v) for v in rec.values()) + "\n")
    else:
        for k, v in rec.items():
            out.write(f"{k} = {_fmt(v)}\n")


def _open_output(path):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", newline="\n"), True


# ---------------------------------------------------------------------------
# convert


def _cmd_convert(args, out) -> int:
    value = _rep_value(args.from_rep, args.values)
    target = conv.convert(value, args.to_rep)
    rec = _rep_record(target)
    if args.roundtrip:
        report = conv.roundtrip_all(value)
        rec["roundtrip_cycles"] = report.n_cycles
        rec["roundtrip_max_discrepancy"] = report.max_discrepancy
    _emit_record(rec, args.format, out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sample


def _sample_rows(model, n, seed, m):
    """Yield CSV lines, generated block-wise from deterministic substreams."""
    blocks = iter_blocks(n, seed)   # rejects n < 1 before the header
    if model == "angles":
        yield "alpha,beta,gamma,class"
    else:
        yield "a2,b2,c2,r,phi,class"
    for rng, count in blocks:
        if model == "angles":
            ang = sampling.uniform_angles_batch(rng, count)
            for row, c in zip(ang, sampling._classify_codes(ang)):
                yield (f"{row[0]:.17g},{row[1]:.17g},{row[2]:.17g},{CLASS_NAMES[c]}")
            continue
        s2 = sampling.sides_batch(model, rng, count, m)
        x = (s2[:, 0] + s2[:, 1]) / 2.0 - s2[:, 2]
        y = sampling.SQRT3 * (s2[:, 0] - s2[:, 1]) / 2.0
        r = np.hypot(x, y)
        phi = np.mod(np.arctan2(y, x), 2.0 * math.pi)
        codes = sampling._classify_codes(s2)
        for row, rr, pp, c in zip(s2, r, phi, codes):
            yield (f"{row[0]:.17g},{row[1]:.17g},{row[2]:.17g},"
                   f"{rr:.17g},{pp:.17g},{CLASS_NAMES[c]}")


def _preshape_lines(n, seed, m, k):
    blocks = iter_blocks(n, seed)
    yield "m,k"
    yield f"{m},{k}"
    for rng, count in blocks:
        for mat in sampling.ndim_shapes(m, k, rng, count):
            yield ",".join(f"{v:.17g}" for v in mat.ravel(order="C"))


def _cmd_sample(args, out) -> int:
    model = args.model
    if model == "ndim" and args.m is None:
        raise SystemExit_(EXIT_USAGE, "model 'ndim' requires --m")
    m = args.m if args.m is not None else 2
    k = args.k
    seed = (args.seed, args.stream)

    if args.summary:
        fr = sampling.class_fractions(model, args.n, seed=seed, m=m, workers=args.workers)
        rec = {"model": model, "n_samples": args.n, "seed": args.seed, "stream": args.stream}
        if model == "ndim":
            rec["m"] = m
        for name in CLASS_NAMES:
            rec[name] = fr[name]
            rec[f"{name}_stderr"] = fr[f"{name}_stderr"]
        _emit_record(rec, args.format, out)
        return EXIT_OK

    if args.emit == "preshapes":
        if model not in ("gaussian", "ndim"):
            raise SystemExit_(EXIT_USAGE, "--emit preshapes needs model 'gaussian' or 'ndim'")
        mm, kk = (2, 3) if model == "gaussian" else (m, k)
        for line in _preshape_lines(args.n, seed, mm, kk):
            out.write(line + "\n")
        return EXIT_OK

    if model == "ndim" and k != 3:
        raise SystemExit_(EXIT_USAGE, "per-sample rows need triangles (k = 3); "
                                      "use --emit preshapes for general k")
    for line in _sample_rows(model, args.n, seed, m):
        out.write(line + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# prob / construct


def _cmd_prob(args, out) -> int:
    if args.n < 2:
        raise SystemExit_(EXIT_USAGE, f"dimension must be >= 2, got {args.n}")
    obtuse = sampling.obtuse_probability_ndim(args.n)
    _emit_record({"n": args.n, "obtuse": obtuse, "acute": 1.0 - obtuse},
                 args.format, out)
    return EXIT_OK


def _triangle_ratio_residual(tri: np.ndarray, sides: np.ndarray) -> float:
    lengths = np.array([
        np.linalg.norm(tri[0] - tri[1]),
        np.linalg.norm(tri[0] - tri[2]),
        np.linalg.norm(tri[1] - tri[2]),
    ])
    lengths.sort()
    ref = np.sort(np.sqrt(sides))
    if ref[2] == 0.0:
        return 0.0
    ratio = lengths / np.where(ref > 0, ref, 1.0)
    scale = lengths[2] / ref[2]
    if scale == 0.0:
        return 0.0
    return float(np.abs(ratio[ref > 0] / scale - 1.0).max())


def _cmd_construct(args, out) -> int:
    sides = conv.SquaredSides(args.a2, args.b2, args.c2)
    result = geometry.construct_in_hemisphere(sides)
    rec = {
        "a2": sides.a2, "b2": sides.b2, "c2": sides.c2,
        "degenerate": result.degenerate,
        "S": result.apex, "P": result.foot,
    }
    for para in result.parallelians:
        u, v = para.cartesian_endpoints
        rec[f"parallelian_{para.index}_endpoint_1"] = u
        rec[f"parallelian_{para.index}_endpoint_2"] = v
    arr = sides.as_array()
    for i, tri in enumerate(result.triangles, start=1):
        for j in range(3):
            rec[f"triangle_{i}_vertex_{j + 1}"] = tri[j]
        rec[f"triangle_{i}_ratio_residual"] = _triangle_ratio_residual(tri, arr)
    _emit_record(rec, args.format, out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# test


def _read_preshape_file(path) -> np.ndarray:
    with open(path) as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if len(lines) < 3:
        raise SystemExit_(EXIT_USAGE, f"sample file {path!r} is empty or truncated")
    if lines[0].replace(" ", "") != "m,k":
        raise SystemExit_(EXIT_USAGE, f"sample file {path!r} must start with an 'm,k' header")
    try:
        m, k = (int(v) for v in lines[1].split(","))
        rows = [np.array([float(v) for v in line.split(",")]) for line in lines[2:]]
    except ValueError as exc:
        raise SystemExit_(EXIT_USAGE, f"cannot parse sample file {path!r}: {exc}")
    z = np.stack(rows).reshape(len(rows), m, k - 1)
    return z


def _cmd_test(args, out) -> int:
    reports = uniformity.uniformity_suite(_read_preshape_file(args.file), args.which).reports
    if args.format == "json":
        _emit_record({"alpha": args.alpha, "tests": [vars(r) for r in reports]},
                     "json", out)
    else:
        for r in reports:
            verdict = "REJECT" if r.rejected(args.alpha) else "pass"
            out.write(f"{r.name}: statistic = {_fmt(r.statistic)}  "
                      f"reference = {r.reference}  p = {_fmt(r.p_value)}  "
                      f"t = {r.n_samples}  [{verdict} at alpha={args.alpha:g}]\n")
    return EXIT_REJECTED if any(r.rejected(args.alpha) for r in reports) else EXIT_OK


# ---------------------------------------------------------------------------
# plot-data


def _svg_scatter(points, classes, path):
    colors = {"acute": "#1f77b4", "right": "#000000", "obtuse": "#d62728"}
    with open(path, "w", newline="\n") as fh:
        fh.write('<svg xmlns="http://www.w3.org/2000/svg" viewBox="-0.55 -0.55 1.1 1.1">\n')
        fh.write('<circle cx="0" cy="0" r="0.5" fill="none" stroke="#888" '
                 'stroke-width="0.003"/>\n')
        for (x, y), cls in zip(points, classes):
            fh.write(f'<circle cx="{x:.6f}" cy="{-y:.6f}" r="0.004" '
                     f'fill="{colors[cls]}"/>\n')
        fh.write("</svg>\n")


def _plot_disk_scatter(args, out):
    blocks = iter_blocks(args.n, (args.seed, args.stream))
    out.write("x,y,class\n")
    pts, classes = [], []
    for rng, count in blocks:
        x, y = sampling.disk_batch(args.model, rng, count)
        codes = sampling._classify_codes(conv._sides_from_xy(x, y))
        for xx, yy, c in zip(x, y, codes):
            name = CLASS_NAMES[c]
            out.write(f"{xx:.17g},{yy:.17g},{name}\n")
            if args.svg:
                pts.append((xx, yy))
                classes.append(name)
    if args.svg:
        _svg_scatter(pts, classes, args.svg)


def _plot_radius_histogram(args, out):
    edges = np.linspace(0.0, 0.5, args.bins + 1)

    def block(rng, count):
        return np.histogram(np.hypot(*sampling.disk_batch(args.model, rng, count)),
                            bins=edges)[0]

    counts = sampling._mc_sum(args.n, block, (args.seed, args.stream), args.workers)
    cdf = lambda r: 1.0 - math.sqrt(max(1.0 - 4.0 * r * r, 0.0))
    out.write("bin_lo,bin_hi,count,expected,density_mid\n")
    for lo, hi, c in zip(edges[:-1], edges[1:], counts):
        expected = args.n * (cdf(hi) - cdf(lo))
        mid = (lo + hi) / 2.0
        dens = 4.0 * mid / math.sqrt(max(1.0 - 4.0 * mid * mid, 1e-300))
        out.write(f"{lo:.17g},{hi:.17g},{int(c)},{expected:.17g},{dens:.17g}\n")


def _plot_angle_bins(args, out):
    counts = sampling.angle_bin_counts(args.model, args.n, seed=(args.seed, args.stream),
                                       bins_per_side=args.bins_per_side,
                                       workers=args.workers)
    n2 = args.bins_per_side ** 2
    if args.model == "angles":
        probs = {lab: 1.0 / n2 for lab in counts}
    else:
        probs = sampling.angle_bin_probabilities(args.bins_per_side)
    h = 1.0 / args.bins_per_side
    out.write("i,j,orientation,count,expected,density_centroid\n")
    for lab, c in counts.items():
        i, j, orient = lab
        off = h / 3.0 if orient == "up" else 2.0 * h / 3.0
        ca, cb = i * h + off, j * h + off
        if args.model == "angles":
            dens = 2.0
        else:
            dens = sampling.angle_density((ca, cb, 1.0 - ca - cb), normalized=True)
        out.write(f"{i},{j},{orient},{c},{args.n * probs[lab]:.17g},{dens:.17g}\n")


def _plot_hemisphere_map(args, out):
    out.write("latitude,longitude,alpha,beta,gamma\n")
    g = args.grid
    for lat in np.linspace(0.0, math.pi / 2.0, g):
        for lon in np.linspace(0.0, 2.0 * math.pi, 2 * g, endpoint=False):
            sides = conv.hemisphere_to_sides(conv.HemispherePoint(lat, lon))
            ang = geometry.angles_from_sides(sides).as_array() / math.pi
            out.write(f"{lat:.17g},{lon:.17g},"
                      f"{ang[0]:.17g},{ang[1]:.17g},{ang[2]:.17g}\n")


def _cmd_plot_data(args, out) -> int:
    if args.kind in ("disk-scatter", "radius-histogram") and args.model == "angles":
        raise SystemExit_(EXIT_USAGE, f"{args.kind} needs model 'gaussian' or 'hemisphere'")
    if args.kind == "disk-scatter":
        _plot_disk_scatter(args, out)
    elif args.kind == "radius-histogram":
        _plot_radius_histogram(args, out)
    elif args.kind == "angle-bins":
        _plot_angle_bins(args, out)
    else:
        _plot_hemisphere_map(args, out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> _Parser:
    parser = _Parser(prog="trishape",
                     description="Triangle shape space toolkit: conversions, "
                                 "sampling, constructions, and uniformity tests.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="base RNG seed")
    common.add_argument("--stream", type=int, default=0, help="RNG stream id")
    common.add_argument("--output", "-o", default=None, help="output file (default stdout)")
    common.add_argument("--format", choices=("structured", "csv", "json"),
                        default="structured", help="record output format")
    common.add_argument("--alpha", type=float, default=0.01,
                        help="rejection threshold for statistical tests")
    common.add_argument("--workers", type=int, default=1,
                        help="worker hint for Monte Carlo block streams")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", parents=[common], help="convert between representations")
    p.add_argument("--from", dest="from_rep", required=True, choices=sorted(_REP_FIELDS))
    p.add_argument("--to", dest="to_rep", required=True, choices=sorted(_REP_FIELDS))
    p.add_argument("values", type=float, nargs="+")
    p.add_argument("--roundtrip", action="store_true",
                   help="also report the max discrepancy over all conversion cycles")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("sample", parents=[common], help="draw random shapes")
    p.add_argument("model", choices=("gaussian", "hemisphere", "angles", "ndim"))
    p.add_argument("-n", type=int, required=True, help="number of samples")
    p.add_argument("--m", type=int, default=None, help="ambient dimension (ndim model)")
    p.add_argument("--k", type=int, default=3, help="number of points (ndim model)")
    p.add_argument("--summary", action="store_true",
                   help="print class fractions instead of per-sample rows")
    p.add_argument("--emit", choices=("rows", "preshapes"), default="rows")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("prob", parents=[common],
                       help="analytic obtuse/acute probabilities in dimension n")
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_prob)

    p = sub.add_parser("construct", parents=[common],
                       help="in-hemisphere construction for given squared sides")
    p.add_argument("a2", type=float)
    p.add_argument("b2", type=float)
    p.add_argument("c2", type=float)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("test", parents=[common], help="uniformity tests on a sample file")
    p.add_argument("file")
    p.add_argument("--which", choices=(*uniformity.SUITE_TESTS, "all"),
                   default="all")
    p.set_defaults(func=_cmd_test)

    p = sub.add_parser("plot-data", parents=[common], help="emit figure data as CSV")
    p.add_argument("kind", choices=("disk-scatter", "radius-histogram",
                                    "angle-bins", "hemisphere-map"))
    p.add_argument("-n", type=int, default=10000)
    p.add_argument("--bins", type=int, default=50, help="radius histogram bins")
    p.add_argument("--bins-per-side", type=int, default=10, help="angle bin subdivisions")
    p.add_argument("--grid", type=int, default=24, help="hemisphere-map latitude grid")
    p.add_argument("--model", choices=("gaussian", "hemisphere", "angles"),
                   default="gaussian")
    p.add_argument("--svg", default=None, help="also write a minimal SVG scatter")
    p.set_defaults(func=_cmd_plot_data)

    return parser


def main(argv=None) -> int:
    out, close = None, False
    try:
        args = _build_parser().parse_args(argv)
        out, close = _open_output(args.output)
        return args.func(args, out)
    except SystemExit_ as exc:
        if exc.message:
            print(exc.message, file=sys.stderr)
        return exc.code
    except DomainError as exc:
        print(f"trishape: domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"trishape: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if close and out is not None:
            out.close()


if __name__ == "__main__":
    sys.exit(main())
