"""Command-line surface: conversions, sampling, probabilities, constructions,
uniformity tests, and plot-data emission.

Exit codes: 0 success, 1 usage error, 2 domain violation (e.g. triangle
inequality), 3 statistical rejection (``test`` with ``--alpha``).

All floating-point output uses 17 significant digits so emitted files
reparse losslessly, and identical command lines with identical seeds
produce byte-identical bytes.  Bulk rows (``sample``, ``plot-data`` and the
SVG scatter) go through an exact NumPy '%.17g' and '%.6f' kernel that writes
the bytes of CPython's '%'; it lives in ``trishape._rows``.  ``test`` reads the
files ``sample --emit preshapes`` writes with the inverse kernel, which gives
the bits of ``float()``, in ``trishape._fields``.  NumPy is imported
only in the bodies of the commands that compute with arrays, so ``prob``,
``convert`` and ``--help`` run without it.
"""

import argparse
import functools
import itertools
import math
import os
import re
import sys

# lazy modules (see the package): read none of them at import or in _build_parser
from . import conversions as conv
from . import _fields, _rows, core, geometry, sampling, specfun, uniformity
from .errors import DomainError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_REJECTED = 3

# conv.REPRESENTATIONS, sampling.MODELS and uniformity.TESTS, which tests pin these to
_REPRESENTATIONS = ("disk", "hemisphere", "matrix", "sides", "svd")
_MODELS = ("gaussian", "hemisphere", "angles", "ndim")
_SUITE_TESTS = ("chikuse-jupp", "sigma-min", "hemisphere")


def _class_codes(vals):
    """Class code of each row of squared sides or angles: an index into
    sampling.CLASS_NAMES."""
    return sampling._classify_codes(sampling._column_max(vals))


def _class_column(codes, names=None):
    """The name of each code (default: the class names), as bytes, which the row
    writer takes as they are."""
    import numpy as np
    return np.array(names or sampling.CLASS_NAMES, dtype="S")[codes]


def _fmt(v) -> str:
    if isinstance(v, tuple):            # a vector of floats, space-separated
        return " ".join(map("{:.17g}".format, v))
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(int(v))
    if isinstance(v, float):            # a NumPy float64 too, a subclass of float
        return f"{float(v):.17g}"
    return str(v)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # an option is read under its own name alone: no prefix of it, which
        # would read plot-data angle-bins --bins as --bins-per-side
        super().__init__(*args, allow_abbrev=False, **kwargs)
        # a value, not an option: -1.5e-05 (which argparse's own rule misses) and -inf too
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

    # argparse exits 2 on bad usage, which the contract reserves for domain
    # violations: raise a ValueError, which main reports with exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(message)


def _rep_fields(kind: str) -> tuple:
    if kind == "matrix":
        return ("m11", "m12", "m21", "m22")
    return conv.REPRESENTATIONS[kind].__match_args__     # the dataclass's fields, in order


def _rep_value(rep: str, values):
    fields = _rep_fields(rep)
    if len(values) != len(fields):
        raise ValueError(f"representation '{rep}' needs {len(fields)} values "
                         f"({', '.join(fields)}), got {len(values)}")
    if rep != "matrix":
        return conv.REPRESENTATIONS[rep](*values)
    norm = math.hypot(*values)          # scaled: no overflow or underflow on the way
    if not 0.0 < norm < math.inf:
        raise DomainError(f"zero or non-finite matrix has no shape: {values}")
    return tuple(tuple(v / norm for v in values[i:i + 2]) for i in (0, 2))


def _record_text(rec: dict, fmt: str | None) -> str:
    if fmt == "json":
        import json
        return json.dumps(rec, indent=2) + "\n"
    if fmt == "csv":
        # one header row, one value row; vector cells are space-separated
        return ",".join(rec) + "\n" + ",".join(_fmt(v) for v in rec.values()) + "\n"
    return "".join(f"{k} = {_fmt(v)}\n" for k, v in rec.items())


def _writes(text: str, code: int = EXIT_OK):
    """The writer of a command whose output is built whole: it writes text
    and returns the exit code."""
    def write(out):
        out.write(text)
        return code
    return write


def _check_size(flag: str, value: int, least: int = 1):
    if value < least:
        raise ValueError(f"{flag} must be at least {least}, got {value}")


# ---------------------------------------------------------------------------
# convert


def _cmd_convert(args):
    # on floats throughout: a matrix is a 2x2 tuple, and conv.convert's arrays are not made
    value = _rep_value(args.from_rep, args.values)
    route = (args.from_rep, args.to_rep)
    target = conv._floats(args.from_rep, value)
    target = target if route[0] == route[1] else conv._follow(route, target)
    flat = (*target[0], *target[1]) if args.to_rep == "matrix" else target
    rec = {"representation": args.to_rep, **dict(zip(_rep_fields(args.to_rep), flat))}
    if args.roundtrip:
        report = conv.roundtrip_all(value)
        rec["roundtrip_cycles"] = report.n_cycles
        rec["roundtrip_max_discrepancy"] = report.max_discrepancy
    return _writes(_record_text(rec, args.format))


# ---------------------------------------------------------------------------
# sample


def _cmd_sample(args):
    need = None if args.m is None and args.k is None else "reads_m"
    if sampling.check_model(args.model, need, "--m and --k apply to model").reads_m:
        if args.m is None:
            raise ValueError(f"model {args.model!r} requires --m")
        _check_size("--m", args.m)
    if args.format is not None and not args.summary:
        raise ValueError("--format applies to --summary alone; sample rows are CSV")
    if args.summary and args.emit == "preshapes":
        raise ValueError("--summary prints class fractions; it cannot --emit preshapes")
    if args.summary and args.k not in (None, 3):
        raise ValueError(f"--summary classifies triangles (k = 3), got --k {args.k}")
    _check_size("--workers", args.workers)
    if args.emit == "preshapes":
        sampling.check_model(args.model, "preshapes", "--emit preshapes needs model")
        _check_size("--k", args.k if args.k is not None else 3, 2)
    elif not args.summary and args.k not in (None, 3):
        raise ValueError("per-sample rows need triangles (k = 3); "
                         "use --emit preshapes for general k")
    sampling.iter_blocks(args.n, (args.seed, args.stream))  # raises on a bad -n, seed, stream
    return functools.partial(_sample_rows, args)


def _sample_rows(args, out) -> int:
    import numpy as np
    model, row = args.model, sampling.MODELS[args.model]
    m = args.m if args.m is not None else 2
    k = args.k if args.k is not None else 3
    seed = (args.seed, args.stream)

    if args.summary:
        fr = sampling.class_fractions(model, args.n, seed=seed, m=m, workers=args.workers)
        rec = {"model": model, "n_samples": args.n, "seed": args.seed, "stream": args.stream}
        if row.reads_m:
            rec["m"] = m
        rec.update((key, fr[key]) for name in sampling.CLASS_NAMES
                   for key in (name, f"{name}_stderr"))
        out.write(_record_text(rec, args.format))
        return EXIT_OK

    if args.emit == "preshapes":
        out.write(f"m,k\n{m},{k}\n")
        for rng, count in sampling.iter_blocks(args.n, seed):
            _rows._write_rows(out, sampling.ndim_shapes(m, k, rng, count).reshape(count, -1).T)
        return EXIT_OK

    shapes = row.disk is not None       # else angles drawn on the simplex
    out.write("a2,b2,c2,r,phi,class\n" if shapes else "alpha,beta,gamma,class\n")
    for rng, count in sampling.iter_blocks(args.n, seed):
        if shapes:
            vals = sampling.sides_batch(model, rng, count, m)
            x = (vals[:, 0] + vals[:, 1]) / 2.0 - vals[:, 2]
            y = core.SQRT3 * (vals[:, 0] - vals[:, 1]) / 2.0
            polar = (np.hypot(x, y), core._longitude(y, x))
        else:
            vals = row.angles(rng, count)
            polar = ()
        _rows._write_rows(out, (*vals.T, *polar, _class_column(_class_codes(vals))))
    return EXIT_OK


# ---------------------------------------------------------------------------
# prob / construct


def _cmd_prob(args):
    obtuse = specfun.obtuse_probability_ndim(args.n)
    return _writes(_record_text({"n": args.n, "obtuse": obtuse, "acute": 1.0 - obtuse},
                                args.format))


def _triangle_ratio_residual(tri, ref: list) -> float:
    # each length summed in a fixed order: no BLAS kernel decides a bit
    d = [[p - q for p, q in zip(tri[i], tri[j])] for i, j in ((0, 1), (0, 2), (1, 2))]
    lengths = sorted(math.sqrt((dx * dx + dy * dy) + dz * dz) for dx, dy, dz in d)
    if ref[2] == 0.0:
        return 0.0
    scale = lengths[2] / ref[2]
    if scale == 0.0:
        return 0.0
    return max(abs(v / r / scale - 1.0) for v, r in zip(lengths, ref) if r > 0)


def _cmd_construct(args):
    sides = conv.SquaredSides(args.a2, args.b2, args.c2)
    apex, foot, paras, degenerate = geometry._construction(sides)     # floats, not arrays
    rec = {"a2": sides.a2, "b2": sides.b2, "c2": sides.c2, "degenerate": degenerate,
           "S": apex, "P": foot}
    rec.update((f"parallelian_{i}_endpoint_{j}", end) for i, (_, _, ends) in
               enumerate(paras, start=1) for j, end in enumerate(ends, start=1))
    ref = sorted(map(math.sqrt, (sides.a2, sides.b2, sides.c2)))
    for i, (_, _, (u, v)) in enumerate(paras, start=1):
        tri = apex, (*u, 0.0), (*v, 0.0)
        rec.update((f"triangle_{i}_vertex_{j}", w) for j, w in enumerate(tri, start=1))
        rec[f"triangle_{i}_ratio_residual"] = _triangle_ratio_residual(tri, ref)
    return _writes(_record_text(rec, args.format))


# ---------------------------------------------------------------------------
# test


def _read_preshape_file(path):
    z = _fields._read_preshapes(path)       # None unless in the form sample writes
    if z is not None:
        return z
    import numpy as np
    with open(path) as fh:
        # the stripped non-blank lines, read from the file as loadtxt takes them
        lines = filter(None, map(str.strip, fh))
        head = list(itertools.islice(lines, 3))
        if len(head) < 3:
            raise ValueError(f"sample file {path!r} is empty or truncated")
        if head[0].replace(" ", "") != "m,k":
            raise ValueError(f"sample file {path!r} must start with an 'm,k' header")
        try:
            m, k = (int(v) for v in head[1].split(","))
            # checked before the reshape, which would infer a -1 from the rows
            if m < 1 or k < 2:
                raise ValueError(f"header needs m >= 1 and k >= 2, got m={m}, k={k}")
            rows = np.loadtxt(itertools.chain(head[2:], lines), delimiter=",", comments=None,
                              ndmin=2)
            return rows.reshape(len(rows), m, k - 1)
        except ValueError as exc:
            raise ValueError(f"cannot parse sample file {path!r}: {exc}") from exc


def _cmd_test(args):
    if not 0.0 < args.alpha < 1.0:
        raise ValueError(f"--alpha must lie strictly between 0 and 1, got {args.alpha}")
    reports = uniformity.uniformity_suite(_read_preshape_file(args.file), args.which).reports
    results = ["REJECT" if r.rejected(args.alpha) else "pass" for r in reports]
    if args.format == "json":
        text = _record_text({"alpha": args.alpha, "tests": [vars(r) for r in reports]}, "json")
    elif args.format == "csv":
        import csv
        import io

        # one row per test; the reference holds commas, which csv quotes
        recs = [{**vars(r), "alpha": args.alpha, "result": res}
                for r, res in zip(reports, results)]
        buf = io.StringIO()
        rows = csv.writer(buf, lineterminator="\n")
        rows.writerow(recs[0])
        rows.writerows(map(_fmt, rec.values()) for rec in recs)
        text = buf.getvalue()
    else:
        text = "".join(f"{r.name}: statistic = {_fmt(r.statistic)}  "
                       f"reference = {r.reference}  p = {_fmt(r.p_value)}  t = {r.n_samples}  "
                       f"[{res} at alpha={args.alpha:g}]\n" for r, res in zip(reports, results))
    return _writes(text, EXIT_REJECTED if "REJECT" in results else EXIT_OK)


# ---------------------------------------------------------------------------
# plot-data


_SVG_HEAD = ('<svg xmlns="http://www.w3.org/2000/svg" viewBox="-0.55 -0.55 1.1 1.1">\n'
             '<circle cx="0" cy="0" r="0.5" fill="none" stroke="#888" stroke-width="0.003"/>\n')
_SVG_CIRCLE = '<circle cx="%.6f" cy="%.6f" r="0.004" fill="%s"/>\n'
_SVG_COLORS = (b"#1f77b4", b"#000000", b"#d62728")     # by class code: acute, right, obtuse


def _plot_disk_scatter(args, out):
    """The disk points as CSV rows and, with --svg, as SVG circles, both
    written block by block."""
    svg = open(args.svg, "w", newline="\n") if args.svg else None
    try:
        out.write("x,y,class\n")
        if svg:
            svg.write(_SVG_HEAD)
        for rng, count in sampling.iter_blocks(args.n, (args.seed, args.stream)):
            x, y = sampling.disk_batch(args.model, rng, count)
            codes = _class_codes(core._sides_from_xy(x, y))
            _rows._write_rows(out, (x, y, _class_column(codes)))
            if svg:
                _rows._write_lines(svg, _SVG_CIRCLE, (x, -y, _class_column(codes, _SVG_COLORS)))
        if svg:
            svg.write("</svg>\n")
    finally:
        if svg:
            svg.close()


def _plot_radius_histogram(args, out):
    import numpy as np
    edges = np.linspace(0.0, 0.5, args.bins + 1)
    block = lambda rng, count: sampling.radius_counts(args.model, rng, count, edges)
    counts = sampling._mc_sum(args.n, block, (args.seed, args.stream), args.workers)
    lo, hi, mid = edges[:-1], edges[1:], (edges[:-1] + edges[1:]) / 2.0
    cdf = lambda r: 1.0 - np.sqrt(np.maximum(1.0 - 4.0 * r * r, 0.0))
    density = 4.0 * mid / np.sqrt(np.maximum(1.0 - 4.0 * mid * mid, 1e-300))
    out.write("bin_lo,bin_hi,count,expected,density_mid\n")
    _rows._write_rows(out, (lo, hi, counts, args.n * (cdf(hi) - cdf(lo)), density))


def _plot_angle_bins(args, out):
    import numpy as np
    n = args.bins_per_side
    counts = sampling.angle_bin_counts(args.model, args.n, seed=(args.seed, args.stream),
                                       bins_per_side=n, workers=args.workers)
    i, j, orient = (np.array(c) for c in zip(*counts))
    if sampling.MODELS[args.model].disk is None:    # simplex angles: mass 1/n^2, density 2
        mass, dens = np.full(len(i), 1.0 / n ** 2), np.full(len(i), 2.0)
    else:   # the normalized density at each bin centroid
        probs = sampling.angle_bin_probabilities(n)
        mass = np.array([probs[key] for key in counts])
        h = 1.0 / n
        off = np.where(orient == "up", h / 3.0, 2.0 * h / 3.0)
        ca, cb = i * h + off, j * h + off
        dens = sampling._angle_density_arrays(ca, cb, 1.0 - ca - cb) * sampling.ANGLE_DENSITY_NORM
    out.write("i,j,orientation,count,expected,density_centroid\n")
    _rows._write_rows(out, (i, j, orient, list(counts.values()), args.n * mass, dens))


def _plot_hemisphere_map(args, out):
    import numpy as np
    g = args.grid
    lat = np.repeat(np.linspace(0.0, math.pi / 2.0, g), 2 * g)
    lon = np.tile(np.linspace(0.0, 2.0 * math.pi, 2 * g, endpoint=False), g)
    ang = geometry._hemisphere_angles(lat, lon) / math.pi
    out.write("latitude,longitude,alpha,beta,gamma\n")
    _rows._write_rows(out, (lat, lon, *ang.T))


# Each plot-data kind: its writer and the kernel its model needs (None: it draws
# nothing).  Each kind has its own parser, with only the options it reads.
_PLOTS = {
    "disk-scatter": (_plot_disk_scatter, "disk"),
    "radius-histogram": (_plot_radius_histogram, "radius"),
    "angle-bins": (_plot_angle_bins, "angles"),
    "hemisphere-map": (_plot_hemisphere_map, None),
}


def _cmd_plot_data(args):
    plot, need = _PLOTS[args.kind]
    for name in ("bins", "bins_per_side", "grid", "workers"):
        if name in vars(args):
            _check_size("--" + name.replace("_", "-"), getattr(args, name))
    if need:    # plot-data has no --m, so no model that reads one
        sampling.check_model(args.model, need, m=None)
        sampling.iter_blocks(args.n, (args.seed, args.stream))  # raises on a bad -n, seed, stream
    if getattr(args, "svg", None):  # an unwritable --svg path fails here, not once -o is written
        existed = os.path.exists(args.svg)
        open(args.svg, "a").close()
        if not existed:
            os.remove(args.svg)
    return lambda out: plot(args, out) or EXIT_OK


# ---------------------------------------------------------------------------
# parser


# Option sets shared by several subcommands; each subcommand takes only the
# sets it reads.  They are templates, copied into each parser that names them.
_OUTPUT = argparse.ArgumentParser(prog="trishape", add_help=False)
_OUTPUT.add_argument("--output", "-o", default=None, help="output file (default stdout)")
_RECORD = argparse.ArgumentParser(prog="trishape", add_help=False, parents=[_OUTPUT])
# no default: None is structured (_record_text), and sample reads --format only with --summary
_RECORD.add_argument("--format", choices=("structured", "csv", "json"),
                     help="record output format (default structured)")
_DRAWS = argparse.ArgumentParser(prog="trishape", add_help=False)
_DRAWS.add_argument("--seed", type=int, default=0, help="base RNG seed")
_DRAWS.add_argument("--stream", type=int, default=0, help="RNG stream id")
_DRAWS.add_argument("--workers", type=int, default=1,
                    help="worker hint for Monte Carlo block streams")
# the options of every plot-data kind that draws, besides its own
_PLOT_DRAWS = argparse.ArgumentParser(prog="trishape", add_help=False, parents=[_OUTPUT, _DRAWS])
_PLOT_DRAWS.add_argument("-n", type=int, default=10000, help="number of samples")
_PLOT_DRAWS.add_argument("--model", choices=_MODELS, default="gaussian")


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="trishape",
                     description="Triangle shape space toolkit: conversions, "
                                 "sampling, constructions, and uniformity tests.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", parents=[_RECORD], help="convert between representations")
    p.add_argument("--from", dest="from_rep", required=True, choices=_REPRESENTATIONS)
    p.add_argument("--to", dest="to_rep", required=True, choices=_REPRESENTATIONS)
    p.add_argument("values", type=float, nargs="+")
    p.add_argument("--roundtrip", action="store_true",
                   help="also report the max discrepancy over all conversion cycles")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("sample", parents=[_RECORD, _DRAWS],
                       help="draw random shapes")
    p.add_argument("model", choices=_MODELS)
    p.add_argument("-n", type=int, required=True, help="number of samples")
    p.add_argument("--m", type=int, default=None, help="ambient dimension (ndim model)")
    p.add_argument("--k", type=int, default=None,
                   help="number of points (ndim model; default 3)")
    p.add_argument("--summary", action="store_true",
                   help="print class fractions instead of per-sample rows")
    p.add_argument("--emit", choices=("rows", "preshapes"), default="rows")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("prob", parents=[_RECORD],
                       help="analytic obtuse/acute probabilities in dimension n")
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_prob)

    p = sub.add_parser("construct", parents=[_RECORD],
                       help="in-hemisphere construction for given squared sides")
    for side in ("a2", "b2", "c2"):
        p.add_argument(side, type=float)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("test", parents=[_RECORD], help="uniformity tests on a sample file")
    p.add_argument("file")
    p.add_argument("--alpha", type=float, default=0.01,
                   help="rejection threshold, strictly between 0 and 1")
    p.add_argument("--which", choices=(*_SUITE_TESTS, "all"), default="all")
    p.set_defaults(func=_cmd_test)

    p = sub.add_parser("plot-data", help="emit figure data as CSV")
    p.set_defaults(func=_cmd_plot_data)
    kinds = p.add_subparsers(dest="kind", required=True)
    k = kinds.add_parser("disk-scatter", parents=[_PLOT_DRAWS], help="disk points by class")
    k.add_argument("--svg", help="also write a minimal SVG scatter")
    k = kinds.add_parser("radius-histogram", parents=[_PLOT_DRAWS],
                         help="disk-radius histogram against its law")
    k.add_argument("--bins", type=int, default=50, help="radius histogram bins")
    k = kinds.add_parser("angle-bins", parents=[_PLOT_DRAWS],
                         help="counts over the angle-simplex bins against their masses")
    k.add_argument("--bins-per-side", type=int, default=10, help="angle bin subdivisions")
    k = kinds.add_parser("hemisphere-map", parents=[_OUTPUT],
                         help="angles over a latitude-longitude grid")
    k.add_argument("--grid", type=int, default=24, help="hemisphere-map latitude grid")

    return parser


def main(argv=None) -> int:
    out = None
    try:
        args = _build_parser().parse_args(argv)
        # each command checks its inputs, and builds what it prints whole,
        # before -o creates a file; it returns the writer of its output
        write = args.func(args)
        if args.output not in (None, "-"):
            out = open(args.output, "w", newline="\n")
        return write(out or sys.stdout)
    except (ValueError, OSError, ArithmeticError, MemoryError) as exc:
        domain = isinstance(exc, DomainError)
        print(f"trishape: {'domain error' if domain else 'error'}: {exc}", file=sys.stderr)
        if out is not None:     # the writer failed: leave no partial -o file
            out.close()
            os.remove(out.name)
        return EXIT_DOMAIN if domain else EXIT_USAGE
    finally:
        if out is not None:
            out.close()


if __name__ == "__main__":
    sys.exit(main())
