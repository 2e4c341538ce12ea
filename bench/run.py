"""Benchmark of trishape, driven from outside through ``trishape.cli.main``.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Sets the workload up three times (import in a fresh process, input
generation, warm-up) and reports the median, then repeats rounds of its
closed-loop command sequence for S seconds, checking every output.  Between
rounds, commands also run as fresh ``python -m trishape.cli`` processes, for a
quarter of the round time.  Between steps a fixed reference kernel is timed
(``Clock``), and every time metric is scaled by it to the host's nominal
speed, because a shared host's own speed drifts by tens of percent over
seconds.  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced rounds and rounds
with every public function of interest wrapped in spans, and reports
per-layer metrics.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Files go under
``.bench_out/`` in the repository root.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

# One BLAS thread, here and in every child process, before NumPy is imported:
# the closed loop runs on one core, and OpenBLAS's spinning helper threads
# would otherwise compete with the fresh-process commands and the Clock.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from spans import SPAN_FIELDS, TRACED, Tracer  # noqa: E402
from workloads import WORKLOADS, Context  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
FRESH_SHARE = 0.25     # fresh-process time per unit of round time
PROBE_SHAPES = 1 << 20
QUADRATURE_STEP = "test-3x3"      # the step whose per-sample call counts are reported
IMPORT_PROBE = ("import time; start = time.perf_counter(); import trishape.cli; "
                "print(time.perf_counter() - start)")

# Times are seconds at the host's nominal speed: see Clock.
END_TO_END = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "shapes_per_s": "1/s",
    "rows_per_s": "1/s", "mb_per_s": "MB/s", "cmd_p50_ms": "ms", "cmd_p95_ms": "ms",
    "startup_ms": "ms",
}
PER_LAYER_EXTRA = {
    "cli.rows_written": "count", "cli.bytes_written": "bytes",
    "specfun.gauss_2f1.calls_per_sample": "calls/sample",
    "uniformity.inv_sigma_min_cdf.calls_per_sample": "calls/sample",
    "sampling.rng_floor_ratio": "ratio", "sampling.workers2_efficiency": "ratio",
    "bench.trace_overhead": "ratio",
}


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def import_seconds():
    """Time `import trishape.cli` in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=_env(),
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout)


# ---------------------------------------------------------------------------
# machine speed

KERNEL_LOOPS = 30_000
NOMINAL_KERNEL_S = 2.0e-3   # median kernel time on the 2-vCPU Xeon host the bounds were set on
CLOCK_INTERVAL = 0.05       # s of benchmark time between two kernel timings, at least
CLOCK_SHARE = 0.2           # kernel time per unit of benchmark time since the last timing


def kernel():
    """Fixed reference work: a pure-Python integer loop.  It calls into no
    library, so its time follows the host's speed and nothing else; of the
    candidates tried (float formatting, NumPy sorts, file writes) it tracked
    the workloads' drift best."""
    acc = 0
    for i in range(KERNEL_LOOPS):
        acc += i * i
    return acc


class Clock:
    """Measures the host's speed with ``kernel`` between the benchmark's steps.

    ``tick`` times the kernel for CLOCK_SHARE of the time since the previous
    tick, so the timings spread over a phase in proportion to its time.  A
    phase's times are multiplied by ``scale``: NOMINAL_KERNEL_S over the
    median kernel time in that phase.  Program and kernel slow down together
    when the host does, so the scaled times keep only the program's own
    changes.  The kernel is fixed benchmark code; a change to trishape cannot
    move it.
    """

    def __init__(self):
        self.samples = []
        self._last = perf_counter()

    def tick(self, force=False):
        since = perf_counter() - self._last
        if since < CLOCK_INTERVAL and not force:
            return
        spent = 0.0
        while spent == 0.0 or spent < CLOCK_SHARE * since:
            start = perf_counter()
            kernel()
            elapsed = perf_counter() - start
            self.samples.append(elapsed)
            spent += elapsed
        self._last = perf_counter()

    def mark(self):
        """Start a phase: the next tick's timings are its first."""
        self.tick(force=True)
        return len(self.samples)

    def scale(self, mark):
        self.tick(force=True)
        return NOMINAL_KERNEL_S / statistics.median(self.samples[mark:])


@dataclass
class Round:
    time: float = 0.0                                 # seconds in the program, checks excluded
    latencies: list = field(default_factory=list)     # ms per CLI command, in step order
    one_shots: list = field(default_factory=list)     # ms per one-shot command
    scale: float = 1.0                                # host speed during the round: see Clock
    rows: int = 0                                     # lines written to stdout and files
    nbytes: int = 0
    shapes: int = 0
    spans: dict = field(default_factory=dict)         # step label -> (first, end) span index


class Runner:
    """Runs steps, times them and counts failed steps and failed checks."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.clock = Clock()
        self._reference = {}

    def fail(self, label, message):
        self.failures.append(f"{label}: {message}")
        print(f"bench: FAILED {label}: {message}", file=sys.stderr)

    def step(self, step, rnd=None, tracer=None):
        """Run one step; with a round record, count it, check it and add its numbers."""
        from trishape import cli

        for path in step.files:
            # a fresh file each time: rewriting one in place makes ext4 flush it on close
            path.unlink(missing_ok=True)
        buf = io.StringIO()
        first = len(tracer) if tracer is not None else 0
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                value = cli.main(step.argv) if step.argv is not None else step.call()
        except Exception as exc:   # a crash is a failed step; the run goes on
            value, error = None, exc
        else:
            error = None
        elapsed = perf_counter() - start
        if rnd is None:
            return
        self.attempted += 1
        rnd.time += elapsed
        rnd.shapes += step.shapes
        if step.argv is not None:
            rnd.latencies.append(elapsed * 1e3)
        if step.one_shot:
            rnd.one_shots.append(elapsed * 1e3)
        if tracer is not None:
            rnd.spans[step.label] = (first, len(tracer))
        out = buf.getvalue()
        rnd.rows += out.count("\n")
        rnd.nbytes += len(out.encode())
        for path in step.files:
            if path.exists():
                rnd.rows += path.read_bytes().count(b"\n")
                rnd.nbytes += path.stat().st_size
        if error is not None:
            self.fail(step.label, f"raised {error!r}")
            return
        try:
            if step.argv is not None and value not in step.codes:
                raise ValueError(f"exit code {value}")
            if step.check is not None:
                step.check(out, value)
        except Exception as exc:   # unparsable output fails the check like a wrong value
            self.fail(step.label, str(exc) or repr(exc))

    def round(self, steps, tracer=None):
        rnd = Round()
        mark = len(self.clock.samples)
        for step in steps:
            self.clock.tick()
            self.step(step, rnd, tracer)
        rnd.scale = self.clock.scale(mark)
        return rnd

    def fresh(self, argv):
        """Time one fresh-process command; its output must match the in-process run."""
        from trishape import cli

        key = tuple(argv)
        if key not in self._reference:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
            self._reference[key] = (rc, buf.getvalue())
        self.clock.tick()
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-m", "trishape.cli", *argv], cwd=ROOT, env=_env(),
                              capture_output=True, text=True, timeout=120)
        elapsed = perf_counter() - start
        self.attempted += 1
        if (proc.returncode, proc.stdout) != self._reference[key]:
            self.fail("fresh " + " ".join(argv[:2]),
                      f"exit {proc.returncode}, output differs from the in-process run")
        return elapsed


# ---------------------------------------------------------------------------
# provenance


def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _cpu_model():
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _caches():
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level and size:
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return caches


def _commit():
    head = _read(ROOT / ".git" / "HEAD")
    if head and head.startswith("ref: "):
        ref = head[5:]
        head = _read(ROOT / ".git" / ref)
        for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
            if head is None and line.endswith(" " + ref):
                head = line.split()[0]
    return head or "unknown"


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "trishape").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def provenance(seed):
    import numpy as np
    from trishape import sampling

    return {
        "nproc": os.cpu_count(), "cpu": _cpu_model(), "caches": _caches(),
        "python": platform.python_version(), "numpy": np.__version__,
        "bit_generator": type(sampling.RngSeed(seed).generator().bit_generator).__name__,
        "block_size": sampling.BLOCK_SIZE, "seed": seed, "commit": _commit(),
        "source_sha256": _source_digest(),
    }


# ---------------------------------------------------------------------------
# measurement


def _median_time(fn, repeats=3):
    times = []
    for _ in range(repeats):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times)


def sampler_probes(seed, n):
    """Gaussian class_fractions against its bare RNG floor, and against two threads."""
    from trishape import sampling

    seedobj = sampling.as_rng_seed((seed, 11))
    blocks = [(i, min(sampling.BLOCK_SIZE, n - i * sampling.BLOCK_SIZE))
              for i in range(-(-n // sampling.BLOCK_SIZE))]

    def floor():
        for i, count in blocks:
            seedobj.generator(block=i).standard_normal((count, 2, 2))

    one = _median_time(lambda: sampling.class_fractions("gaussian", n, seed=seedobj, workers=1))
    two = _median_time(lambda: sampling.class_fractions("gaussian", n, seed=seedobj, workers=2))
    return {"sampling.rng_floor_ratio": one / _median_time(floor),
            "sampling.workers2_efficiency": one / (2.0 * two)}


def run_oracle(request):
    if not request:
        return {}
    proc = subprocess.run([sys.executable, str(Path(__file__).with_name("oracle.py"))],
                          input=json.dumps(request), capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(proc.stdout)


def measure(runner, workload, steps, seconds):
    rounds, fresh_times = [], []
    fresh = workload.fresh()
    mark = runner.clock.mark()
    start = perf_counter()
    while not rounds or perf_counter() - start < seconds:
        rounds.append(runner.round(steps))
        while sum(fresh_times) < FRESH_SHARE * sum(r.time for r in rounds):
            fresh_times.append(runner.fresh(fresh[len(fresh_times) % len(fresh)]))
    scale = runner.clock.scale(mark)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw_wall = statistics.median(r.time for r in rounds)
    wall = raw_wall * scale
    per_round = lambda attr: statistics.mean(getattr(r, attr) for r in rounds)
    one_shots = [ms * r.scale for r in rounds for ms in r.one_shots]
    if one_shots:
        # many short commands of a few kinds: every execution counts, each at
        # the host speed of its own round, which follows drift within the run
        latencies = one_shots
    else:
        # a few long commands, each at its median over the rounds, so that a
        # percentile falling between two of them does not jump with round noise
        latencies = [statistics.median(ms) * scale for ms in zip(*(r.latencies for r in rounds))]
    p50, p95 = (statistics.quantiles(latencies, n=100, method="inclusive")[q - 1] for q in (50, 95))
    metrics = {
        "wall_s": wall, "peak_rss_mb": peak_mb,
        "shapes_per_s": per_round("shapes") / wall, "rows_per_s": per_round("rows") / wall,
        "mb_per_s": per_round("nbytes") / 1e6 / wall,
        "cmd_p50_ms": p50, "cmd_p95_ms": p95,
        "startup_ms": statistics.median(fresh_times) * 1e3 * scale,
    }
    details = {"rounds": len(rounds), "commands_per_round": len(rounds[0].latencies),
               "latency_samples": len(latencies),
               "fresh_processes": len(fresh_times), "speed_scale": scale,
               "kernel_timings": len(runner.clock.samples) - mark,
               "raw_wall_s": raw_wall, "round_s": [r.time for r in rounds]}
    return metrics, details


def measure_traced(runner, workload, steps, seconds, seed, smoke):
    metrics = sampler_probes(seed, 1 << 14 if smoke else PROBE_SHAPES)
    tracer, plain, traced = Tracer(), [], []
    start = perf_counter()
    # untraced and traced rounds alternate, so that drift in machine speed
    # does not bias the overhead ratio
    while not traced or perf_counter() - start < seconds:
        plain.append(runner.round(steps).time)
        tracer.install()
        try:
            traced.append(runner.round(steps, tracer))
        finally:
            tracer.uninstall()
    tracer.save(OUT / f"spans-{workload.name}.npz")
    n = len(traced)
    metrics.update(tracer.totals(n))
    metrics["cli.rows_written"] = sum(r.rows for r in traced) / n
    metrics["cli.bytes_written"] = sum(r.nbytes for r in traced) / n
    quad = [r.spans[QUADRATURE_STEP] for r in traced if QUADRATURE_STEP in r.spans]
    samples = sum(s.shapes for s in steps if s.label == QUADRATURE_STEP) * len(quad)
    for name in ("specfun.gauss_2f1", "uniformity.inv_sigma_min_cdf"):
        calls = sum(tracer.count(name, lo, hi) for lo, hi in quad)
        metrics[f"{name}.calls_per_sample"] = calls / samples if samples else 0.0
    metrics["bench.trace_overhead"] = (statistics.median(r.time for r in traced)
                                       / statistics.median(plain))
    return metrics, {"rounds_untraced": len(plain), "rounds_traced": n, "spans": len(tracer)}


def run(name, seed, seconds, trace, smoke=False):
    """Set up, measure and check one workload; return the result object."""
    OUT.mkdir(exist_ok=True)
    digest_file = OUT / "digests.json"
    digests = json.loads(digest_file.read_text()) if digest_file.exists() else {}
    work = OUT / f"work-{name}-{os.getpid()}"
    ctx = Context(seed, work, smoke, digests)
    workload = WORKLOADS[name](ctx)
    runner = Runner()
    try:
        setup_times = []
        mark = runner.clock.mark()
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(work, ignore_errors=True)
            runner.clock.tick()
            imported = import_seconds()
            start = perf_counter()
            workload.setup()
            for step in workload.steps({}, warm=True):
                runner.step(step)
            setup_times.append(imported + perf_counter() - start)
        setup_scale = runner.clock.scale(mark)
        steps = workload.steps(run_oracle(workload.oracle_request()))
        if trace:
            values, details = measure_traced(runner, workload, steps, seconds, seed, smoke)
            units = {f"{m}.{fn}.{f}": u for m, fn in TRACED for f, u in SPAN_FIELDS}
            units.update(PER_LAYER_EXTRA)
        else:
            values, details = measure(runner, workload, steps, seconds)
            values["setup_s"] = statistics.median(setup_times) * setup_scale
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    digest_file.write_text(json.dumps(digests, indent=1, sort_keys=True))
    failed = len(runner.failures)
    details.update(workload=name, seed=seed, trace=trace, failed_frac=failed / runner.attempted,
                   failures=runner.failures[:10],
                   sizes={k: v for k, v in vars(workload).items() if isinstance(v, int)})
    print(json.dumps({"details": details}))
    return {"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
            "metrics": {k: {"value": float(values[k]), "unit": u} for k, u in units.items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    args = parser.parse_args(argv)
    if not (SRC / "trishape" / "cli.py").is_file():
        print(f"bench: no trishape sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print(json.dumps({"provenance": provenance(args.seed)}))
    result = run(args.workload, args.seed, args.seconds, args.trace, args.smoke)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
