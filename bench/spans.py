"""Span tracing of trishape's public functions, from outside the package.

Each traced function is replaced by a wrapper in every trishape module that
binds it by name, so calls are seen wherever the caller looks the name up
(``uniformity`` imports ``gauss_2f1`` from ``specfun``, ``cli`` calls
``sampling.gaussian_shapes``).  Spans are kept in flat arrays while the
workload runs and are turned into per-function totals afterwards.
"""

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

# (module, function) pairs whose spans give the per-layer metrics.
TRACED = (
    ("cli", "main"),
    ("sampling", "gaussian_shapes"),
    ("sampling", "ndim_shapes"),
    ("sampling", "uniform_hemisphere_batch"),
    ("sampling", "uniform_angles_batch"),
    ("sampling", "class_fractions"),
    ("sampling", "broken_stick_fraction"),
    ("sampling", "angle_bin_probabilities"),
    ("sampling", "angle_bin_counts"),
    ("sampling", "angle_density"),
    ("uniformity", "inv_sigma_min_cdf"),
    ("uniformity", "inv_sigma_min_density"),
    ("uniformity", "ks_test"),
    ("uniformity", "chikuse_jupp"),
    ("specfun", "gauss_2f1"),
    ("specfun", "gamma_q"),
    ("specfun", "kolmogorov_sf"),
    ("specfun", "betainc_reg"),
    ("conversions", "convert"),
    ("conversions", "roundtrip_all"),
    ("conversions", "shape_distance"),
    ("geometry", "construct_in_hemisphere"),
    ("geometry", "angles_from_sides"),
)

SPAN_FIELDS = (("calls", "count"), ("busy_s", "s"), ("self_s", "s"), ("per_call_us", "us"))


class Tracer:
    """Records (name, start, end, parent) spans of wrapped calls.

    Not thread-safe: traced code must run on one thread.
    """

    def __init__(self):
        self.names = [f"{mod}.{fn}" for mod, fn in TRACED]
        self.name_id = array("i")
        self.parent = array("i")
        self.nested = array("b")   # 1 when the same function is already open
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._open = [0] * len(self.names)
        self._saved = []

    def __len__(self):
        return len(self.start)

    def _wrap(self, nid, fn):
        stack, open_count = self._stack, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.nested.append(open_count[nid] > 0)
            self.end.append(0.0)
            open_count[nid] += 1
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
                open_count[nid] -= 1

        return traced

    def install(self):
        """Rebind every traced function in each trishape module that holds it."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "trishape" or name.startswith("trishape."))]
        for nid, (mod, fn) in enumerate(TRACED):
            original = getattr(sys.modules[f"trishape.{mod}"], fn)
            wrapper = self._wrap(nid, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def count(self, name: str, lo: int = 0, hi: int | None = None) -> int:
        """Calls of one traced function among spans lo..hi."""
        nid = self.names.index(name)
        ids = np.frombuffer(self.name_id, dtype=np.int32)[lo:hi]
        return int((ids == nid).sum())

    def totals(self, rounds: int) -> dict:
        """Per-function calls, busy, self and per-call time, per round."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        outer = np.frombuffer(self.nested, dtype=np.int8) == 0
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        outer_calls = np.bincount(ids[outer], minlength=k)
        busy = np.bincount(ids[outer], weights=dur[outer], minlength=k)
        own = np.bincount(ids, weights=dur - child, minlength=k)
        out = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[nid] / rounds
            out[f"{name}.busy_s"] = busy[nid] / rounds
            out[f"{name}.self_s"] = own[nid] / rounds
            out[f"{name}.per_call_us"] = (busy[nid] / outer_calls[nid] * 1e6
                                          if outer_calls[nid] else 0.0)
        return out

    def save(self, path):
        np.savez(path, names=np.array(self.names), name_id=np.frombuffer(self.name_id, np.int32),
                 parent=np.frombuffer(self.parent, np.int32),
                 nested=np.frombuffer(self.nested, np.int8),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))
