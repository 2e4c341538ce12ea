"""SciPy reference values for the benchmark's output checks.

Runs as its own process so that SciPy's import time and memory stay out of
the benchmark's measurements.  Reads one JSON request on stdin and writes
one JSON answer on stdout:

    {"obtuse_ndim": [m, ...]}  ->  {"obtuse_ndim": {"m": 3 I_{1/4}(m/2, m/2)}}
    {"prob": [n, ...]}         ->  {"prob": {"n": 3 I_{1/4}(n/2, n/2)}}
    {"ks_2x2": path}           ->  {"ks_2x2": {"height-ks": D, "longitude-ks": D}}
"""

import json
import math
import sys

import numpy as np
from scipy import special, stats


def obtuse(n):
    return 3.0 * float(special.betainc(n / 2.0, n / 2.0, 0.25))


def hemisphere_ks(path):
    z = np.loadtxt(path, delimiter=",", skiprows=2).reshape(-1, 2, 2)
    height = np.abs(z[:, 0, 0] * z[:, 1, 1] - z[:, 0, 1] * z[:, 1, 0])
    g11 = z[:, 0, 0] ** 2 + z[:, 1, 0] ** 2
    g22 = z[:, 0, 1] ** 2 + z[:, 1, 1] ** 2
    g12 = z[:, 0, 0] * z[:, 0, 1] + z[:, 1, 0] * z[:, 1, 1]
    lon = np.mod(np.arctan2(g12, (g11 - g22) / 2.0), 2.0 * math.pi)
    return {
        "height-ks": float(stats.kstest(height, "uniform", args=(0.0, 0.5)).statistic),
        "longitude-ks": float(stats.kstest(lon, "uniform", args=(0.0, 2.0 * math.pi)).statistic),
    }


def main():
    request = json.load(sys.stdin)
    answer = {}
    for key in ("obtuse_ndim", "prob"):
        if key in request:
            answer[key] = {str(n): obtuse(n) for n in request[key]}
    if "ks_2x2" in request:
        answer["ks_2x2"] = hemisphere_ks(request["ks_2x2"])
    json.dump(answer, sys.stdout)


if __name__ == "__main__":
    main()
