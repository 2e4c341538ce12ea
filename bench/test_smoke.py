"""Smoke test of the benchmark at tiny sizes.

    python -m pytest bench/test_smoke.py

Every workload must complete, correct, with every metric that BENCHMARK.json
names, in its unit; a corrupted output must count as a failure; and without
the package sources the benchmark must refuse to run.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    elif workload == "test-file":
        # one CDF per 3x3 sample, each a 200-node rule with one 2F1 call per node
        assert result["metrics"]["specfun.gauss_2f1.calls_per_sample"]["value"] == 200
        assert result["metrics"]["uniformity.inv_sigma_min_cdf.calls_per_sample"]["value"] == 1


def test_corrupted_output_is_a_failure(monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    from trishape import cli

    original = cli.main

    def corrupting_main(argv):
        code = original(argv)
        if "-o" in argv:
            with open(argv[argv.index("-o") + 1], "a") as fh:
                fh.write("0.5,0.5,0.5,0,0,acute\n")
        return code

    monkeypatch.setattr(cli, "main", corrupting_main)
    result = run.run("emit-rows", seed=4, seconds=0.1, trace=0, smoke=True)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
