"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Checks that every metric BENCHMARK.json names is emitted with its unit,
that the library at hand fails no op, that ``--seed`` fixes the inputs,
that workloads run single-threaded, and that the benchmark refuses to run
without the library's sources.
"""

import contextlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}


def run(workload, seed, trace, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed",
         str(seed), "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    info_line, result_line = proc.stdout.splitlines()[-2:]
    assert info_line.startswith("INFO ")
    return json.loads(result_line), json.loads(info_line[len("INFO "):])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_and_no_op_fails(workload, trace):
    result, info = run(workload, 7, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0, info["failures"]
    assert result["correct"] is True
    spec = SPEC["per_layer" if trace else "end_to_end"]
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in spec}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert info["env"]["threads"] == THREADS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_fixes_inputs(workload):
    first = run(workload, 1, 1)[1]["input_digest"]
    again = run(workload, 1, 1)[1]["input_digest"]
    other = run(workload, 2, 1)[1]["input_digest"]
    assert first == again != other


def test_refuses_to_run_without_sources():
    # a directory holding only BENCHMARK.json and the benchmark, kept inside
    # the checkout like every other file the benchmark writes
    bare = ROOT / ".perfbench_work" / f"no-sources-{os.getpid()}"
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, str(bare / HERE.name / "run.py"), "--workload",
             WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=170, cwd=bare)
    finally:
        shutil.rmtree(bare)
        with contextlib.suppress(OSError):
            bare.parent.rmdir()
    assert proc.returncode != 0
    assert proc.stdout == ""
