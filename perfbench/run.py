"""lsradapt benchmark: one run of one workload.

    python3 perfbench/run.py --workload {train-48,adapt-768,approx-768} \
        --seed N --seconds S --trace {0,1}

Run from anywhere inside a source checkout: the library is imported from
``src/`` next to this directory, never from an installed copy, and the
run fails (exit 2, no result) when ``src/lsradapt`` is missing.

Every workload runs in a child process (``workload.py``) whose
environment pins ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS`` to 1 before numpy loads.  Under default threading the
768x768 forward is bimodal from run to run (~8 ms or ~0.3 ms per call on
a 2-core machine, OpenBLAS worker wake-up), which would swamp any change
to the library itself.

``--trace 0`` prints the end-to-end metrics.  ``setup_s`` is the time
from starting a child to its ``READY`` line (imports, task, layer and
input generation, input files), the median of ``SETUP_SAMPLES`` children.
``--trace 1`` runs a fixed amount of work once untraced and once with
spans around every layer boundary (``tracer.py``), checks that both give
bit-identical outputs, and prints the per-layer metrics plus the tracing
overhead.  The last line of standard output is the result object; the
line before it holds the environment and workload details.
"""

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
SETUP_SAMPLES = 5
RUN_TIMEOUT_S = 170.0
WORKLOADS = ("train-48", "adapt-768", "approx-768")


def child_env():
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    return env


def start(argv, deadline):
    """Start a workload child and wait for its READY line; returns the
    process and the seconds from start to READY."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "workload.py"), *argv],
                            stdout=subprocess.PIPE, text=True, env=child_env(),
                            cwd=ROOT)
    line = proc.stdout.readline()
    ready_s = time.perf_counter() - t0
    if line.strip() != "READY":
        finish(proc, deadline)
        raise RuntimeError(f"workload did not start: {line.strip()!r}")
    return proc, ready_s


def finish(proc, deadline):
    """Wait for the child (killing it at the deadline); returns its
    remaining standard output."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("workload timed out") from None
    if proc.returncode != 0:
        raise RuntimeError(f"workload exited with code {proc.returncode}")
    return out


def as_metrics(values, kind):
    """Values as result metrics, in BENCHMARK.json order and with its
    units; they must be exactly the metrics it lists under ``kind``."""
    spec = json.loads(SPEC.read_text())[kind]
    names = [m["name"] for m in spec]
    if set(values) != set(names):
        raise RuntimeError(f"{kind} metrics out of step with {SPEC.name}: "
                           f"{sorted(set(values) ^ set(names))}")
    return {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in spec}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shapes, for the smoke test")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "lsradapt" / "__init__.py").is_file():
        print(f"error: no lsradapt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + RUN_TIMEOUT_S
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace),
              "--size", args.size]
    try:
        setups = []
        if not args.trace:
            for i in range(SETUP_SAMPLES - 1):
                proc, ready_s = start(
                    common + ["--work", str(work / f"setup{i}"), "--setup-only"],
                    deadline)
                finish(proc, deadline)
                setups.append(ready_s)
        proc, ready_s = start(common + ["--work", str(work / "main")], deadline)
        out = finish(proc, deadline)
        setups.append(ready_s)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):   # left when other runs use it
            work.parent.rmdir()

    results = [ln for ln in out.splitlines() if ln.startswith("RESULT ")]
    if len(results) != 1:
        print("error: workload printed no result", file=sys.stderr)
        return 1
    child = json.loads(results[0][len("RESULT "):])
    values = child["values"]
    if not args.trace:
        values["setup_s"] = statistics.median(setups)
    try:
        metrics = as_metrics(values, "per_layer" if args.trace else "end_to_end")
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    info = dict(child["info"], setup_samples_s=setups,
                failures=child["failures"])
    print("INFO " + json.dumps(info))
    print(json.dumps({"correct": child["failed"] == 0,
                      "attempted": child["attempted"],
                      "failed": child["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
