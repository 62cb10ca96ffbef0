"""One benchmark workload in a single-threaded subprocess (started by run.py).

Protocol on standard output: ``READY`` once set-up is done (run.py times
set-up from process start to this line), then, unless ``--setup-only``,
one line ``RESULT <json>``.  Everything the library prints is captured.

Workloads (parameters in ``SIZES``):

* ``train-48``: ``lsradapt train`` at the acceptance criterion-08 config
  (48x48, r=4, s=4, lsr-product plant with 4 terms, 128 samples, Adam lr
  1e-2, batch 32), 30 steps per command so that a command takes well
  under a second (see SLOW_END).  Under 100 steps ``train`` evaluates
  the dataset loss after every step.  Tiny shapes make per-call overhead
  dominate (~1700 ``_apply2`` calls and ~220 ``as_vector`` validations per
  step).  The serve phase forwards held-out inputs through a layer
  trained with the public API.
* ``adapt-768``: the paper's reference layer (768x768, r=4, s=16) on a
  2-term lsr-product plant, 16 training samples.  Train ops are 10 Adam
  steps at batch 16 from a fresh init (under 100 steps ``train`` evaluates
  the dataset loss every step; 16 samples keep that near a quarter of the
  step time).  The serve phase forwards held-out inputs through the last
  trained layer.  The base matvec and the A/B Kronecker sums dominate.
* ``approx-768``: ``lsradapt approx`` on a 768x768 text matrix, a planted
  8-term 32x32 (x) 24x24 Kronecker sum plus noise at 1e-6 of its norm,
  written in set-up.  The serve phase reads the manifest back and applies
  the decomposition to vectors with ``lsr_repr.apply``.  The only
  workload that uses ``lsr_repr`` and ``io``; it never enters ``adapter``
  or ``train_harness``, so adapter changes should leave it unchanged.

Each timed op is checked against a reference that does not go through
the code path it checks (see ``oracle.py``); an op whose check fails
counts as failed.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
THREADS_SEEN = {k: os.environ.get(k) for k in THREAD_VARS}  # before numpy

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import io as stdio  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from array import array  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import lsradapt  # noqa: E402
from lsradapt import adapter, cli, io, lsr_repr, train_harness  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
import oracle  # noqa: E402
from tracer import Tracer  # noqa: E402

SIZES = {
    "full": {
        "train-48": dict(w=48, r=4, s=4, plant_terms=4, samples=128,
                         batch=32, steps=30, lr=1e-2, serve_steps=30,
                         held_out=256),
        "adapt-768": dict(w=768, r=4, s=16, plant_terms=2, samples=16,
                          batch=16, steps=10, lr=1e-2, lora_r=8,
                          held_out=256),
        "approx-768": dict(left=(32, 32), right=(24, 24), planted=8,
                           terms=8, noise=1e-6, vectors=32),
    },
    "tiny": {
        "train-48": dict(w=8, r=4, s=2, plant_terms=2, samples=16, batch=4,
                         steps=20, lr=1e-2, serve_steps=5, held_out=16),
        "adapt-768": dict(w=16, r=4, s=2, plant_terms=2, samples=4, batch=4,
                          steps=3, lr=1e-2, lora_r=2, held_out=16),
        "approx-768": dict(left=(4, 4), right=(3, 3), planted=2, terms=2,
                           noise=1e-6, vectors=4),
    },
}

# share of the run given to build ops; serve slices get the rest
BUILD_SHARE = {"train-48": 0.75, "adapt-768": 0.5, "approx-768": 0.6}
# fixed work of a traced run: (build ops, serve calls or load ops)
TRACE_WORK = {"train-48": (3, 2000), "adapt-768": (1, 300),
              "approx-768": (2, 20)}
# SLOW_END: every timing metric is read off the slow end of the run's
# ops or serve windows: the 10th percentile of rates and of window p50s
# (the 90th percentile of those times), and the 75th percentile of window
# p90s, which already sit in the slow mode and would otherwise pick up rare
# stalls.  On a shared 2-vCPU host, interpreter-bound code runs ~40% faster
# in episodes of 0.5 s to minutes; the share of a run they cover varies
# from none to nearly all, which moved medians by up to 40% between sets
# of runs of the same code.  Ops and windows are kept short (well under a
# second) so that each falls mostly in one mode.
SERVE_CHECK_EVERY = 97
SERVE_WINDOW_S = 0.25
TRAIN_REL_TOL = 1e-8     # recovery error against the dense oracle
APPLY_REL_TOL = 1e-10    # matrix-free output against the dense product
PRINTED_REL_TOL = 1e-5   # values the CLI prints with 7 significant digits

class Checks:
    """Ops attempted and failed; a failed op records why."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def task_seed(seed, k=0):
    return seed * 1000 + k


def quiet(fn, *args):
    """Call fn with its standard output captured; returns (result, text)."""
    buf = stdio.StringIO()
    with contextlib.redirect_stdout(buf):
        result = fn(*args)
    return result, buf.getvalue()


def printed_value(text, key):
    for line in text.splitlines():
        if line.startswith(key):
            return line[len(key):].strip()
    raise ValueError(f"{key!r} missing from output")


def timed_calls(fn, inputs, deadline=None, count=None):
    """Call fn on inputs in turn, until the deadline or for count calls.
    Returns per-call latencies (ns), wall seconds, and (input index,
    output) for every SERVE_CHECK_EVERY-th call.  Latencies are kept as
    machine integers, so their number does not move the peak RSS."""
    lat = array("q")
    sample = []
    n = len(inputs)
    i = 0
    clock = time.perf_counter_ns
    t_start = time.perf_counter()
    while True:
        x = inputs[i % n]
        t0 = clock()
        y = fn(x)
        lat.append(clock() - t0)
        if i % SERVE_CHECK_EVERY == 0:
            sample.append((i % n, y))
        i += 1
        if count is not None:
            if i >= count:
                break
        elif i % 16 == 0 and time.perf_counter() >= deadline:
            break
    return lat, time.perf_counter() - t_start, sample


def until(deadline, op):
    """Run op() at least once and until the deadline passes."""
    results = [op()]
    while time.perf_counter() < deadline:
        results.append(op())
    return results


def alternate(seconds, build_share, build_op, serve_slice):
    """Alternate timed build ops with serve slices for ``seconds``, so that
    both phases sample the whole run.  A serve slice gets the time of the
    build op before it, scaled to the serve share, and the build op's
    result (the layer or manifest it wrote); it is served in windows of
    SERVE_WINDOW_S.  Returns the build results and the windows."""
    end = time.perf_counter() + seconds
    builds, slices = [], []
    while True:
        builds.append(build_op())
        budget = builds[-1][0] * (1 - build_share) / build_share
        serve_end = time.perf_counter() + budget
        while True:
            window_end = min(serve_end, time.perf_counter() + SERVE_WINDOW_S)
            slices.append(serve_slice(window_end, builds[-1]))
            if time.perf_counter() >= serve_end:
                break
        if time.perf_counter() >= end:
            return builds, slices


def percentile_us(lat_ns, pct):
    return statistics.quantiles(lat_ns, n=100, method="inclusive")[pct - 1] / 1e3


def median_us(lat_ns):
    return statistics.median(lat_ns) / 1e3


def peak_rss_mb():
    """Peak resident set of this process so far; read before the checks,
    whose dense references would otherwise set it."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def slow_end(values, rates, pct=90):
    """The slow end of values (see SLOW_END): their (100 - pct)th
    percentile for rates, their pct-th for times; the value itself for a
    single value."""
    values = list(values)
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[99 - pct] if rates else cuts[pct - 1]


def serve_stats(slices, info):
    """Serve metrics from windows of (samples, busy seconds, latencies),
    each at the slow end of its window values (see SLOW_END).  p99 goes
    to info only: it spread by 14-22% between runs of the same code."""
    lat = array("q")
    for _, _, window_lat, _ in slices:
        lat.extend(window_lat)
    info.update(serve_samples=len(lat), serve_windows=len(slices),
                serve_p99_us=percentile_us(lat, 99))
    return (slow_end((n / busy for n, busy, _, _ in slices), rates=True),
            slow_end((median_us(wl) for _, _, wl, _ in slices), rates=False),
            slow_end((percentile_us(wl, 90) for _, _, wl, _ in slices),
                     rates=False, pct=75))


def forward_slice(layer_of, inputs):
    """Serve slice of single-vector forwards through layer_of(build)."""
    def serve(deadline, build):
        layer = layer_of(build)
        lat, _, sample = timed_calls(lambda x: adapter.forward(layer, x),
                                     inputs, deadline=deadline)
        return len(lat), sum(lat) / 1e9, lat, sample
    return serve


def merged_samples(slices):
    return [s for *_, sample in slices for s in sample]


# ---------------------------------------------------------------- train-48


class Train48:
    def __init__(self, p, seed, work):
        self.p = p
        self.seed = seed
        self.work = work
        self.plan = adapter.plan_shapes(p["w"], p["w"], p["r"])
        # the serve layer's task; the CLI commands generate their own
        full = train_harness.gen_task(
            p["w"], p["w"], lsradapt.LsrProductPlant(p["plant_terms"], self.plan),
            p["samples"] + p["held_out"], 0.0, task_seed(seed))
        self.task, self.held_out = split_task(full, p["samples"])
        self.oracle_cache = {}

    def digest(self):
        return input_digest(self.task.inputs, self.held_out)

    def train_argv(self, k, prefix, steps=None):
        p = self.p
        return ["train", "--w1", str(p["w"]), "--w2", str(p["w"]),
                "--r", str(p["r"]), "--s", str(p["s"]),
                "--plant", "lsr-product", "--plant-terms", str(p["plant_terms"]),
                "--samples", str(p["samples"]), "--optimizer", "adam",
                "--lr", repr(p["lr"]), "--batch-size", str(p["batch"]),
                "--steps", str(steps or p["steps"]),
                "--seed", str(task_seed(self.seed, k)),
                "--out", str(prefix)]

    def expected(self, steps, tseed, n_total):
        key = (steps, tseed, n_total)
        if key not in self.oracle_cache:
            p = self.p
            self.oracle_cache[key] = oracle.train_recovery_error(
                "lsr", p["w"], p["r"], p["s"], p["r"], p["plant_terms"],
                n_total, p["samples"], steps, p["batch"], p["lr"], tseed)
        return self.oracle_cache[key]

    def cli_train(self, k, prefix, steps=None):
        """One timed ``lsradapt train`` command; returns (seconds, exit
        code, recovery error read back from the report)."""
        t0 = time.perf_counter()
        code, _ = quiet(cli.main, self.train_argv(k, prefix, steps))
        wall = time.perf_counter() - t0
        try:
            report = dict(line.split("=", 1) for line in
                          Path(f"{prefix}.report").read_text().splitlines())
            rec = float(report["recovery_error"])
        except (OSError, KeyError, ValueError):
            rec = float("nan")   # fails the check
        return wall, code, rec

    def check_cli(self, checks, k, code, rec):
        want = self.expected(self.p["steps"], task_seed(self.seed, k),
                             self.p["samples"])
        checks.op(code == 0 and abs(rec - want) <= TRAIN_REL_TOL * want,
                  f"train command {k}: exit {code}, recovery error {rec!r}, "
                  f"oracle {want!r}")

    def serve_layer(self):
        """The layer the serve phase reads: p["serve_steps"] Adam steps
        through the public API."""
        p = self.p
        layer = adapter.init(self.task.W, self.plan, p["s"], alpha=1.0,
                             seed=task_seed(self.seed))
        report = train_harness.train(
            layer, self.task, optimizer(p, p["serve_steps"], task_seed(self.seed)))
        return layer, report.recovery_error

    def check_serve_layer(self, checks, rec):
        p = self.p
        want = self.expected(p["serve_steps"], task_seed(self.seed),
                             p["samples"] + p["held_out"])
        checks.op(abs(rec - want) <= TRAIN_REL_TOL * want,
                  f"serve-layer training: recovery error {rec!r}, oracle {want!r}")

    def measure(self, seconds, checks, info):
        p = self.p
        self.cli_train(0, self.work / "warmup", steps=3)
        layer, rec = self.serve_layer()
        counter = itertools.count(1)

        def build():
            k = next(counter)
            return self.cli_train(k, self.work / f"op{k}") + (k,)

        builds, slices = alternate(seconds, BUILD_SHARE["train-48"], build,
                                   forward_slice(lambda _: layer, self.held_out))
        info["peak_rss_mb"] = peak_rss_mb()
        for _, code, op_rec, k in builds:
            self.check_cli(checks, k, code, op_rec)
        self.check_serve_layer(checks, rec)
        check_serve(checks, layer, self.held_out, merged_samples(slices),
                    sum(n for n, *_ in slices))
        rates = [p["steps"] / wall for wall, *_ in builds]
        info.update(train_steps=p["steps"], batch=p["batch"],
                    train_steps_per_s=rates,
                    recovery_error=[op_rec for _, _, op_rec, _ in builds])
        return slow_end(rates, rates=True), serve_stats(slices, info)

    def fixed_work(self, traced):
        """Trace-mode work: train commands, the serve layer, and a fixed
        number of forwards.  Returns the outputs to compare and a function
        that checks them afterwards."""
        n_cmd, n_calls = TRACE_WORK["train-48"]
        tag = "traced" if traced else "plain"
        cmds = [(k,) + self.cli_train(k, self.work / f"{tag}{k}")[1:]
                for k in range(1, n_cmd + 1)]
        layer, serve_rec = self.serve_layer()
        if traced:
            traced.phase = "serve"
        lat, _, sample = timed_calls(lambda x: adapter.forward(layer, x),
                                     self.held_out, count=n_calls)

        def after(checks, info):
            for k, code, rec in cmds:
                self.check_cli(checks, k, code, rec)
            self.check_serve_layer(checks, serve_rec)
            check_serve(checks, layer, self.held_out, sample, len(lat))
            info["recovery_error"] = cmds[-1][2]
            info["matrix_free_p50_us"] = median_us(lat)

        return {"recovery_error": np.array([rec for *_, rec in cmds] + [serve_rec]),
                "serve_outputs": np.array([y for _, y in sample])}, after


def optimizer(p, steps, seed):
    return train_harness.OptimizerConfig(
        kind="adam", learning_rate=p["lr"], steps=steps,
        batch_size=p["batch"], seed=seed)


def split_task(full, n_train):
    """Training task on the first n_train samples; the rest are held out."""
    task = train_harness.SyntheticTask(
        W=full.W, delta_star=full.delta_star, inputs=full.inputs[:n_train],
        targets=full.targets[:n_train], noise_std=full.noise_std,
        seed=full.seed)
    return task, list(full.inputs[n_train:])


def input_digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def check_serve(checks, layer, inputs, sample, n_calls):
    """Sampled forward outputs against (W + alpha * delta) @ x.  Every call
    counts as attempted; only the sampled ones can fail."""
    if isinstance(layer, adapter.LsrAdaptLayer):
        w_eff = layer.W + layer.alpha * adapter.materialize_delta(layer)
    else:
        w_eff = layer.W + layer.alpha * (layer.A @ layer.B)
    for idx, y in sample:
        err = oracle.rel_err(y, w_eff @ inputs[idx])
        checks.op(err <= APPLY_REL_TOL, f"forward on input {idx}: rel err {err:.3e}")
    checks.attempted += n_calls - len(sample)


# ---------------------------------------------------------------- adapt-768


class Adapt768:
    def __init__(self, p, seed, work):
        self.p = p
        self.seed = task_seed(seed)
        self.plan = adapter.plan_shapes(p["w"], p["w"], p["r"])
        self.task, self.held_out = split_task(self.gen(), p["samples"])
        self.oracle_cache = {}

    def gen(self):
        p = self.p
        return train_harness.gen_task(
            p["w"], p["w"], lsradapt.LsrProductPlant(p["plant_terms"], self.plan),
            p["samples"] + p["held_out"], 0.0, self.seed)

    def digest(self):
        return input_digest(self.task.inputs, self.held_out)

    def expected(self, kind):
        if kind not in self.oracle_cache:
            p = self.p
            r = p["r"] if kind == "lsr" else p["lora_r"]
            self.oracle_cache[kind] = oracle.train_recovery_error(
                kind, p["w"], r, p["s"], p["r"], p["plant_terms"],
                p["samples"] + p["held_out"], p["samples"], p["steps"],
                p["batch"], p["lr"], self.seed)
        return self.oracle_cache[kind]

    def train_op(self, kind, task):
        """Fresh init, then one timed ``train`` call of p["steps"] steps."""
        p = self.p
        if kind == "lsr":
            layer = adapter.init(task.W, self.plan, p["s"], alpha=1.0, seed=self.seed)
        else:
            layer = adapter.lora_init(task.W, p["lora_r"], alpha=1.0, seed=self.seed)
        t0 = time.perf_counter()
        report = train_harness.train(layer, task, optimizer(p, p["steps"], self.seed))
        return time.perf_counter() - t0, report.recovery_error, layer

    def check_train(self, checks, kind, rec):
        want = self.expected(kind)
        checks.op(abs(rec - want) <= TRAIN_REL_TOL * want,
                  f"{kind} train op: recovery error {rec!r}, oracle {want!r}")

    def measure(self, seconds, checks, info):
        p = self.p
        self.train_op("lsr", self.task)   # warm-up
        builds, slices = alternate(
            seconds, BUILD_SHARE["adapt-768"],
            lambda: self.train_op("lsr", self.task),
            forward_slice(lambda build: build[2], self.held_out))
        info["peak_rss_mb"] = peak_rss_mb()
        for _, rec, _ in builds:
            self.check_train(checks, "lsr", rec)
        # every train op starts from the same init, so one layer checks all
        check_serve(checks, builds[-1][2], self.held_out,
                    merged_samples(slices), sum(n for n, *_ in slices))
        rates = [p["steps"] / wall for wall, _, _ in builds]
        info.update(train_steps=p["steps"], batch=p["batch"],
                    train_steps_per_s=rates, recovery_error=builds[-1][1])
        return slow_end(rates, rates=True), serve_stats(slices, info)

    def fixed_work(self, traced):
        """Trace-mode work: task generation, then for the factored layer and
        the LoRA baseline a train op and a fixed number of forwards."""
        n_ops, n_calls = TRACE_WORK["adapt-768"]
        p = self.p
        full = self.gen()
        task, held_out = split_task(full, p["samples"])
        out = {"held_out": np.array(held_out)}
        runs = {}
        for kind, fwd in (("lsr", "forward"), ("lora", "lora_forward")):
            if traced:
                traced.phase = f"{kind}-train"
            ops = [self.train_op(kind, task) for _ in range(n_ops)]
            layer = ops[-1][2]
            if traced:
                traced.phase = "serve"
            fn = getattr(adapter, fwd)
            lat, wall, sample = timed_calls(lambda x: fn(layer, x), held_out,
                                            count=n_calls)
            out[f"{kind}_recovery_error"] = np.array([rec for _, rec, _ in ops])
            out[f"{kind}_serve_outputs"] = np.array([y for _, y in sample])
            runs[kind] = ops, layer, lat, wall, sample

        def after(checks, info):
            for kind, (ops, layer, lat, wall, sample) in runs.items():
                for _, rec, _ in ops:
                    self.check_train(checks, kind, rec)
                check_serve(checks, layer, held_out, sample, len(lat))
                info[f"{kind}_train_steps_per_s"] = (
                    len(ops) * p["steps"] / sum(w for w, _, _ in ops))
                info[f"{kind}_serve_samples_per_s"] = len(lat) / wall
            ops, layer, lat, _, _ = runs["lsr"]
            info["recovery_error"] = ops[-1][1]
            info["matrix_free_p50_us"] = median_us(lat)
            info["dense_ref_p50_us"] = dense_ref_p50_us(layer, held_out, n_calls)
            info["flop_ratio"] = flop_ratio(self.plan, p["s"])

        return out, after


def dense_ref_p50_us(layer, inputs, n_calls):
    """Median time of the materialized product (W + alpha * delta) @ x."""
    w_eff = layer.W + layer.alpha * adapter.materialize_delta(layer)
    lat, _, _ = timed_calls(lambda x: w_eff @ x, inputs, count=n_calls)
    return median_us(lat)


def flop_ratio(plan, s):
    """Flop model: dense delta apply over the matrix-free A and B sums."""
    flops = lsradapt.apply_kron2_flops
    free = s * (flops((plan.r1, plan.b1), (plan.r2, plan.b2))
                + flops((plan.a1, plan.r1), (plan.a2, plan.r2)))
    return 2 * plan.w1 * plan.w2 / free


# ---------------------------------------------------------------- approx-768


class Approx768:
    def __init__(self, p, seed, work):
        self.p = p
        self.work = work
        (lr, lc), (rr, rc) = p["left"], p["right"]
        g = oracle.stream(seed, "bench-approx-matrix")
        M = np.zeros((lr * rr, lc * rc))
        for k in range(p["planted"]):
            M += 2.0**-k * np.kron(g.normal(size=(lr, lc)), g.normal(size=(rr, rc)))
        M /= np.linalg.norm(M)
        noise = g.normal(size=M.shape)
        M += p["noise"] * noise / np.linalg.norm(noise)
        self.path = work / "matrix.txt"
        io.write_matrix_text(self.path, M)
        self.vectors = list(oracle.stream(seed, "bench-approx-vectors").normal(
            size=(p["vectors"], M.shape[1])))
        self.out = work / "decomp"
        self.loads_done = 0
        self.manifest = self.out / "decomp.manifest"

    def digest(self):
        return input_digest(np.frombuffer(self.path.read_bytes(), np.uint8),
                            self.vectors)

    def argv(self):
        p = self.p
        return ["approx", str(self.path),
                "--left", "{}x{}".format(*p["left"]),
                "--right", "{}x{}".format(*p["right"]),
                "--terms", str(p["terms"]), "--out", str(self.out)]

    def approx_op(self):
        """One timed ``lsradapt approx`` command, then (untimed) the
        manifest it wrote, read back."""
        t0 = time.perf_counter()
        code, text = quiet(cli.main, self.argv())
        wall = time.perf_counter() - t0
        try:
            S_read = io.read_separated(self.manifest)
        except (OSError, ValueError):
            S_read = None   # fails the check
        return wall, code, text, S_read

    def load_op(self):
        """Read the manifest and apply it to every vector; the op and each
        apply are timed.  Successive ops start at successive vectors, so
        the sampled checks cover all of them."""
        start = self.loads_done % len(self.vectors)
        self.loads_done += 1
        vectors = self.vectors[start:] + self.vectors[:start]
        t0 = time.perf_counter()
        S = io.read_separated(self.manifest)
        lat, _, sample = timed_calls(lambda x: lsr_repr.apply(S, x),
                                     vectors, count=len(vectors))
        wall = time.perf_counter() - t0
        n = len(vectors)
        return wall, lat, [((start + i) % n, y) for i, y in sample]

    def reference(self):
        """What every approx op must reproduce: the in-process
        decomposition and the SVD tail computed without the library."""
        if not hasattr(self, "_ref"):
            p = self.p
            M = io.read_matrix(self.path)
            S = lsr_repr.nearest_kron_sum(M, p["left"], p["right"], p["terms"])
            tail = oracle.kron_tail_error(M, p["left"], p["right"], p["terms"])
            self._ref = S, tail, lsr_repr.materialize(S), float(np.linalg.norm(M))
        return self._ref

    def check_approx(self, checks, code, text, S_read):
        S, tail, _, _ = self.reference()
        try:
            fro = float(printed_value(text, "frobenius error"))
            kept = int(printed_value(text, "kept terms"))
        except ValueError as exc:
            return checks.op(False, f"approx output: {exc}")
        same = (S_read is not None and len(S_read.terms) == len(S.terms) == kept == self.p["terms"]
                and all(a.weight == b.weight
                        and all(np.array_equal(f, g) for f, g in
                                zip(a.factors, b.factors))
                        for a, b in zip(S_read.terms, S.terms)))
        return checks.op(code == 0 and same
                         and abs(fro - tail) <= PRINTED_REL_TOL * tail,
                         f"approx: exit {code}, kept {kept}, frobenius error "
                         f"{fro!r} vs svd tail {tail!r}, round-trip "
                         f"{'exact' if same else 'differs'}")

    def check_load(self, checks, sample, n_calls):
        _, _, dense, _ = self.reference()
        for idx, y in sample:
            err = oracle.rel_err(y, dense @ self.vectors[idx])
            checks.op(err <= APPLY_REL_TOL, f"apply on vector {idx}: rel err {err:.3e}")
        checks.attempted += n_calls - len(sample)

    def load_slice(self, deadline, _build):
        loads = until(deadline, self.load_op)
        lat = array("q")
        for _, op_lat, _ in loads:
            lat.extend(op_lat)
        return (len(lat), sum(wall for wall, _, _ in loads), lat,
                [s for _, _, sample in loads for s in sample])

    def measure(self, seconds, checks, info):
        self.approx_op()   # warm-up
        builds, slices = alternate(seconds, BUILD_SHARE["approx-768"],
                                   self.approx_op, self.load_slice)
        info["peak_rss_mb"] = peak_rss_mb()
        for _, code, text, S_read in builds:
            self.check_approx(checks, code, text, S_read)
        self.check_load(checks, merged_samples(slices), sum(n for n, *_ in slices))
        S, tail, _, norm = self.reference()
        walls = [wall for wall, *_ in builds]
        info.update(approx_s=walls, rel_error=tail / norm, kept_terms=len(S.terms))
        serve = serve_stats(slices, info)
        info["load_apply_per_s"] = serve[0]
        return slow_end((1.0 / w for w in walls), rates=True), serve

    def fixed_work(self, traced):
        """Trace-mode work: approx commands, then load ops."""
        n_approx, n_loads = TRACE_WORK["approx-768"]
        self.loads_done = 0   # both passes apply the same vectors in order
        approxes = [self.approx_op()[1:] for _ in range(n_approx)]
        if traced:
            traced.phase = "serve"
        loads = [self.load_op()[1:] for _ in range(n_loads)]

        def after(checks, info):
            for code, text, S_read in approxes:
                self.check_approx(checks, code, text, S_read)
            for lat, sample in loads:
                self.check_load(checks, sample, len(lat))

        return {"weights": np.array([[t.weight for t in S.terms]
                                     for _, _, S in approxes]),
                "factors": np.concatenate([f.ravel() for _, _, S in approxes
                                           for t in S.terms for f in t.factors]),
                "apply_outputs": np.array([y for _, sample in loads
                                           for _, y in sample])}, after


WORKLOADS = {"train-48": Train48, "adapt-768": Adapt768, "approx-768": Approx768}


# ---------------------------------------------------------------- metrics


def layer_metrics(t, info, n_approx, untraced_s, traced_s):
    """Every per-layer metric from a finished trace (zero where the layer
    did no work)."""
    m = {}
    for name in ("kron_core.apply2", "kron_core.apply_kron2", "kron_core.as_vector",
                 "adapter.forward", "adapter.backward", "adapter.materialize_delta",
                 "train_harness.train", "train_harness.loss_eval",
                 "train_harness.optimizer", "lsr_repr.materialize",
                 "lsr_repr.apply", "rng.rng_stream", "cli.main"):
        m[f"{name}.calls"] = t.calls[name]
        m[f"{name}.busy_s"] = t.busy_s(name)
    for name in ("adapter.forward", "adapter.backward", "train_harness.train"):
        m[f"{name}.self_s"] = t.self_s(name)
    for name in ("adapter.lora_forward", "adapter.lora_backward", "adapter.init",
                 "adapter.b_side", "adapter.a_side", "train_harness.gen_task",
                 "lsr_repr.nearest_kron_sum", "lsr_repr.truncated_svd",
                 "lsr_repr.rearrange", "lsr_repr.condition_number",
                 "lsr_repr.check_precision", "io.read_matrix",
                 "io.write_separated", "io.read_separated"):
        m[f"{name}.busy_s"] = t.busy_s(name)
    for side in ("b_side", "a_side"):
        for parent in ("forward", "backward"):
            m[f"adapter.{side}.in_{parent}.busy_s"] = t.busy_under_s(
                f"adapter.{side}", f"adapter.{parent}")
    flops = t.counters["kron_core.apply2.flops"]
    m["kron_core.apply2.flops"] = flops
    busy = t.busy_s("kron_core.apply2")
    m["kron_core.apply2.gflops"] = flops / busy / 1e9 if busy else 0.0
    m["adapter.backward.serve_calls"] = t.calls_by_phase["adapter.backward", "serve"]
    train_busy = t.busy_s("train_harness.train")
    m["train_harness.loss_eval.share"] = (
        t.busy_s("train_harness.loss_eval") / train_busy if train_busy else 0.0)
    m["train_harness.recovery_error"] = info.get("recovery_error", 0.0)
    m["lsr_repr.materialize.per_approx"] = (
        t.calls_by_phase["lsr_repr.materialize", None] / n_approx if n_approx else 0)
    m["cli.self_s"] = t.self_s("cli.main")
    m["io.bytes_read"] = t.counters["io.bytes_read"]
    m["io.bytes_written"] = t.counters["io.bytes_written"]
    read_s = (t.busy_s("io.read_separated") + t.busy_s("io.read_matrix")
              - t.busy_under_s("io.read_matrix", "io.read_separated"))
    m["io.read_MBps"] = m["io.bytes_read"] / 2**20 / read_s if read_s else 0.0
    mf, dense = info.get("matrix_free_p50_us", 0.0), info.get("dense_ref_p50_us", 0.0)
    m["adapter.matrix_free.p50_us"] = mf
    m["adapter.dense_ref.p50_us"] = dense
    m["adapter.free_over_dense.time_ratio"] = mf / dense if dense else 0.0
    m["adapter.dense_over_free.flop_ratio"] = info.get("flop_ratio", 0.0)
    m["adapter.lora.train_steps_per_s"] = info.get("lora_train_steps_per_s", 0.0)
    m["adapter.lora.serve_samples_per_s"] = info.get("lora_serve_samples_per_s", 0.0)
    m["trace.untraced_s"] = untraced_s
    m["trace.traced_s"] = traced_s
    m["trace.overhead_s"] = traced_s - untraced_s
    m["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s
    return m


def identical(a, b):
    return a.keys() == b.keys() and all(
        np.asarray(a[k]).dtype == np.asarray(b[k]).dtype
        and np.asarray(a[k]).shape == np.asarray(b[k]).shape
        and np.asarray(a[k]).tobytes() == np.asarray(b[k]).tobytes() for k in a)


def run_traced(wl, name, checks, info):
    """The fixed work untraced, then traced; outputs must be bit-identical
    and every wrapped attribute restored afterwards."""
    t0 = time.perf_counter()
    plain, after = wl.fixed_work(None)
    untraced_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        traced, _ = wl.fixed_work(tracer)
        traced_s = time.perf_counter() - t0
    finally:
        not_restored = tracer.restore()
    after(checks, info)
    checks.op(identical(plain, traced), "traced outputs differ from untraced")
    checks.op(not_restored == 0, f"{not_restored} wrapped attributes not restored")
    n_approx = TRACE_WORK["approx-768"][0] if name == "approx-768" else 0
    return layer_metrics(tracer, info, n_approx, untraced_s, traced_s)


def environment():
    cfg = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        cfg = {"blas": blas.get("name"), "blas_version": blas.get("version")}
    except (TypeError, KeyError):
        pass
    return {"python": sys.version.split()[0], "numpy": np.__version__, **cfg,
            "nproc": os.cpu_count(), "threads": THREADS_SEEN,
            "lsradapt": str(Path(lsradapt.__file__).resolve().parent)}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    ap.add_argument("--work", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](SIZES[args.size][args.workload], args.seed, work)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    checks = Checks()
    info = {"workload": args.workload, "seed": args.seed, "size": args.size,
            "params": SIZES[args.size][args.workload], "env": environment(),
            "input_digest": wl.digest()}
    if args.trace:
        values = run_traced(wl, args.workload, checks, info)
    else:
        build, (serve, p50, p90) = wl.measure(args.seconds, checks, info)
        values = {"build_per_s": build, "serve_samples_per_s": serve,
                  "serve_p50_us": p50, "serve_p90_us": p90,
                  "peak_rss_mb": info.pop("peak_rss_mb")}
    shutil.rmtree(work, ignore_errors=True)
    result = {"attempted": checks.attempted, "failed": len(checks.failures),
              "failures": checks.failures[:20], "values": values, "info": info}
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
