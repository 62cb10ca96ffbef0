"""Command-line surface.

Subcommands: ``approx`` (Kronecker-sum approximation of a matrix file),
``params`` (adapter parameter accounting), ``train`` (synthetic-task
training / comparison), ``bench`` (matrix-free vs materialized forward
timing), ``verify`` (built-in verification suite).

Exit codes: 0 success, 1 verification failure, 2 usage, 3 I/O,
4 numerical failure, 5 training divergence.
"""

import argparse
import functools
import statistics
import time
from pathlib import Path

import numpy as np

from . import adapter, io, lsr_repr, train_harness, verify
from .kron_core import Shape
from .rng import rng_stream

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4
EXIT_DIVERGED = 5


def _parse_shape(text: str) -> Shape:
    try:
        rows, cols = text.lower().split("x")
        shape = Shape(int(rows), int(cols))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected ROWSxCOLS, got {text!r}") from exc
    if min(shape) < 1:
        raise argparse.ArgumentTypeError(
            f"expected positive ROWSxCOLS, got {text!r}")
    return shape


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")
    return n


# ---------------------------------------------------------------- approx


def cmd_approx(args) -> int:
    # a malformed cap, manifest name or epsilon is a usage error, before
    # any read
    io.mem_cap_bytes()
    io.check_name(args.name)
    mus = {"mu=2^-11": 2.0**-11, "mu=2^-24": 2.0**-24}
    budgets = [lsr_repr.PrecisionBudget(mu, args.epsilon)
               for mu in mus.values()]
    try:
        M = io.read_matrix(args.input)
    except io.MemoryCapError as exc:
        print(f"error: {exc}")
        return EXIT_NUMERICAL
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {args.input}: {exc}")
        return EXIT_IO
    S = lsr_repr.nearest_kron_sum(M, args.left, args.right, args.terms)
    approx, gamma, verdicts = lsr_repr.diagnose(S, budgets)
    fro_err = float(np.linalg.norm(np.subtract(M, approx, out=approx)))
    norm = float(np.linalg.norm(M))
    rel_err = fro_err / norm if norm > 0 else fro_err

    manifest = io.write_separated(S, args.out, name=args.name)
    rows = [
        ("requested terms", str(args.terms)),
        ("kept terms", str(S.separation_rank)),
        ("frobenius error", f"{fro_err:.6e}"),
        ("relative error", f"{rel_err:.6e}"),
        ("condition number", f"{gamma:.12f}"),
    ]
    for label, ok in zip(mus, verdicts):
        rows.append((f"precision {label} eps={args.epsilon:g}",
                     "PASS" if ok else "FAIL"))
    width = max(len(k) for k, _ in rows)
    for k, v in rows:
        print(f"{k:<{width}}  {v}")
    print(f"wrote {manifest}")
    return EXIT_OK


# ---------------------------------------------------------------- params


def cmd_params(args) -> int:
    plan = adapter.plan_shapes(args.w1, args.w2, args.r)
    lora = adapter.count_params_lora(args.w1, args.w2, args.r)
    lsr = adapter.count_params_lsr(plan, args.s)
    print(f"plan: A {plan.a1}x{plan.r1} (x) {plan.a2}x{plan.r2}, "
          f"B {plan.r1}x{plan.b1} (x) {plan.r2}x{plan.b2}, s={args.s}")
    print(f"lora params {lora}")
    print(f"lsr params {lsr}")
    print(f"ratio {lsr / lora!r}")
    return EXIT_OK


# ---------------------------------------------------------------- train


def _build_plant(args):
    if args.plant == "dense":
        return train_harness.DensePlant()
    if args.plant == "low-rank":
        return train_harness.LowRankPlant(args.plant_rank)
    if args.plant == "kron-sum":
        if args.plant_left is None or args.plant_right is None:
            raise ValueError("kron-sum plant needs --plant-left/--plant-right")
        return train_harness.KronSumPlant(args.plant_terms, args.plant_left,
                                          args.plant_right)
    plan = adapter.plan_shapes(args.w1, args.w2, args.r)
    return train_harness.LsrProductPlant(args.plant_terms, plan)


def _write_report(prefix: Path, kind: str, report) -> None:
    lines = [f"adapter={kind}",
             f"final_loss={report.final_loss!r}",
             f"recovery_error={report.recovery_error!r}",
             f"trainable_params={report.trainable_params}",
             f"curve_points={len(report.loss_curve)}"]
    Path(f"{prefix}.report").write_text("\n".join(lines) + "\n",
                                        encoding="ascii")
    with open(f"{prefix}.curve.csv", "w", encoding="ascii") as fh:
        fh.write("entry,loss\n")
        for i, loss in enumerate(report.loss_curve):
            fh.write(f"{i},{loss!r}\n")


def _print_report(kind: str, report) -> None:
    print(f"{kind}: final loss {report.final_loss:.6e}, recovery error "
          f"{report.recovery_error:.6e}, params {report.trainable_params}, "
          f"wall {report.wall_time_seconds:.2f}s")


def cmd_train(args) -> int:
    task = train_harness.gen_task(args.w1, args.w2, _build_plant(args),
                                  args.samples, args.noise_std, args.seed)
    config = train_harness.OptimizerConfig(
        kind=args.optimizer, learning_rate=args.lr, momentum=args.momentum,
        beta1=args.beta1, beta2=args.beta2, eps_hat=args.eps_hat,
        steps=args.steps, batch_size=args.batch_size, seed=args.seed)
    prefix = Path(args.out)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    if args.adapter == "compare":
        plan = adapter.plan_shapes(args.w1, args.w2, args.r)
        result = train_harness.compare(task, args.lora_r, plan, args.s,
                                       config, alpha=args.alpha)
        _write_report(Path(f"{prefix}.lora"), "lora", result.lora)
        _write_report(Path(f"{prefix}.lsr"), "lsr", result.lsr)
        _print_report("lora", result.lora)
        _print_report("lsr", result.lsr)
        print(f"param ratio (lsr/lora) {result.param_ratio!r}")
    else:
        if args.adapter == "lsr":
            plan = adapter.plan_shapes(args.w1, args.w2, args.r)
            layer = adapter.init(task.W, plan, args.s, alpha=args.alpha,
                                 seed=args.seed)
        else:
            layer = adapter.lora_init(task.W, args.r, alpha=args.alpha,
                                      seed=args.seed)
        report = train_harness.train(layer, task, config)
        _write_report(prefix, args.adapter, report)
        _print_report(args.adapter, report)
    return EXIT_OK


# ---------------------------------------------------------------- bench


def _median_ns(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        fn()
        samples.append(time.perf_counter_ns() - t0)
    return statistics.median(samples)


def cmd_bench(args) -> int:
    cap = io.mem_cap_bytes()
    g = rng_stream(args.seed, "bench")
    layer = verify.random_layer(g, args.w1, args.w2, args.r, args.s)
    x = g.normal(size=args.w2)

    free_ns = _median_ns(lambda: adapter.forward(layer, x), args.repeats)
    delta_bytes = args.w1 * args.w2 * 8
    if delta_bytes <= cap:
        weff = layer.W + layer.alpha * adapter.materialize_delta(layer)
        dense = _median_ns(lambda: weff @ x, args.repeats)
        dense_ns, time_ratio = f"{dense:.0f}", repr(dense / free_ns)
    else:
        dense_ns = (f"skipped (needs {delta_bytes / 2**20:.0f} MiB, cap "
                    f"{cap / 2**20:.0f} MiB)")
        time_ratio = "skipped"

    # a cold forward forms A_sum and B_sum, each term costing
    # 2 (a1 r1 a2 r2 + r1 b1 r2 b2) = 2 r (w1 + w2) flops, then runs one
    # thin product per side and vector at that same cost; a warm forward
    # (unchanged parameters, factors reused) pays the thin products alone
    vector_flops = 2 * args.r * (args.w1 + args.w2)
    form_flops = args.s * vector_flops
    dense_flops = 2 * args.w1 * args.w2
    print(f"{'path':<24}{'median ns/op':>16}")
    print(f"{'matrix-free forward':<24}{free_ns:>16.0f}")
    print(f"{'materialized forward':<24}{dense_ns:>16}")
    print(f"flop-ratio {dense_flops / (form_flops + vector_flops)!r}")
    print(f"warm-flop-ratio {dense_flops / vector_flops!r}")
    print(f"time-ratio {time_ratio}")
    print(f"(dense delta apply {dense_flops} flops; matrix-free path "
          f"{form_flops} flops to form both factors plus {vector_flops} "
          f"per vector: flop-ratio counts both, warm-flop-ratio the "
          f"per-vector part alone; the matrix-free median repeats forward "
          f"on one unchanged layer, so it times the warm path, which "
          f"reuses the formed factors; time-ratio is materialized over "
          f"matrix-free forward and machine-dependent)")
    return EXIT_OK


# ---------------------------------------------------------------- verify


def cmd_verify(args) -> int:
    fault = verify.FAULT_GRADIENT_SIGN if args.inject_fault else None
    results = verify.run_checks(quick=args.quick, fault=fault)
    width = max(len(r.name) for r in results)
    for r in results:
        print(f"{'PASS' if r.ok else 'FAIL'}  {r.name:<{width}}  {r.detail}")
    n_bad = sum(not r.ok for r in results)
    print(f"{len(results) - n_bad}/{len(results)} checks passed")
    return EXIT_OK if n_bad == 0 else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------- parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing keeps no
    state on the parser, and no default is mutable."""
    parser = argparse.ArgumentParser(
        prog="lsradapt",
        description="Kronecker-sum matrix representations and the matching "
                    "parameter-efficient adapter kernel")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("approx",
                       help="approximate a matrix file by a Kronecker sum")
    p.add_argument("input", help="matrix file (text or binary)")
    p.add_argument("--left", type=_parse_shape, required=True,
                   metavar="RxC", help="left factor shape")
    p.add_argument("--right", type=_parse_shape, required=True,
                   metavar="RxC", help="right factor shape")
    p.add_argument("--terms", type=_positive_int, required=True,
                   help="number of Kronecker terms")
    p.add_argument("--epsilon", type=float, default=1e-3,
                   help="target error for the precision rule")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--name", default="decomp", help="output basename")
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser("params", help="parameter accounting")
    p.add_argument("--w1", type=int, required=True)
    p.add_argument("--w2", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, default=1, help="separation rank")
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("train", help="train an adapter on a planted task")
    p.add_argument("--w1", type=int, default=48)
    p.add_argument("--w2", type=int, default=48)
    p.add_argument("--plant", default="lsr-product",
                   choices=("dense", "low-rank", "kron-sum", "lsr-product"))
    p.add_argument("--plant-rank", type=int, default=4,
                   help="rank of the low-rank plant")
    p.add_argument("--plant-terms", type=int, default=4,
                   help="terms of the kron-sum / lsr-product plant")
    p.add_argument("--plant-left", type=_parse_shape, metavar="RxC")
    p.add_argument("--plant-right", type=_parse_shape, metavar="RxC")
    p.add_argument("--samples", type=int, default=128)
    p.add_argument("--noise-std", type=float, default=0.0)
    p.add_argument("--adapter", default="lsr",
                   choices=("lsr", "lora", "compare"))
    p.add_argument("--r", type=int, default=4, help="adapter inner rank")
    p.add_argument("--s", type=int, default=4, help="separation rank")
    p.add_argument("--lora-r", type=int, default=8,
                   help="baseline rank in compare mode")
    p.add_argument("--alpha", type=float, default=adapter.DEFAULT_ALPHA)
    c = train_harness.OptimizerConfig()
    p.add_argument("--optimizer", default=c.kind, choices=("adam", "sgd"))
    p.add_argument("--lr", type=float, default=c.learning_rate)
    p.add_argument("--momentum", type=float, default=c.momentum)
    p.add_argument("--beta1", type=float, default=c.beta1)
    p.add_argument("--beta2", type=float, default=c.beta2)
    p.add_argument("--eps-hat", type=float, default=c.eps_hat)
    p.add_argument("--steps", type=int, default=c.steps)
    p.add_argument("--batch-size", type=int, default=c.batch_size)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output file prefix")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("bench",
                       help="time matrix-free vs materialized forward")
    p.add_argument("--w1", type=int, default=768)
    p.add_argument("--w2", type=int, default=768)
    p.add_argument("--r", type=int, default=4)
    p.add_argument("--s", type=int, default=16)
    p.add_argument("--repeats", type=_positive_int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--quick", action="store_true",
                   help="reduced trial counts, skips the training smoke test")
    p.add_argument("--inject-fault", action="store_true",
                   help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except train_harness.DivergenceError as exc:
        print(f"error: {exc}")
        return EXIT_DIVERGED
    except (lsr_repr.NumericalError, ZeroDivisionError) as exc:
        print(f"error: {exc}")
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"error: {exc}")
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}")
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
