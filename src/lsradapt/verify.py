"""Built-in verification suite behind the ``verify`` CLI command.

Each check re-derives expected values through an independent route
(materialized products, finite differences, SVD tails) and compares the
library against it at fixed tolerances.  ``run_checks`` returns one
result per check; the CLI renders them as a pass/fail table.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import adapter, lsr_repr, train_harness
from .kron_core import (
    Shape,
    apply_kron2,
    apply_kron2_transpose,
    kron,
)
from .rng import rng_stream

_SEED = 20240611


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str


def _rel(err: float, ref: float) -> float:
    return err / ref if ref > 0 else err


def check_kron_identities(trials: int) -> CheckResult:
    """Transpose, mixed-product, associativity, norm multiplicativity."""
    g = rng_stream(_SEED, "kron-identities")
    worst = 0.0
    for _ in range(trials):
        dims = g.integers(1, 9, size=8)
        B = g.normal(size=(dims[0], dims[1]))
        C = g.normal(size=(dims[2], dims[3]))
        D = g.normal(size=(dims[1], dims[4]))
        E = g.normal(size=(dims[3], dims[5]))
        F = g.normal(size=(dims[6], dims[7]))

        t = kron(B, C).T - kron(B.T, C.T)
        worst = max(worst, _rel(np.linalg.norm(t),
                                np.linalg.norm(kron(B.T, C.T))))
        m = kron(B, C) @ kron(D, E) - kron(B @ D, C @ E)
        worst = max(worst, _rel(np.linalg.norm(m),
                                np.linalg.norm(kron(B @ D, C @ E))))
        a = kron(B, kron(C, F)) - kron(kron(B, C), F)
        worst = max(worst, _rel(np.linalg.norm(a),
                                np.linalg.norm(kron(kron(B, C), F))))
        n = abs(np.linalg.norm(kron(B, C))
                - np.linalg.norm(B) * np.linalg.norm(C))
        worst = max(worst, _rel(n, np.linalg.norm(B) * np.linalg.norm(C)))
    ok = worst <= 1e-12
    return CheckResult("kron-identities", ok,
                       f"{trials} trials, worst rel err {worst:.2e}")


def check_matrix_free_apply(trials: int) -> CheckResult:
    """apply_kron2 and its transpose against materialized products."""
    g = rng_stream(_SEED, "matrix-free-apply")
    worst = 0.0
    for _ in range(trials):
        pr, pc, qr, qc = g.integers(1, 33, size=4)
        P = g.normal(size=(pr, pc))
        Q = g.normal(size=(qr, qc))
        x = g.normal(size=pc * qc)
        y = g.normal(size=pr * qr)
        K = kron(P, Q)
        worst = max(worst, _rel(np.linalg.norm(apply_kron2(P, Q, x) - K @ x),
                                np.linalg.norm(K @ x)))
        worst = max(worst,
                    _rel(np.linalg.norm(apply_kron2_transpose(P, Q, y)
                                        - K.T @ y),
                         np.linalg.norm(K.T @ y)))
    ok = worst <= 1e-10
    return CheckResult("matrix-free-apply", ok,
                       f"{trials} trials, worst rel err {worst:.2e}")


def random_layer(g, w1, w2, r, s,
                 alpha=adapter.DEFAULT_ALPHA) -> adapter.LsrAdaptLayer:
    """Layer with every array Gaussian from g, drawn as W, then the
    stacks in ``ShapePlan.stack_shapes`` order (A1, A2, B1, B2)."""
    plan = adapter.plan_shapes(w1, w2, r)
    W = g.normal(size=(w1, w2))
    stacks = {name: g.normal(size=shape)
              for name, shape in plan.stack_shapes(s).items()}
    return adapter.LsrAdaptLayer(W=W, alpha=alpha, plan=plan, s=s, **stacks)


def check_forward_equivalence(trials: int) -> CheckResult:
    """Adapter forward against (W + alpha * materialized update) @ x."""
    g = rng_stream(_SEED, "forward-equivalence")
    worst = 0.0
    for _ in range(trials):
        w1, w2 = g.integers(2, 65, size=2)
        r = int(g.integers(1, 9))
        s = int(g.integers(1, 9))
        layer = random_layer(g, int(w1), int(w2), r, s)
        x = g.normal(size=int(w2))
        want = (layer.W + layer.alpha * adapter.materialize_delta(layer)) @ x
        got = adapter.forward(layer, x)
        worst = max(worst, _rel(np.linalg.norm(got - want),
                                np.linalg.norm(want)))
    ok = worst <= 1e-10
    return CheckResult("adapter-forward-equivalence", ok,
                       f"{trials} configs, worst rel err {worst:.2e}")


def check_optimal_approx() -> CheckResult:
    """Planted sums of Kronecker products: exact recovery at the planted
    term count, SVD-tail error below it, monotone error in s."""
    g = rng_stream(_SEED, "optimal-approx")
    left, right = Shape(6, 8), Shape(8, 6)
    target_terms = 3
    M = np.zeros((48, 48))
    for _ in range(target_terms):
        M += kron(g.normal(size=left), g.normal(size=right))
    sigma = np.linalg.svd(lsr_repr.rearrange(M, left, right),
                          compute_uv=False)
    norm = np.linalg.norm(M)
    errs = []
    for s in range(1, 6):
        S = lsr_repr.nearest_kron_sum(M, left, right, s)
        errs.append(np.linalg.norm(M - lsr_repr.materialize(S)))
    if errs[target_terms - 1] / norm > 1e-8:
        return CheckResult("optimal-approx", False,
                           f"not exact at planted rank: rel "
                           f"{errs[target_terms - 1] / norm:.2e}")
    for s in (1, 2):
        tail = float(np.sqrt(np.sum(sigma[s:] ** 2)))
        if abs(errs[s - 1] - tail) > 1e-10 * max(tail, 1.0):
            return CheckResult("optimal-approx", False,
                               f"error at s={s} is {errs[s - 1]:.6e}, "
                               f"SVD tail {tail:.6e}")
    if any(errs[i + 1] > errs[i] + 1e-12 for i in range(len(errs) - 1)):
        return CheckResult("optimal-approx", False,
                           f"error not monotone: {errs}")
    return CheckResult("optimal-approx", True,
                       f"exact at s={target_terms}, tail-matched below")


def check_condition_precision() -> CheckResult:
    g = rng_stream(_SEED, "condition-precision")
    F1 = g.normal(size=(3, 3))
    F2 = g.normal(size=(4, 4))
    S = lsr_repr.normalize_terms(lsr_repr.SeparatedMatrix(
        Shape(12, 12), [2.5], ([F1], [F2])))
    gamma = lsr_repr.condition_number(S)
    if abs(gamma - 1.0) > 1e-12:
        return CheckResult("condition-precision", False,
                           f"single-term gamma = {gamma}, expected 1")
    mu16 = 2.0**-11
    fro = np.linalg.norm(lsr_repr.materialize(S))
    bound = gamma * mu16 * fro
    cases = [
        lsr_repr.check_precision(S, lsr_repr.PrecisionBudget(mu16, 1.0)),
        not lsr_repr.check_precision(S, lsr_repr.PrecisionBudget(mu16, 1e-6)),
        lsr_repr.check_precision(S, lsr_repr.PrecisionBudget(mu16, bound)),
    ]
    ok = all(cases)
    return CheckResult("condition-precision", ok,
                       f"gamma-1 = {gamma - 1:.2e}, boundary cases "
                       f"{['ok' if c else 'FAIL' for c in cases]}")


def _fd_gradient(loss, array, step: float = 1e-6) -> np.ndarray:
    out = np.zeros_like(array)
    flat = array.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        up = loss()
        flat[i] = orig - step
        down = loss()
        flat[i] = orig
        out.reshape(-1)[i] = (up - down) / (2.0 * step)
    return out


def check_gradients(instances: int) -> CheckResult:
    """backward / lora_backward against central finite differences of a
    probe loss c . forward(x), for every trainable array and x."""
    g = rng_stream(_SEED, "gradient-check")
    worst = 0.0
    for trial in range(instances):
        w1, w2 = (int(v) for v in g.integers(2, 17, size=2))
        r = int(g.integers(1, 5))
        s = int(g.integers(1, 4))
        lsr = random_layer(g, w1, w2, r, s, alpha=float(g.uniform(0.5, 2)))
        x = g.normal(size=w2)
        c = g.normal(size=w1)
        lora = adapter.LoraLayer(W=g.normal(size=(w1, w2)), alpha=1.5,
                                 A=g.normal(size=(w1, r)),
                                 B=g.normal(size=(r, w2)))
        for layer in (lsr, lora):
            grads, dx = layer.backward(x, c)
            probe = lambda: float(c @ layer.forward(x))
            pairs = [(grads[k], p) for k, p in layer.params.items()]
            for an, arr in pairs + [(dx, x)]:
                fd = _fd_gradient(probe, arr)
                worst = max(worst, _rel(np.linalg.norm(an - fd),
                                        max(np.linalg.norm(fd), 1e-8)))
    ok = worst <= 1e-5
    return CheckResult("gradient-check", ok,
                       f"{instances} instances, worst rel err {worst:.2e}")


def check_init_invariance() -> CheckResult:
    g = rng_stream(_SEED, "init-invariance")
    plan = adapter.plan_shapes(24, 18, 4)
    layer = adapter.init(g.normal(size=(24, 18)), plan, s=3, alpha=8.0,
                         seed=7)
    x = g.normal(size=18)
    gvec = g.normal(size=24)
    if np.max(np.abs(adapter.materialize_delta(layer))) != 0.0:
        return CheckResult("init-invariance", False, "update not zero")
    if not np.array_equal(adapter.forward(layer, x), layer.W @ x):
        return CheckResult("init-invariance", False, "forward != W @ x")
    grads, _ = adapter.backward(layer, x, gvec)
    if grads["A1"].any() or grads["A2"].any():
        return CheckResult("init-invariance", False,
                           "A-side gradients not exactly zero")
    if not grads["B2"].any():
        return CheckResult("init-invariance", False, "B2 gradient all zero")
    return CheckResult("init-invariance", True,
                       "zero update, exact base forward, B2-only gradient")


def check_planted_recovery() -> CheckResult:
    plan = adapter.plan_shapes(24, 24, 4)
    task = train_harness.gen_task(
        24, 24, train_harness.LsrProductPlant(2, plan), n_samples=64,
        noise_std=0.0, seed=5)
    layer = adapter.init(task.W, plan, s=2, alpha=1.0, seed=5)
    config = train_harness.OptimizerConfig(kind="adam", learning_rate=1e-2,
                                           steps=800, batch_size=16, seed=5)
    report = train_harness.train(layer, task, config)
    ok = report.recovery_error <= 0.05
    return CheckResult("planted-recovery-smoke", ok,
                       f"recovery err {report.recovery_error:.2e} after "
                       f"{config.steps} steps")


def run_checks() -> list[CheckResult]:
    """Run the eight checks and return their results in order."""
    with warnings.catch_warnings():
        # the random layer shapes include prime dimensions on purpose
        warnings.filterwarnings("ignore", r"w[12]=\d+ splits as", UserWarning)
        return [
            check_kron_identities(200),
            check_matrix_free_apply(100),
            check_forward_equivalence(100),
            check_optimal_approx(),
            check_condition_precision(),
            check_gradients(20),
            check_init_invariance(),
            check_planted_recovery(),
        ]
