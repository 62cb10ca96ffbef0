"""Desk-scale training loop over planted synthetic regression tasks.

A task freezes a base weight W, plants a known true update, and asks an
adapter to recover it from (input, target) pairs.  Because the adapter
holds the same frozen W, the base weight cancels out of the residual and
the optimization is purely about the update, which makes the recovery
error ||alpha * delta_hat - delta_star||_F / ||delta_star||_F an exact
quality measure.

Plants:

* ``DensePlant``          -- unstructured Gaussian update,
* ``LowRankPlant(r)``     -- rank-r update,
* ``KronSumPlant(...)``   -- sum of full Kronecker products (generically
  full rank, so NOT representable by a rank-limited adapter; useful as a
  mismatched control),
* ``LsrProductPlant(...)``-- product of two Kronecker sums, the exact
  structure a factored adapter materializes; the matched-recovery case.

Each plant draws its own update: ``plant.delta(w1, w2, rng)`` checks the
plant's parameters against the task shape, then makes its draws from the
task's ``"task-plant"`` stream, so ``gen_task`` never branches on the
plant type.  Both adapter layers come out of one checked constructor
step (``adapter._FlatParams._store``), so ``train`` runs either one
through the same loop.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from . import adapter
from .adapter import ShapePlan
from .kron_core import Matrix, Shape, _check_split, _checked, _dense_kron_sum
from .rng import rng_stream

# rows of the update formed at a time by recovery_error
_RECOVERY_ROWS = 64
# Adam's moment decay rates
_BETA1 = 0.9
_BETA2 = 0.999


class DivergenceError(RuntimeError):
    """Training loss or gradient became non-finite."""

    def __init__(self, step: int, quantity: str = "loss"):
        super().__init__(f"non-finite {quantity} at step {step}")
        self.step = step


@dataclass(frozen=True)
class DensePlant:
    def delta(self, w1: int, w2: int, rng) -> Matrix:
        return rng.normal(size=(w1, w2))


@dataclass(frozen=True)
class LowRankPlant:
    r: int

    def delta(self, w1: int, w2: int, rng) -> Matrix:
        if not 1 <= self.r <= min(w1, w2):
            raise ValueError(f"plant rank {self.r} out of range")
        return rng.normal(size=(w1, self.r)) @ rng.normal(size=(self.r, w2))


@dataclass(frozen=True)
class KronSumPlant:
    s: int
    left: Shape
    right: Shape

    def delta(self, w1: int, w2: int, rng) -> Matrix:
        _check_split(self.left, self.right, (w1, w2), "plant")
        return _dense_kron_sum(*_draw_stacks(rng, self.s,
                                             (self.left, self.right)))


@dataclass(frozen=True)
class LsrProductPlant:
    s: int
    plan: ShapePlan

    def delta(self, w1: int, w2: int, rng) -> Matrix:
        p = self.plan
        if p.w1 != w1 or p.w2 != w2:
            raise ValueError(f"plan is {p.w1}x{p.w2}, task wants {w1}x{w2}")
        # one term's shapes, so that the plant's own terms rule runs first
        terms = [shape[1:] for shape in p.stack_shapes(1).values()]
        A1, A2, B1, B2 = _draw_stacks(rng, self.s, terms)
        return _dense_kron_sum(A1, A2) @ _dense_kron_sum(B1, B2)


@dataclass(eq=False)
class SyntheticTask:
    W: Matrix
    delta_star: Matrix
    inputs: np.ndarray   # (n, w2)
    targets: np.ndarray  # (n, w1)
    noise_std: float
    seed: int

    def __post_init__(self):
        if self.delta_star.shape != self.W.shape:
            raise ValueError("delta_star shape must match W")
        if len(self.inputs) != len(self.targets):
            raise ValueError("inputs and targets must have equal length")

    @property
    def n_samples(self) -> int:
        return len(self.inputs)


@dataclass(frozen=True)
class OptimizerConfig:
    kind: str = "adam"
    learning_rate: float = 1e-2
    momentum: float = 0.0
    eps_hat: float = 1e-8
    steps: int = 1000
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")
        if not 0.0 < self.eps_hat < math.inf:
            raise ValueError("eps_hat must be positive and finite")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.steps < 0 or self.batch_size < 1:
            raise ValueError("steps must be >= 0 and batch_size >= 1")


@dataclass
class TrainReport:
    loss_curve: list[float]
    final_loss: float
    recovery_error: float
    trainable_params: int
    wall_time_seconds: float


@dataclass
class CompareReport:
    lora: TrainReport
    lsr: TrainReport
    param_ratio: float


def _draw_stacks(rng, s: int, shapes) -> list[np.ndarray]:
    """Stacks of s terms of the given (rows, cols) shapes, filled term by
    term with one draw per stack; the Kronecker plants' one rule for
    their number of terms."""
    if s < 1:
        raise ValueError(f"plant terms {s} out of range")
    stacks = [np.empty((s, *shape)) for shape in shapes]
    for k in range(s):
        for stack in stacks:
            stack[k] = rng.normal(size=stack.shape[1:])
    return stacks


def gen_task(w1: int, w2: int, plant, n_samples: int, noise_std: float,
             seed: int) -> SyntheticTask:
    """Seeded task: Gaussian W, the plant's update (``plant.delta``)
    scaled to unit Frobenius norm, Gaussian inputs, targets
    (W + delta_star) x plus noise.  A negative ``n_samples`` or a
    negative or non-finite ``noise_std`` is refused before any draw."""
    if n_samples < 0:
        raise ValueError("n_samples must be >= 0")
    if not 0.0 <= noise_std < math.inf:
        raise ValueError(f"noise_std must be finite and >= 0, got {noise_std}")
    W = rng_stream(seed, "task-base").normal(size=(w1, w2))
    delta = plant.delta(w1, w2, rng_stream(seed, "task-plant"))
    norm = np.linalg.norm(delta)
    if norm > 0:
        delta = delta / norm
    inputs = rng_stream(seed, "task-inputs").normal(size=(n_samples, w2))
    targets = inputs @ (W + delta).T
    if noise_std != 0.0:
        targets = targets + noise_std * rng_stream(seed, "task-noise").normal(
            size=(n_samples, w1))
    return SyntheticTask(W=W, delta_star=delta, inputs=inputs,
                         targets=targets, noise_std=float(noise_std),
                         seed=int(seed))


# ---------------------------------------------------------------- training


def recovery_error(layer, task: SyntheticTask) -> float:
    """||alpha * A @ B - delta_star||_F / ||delta_star||_F, accumulated over
    blocks of _RECOVERY_ROWS rows so that no w1 x w2 temporary is built."""
    denom = np.linalg.norm(task.delta_star)
    if denom == 0.0:
        return float("nan")
    A, B = layer.update_factors()
    A = layer.alpha * A
    total = 0.0
    for i in range(0, A.shape[0], _RECOVERY_ROWS):
        block = A[i:i + _RECOVERY_ROWS] @ B
        block -= task.delta_star[i:i + _RECOVERY_ROWS]
        total += float(np.vdot(block, block))
    return math.sqrt(total) / float(denom)


def _dataset_loss(layer, inputs: np.ndarray, targets: np.ndarray,
                  factors: tuple[Matrix, Matrix]) -> float:
    """mean_i 0.5 * ||forward(x_i) - t_i||^2 over the checked dataset, on
    the layer's current ``update_factors()``."""
    A, B = factors
    resid = adapter._low_rank_forward(
        layer, inputs, A, adapter._apply_b(B, inputs)) - targets
    return 0.5 * float(np.vdot(resid, resid)) / len(inputs)


class _Optimizer:
    """SGD with momentum or Adam over a layer's flat parameter vector: one
    fused update of the whole vector per step."""

    def __init__(self, config: OptimizerConfig, size: int):
        self.config = config
        self.t = 0
        if config.kind == "sgd":
            self.velocity = np.zeros(size)
        else:
            self.m = np.zeros(size)
            self.v = np.zeros(size)

    def step(self, flat: np.ndarray, grad: np.ndarray) -> None:
        c = self.config
        self.t += 1
        if c.kind == "sgd":
            self.velocity *= c.momentum
            self.velocity += grad
            flat -= c.learning_rate * self.velocity
        else:
            bc1 = 1.0 - _BETA1**self.t
            bc2 = 1.0 - _BETA2**self.t
            m, v = self.m, self.v
            m *= _BETA1
            m += (1.0 - _BETA1) * grad
            v *= _BETA2
            v += (1.0 - _BETA2) * grad ** 2
            flat -= c.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + c.eps_hat)


def _batches(n: int, batch_size: int, seed: int):
    """Index batches of a sequential wrap-around over a seeded shuffle of
    range(n): the ``"shuffle"`` stream draws a new permutation each time
    fewer than ``batch_size`` indices remain."""
    rng = rng_stream(seed, "shuffle")
    order = rng.permutation(n)
    while True:
        while len(order) < batch_size:
            order = np.concatenate([order, rng.permutation(n)])
        yield order[:batch_size]
        order = order[batch_size:]


def train(layer, task: SyntheticTask, config: OptimizerConfig) -> TrainReport:
    """Minimize mean squared error over the adapter parameters (W frozen).

    The per-batch loss is mean_i 0.5 * ||forward(x_i) - t_i||^2.  The
    task's inputs and targets are checked once, here.  The layer's dense
    factors are formed once per parameter state: each step's forward and
    backward share them and U = X B^T, its gradient fills one flat buffer
    laid out like ``layer.flat``, and the optimizer updates ``layer.flat``
    in one fused step.  Each step's batch is the next ``batch_size``
    indices of ``_batches``: a wrap-around over permutations of the
    samples from the ``config.seed`` ``"shuffle"`` stream, one per epoch.
    The loss curve records the full-dataset value of the same quantity,
    at step 0 and roughly every steps/100 steps thereafter.  A step whose
    flat gradient has a non-finite sum of squares, or a logged loss that
    is not finite, raises ``DivergenceError`` with that step; numpy's
    overflow and invalid-value warnings are off for the run, since these
    checks report the failure.
    """
    w1, w2 = layer.W.shape
    if layer.W.shape != task.W.shape:
        raise ValueError("layer and task disagree on the base weight shape")
    if task.n_samples == 0:
        raise ValueError("cannot train on an empty task")
    inputs = _checked(task.inputs, "task.inputs", 2)
    targets = _checked(task.targets, "task.targets", 2)
    if inputs.shape[1] != w2 or targets.shape[1] != w1:
        raise ValueError(f"task.inputs is {inputs.shape} and task.targets is "
                         f"{targets.shape}, the layer maps {w2} to {w1}")
    grad = np.zeros(layer.flat.size)
    grads = layer._views(grad)
    opt = _Optimizer(config, grad.size)
    batches = _batches(task.n_samples, config.batch_size, config.seed)
    log_every = max(1, config.steps // 100)

    t0 = time.perf_counter()
    # a diverging run overflows; the checks below report it by step
    with np.errstate(over="ignore", invalid="ignore"):
        A, B = layer.update_factors()
        loss_curve = [_dataset_loss(layer, inputs, targets, (A, B))]
        for step in range(config.steps):
            idx = next(batches)
            X = inputs[idx]
            U = adapter._apply_b(B, X)
            resid = adapter._low_rank_forward(layer, X, A, U) - targets[idx]
            # gradients are linear in the residual, so scale it, not them
            dA, dB, _ = adapter._low_rank_backward(
                layer, X, (1.0 / len(idx)) * resid, A, B, U)
            layer._gradients(dA, dB, grads)
            # a non-finite residual makes the gradient non-finite, and a
            # gradient whose square overflows would stall Adam (v = inf)
            if not math.isfinite(float(np.vdot(grad, grad))):
                raise DivergenceError(step, "gradient")
            opt.step(layer.flat, grad)
            A, B = layer.update_factors()
            if (step + 1) % log_every == 0 or step == config.steps - 1:
                loss = _dataset_loss(layer, inputs, targets, (A, B))
                if not math.isfinite(loss):
                    raise DivergenceError(step)
                loss_curve.append(loss)
    wall = time.perf_counter() - t0
    return TrainReport(loss_curve=loss_curve, final_loss=loss_curve[-1],
                       recovery_error=recovery_error(layer, task),
                       trainable_params=layer.n_params,
                       wall_time_seconds=wall)


def compare(task: SyntheticTask, lora_r: int, lsr_plan: ShapePlan,
            lsr_s: int, config: OptimizerConfig,
            alpha: float = adapter.DEFAULT_ALPHA) -> CompareReport:
    """Train the baseline and the factored adapter from their standard
    inits on the identical task and config."""
    lora = adapter.lora_init(task.W, lora_r, alpha=alpha, seed=config.seed)
    lsr = adapter.init(task.W, lsr_plan, lsr_s, alpha=alpha, seed=config.seed)
    lora_report = train(lora, task, config)
    lsr_report = train(lsr, task, config)
    ratio = lsr_report.trainable_params / lora_report.trainable_params
    return CompareReport(lora=lora_report, lsr=lsr_report, param_ratio=ratio)
