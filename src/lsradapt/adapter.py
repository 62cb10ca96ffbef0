"""Kronecker-sum factored low-rank adapter on a frozen linear layer.

The layer computes ``y = W x + alpha * A_sum (B_sum x)`` where the usual
low-rank update factors are themselves sums of s Kronecker products of
small matrices:

    A_sum = sum_k A1[k] (x) A2[k]      (w1 x r)
    B_sum = sum_k B1[k] (x) B2[k]      (r  x w2)

with a1*a2 = w1, r1*r2 = r, b1*b2 = w2.  Forward and backward never
materialize the w1 x w2 update.  Each call forms the two thin factors
once (``update_factors()``: one ``kron_core._dense_kron_sum`` per side,
O(s r (w1 + w2)) work) and then runs the plain low-rank map on them,
over a batch of inputs held as the rows of an (n, w2) array; a 1-D
input is a batch of one and gets 1-D results back:

    Y = X W^T + alpha * (X B_sum^T) A_sum^T

Applying the Kronecker sums per sample instead would cost
s (w2 r2 + r1 b1 r2) multiply-adds per row on the B side alone, more
than the r w2 of the formed B_sum whenever s exceeds r1, and many more
numpy calls per row.

Gradients are hand-derived.  For a batch X (n x w2) with output
gradients G = dL/dY (n x w1), let U = X B_sum^T and H = G A_sum (rows
of B_sum x and A_sum^T g).  Then dX = G W + alpha * H B_sum (one row per
sample), and the dense gradients of the two factors are the batch sums

    dA_sum = alpha * G^T U    (w1 x r)      dB_sum = alpha * H^T X    (r x w2)

Under the Van Loan-Pitsianis rearrangement (``kron_core._rearrange``),
sum_k P[k] (x) Q[k] is the rank-s product p^T q of the row-major
flattened stacks p and q, so with R the rearranged dA_sum or dB_sum
every term's gradient is one product per stack (``kron_core._project``):

    dP = q R^T      dQ = p R      (for (A1, A2) and for (B1, B2))

A plain low-rank adapter (``LoraLayer``, ``W x + alpha * A (B x)``) is
the comparison baseline.  It runs through the same dense-factor core,
and its dA and dB are its gradients as they are.  Both layers share one
interface, so callers never branch on the type: ``params`` maps names
(A1, A2, B1, B2 or A, B) to the trainable arrays themselves,
``n_params`` counts them,
``update_factors()`` gives the dense (A, B) before alpha, and
``forward(x)``/``backward(x, g)`` return y and ``(grads, dx)``, with
``grads`` keyed like ``params``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .kron_core import Matrix, _dense_kron_sum, _project, as_matrix
from .lsr_repr import KronTerm, SeparatedMatrix, Shape
from .rng import rng_stream

DEFAULT_ALPHA = 32.0


@dataclass(frozen=True)
class ShapePlan:
    """Resolved dimension factorizations for one adapter layer."""

    w1: int
    w2: int
    r: int
    a1: int
    a2: int
    r1: int
    r2: int
    b1: int
    b2: int

    def __post_init__(self):
        for name in ("w1", "w2", "r", "a1", "a2", "r1", "r2", "b1", "b2"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.a1 * self.a2 != self.w1:
            raise ValueError(f"a1*a2 = {self.a1 * self.a2} != w1 = {self.w1}")
        if self.r1 * self.r2 != self.r:
            raise ValueError(f"r1*r2 = {self.r1 * self.r2} != r = {self.r}")
        if self.b1 * self.b2 != self.w2:
            raise ValueError(f"b1*b2 = {self.b1 * self.b2} != w2 = {self.w2}")


def _balanced_split(n: int) -> tuple[int, int]:
    # largest divisor <= sqrt(n) gives the most balanced pair
    d = math.isqrt(n)
    while d > 1 and n % d:
        d -= 1
    return n // d, d


def plan_shapes(w1: int, w2: int, r: int) -> ShapePlan:
    """Most-balanced divisor split of each dimension (a 1 x n split always
    exists, so any positive dims work)."""
    if min(w1, w2, r) < 1:
        raise ValueError("dimensions must be positive")
    a1, a2 = _balanced_split(w1)
    b1, b2 = _balanced_split(w2)
    r1, r2 = _balanced_split(r)
    return ShapePlan(w1=w1, w2=w2, r=r, a1=a1, a2=a2, r1=r1, r2=r2,
                     b1=b1, b2=b2)


@dataclass(eq=False)
class LsrAdaptLayer:
    """Frozen base weight plus the four Kronecker factor families.

    Factor families are stacked along the leading axis: A1[k] is the k-th
    a1 x r1 factor, etc.  The factor arrays are the trainable state; W is
    never updated.
    """

    W: Matrix
    alpha: float
    plan: ShapePlan
    s: int
    A1: np.ndarray  # (s, a1, r1)
    A2: np.ndarray  # (s, a2, r2)
    B1: np.ndarray  # (s, r1, b1)
    B2: np.ndarray  # (s, r2, b2)

    def __post_init__(self):
        p = self.plan
        self.W = as_matrix(self.W, "W")
        if self.W.shape != (p.w1, p.w2):
            raise ValueError(f"W is {self.W.shape}, plan wants ({p.w1}, {p.w2})")
        if self.s < 1:
            raise ValueError("separation rank s must be >= 1")
        expected = {"A1": (self.s, p.a1, p.r1), "A2": (self.s, p.a2, p.r2),
                    "B1": (self.s, p.r1, p.b1), "B2": (self.s, p.r2, p.b2)}
        for name, shape in expected.items():
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            if arr.shape != shape:
                raise ValueError(f"{name} is {arr.shape}, expected {shape}")
            setattr(self, name, arr)

    @property
    def params(self) -> dict[str, np.ndarray]:
        return {"A1": self.A1, "A2": self.A2, "B1": self.B1, "B2": self.B2}

    @property
    def n_params(self) -> int:
        return count_params_lsr(self.plan, self.s)

    def update_factors(self) -> tuple[Matrix, Matrix]:
        """The dense low-rank factors A_sum (w1 x r) and B_sum (r x w2)."""
        return (_dense_kron_sum(self.A1, self.A2),
                _dense_kron_sum(self.B1, self.B2))

    # module functions are looked up per call, so wrappers set on them
    # see method calls too
    def forward(self, x) -> np.ndarray:
        return forward(self, x)

    def backward(self, x, g):
        return backward(self, x, g)


@dataclass(eq=False)
class LoraLayer:
    """Plain low-rank adapter baseline: y = W x + alpha * A (B x)."""

    W: Matrix
    alpha: float
    A: Matrix  # w1 x r
    B: Matrix  # r x w2

    def __post_init__(self):
        self.W = as_matrix(self.W, "W")
        self.A = as_matrix(self.A, "A")
        self.B = as_matrix(self.B, "B")
        w1, w2 = self.W.shape
        if self.A.shape[0] != w1 or self.B.shape[1] != w2 \
                or self.A.shape[1] != self.B.shape[0]:
            raise ValueError(
                f"inconsistent shapes: W {self.W.shape}, A {self.A.shape}, "
                f"B {self.B.shape}")

    @property
    def r(self) -> int:
        return self.A.shape[1]

    @property
    def params(self) -> dict[str, np.ndarray]:
        return {"A": self.A, "B": self.B}

    @property
    def n_params(self) -> int:
        return count_params_lora(*self.W.shape, self.r)

    def update_factors(self) -> tuple[Matrix, Matrix]:
        return self.A, self.B

    def forward(self, x) -> np.ndarray:
        return lora_forward(self, x)

    def backward(self, x, g):
        return lora_backward(self, x, g)


def init(W, plan: ShapePlan, s: int, alpha: float = DEFAULT_ALPHA,
         seed: int = 0) -> LsrAdaptLayer:
    """Fresh layer: A1, A2, B1 Gaussian, B2 zero.

    The zero B2 family makes the materialized update exactly zero, so the
    layer reproduces W x at step 0 while still receiving gradient through
    B2 from the first step on.
    """
    W = as_matrix(W, "W")
    if W.shape != (plan.w1, plan.w2):
        raise ValueError(f"W is {W.shape}, plan wants ({plan.w1}, {plan.w2})")
    g = rng_stream(seed, "adapter-init")
    a_std = np.sqrt(1.0 / plan.w2)
    b1_std = np.sqrt(1.0 / plan.r)
    return LsrAdaptLayer(
        W=W, alpha=float(alpha), plan=plan, s=int(s),
        A1=g.normal(0.0, a_std, size=(s, plan.a1, plan.r1)),
        A2=g.normal(0.0, a_std, size=(s, plan.a2, plan.r2)),
        B1=g.normal(0.0, b1_std, size=(s, plan.r1, plan.b1)),
        B2=np.zeros((s, plan.r2, plan.b2)),
    )


def _as_batch(x, width: int, name: str) -> tuple[np.ndarray, bool]:
    """Validated (n, width) float64 batch, and whether x was a single
    1-D vector (a batch of one)."""
    b = np.ascontiguousarray(x, dtype=np.float64)
    single = b.ndim == 1
    if single:
        if b.size != width:
            raise ValueError(f"{name} has length {b.size}, expected {width}")
        b = b.reshape(1, width)
    elif b.ndim != 2 or b.shape[1] != width:
        raise ValueError(f"{name} has shape {b.shape}, expected (n, {width})")
    if not np.isfinite(b).all():
        raise ValueError(f"{name} contains non-finite entries")
    return b, single


def forward(layer: LsrAdaptLayer, x) -> np.ndarray:
    """y = W x + alpha * A_sum (B_sum x) for every row of x, on the dense
    factors (the w1 x w2 update is never formed).

    x is (n, w2) or a single vector of length w2; the result is (n, w1)
    or a vector of length w1 to match.
    """
    return _low_rank_forward(layer, x)


def _low_rank_forward(layer, x) -> np.ndarray:
    # shared by both layer types: Y = X W^T + alpha * (X B^T) A^T
    X, single = _as_batch(x, layer.W.shape[1], "x")
    Y = (X[0] if single else X) @ layer.W.T
    A, B = layer.update_factors()
    U = _apply_b(B, X)
    if layer.alpha != 0.0 and U.any():
        Y += layer.alpha * _apply_a(A, U).reshape(Y.shape)
    return Y


def _apply_b(B: Matrix, X: np.ndarray) -> np.ndarray:
    """Rows of B x: (n, w2) -> (n, r)."""
    return X @ B.T


def _apply_a(A: Matrix, U: np.ndarray) -> np.ndarray:
    """Rows of A u: (n, r) -> (n, w1)."""
    return U @ A.T


def materialize_delta(layer: LsrAdaptLayer) -> Matrix:
    """Dense w1 x w2 update (without alpha): A_sum @ B_sum."""
    a_sum, b_sum = layer.update_factors()
    return a_sum @ b_sum


def backward(layer: LsrAdaptLayer, x, g):
    """Exact gradients ``(grads, dx)`` of L w.r.t. the factors and x,
    given g = dL/dy.

    x is (n, w2) and g is (n, w1), or single vectors.  ``grads`` maps each
    name in ``layer.params`` to its gradient, summed over the batch; dx
    has one row per sample (a vector for vector input).  See the module
    docstring for the derivation: the dense gradients of A_sum and B_sum
    are projected onto the factor stacks.
    """
    dA, dB, dx = _low_rank_backward(layer, x, g)
    dA1, dA2 = _project(dA, layer.A1, layer.A2)
    dB1, dB2 = _project(dB, layer.B1, layer.B2)
    return {"A1": dA1, "A2": dA2, "B1": dB1, "B2": dB2}, dx


def _low_rank_backward(layer, x, g):
    """Dense (dA, dB, dx) of the map y = W x + alpha * A (B x) on the
    layer's ``update_factors()``, shared by both layer types."""
    w1, w2 = layer.W.shape
    X, single = _as_batch(x, w2, "x")
    G, _ = _as_batch(g, w1, "g")
    if G.shape[0] != X.shape[0]:
        raise ValueError(f"x has {X.shape[0]} rows but g has {G.shape[0]}")
    alpha = layer.alpha
    A, B = layer.update_factors()
    U = _apply_b(B, X)
    H = G @ A  # rows of A^T g
    dx = G @ layer.W + alpha * (H @ B)
    return (alpha * (G.T @ U), alpha * (H.T @ X),
            dx.reshape(-1) if single else dx)


def count_params_lsr(plan: ShapePlan, s: int) -> int:
    """Trainable scalars in the factored adapter."""
    return s * (plan.a1 * plan.r1 + plan.a2 * plan.r2) \
        + s * (plan.r1 * plan.b1 + plan.r2 * plan.b2)


def count_params_lora(w1: int, w2: int, r: int) -> int:
    """Trainable scalars in the plain low-rank adapter."""
    return w1 * r + r * w2


def lora_init(W, r: int, alpha: float = DEFAULT_ALPHA,
              seed: int = 0) -> LoraLayer:
    """Standard baseline init: A Gaussian, B zero (update starts at zero)."""
    W = as_matrix(W, "W")
    w1, w2 = W.shape
    g = rng_stream(seed, "lora-init")
    return LoraLayer(W=W, alpha=float(alpha),
                     A=g.normal(0.0, np.sqrt(1.0 / w2), size=(w1, r)),
                     B=np.zeros((r, w2)))


def lora_forward(layer: LoraLayer, x) -> np.ndarray:
    """y = W x + alpha * A (B x) for every row of x (or one vector)."""
    return _low_rank_forward(layer, x)


def lora_backward(layer: LoraLayer, x, g):
    """Gradients ``({"A": dA, "B": dB}, dx)`` for the baseline forward
    map: dA and dB summed over the rows of x and g, dx one row per
    sample."""
    dA, dB, dx = _low_rank_backward(layer, x, g)
    return {"A": dA, "B": dB}, dx


def export_delta_as_separated(layer: LsrAdaptLayer) -> SeparatedMatrix:
    """Expand the update into s^2 explicit Kronecker terms via the mixed
    product: A_sum @ B_sum = sum_{k,j} (A1[k] B1[j]) (x) (A2[k] B2[j])."""
    p = layer.plan
    P = (layer.A1[:, None] @ layer.B1).reshape(-1, p.a1, p.b1)
    Q = (layer.A2[:, None] @ layer.B2).reshape(-1, p.a2, p.b2)
    return SeparatedMatrix(Shape(p.w1, p.w2),
                           [KronTerm(1.0, pq) for pq in zip(P, Q)])
