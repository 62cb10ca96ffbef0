"""Kronecker-sum factored low-rank adapter on a frozen linear layer.

The layer computes ``y = W x + alpha * A_sum (B_sum x)`` where the usual
low-rank update factors are themselves sums of s Kronecker products of
small matrices:

    A_sum = sum_k A1[k] (x) A2[k]      (w1 x r)
    B_sum = sum_k B1[k] (x) B2[k]      (r  x w2)

with a1*a2 = w1, r1*r2 = r, b1*b2 = w2: ``ShapePlan`` checks both
splits with ``kron_core._check_split``, and ``ShapePlan.stack_shapes(s)``
alone refuses a separation rank s below 1.  Forward and backward never
materialize the w1 x w2 update.  Each call takes the two thin factors
from ``update_factors()`` (one ``kron_core._dense_kron_sum`` per side,
O(s r (w1 + w2)) work, when the parameters changed since they were last
formed) and then runs the plain low-rank map on them, over a batch of
inputs held as the rows of an (n, w2) array, taken in by the package's
one batch rule, ``kron_core._as_batch``: a 1-D input is a batch of one
and gets 1-D results back:

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
(A1, A2, B1, B2 or A, B) to the trainable arrays themselves, which are
views into one contiguous vector ``flat``, ``n_params`` is ``flat.size``,
``update_factors()`` gives the dense (A, B) before alpha, and
``forward(x)``/``backward(x, g)`` return y and ``(grads, dx)``, with
``grads`` keyed like ``params``.  The public calls take the factors from
``update_factors()``, which serves the factored layer's last formed pair
again while its parameters are unchanged (one shared, content-checked
entry; see ``LsrAdaptLayer.update_factors``); the training loop asks for
them once per parameter state and runs the same unchecked cores,
``_low_rank_forward`` and ``_low_rank_backward``, on them.  Both
constructors run one checked step, ``_FlatParams._store``: it checks W,
alpha and every trainable array and fills ``flat`` with copies of the
arrays.  Both layers are frozen dataclasses, so the parameters change
only in place (through ``params``, the views or ``flat``), and a cache
hit needs the same layer with the same ``flat`` bytes.  ``DEFAULT_ALPHA``
is the one default update scale: of ``init``, ``lora_init``, the CLI,
``train_harness.compare`` and ``verify.random_layer``.
"""

import math
import warnings
import weakref
from dataclasses import dataclass

import numpy as np

from .kron_core import (Matrix, Shape, _as_batch, _check_split, _checked,
                        _dense_kron_sum, _project, as_matrix)
from .lsr_repr import SeparatedMatrix
from .rng import rng_stream

DEFAULT_ALPHA = 1.0

# the last factor pair an LsrAdaptLayer formed: (weak reference to the
# layer, its ``flat.tobytes()`` at the time, (A_sum, B_sum)), or None.
# One entry for the whole process, so serving many layers adds no memory
# per layer, and the weak reference never keeps a layer alive.
_factor_cache = None


@dataclass(frozen=True)
class ShapePlan:
    """Resolved dimension factorizations for one adapter layer, and the
    one definition of its factor layout (``stack_shapes``)."""

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
        # two splits cover every size: A_sum's the a's and r's, B_sum's the
        # b's, and each product then makes w1, r or w2 positive as well
        _check_split((self.a1, self.r1), (self.a2, self.r2),
                     (self.w1, self.r), "A_sum")
        _check_split((self.r1, self.b1), (self.r2, self.b2),
                     (self.r, self.w2), "B_sum")

    def stack_shapes(self, s: int) -> dict[str, tuple[int, int, int]]:
        """Shape (s, rows, cols) of each factor stack, in ``flat`` order,
        such that A_sum = sum_k A1[k] (x) A2[k] is w1 x r and
        B_sum = sum_k B1[k] (x) B2[k] is r x w2; the one place a
        separation rank s below 1 is refused."""
        if s < 1:
            raise ValueError(f"separation rank s must be >= 1, got {s}")
        return {"A1": (s, self.a1, self.r1), "A2": (s, self.a2, self.r2),
                "B1": (s, self.r1, self.b1), "B2": (s, self.r2, self.b2)}


def _balanced_split(n: int) -> tuple[int, int]:
    # largest divisor <= sqrt(n) gives the most balanced pair
    d = math.isqrt(n)
    while d > 1 and n % d:
        d -= 1
    return n // d, d


def plan_shapes(w1: int, w2: int, r: int) -> ShapePlan:
    """Most-balanced divisor split of each dimension (an n x 1 split always
    exists, so any positive dims work).  A prime w1 or w2 splits as n x 1,
    so that side's Kronecker terms do not factor: each such split is named
    in a ``UserWarning``.  r is not checked; an r x 1 inner split is
    normal."""
    if min(w1, w2, r) < 1:
        raise ValueError("dimensions must be positive")
    a1, a2 = _balanced_split(w1)
    b1, b2 = _balanced_split(w2)
    r1, r2 = _balanced_split(r)
    for name, n, split in (("w1", w1, a2), ("w2", w2, b2)):
        if split == 1 < n:
            warnings.warn(f"{name}={n} splits as {n}x1, so its Kronecker "
                          f"factors do not factor", UserWarning, stacklevel=2)
    return ShapePlan(w1=w1, w2=w2, r=r, a1=a1, a2=a2, r1=r1, r2=r2,
                     b1=b1, b2=b2)


class _FlatParams:
    """Trainable arrays held as named views into one contiguous float64
    vector, ``flat``, in the order of ``params``, behind the one checked
    constructor step, ``_store``, that both layers run."""

    def _store(self, names: tuple[str, ...], ndim: int) -> None:
        """Check W (``as_matrix``), alpha (finite) and each trainable
        array in ``names`` (``kron_core._checked`` at rank ``ndim``, no
        zero dimension, then the shape ``_expected_shapes()`` derives
        from the checked arrays), and copy the arrays, in that order,
        into a new ``flat``.  The layer is frozen, so the checked state is
        written through ``vars``."""
        attrs = vars(self)
        attrs["W"] = as_matrix(self.W, "W")
        if not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha}")
        for name in names:
            a = attrs[name] = _checked(attrs[name], name, ndim)
            if not a.size:
                raise ValueError(f"{name} is {a.shape}, with a zero dimension")
        for name, shape in self._expected_shapes().items():
            got = attrs[name].shape
            if got != shape:
                raise ValueError(f"{name} is {got}, expected {shape}")
        attrs["flat"] = np.concatenate([attrs[n].reshape(-1) for n in names])
        attrs["_shapes"] = {name: attrs[name].shape for name in names}
        self._bind()

    def _bind(self) -> None:
        # make each named attribute its view into flat
        params = self._views(self.flat)
        vars(self).update(params, _params=params)

    def _views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Named views into ``flat`` (the parameters, or a gradient that
        matches them) laid out like ``params``."""
        out, start = {}, 0
        for name, shape in self._shapes.items():
            size = math.prod(shape)
            out[name] = flat[start:start + size].reshape(shape)
            start += size
        return out

    def __getstate__(self) -> dict:
        # a copy or pickle would turn each view into an array of its own,
        # cut off from flat; carry flat alone and bind the views again
        return {k: v for k, v in vars(self).items()
                if k != "_params" and k not in self._shapes}

    def __setstate__(self, state: dict) -> None:
        vars(self).update(state)
        self._bind()

    @property
    def params(self) -> dict[str, np.ndarray]:
        """Name -> trainable array, each a view into ``flat``."""
        return dict(self._params)

    @property
    def n_params(self) -> int:
        return self.flat.size


@dataclass(frozen=True, eq=False)
class LsrAdaptLayer(_FlatParams):
    """Frozen base weight plus the four Kronecker factor families.

    Factor families are stacked along the leading axis: A1[k] is the k-th
    a1 x r1 factor, etc.  The factor arrays are the trainable state, held
    as views into ``flat`` (A1|A2|B1|B2); W is never updated.
    Construction (``_store``) checks every array (float64, the right
    shape, finite entries) and that alpha is finite, so no later call has
    to, and copies the factor arrays into ``flat``.  The layer is a
    frozen dataclass: rebinding a field or ``flat`` raises
    ``FrozenInstanceError``, so the parameters change only in place,
    through ``params``, the views or ``flat``, and
    ``dataclasses.replace`` builds a new checked layer with its own
    ``flat``.
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
        self._store(tuple(self.plan.stack_shapes(self.s)), 3)

    def _expected_shapes(self) -> dict[str, tuple[int, ...]]:
        p = self.plan
        return {"W": (p.w1, p.w2), **p.stack_shapes(self.s)}

    def update_factors(self) -> tuple[Matrix, Matrix]:
        """The dense low-rank factors A_sum (w1 x r) and B_sum (r x w2),
        as read-only arrays.

        The pair last formed by any layer is kept in one module-wide
        entry, keyed by a weak reference to its layer and the bytes of
        that layer's ``flat``.  It is returned again only to the same
        layer while ``flat`` holds the same bytes; any other call forms
        both factors and replaces the entry.  The layer is frozen, so its
        parameters change only in place, and a write that changes a value
        changes those bytes: it is seen on the next call, a value written
        and restored between two calls finds the entry again, and a hit
        returns, bit for bit, what forming would give.
        """
        global _factor_cache
        key = self.flat.tobytes()
        entry = _factor_cache
        if entry is not None and entry[0]() is self and entry[1] == key:
            return entry[2]
        factors = (_dense_kron_sum(self.A1, self.A2),
                   _dense_kron_sum(self.B1, self.B2))
        for f in factors:
            f.setflags(write=False)
        _factor_cache = (weakref.ref(self), key, factors)
        return factors

    def _gradients(self, dA: Matrix, dB: Matrix, out=None) -> dict:
        # the dense factor gradients projected onto the four stacks, into
        # out (``_views`` of a flat gradient) or a new flat gradient
        out = out or self._views(np.empty(self.flat.size))
        _project(dA, self.A1, self.A2, out=(out["A1"], out["A2"]))
        _project(dB, self.B1, self.B2, out=(out["B1"], out["B2"]))
        return out

    # module functions are looked up per call, so wrappers set on them
    # see method calls too
    def forward(self, x) -> np.ndarray:
        return forward(self, x)

    def backward(self, x, g):
        return backward(self, x, g)


@dataclass(frozen=True, eq=False)
class LoraLayer(_FlatParams):
    """Plain low-rank adapter baseline: y = W x + alpha * A (B x), with A
    and B views into ``flat`` (A|B), copied there at construction; frozen
    like ``LsrAdaptLayer``."""

    W: Matrix
    alpha: float
    A: Matrix  # w1 x r
    B: Matrix  # r x w2

    def __post_init__(self):
        self._store(("A", "B"), 2)

    def _expected_shapes(self) -> dict[str, tuple[int, ...]]:
        # the rank is A's width, read once A has passed its check
        (w1, w2), r = self.W.shape, self.A.shape[1]
        return {"A": (w1, r), "B": (r, w2)}

    def update_factors(self) -> tuple[Matrix, Matrix]:
        return self.A, self.B

    def _gradients(self, dA: Matrix, dB: Matrix, out=None) -> dict:
        if out is not None:
            out["A"][...], out["B"][...] = dA, dB
        return out or {"A": dA, "B": dB}

    def forward(self, x) -> np.ndarray:
        return lora_forward(self, x)

    def backward(self, x, g):
        return lora_backward(self, x, g)


def init(W, plan: ShapePlan, s: int, alpha: float = DEFAULT_ALPHA,
         seed: int = 0) -> LsrAdaptLayer:
    """Fresh layer: A1, A2, B1 Gaussian, B2 zero; s < 1 is refused
    (``ShapePlan.stack_shapes``) before the first draw.

    The zero B2 family makes the materialized update exactly zero, so the
    layer reproduces W x at step 0 while still receiving gradient through
    B2 from the first step on.
    """
    shapes = plan.stack_shapes(s)
    g = rng_stream(seed, "adapter-init")
    a_std = np.sqrt(1.0 / plan.w2)
    b1_std = np.sqrt(1.0 / plan.r)
    return LsrAdaptLayer(
        W=W, alpha=float(alpha), plan=plan, s=int(s),
        A1=g.normal(0.0, a_std, size=shapes["A1"]),
        A2=g.normal(0.0, a_std, size=shapes["A2"]),
        B1=g.normal(0.0, b1_std, size=shapes["B1"]),
        B2=np.zeros(shapes["B2"]),
    )


def forward(layer: LsrAdaptLayer, x) -> np.ndarray:
    """y = W x + alpha * A_sum (B_sum x) for every row of x, on the dense
    factors (the w1 x w2 update is never formed).

    x is (n, w2) or a single vector of length w2; the result is (n, w1)
    or a vector of length w1 to match.
    """
    return _forward(layer, x)


def _forward(layer, x) -> np.ndarray:
    # the checked forward of both layer types, on update_factors()
    X, single = _as_batch(x, layer.W.shape[1])
    A, B = layer.update_factors()
    return _low_rank_forward(layer, X[0] if single else X, A,
                             _apply_b(B, X))


def _low_rank_forward(layer, X: np.ndarray, A: Matrix,
                      U: np.ndarray) -> np.ndarray:
    """Unchecked Y = X W^T + alpha * U A^T for an (n, w2) batch X, or a
    single vector, and the (n, r) U = X B^T, on factors the caller
    formed; with B = 0 (a fresh layer) the update adds exact zeros, so Y
    is X W^T."""
    Y = X @ layer.W.T
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
    dA, dB, dx = _backward(layer, x, g)
    return layer._gradients(dA, dB), dx


def _backward(layer, x, g):
    # the checked backward of both layer types, on update_factors()
    w1, w2 = layer.W.shape
    X, single = _as_batch(x, w2)
    G, _ = _as_batch(g, w1, "g")
    if G.shape[0] != X.shape[0]:
        raise ValueError(f"x has {X.shape[0]} rows but g has {G.shape[0]}")
    A, B = layer.update_factors()
    dA, dB, dx = _low_rank_backward(layer, X, G, A, B, _apply_b(B, X))
    return dA, dB, dx.reshape(-1) if single else dx


def _low_rank_backward(layer, X: np.ndarray, G: np.ndarray, A: Matrix,
                       B: Matrix, U: np.ndarray):
    """Unchecked dense (dA, dB, dx) of the map y = W x + alpha * A (B x)
    for (n, w2) and (n, w1) batches X and G and U = X B^T, on factors the
    caller formed (both layer types)."""
    alpha = layer.alpha
    H = G @ A  # rows of A^T g
    dx = G @ layer.W + alpha * (H @ B)
    return alpha * (G.T @ U), alpha * (H.T @ X), dx


def count_params_lsr(plan: ShapePlan, s: int) -> int:
    """Trainable scalars in the factored adapter."""
    return sum(map(math.prod, plan.stack_shapes(s).values()))


def count_params_lora(w1: int, w2: int, r: int) -> int:
    """Trainable scalars in the plain low-rank adapter."""
    return w1 * r + r * w2


def lora_init(W, r: int, alpha: float = DEFAULT_ALPHA,
              seed: int = 0) -> LoraLayer:
    """Standard baseline init: A Gaussian, B zero (update starts at zero);
    r < 1 is refused before the draw."""
    if r < 1:
        raise ValueError(f"rank r must be >= 1, got {r}")
    W = as_matrix(W, "W")
    w1, w2 = W.shape
    g = rng_stream(seed, "lora-init")
    return LoraLayer(W=W, alpha=float(alpha),
                     A=g.normal(0.0, np.sqrt(1.0 / w2), size=(w1, r)),
                     B=np.zeros((r, w2)))


def lora_forward(layer: LoraLayer, x) -> np.ndarray:
    """y = W x + alpha * A (B x) for every row of x (or one vector)."""
    return _forward(layer, x)


def lora_backward(layer: LoraLayer, x, g):
    """Gradients ``({"A": dA, "B": dB}, dx)`` for the baseline forward
    map: dA and dB summed over the rows of x and g, dx one row per
    sample."""
    dA, dB, dx = _backward(layer, x, g)
    return layer._gradients(dA, dB), dx


def export_delta_as_separated(layer: LsrAdaptLayer) -> SeparatedMatrix:
    """Expand the update into s^2 explicit unit-weight Kronecker terms via
    the mixed product: A_sum @ B_sum = sum_{k,j} (A1[k] B1[j]) (x)
    (A2[k] B2[j]).  Each side is one batched product, which the
    representation takes as its factor stack (term k*s + j)."""
    p = layer.plan
    P = (layer.A1[:, None] @ layer.B1).reshape(-1, p.a1, p.b1)
    Q = (layer.A2[:, None] @ layer.B2).reshape(-1, p.a2, p.b2)
    return SeparatedMatrix(Shape(p.w1, p.w2), np.ones(len(P)), (P, Q))
