"""Dense matrices and Kronecker-product algebra.

Conventions fixed here and relied on everywhere else:

* matrices are 2-D C-contiguous float64 arrays with finite entries;
  ``_checked`` writes that rule once, for every array the package takes
  in, and names the array it refuses, a ragged one included;
* a linear map takes ``x`` as an (n, cols) batch, one input per row, or
  as one vector of length cols (a batch of one) and answers in kind;
  ``_as_batch`` writes that rule once, for ``apply_kron2`` (and so its
  transpose), ``lsr_repr.apply`` and the adapter's ``forward`` and
  ``backward``;
* a split ``left (x) right`` of a matrix has positive factor sizes whose
  products are the matrix's shape; ``_check_split`` writes that rule
  once, for ``lsr_repr.rearrange``, the Kronecker-sum plant and the
  adapter's ``ShapePlan``;
* every map, public or private, is ROW-MAJOR: (P (x) Q) x is P X Q^T
  flattened, for X = x.reshape(P.cols, Q.cols), and the rearrangement
  takes P (x) Q to the outer product of P and Q flattened row-major.

``_rearrange`` is the Van Loan-Pitsianis map R[(i, j), (a, b)] =
D[(i, a), (j, b)] beneath ``lsr_repr.rearrange`` and the dense stacked
Kronecker sums sum_k P[k] (x) Q[k] in the package: ``_dense_kron_sum``
forms one and ``_project`` is its adjoint (together they are all the
adapter needs: it forms its two thin factors and projects their dense
gradients).  ``_kron_sum`` applies one to a batch without forming it,
for ``lsr_repr.apply`` and ``apply_kron2``: one batched matmul against
the per-term transposed Q stack, then one against P side by side, with
no rearrangement copy between them.
"""

import math
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

Matrix = NDArray[np.float64]
Vector = NDArray[np.float64]

_MAX_INDEX = np.iinfo(np.intp).max


class Shape(NamedTuple):
    rows: int
    cols: int


def _checked(a, name: str, ndim: int | None) -> np.ndarray:
    """The package's one array rule: ``a`` as a C-contiguous float64
    array of rank ``ndim`` (any rank for None) with finite entries; an
    ``a`` numpy cannot read as one rectangular array of real numbers (an
    entry with no float value included), or a complex one (whose cast to
    float64 would drop the imaginary part), is refused by name."""
    try:
        m = np.asarray(a)
        is_complex = m.dtype.kind == "c"
        if not is_complex:
            m = np.asarray(m, dtype=np.float64, order="C")
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} is not a rectangular float64 array: "
                         f"{exc}") from exc
    if is_complex:
        raise ValueError(f"{name} is complex, not a real float64 array")
    if ndim is not None and m.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-D, got ndim={m.ndim}")
    # a finite sum of squares has only finite terms, so the exact test
    # runs only when np.vdot (which, unlike @, never warns) is not finite
    if not math.isfinite(np.vdot(m, m)) and not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def as_matrix(a, name: str = "matrix") -> Matrix:
    """Coerce to a validated 2-D float64 array (C order, finite entries)."""
    m = _checked(a, name, 2)
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"{name} must have positive dimensions, got {m.shape}")
    return m


def as_vector(x, name: str = "vector") -> Vector:
    return _checked(x, name, 1)


def _as_batch(x, width: int, name: str = "x") -> tuple[np.ndarray, bool]:
    """The one rule for what a linear map takes: ``x`` as a checked
    (n, width) batch, and whether it was a single 1-D vector (a batch of
    one, returned as (1, width))."""
    b = _checked(x, name, None)
    single = b.ndim == 1
    if single:
        if b.size != width:
            raise ValueError(f"{name} has length {b.size}, expected {width}")
        b = b[None]
    elif b.ndim != 2 or b.shape[1] != width:
        raise ValueError(f"{name} has shape {b.shape}, expected (n, {width})")
    return b, single


def _check_split(left, right, shape, name: str) -> None:
    """The one rule for a split ``left (x) right`` of a matrix of the
    given (rows, cols) shape: positive factor sizes, and
    left.rows * right.rows, left.cols * right.cols equal to the shape."""
    (lr, lc), (rr, rc) = left, right
    split = f"{name} split {lr}x{lc} (x) {rr}x{rc}"
    if min(lr, lc, rr, rc) < 1:
        raise ValueError(f"{split} must have positive sizes")
    if (lr * rr, lc * rc) != tuple(shape):
        raise ValueError(f"{split} is {lr * rr}x{lc * rc}, not "
                         f"{shape[0]}x{shape[1]}")


def kron(U, V) -> Matrix:
    """Kronecker product: block matrix whose (i, j) block is U[i, j] * V."""
    U = as_matrix(U, "U")
    V = as_matrix(V, "V")
    if U.shape[0] * V.shape[0] > _MAX_INDEX or U.shape[1] * V.shape[1] > _MAX_INDEX:
        raise ValueError("kron result exceeds platform index range")
    return np.kron(U, V)


def _rearrange(D: np.ndarray, m1: int, c1: int, m2: int, c2: int) -> Matrix:
    """Unvalidated R[(i, j), (a, b)] = D[(i, a), (j, b)] for a D of
    (m1*m2) x (c1*c2); its own inverse with the shape pairs swapped:
    _rearrange(R, m1, m2, c1, c2) is D."""
    return D.reshape(m1, m2, c1, c2).transpose(0, 2, 1, 3).reshape(
        m1 * c1, m2 * c2)


def _dense_kron_sum(P: np.ndarray, Q: np.ndarray) -> Matrix:
    # unvalidated sum_k P[k] (x) Q[k]: the rearranged rank-s product
    s, pr, pc = P.shape
    qr, qc = Q.shape[1:]
    return _rearrange(P.reshape(s, pr * pc).T @ Q.reshape(s, qr * qc),
                      pr, qr, pc, qc)


def _project(D: Matrix, F1: np.ndarray, F2: np.ndarray, out=None):
    """Gradients of <D, sum_k F1[k] (x) F2[k]> with respect to both
    stacks (the adjoint of ``_dense_kron_sum``): one product of the
    rearranged D with each flattened stack, written into ``out`` (a pair
    of C-contiguous arrays shaped like F1 and F2) when it is given."""
    s, m1, c1 = F1.shape
    m2, c2 = F2.shape[1:]
    R = _rearrange(D, m1, c1, m2, c2)
    d1, d2 = out or (np.empty(F1.shape), np.empty(F2.shape))
    np.matmul(F2.reshape(s, -1), R.T, out=d1.reshape(s, -1))
    np.matmul(F1.reshape(s, -1), R, out=d2.reshape(s, -1))
    return d1, d2


def _side_by_side(P: np.ndarray) -> Matrix:
    """The (s, pr, pc) stack P as one (pr, s * pc) matrix
    [P[0] P[1] ... P[s-1]]: the left operand of ``_kron_sum``."""
    s, pr, pc = P.shape
    return P.transpose(1, 0, 2).reshape(pr, s * pc)


def _kron_sum(P_wide: Matrix, Qt: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """sum_k P[k] @ Z[i] @ Q[k]^T for every i, given P side by side
    (``P_wide = _side_by_side(P)``) and Q transposed per term
    (``Qt[k] = Q[k].T``), so a caller applying one pair often forms both
    operands once.

    P is (s, pr, pc), Q is (s, qr, qc), Z is (n, pc, qc); the result is
    (n, pr, qr).  Flattened row-major, this applies sum_k P[k] (x) Q[k]
    to every row.  One batched matmul forms every Z[i] Q[k]^T, already
    grouped by (i, k); flattened to (n, s * pc, qr) without a copy, the
    side-by-side P contracts it over (k, row) in a second batched matmul,
    so the sum over k needs no pass of its own.
    """
    s, _, qr = Qt.shape
    n, pc = Z.shape[:2]
    return P_wide @ (Z[:, None] @ Qt).reshape(n, s * pc, qr)


def _apply2(P: Matrix, Q: Matrix, X: np.ndarray) -> np.ndarray:
    # unvalidated core of apply_kron2, (n, P.cols * Q.cols) rows in and
    # (n, P.rows * Q.rows) out: _kron_sum on a stack of one, whose
    # side-by-side form is P itself
    n = len(X)
    return _kron_sum(P, Q.T[None], X.reshape(n, P.shape[1], Q.shape[1])
                     ).reshape(n, P.shape[0] * Q.shape[0])


def apply_kron2(P, Q, x) -> np.ndarray:
    """Compute (P (x) Q) @ x without materializing the Kronecker product:
    y = P X Q^T for the row-major X = x.reshape(P.cols, Q.cols).  x is
    one vector or an (n, P.cols * Q.cols) batch (``_as_batch``); the
    result is a vector or one row per input to match."""
    P = as_matrix(P, "P")
    Q = as_matrix(Q, "Q")
    X, single = _as_batch(x, P.shape[1] * Q.shape[1])
    Y = _apply2(P, Q, X)
    return Y[0] if single else Y


def apply_kron2_transpose(P, Q, g) -> np.ndarray:
    """Compute (P (x) Q)^T @ g, i.e. (P^T (x) Q^T) @ g, matrix-free, for
    one vector or a batch of them."""
    return apply_kron2(np.transpose(P), np.transpose(Q), g)


def apply_kron2_flops(p_shape, q_shape) -> int:
    """Flop model of a two-factor Kronecker apply (2 flops per
    multiply-add) in the cheaper of its two product orders; the kernel
    itself always uses one fixed order."""
    pr, pc = p_shape
    qr, qc = q_shape
    right_first = 2 * qc * pc * pr + 2 * qr * qc * pr
    left_first = 2 * qr * qc * pc + 2 * qr * pc * pr
    return min(right_first, left_first)
