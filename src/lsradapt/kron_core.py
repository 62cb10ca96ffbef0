"""Dense matrices and Kronecker-product algebra.

Conventions fixed here and relied on everywhere else:

* matrices are 2-D C-contiguous float64 arrays with finite entries;
  ``_checked`` writes that rule once, for every array the package takes in;
* every internal kernel is ROW-MAJOR: (P (x) Q) x is P X Q^T flattened,
  for X = x.reshape(P.cols, Q.cols); only the public ``vec``/``unvec``
  stack COLUMN-MAJOR, under which ``(P (x) Q) vec(X) = vec(Q X P^T)``.

``_rearrange`` is the Van Loan-Pitsianis map R[(i, j), (a, b)] =
D[(i, a), (j, b)] beneath every stacked Kronecker sum sum_k P[k] (x) Q[k]
in the package: ``_dense_kron_sum`` forms one, ``_project`` is its
adjoint (together they are all the adapter needs: it forms its two thin
factors and projects their dense gradients) and ``_kron_sum`` applies one
to a batch without forming it, for ``lsr_repr.apply`` and ``apply_kron2``.
"""

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
    array of rank ``ndim`` (any rank for None) with finite entries."""
    m = np.asarray(a, dtype=np.float64, order="C")
    if ndim is not None and m.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-D, got ndim={m.ndim}")
    if not np.isfinite(m).all():
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


def kron(U, V) -> Matrix:
    """Kronecker product: block matrix whose (i, j) block is U[i, j] * V."""
    U = as_matrix(U, "U")
    V = as_matrix(V, "V")
    if U.shape[0] * V.shape[0] > _MAX_INDEX or U.shape[1] * V.shape[1] > _MAX_INDEX:
        raise ValueError("kron result exceeds platform index range")
    return np.kron(U, V)


def kron_multi(factors) -> Matrix:
    """Left fold of ``kron`` over a non-empty factor list.

    Associativity makes the fold order irrelevant for the result.
    """
    factors = list(factors)
    if not factors:
        raise ValueError("kron_multi requires at least one factor")
    out = as_matrix(factors[0], "factor 0")
    for i, f in enumerate(factors[1:], start=1):
        out = kron(out, as_matrix(f, f"factor {i}"))
    return out


def vec(M) -> Vector:
    """Column-major stacking: columns of M top-to-bottom, left-to-right."""
    return as_matrix(M, "M").reshape(-1, order="F").copy()


def unvec(x, shape: Shape) -> Matrix:
    """Inverse of ``vec`` for the given target shape."""
    x = as_vector(x, "x")
    rows, cols = int(shape[0]), int(shape[1])
    if rows < 1 or cols < 1:
        raise ValueError(f"unvec target shape must be positive, got {shape}")
    if x.size != rows * cols:
        raise ValueError(f"unvec length mismatch: {x.size} != {rows}*{cols}")
    return np.ascontiguousarray(x.reshape((rows, cols), order="F"))


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


def _kron_sum(P_wide: Matrix, Q: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """sum_k P[k] @ Z[i] @ Q[k]^T for every i, given P side by side
    (``P_wide = _side_by_side(P)``, so a caller applying one P often
    forms it once).

    P is (s, pr, pc), Q is (s, qr, qc), Z is (n, pc, qc); the result is
    (n, pr, qr).  Flattened row-major, this applies sum_k P[k] (x) Q[k]
    to every row.  One GEMM against the stacked Q forms all Z[i] Q[k]^T,
    ``_rearrange`` groups them by (i, k), and the side-by-side P then
    contracts over (k, row) in one batched matmul, so the sum over k
    needs no pass of its own.
    """
    s, qr, qc = Q.shape
    n, pc = Z.shape[:2]
    T = _rearrange(Z.reshape(n * pc, qc) @ Q.reshape(s * qr, qc).T,
                   n, s, pc, qr).reshape(n, s * pc, qr)
    return P_wide @ T


def _apply2(P: Matrix, Q: Matrix, x: Vector) -> Vector:
    # unvalidated core of apply_kron2: _kron_sum on a stack of one, whose
    # side-by-side form is P itself
    return _kron_sum(P, Q[None],
                     x.reshape(1, P.shape[1], Q.shape[1])).reshape(-1)


def apply_kron2(P, Q, x) -> Vector:
    """Compute (P (x) Q) @ x without materializing the Kronecker product:
    y = P X Q^T for the row-major X = x.reshape(P.cols, Q.cols)."""
    P = as_matrix(P, "P")
    Q = as_matrix(Q, "Q")
    x = as_vector(x, "x")
    if x.size != P.shape[1] * Q.shape[1]:
        raise ValueError(
            f"apply_kron2 length mismatch: {x.size} != "
            f"{P.shape[1]}*{Q.shape[1]}")
    return np.ascontiguousarray(_apply2(P, Q, x))


def apply_kron2_transpose(P, Q, g) -> Vector:
    """Compute (P (x) Q)^T @ g, i.e. (P^T (x) Q^T) @ g, matrix-free."""
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
