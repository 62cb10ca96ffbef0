"""Dense matrices and Kronecker-product algebra.

Conventions fixed here and relied on everywhere else:

* matrices are 2-D C-contiguous float64 arrays (``as_matrix`` coerces and
  validates);
* ``vec``/``unvec`` use COLUMN-MAJOR stacking, which makes the identity
  ``(P (x) Q) vec(X) = vec(Q X P^T)`` hold without any transpose juggling.

That identity is what lets ``apply_kron2`` evaluate a two-factor Kronecker
operator without ever materializing it.  The private ``_kron_sum`` and
``_dense_kron_sum`` are the shared kernels that apply and form every stacked
Kronecker sum ``sum_k P[k] (x) Q[k]`` in the package.
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


def as_matrix(a, name: str = "matrix") -> Matrix:
    """Coerce to a validated 2-D float64 array (C order, finite entries)."""
    m = np.ascontiguousarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"{name} must have positive dimensions, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def as_vector(x, name: str = "vector") -> Vector:
    m = np.ascontiguousarray(x, dtype=np.float64)
    if m.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


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


def _apply2(P: Matrix, Q: Matrix, x: Vector) -> Vector:
    # unvalidated core of apply_kron2
    pr, pc = P.shape
    qr, qc = Q.shape
    X = x.reshape((qc, pc), order="F")
    if qc * pc * pr + qr * qc * pr <= qr * qc * pc + qr * pc * pr:
        Y = Q @ (X @ P.T)
    else:
        Y = (Q @ X) @ P.T
    return Y.reshape(-1, order="F")


def _dense_kron_sum(P: np.ndarray, Q: np.ndarray) -> Matrix:
    # unvalidated sum_k P[k] (x) Q[k]: the rank-s product of the flattened
    # stacks holds entry [(i, a), (j, b)] of the sum at [(i, j), (a, b)]
    s, pr, pc = P.shape
    qr, qc = Q.shape[1:]
    R = P.reshape(s, pr * pc).T @ Q.reshape(s, qr * qc)
    return R.reshape(pr, pc, qr, qc).transpose(0, 2, 1, 3).reshape(
        pr * qr, pc * qc)


def _kron_sum(P: np.ndarray, Q: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """sum_k P[k] @ Z[i] @ Q[k]^T for every i.

    P is (s, pr, pc), Q is (s, qr, qc), Z is (n, pc, qc); the result is
    (n, pr, qr).  Flattened row-major, this applies sum_k P[k] (x) Q[k]
    to every row.  One GEMM against the stacked Q forms all Z[i] Q[k]^T;
    the side-by-side P then contracts over (k, row) in one batched
    matmul, so the sum over k needs no pass of its own.
    """
    s, pr, pc = P.shape
    qr, qc = Q.shape[1:]
    n = Z.shape[0]
    T = Z.reshape(n * pc, qc) @ Q.reshape(s * qr, qc).T
    T = T.reshape(n, pc, s, qr).transpose(0, 2, 1, 3).reshape(n, s * pc, qr)
    return P.transpose(1, 0, 2).reshape(pr, s * pc) @ T


def apply_kron2(P, Q, x) -> Vector:
    """Compute (P (x) Q) @ x without materializing the Kronecker product.

    Uses y = vec(Q @ unvec(x) @ P^T); the two matrix products are ordered
    to minimize flops.
    """
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
    """Flop count of ``apply_kron2`` (2 flops per multiply-add), for the
    cheaper of the two product orders."""
    pr, pc = p_shape
    qr, qc = q_shape
    right_first = 2 * qc * pc * pr + 2 * qr * qc * pr
    left_first = 2 * qr * qc * pc + 2 * qr * pc * pr
    return min(right_first, left_first)
