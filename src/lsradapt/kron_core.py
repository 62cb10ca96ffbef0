"""Dense matrices and Kronecker-product algebra.

Conventions fixed here and relied on everywhere else:

* matrices are 2-D C-contiguous float64 arrays (``as_matrix`` coerces and
  validates);
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


def _project(D: Matrix, F1: np.ndarray, F2: np.ndarray):
    """Gradients of <D, sum_k F1[k] (x) F2[k]> with respect to both
    stacks (the adjoint of ``_dense_kron_sum``): one product of the
    rearranged D with each flattened stack."""
    s, m1, c1 = F1.shape
    m2, c2 = F2.shape[1:]
    R = _rearrange(D, m1, c1, m2, c2)
    return ((F2.reshape(s, -1) @ R.T).reshape(F1.shape),
            (F1.reshape(s, -1) @ R).reshape(F2.shape))


def _kron_sum(P: np.ndarray, Q: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """sum_k P[k] @ Z[i] @ Q[k]^T for every i.

    P is (s, pr, pc), Q is (s, qr, qc), Z is (n, pc, qc); the result is
    (n, pr, qr).  Flattened row-major, this applies sum_k P[k] (x) Q[k]
    to every row.  One GEMM against the stacked Q forms all Z[i] Q[k]^T,
    ``_rearrange`` groups them by (i, k), and the side-by-side P then
    contracts over (k, row) in one batched matmul, so the sum over k
    needs no pass of its own.
    """
    s, pr, pc = P.shape
    qr, qc = Q.shape[1:]
    n = Z.shape[0]
    T = _rearrange(Z.reshape(n * pc, qc) @ Q.reshape(s * qr, qc).T,
                   n, s, pc, qr).reshape(n, s * pc, qr)
    return P.transpose(1, 0, 2).reshape(pr, s * pc) @ T


def _apply2(P: Matrix, Q: Matrix, x: Vector) -> Vector:
    # unvalidated core of apply_kron2: _kron_sum on a stack of one
    return _kron_sum(P[None], Q[None],
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
