"""Separated (Kronecker-sum) representations of dense matrices.

A ``SeparatedMatrix`` stores a target shape plus terms ``weight * F1 (x)
F2 (x) ... (x) Fr``; the number of terms is the separation rank.  Besides
construction and evaluation, this module provides:

* conditioning diagnostics (``condition_number``, ``check_precision``,
  and ``diagnose``, which takes both from one materialization),
* the row-major block rearrangement ``rearrange`` under which every
  Kronecker product P (x) Q becomes the rank-1 outer product of P and Q
  flattened row-major, so that a truncated SVD of the rearranged matrix
  yields the Frobenius-optimal sum-of-Kronecker approximation with fixed
  two-factor shapes (``nearest_kron_sum``),
* that truncated SVD (``truncated_svd``): a block subspace iteration
  that returns its result only when it certifies it, with an exact SVD
  as the fallback.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .kron_core import (
    Matrix,
    Shape,
    Vector,
    _as_batch,
    _check_split,
    _checked,
    _dense_kron_sum,
    _kron_sum,
    _rearrange,
    _side_by_side,
    as_matrix,
)
from .rng import rng_stream


class NumericalError(RuntimeError):
    """A numerical routine failed to converge or produced invalid output."""


@dataclass(frozen=True, eq=False)
class KronTerm:
    """One summand weight * (x)_i factors[i] of a separated representation:
    the record that ``SeparatedMatrix.terms`` yields."""

    weight: float
    factors: tuple[Matrix, ...]


@dataclass(frozen=True, eq=False)
class SeparatedMatrix:
    """Target shape plus s Kronecker terms as read-only copies: ``weights``
    (s,) and per factor position i ``stacks[i]`` (s, rows_i, cols_i).

    ``__post_init__`` is the only check.  It runs ``_checked`` once on a
    C-contiguous float64 copy of the weights and once on a copy of each
    stack, so a caller's array is never frozen or aliased; every stack
    must hold s terms, s > 0 needs at least one stack, and the factors must
    multiply out to ``shape``.  A representation without terms keeps no
    stacks."""

    shape: Shape
    weights: Vector = ()
    stacks: tuple[np.ndarray, ...] = ()

    def __post_init__(self):
        shape = Shape(int(self.shape[0]), int(self.shape[1]))
        if shape.rows < 1 or shape.cols < 1:
            raise ValueError(f"shape must be positive, got {shape}")
        weights = _checked(self.weights, "weights", 1).copy()
        stacks = tuple(_checked(F, f"factor {i} stack", 3).copy()
                       for i, F in enumerate(self.stacks))
        s = len(weights)
        if any(len(F) != s for F in stacks) or s and not stacks:
            raise ValueError(f"{s} weights need at least one stack of {s} "
                             f"terms each, got {[len(F) for F in stacks]}")
        rows = math.prod(F.shape[1] for F in stacks)
        cols = math.prod(F.shape[2] for F in stacks)
        if stacks and (rows, cols) != shape:
            raise ValueError(f"terms materialize to {rows}x{cols}, expected "
                             f"{shape.rows}x{shape.cols}")
        stacks = stacks if s else ()
        for a in (weights, *stacks):
            a.flags.writeable = False
        self.__dict__.update(shape=shape, weights=weights, stacks=stacks)

    @property
    def separation_rank(self) -> int:
        return len(self.weights)

    @cached_property
    def terms(self) -> tuple[KronTerm, ...]:
        """One ``KronTerm`` per term; its factors are slices of ``stacks``."""
        return tuple(map(KronTerm, self.weights.tolist(), zip(*self.stacks)))

    @cached_property
    def _pair(self) -> tuple[np.ndarray, np.ndarray]:
        """(P, Q) with materialize(self) = sum_k P[k] (x) Q[k]: P the
        weighted Kronecker product of all factors but the last, Q the last
        (1x1 ones for one-factor terms); stacks of length zero if empty."""
        s = self.separation_rank
        if not s:
            return np.zeros((0, *self.shape)), np.zeros((0, 1, 1))
        P, *rest = self.stacks
        Q = rest.pop() if rest else np.ones((s, 1, 1))
        for F in rest:
            P = np.einsum("kij,kab->kiajb", P, F).reshape(
                s, P.shape[1] * F.shape[1], -1)
        return self.weights[:, None, None] * P, Q

    @cached_property
    def _pair_wide(self) -> tuple[np.ndarray, np.ndarray]:
        """The operands of every ``apply``: ``_pair``'s P side by side and
        its Q transposed per term, C-contiguous."""
        P, Q = self._pair
        return _side_by_side(P), np.ascontiguousarray(Q.transpose(0, 2, 1))


@dataclass(frozen=True)
class PrecisionBudget:
    """Round-off of the target arithmetic and the tolerated approximation
    error (e.g. mu = 2**-11 for 16-bit arithmetic)."""

    mu: float
    epsilon: float

    def __post_init__(self):
        if not 0.0 < self.mu < math.inf:
            raise ValueError("mu must be positive and finite")
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")


# rows of its result materialize forms at a time (at least one row of P)
_MATERIALIZE_ROWS = 64


def materialize(S: SeparatedMatrix) -> Matrix:
    """Dense sum of all weighted Kronecker terms (zero matrix if empty),
    filled one block of ``_pair``'s P rows at a time so that no temporary
    of the whole result is built."""
    P, Q = S._pair
    out = np.empty(S.shape)
    qr = Q.shape[1]
    step = max(1, _MATERIALIZE_ROWS // qr)
    for i in range(0, P.shape[1], step):
        out[i * qr:(i + step) * qr] = _dense_kron_sum(P[:, i:i + step], Q)
    return out


def apply(S: SeparatedMatrix, x) -> np.ndarray:
    """Matrix-free materialize(S) @ x for every factor count (``_kron_sum``
    on the stacks of ``S._pair``, with both of its operands formed once per
    representation).  x is one vector or an (n, cols) batch, checked once
    here by ``kron_core._as_batch``; the result is a vector or one row per
    input to match.  The stacks were checked when S was built."""
    X, single = _as_batch(x, S.shape.cols)
    P_wide, Qt = S._pair_wide
    n, qc = len(X), Qt.shape[1]
    Y = _kron_sum(P_wide, Qt, X.reshape(n, S.shape.cols // qc, qc))
    return Y.reshape(-1) if single else Y.reshape(n, S.shape.rows)


def diagnose(S: SeparatedMatrix, budgets) -> tuple[Matrix, float, list[bool]]:
    """Materialize S once and return the dense matrix, the condition number
    gamma (``condition_number``) and, per ``PrecisionBudget``, whether the
    precision rule ``gamma * mu * ||M||_F <= epsilon`` holds (inclusive).

    The materialization counts as zero, and gamma as undefined, when its
    Frobenius norm is within materialize's own round-off bound
    ``(s + order) * eps * sum_k |w_k| prod_i ||F_ki||_F``: terms that cancel
    exactly in exact arithmetic leave only that residue.

    A representation whose materialization, round-off bound or weight
    norm overflows float64 is a ``NumericalError``: neither its norm nor
    its cancellation can be told."""
    with np.errstate(over="ignore", invalid="ignore"):
        dense = materialize(S)
        fro = float(np.linalg.norm(dense))
        norms = math.prod(np.linalg.norm(F, axis=(1, 2)) for F in S.stacks)
        bound = (S.separation_rank + len(S.stacks)) * float(
            np.sum(np.abs(S.weights) * norms))
        weight_sq = float(np.sum(S.weights * S.weights))
    for name, value in (("materialization", fro), ("round-off bound", bound),
                        ("term-weight norm", weight_sq)):
        if not math.isfinite(value):
            raise NumericalError(f"representation overflows float64: its "
                                 f"{name} is not finite")
    if fro <= np.finfo(np.float64).eps * bound:
        raise ZeroDivisionError(
            "condition number undefined: representation materializes to the "
            "zero matrix (terms cancel or are empty)")
    gamma = math.sqrt(weight_sq) / fro
    return dense, gamma, [bool(gamma * b.mu * fro <= b.epsilon)
                          for b in budgets]


def condition_number(S: SeparatedMatrix) -> float:
    """Ratio of the term-weight l2 norm to the Frobenius norm of the
    materialized matrix (cancellation indicator for the representation)."""
    return diagnose(S, ())[1]


def check_precision(S: SeparatedMatrix, budget: PrecisionBudget) -> bool:
    """True when the representation meets the precision rule
    ``gamma * mu * ||M||_F <= epsilon`` (inclusive)."""
    return diagnose(S, (budget,))[2][0]


def normalize_terms(S: SeparatedMatrix) -> SeparatedMatrix:
    """Rescale every factor to unit Frobenius norm, folding magnitudes into
    the term weights (sign absorbed into the first factor), and sort terms
    by descending weight (stably).  Exactly-zero-weight terms are dropped.
    The materialization is unchanged.
    """
    norms = [np.linalg.norm(F, axis=(1, 2)) for F in S.stacks]
    k = np.flatnonzero(np.any(np.equal(norms, 0.0), axis=0))
    if k.size:
        raise ValueError(f"term {k[0]} is degenerate: factor with zero norm")
    with np.errstate(over="ignore"):
        weights = S.weights * math.prod(norms)
    k = np.flatnonzero(np.isinf(weights))
    if k.size:
        raise ValueError(f"term {k[0]} weight overflows float64 when its "
                         f"factor norms are folded in")
    if norms:  # F / -n is -(F / n) exactly
        norms[0] = np.copysign(norms[0], weights)
    stacks = [F / n[:, None, None] for F, n in zip(S.stacks, norms)]
    keep = np.flatnonzero(weights)
    keep = keep[np.argsort(-np.abs(weights[keep]), kind="stable")]
    return SeparatedMatrix(S.shape, np.abs(weights[keep]),
                           tuple(F[keep] for F in stacks))


def rearrange(M, left: Shape, right: Shape) -> Matrix:
    """Block rearrangement R(M) with R(P (x) Q) the outer product of
    P.ravel() and Q.ravel(), a C-contiguous (left.rows * left.cols) x
    (right.rows * right.cols) array.

    Row i*left.cols + j of the result is block(i, j) flattened row-major,
    where block(i, j) is the (right.rows x right.cols) block of M at block
    position (i, j): the checked ``kron_core._rearrange``.
    """
    M = as_matrix(M, "M")
    lr, lc = int(left[0]), int(left[1])
    rr, rc = int(right[0]), int(right[1])
    _check_split((lr, lc), (rr, rc), M.shape, "factor shape")
    return np.ascontiguousarray(_rearrange(M, lr, lc, rr, rc))


def truncated_svd(M, k: int) -> tuple[Matrix, Vector, Matrix]:
    """Rank-k truncated SVD: U (cols orthonormal), sigma (non-increasing,
    non-negative), V (cols orthonormal) with M ~= U @ diag(sigma) @ V.T
    the best rank-k Frobenius approximation.

    A block subspace iteration (``_block_svd``) runs first and its result
    is returned only when it certifies itself; otherwise, for example
    when k + ``_OVERSAMPLE`` >= min(rows, cols), for rank-deficient input
    or a spectrum without a gap after sigma_k, the exact ``_tall_svd``
    runs.  Neither forms the full left basis; a wide M goes through its
    transpose.  The output is a deterministic function of M and k.
    """
    M = as_matrix(M, "M")
    rows, cols = M.shape
    if not 1 <= k <= min(rows, cols):
        raise ValueError(f"k={k} out of range for {rows}x{cols}")
    tall = M if rows >= cols else M.T
    try:
        svd = _block_svd(tall, k) or _tall_svd(tall, k)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed to converge: {exc}") from exc
    if svd is None or not all(np.isfinite(a).all() for a in svd):
        raise NumericalError(f"singular values of the {rows}x{cols} input "
                             "overflow float64")
    U, sigma, V = svd
    return (U, sigma, V) if rows >= cols else (V, sigma, U)


# block subspace iteration of ``_block_svd`` (Halko, Martinsson & Tropp,
# SIAM Review 2011): sketch width k + _OVERSAMPLE, _POWER_STEPS products
# with M^T M, acceptance at _CERTIFY_EPS * eps * sigma_1
_OVERSAMPLE = 8
_POWER_STEPS = 2
_CERTIFY_EPS = 64


def _block_svd(M, k):
    """Certified rank-k SVD of an M with rows >= cols, or None.

    A start block of l = k + _OVERSAMPLE columns from the fixed stream
    ``rng_stream(0, "truncated-svd")`` goes through M and _POWER_STEPS
    products with M^T M, with a QR at every half-step.  A Rayleigh-Ritz
    step on the final basis Q, the SVD of the small B = Q^T M, gives l
    Ritz triplets (sigma_j, u_j, v_j) with M^T u_j = sigma_j v_j by
    construction.  With tol = _CERTIFY_EPS * eps * sigma_1 they are
    accepted only when

    * every kept triplet has ||M v_i - sigma_i u_i|| <= tol, and
    * no unit x orthogonal to v_1..v_k has ||M x|| >= sigma_k + tol, so
      that sigma_{k+1}(M) < sigma_k + tol (Courant-Fischer) and no
      direction outside the kept ones outranks them.  Such an x is y in
      the span of v_{k+1}..v_l plus z orthogonal to every v_j, where
      M z = (M - QB) z; so ||M x||^2 <= max(mu, eta)^2 + gamma * eta, for
      mu = ||M [v_{k+1}..v_l]||_2, gamma the 2-norm of those triplets'
      residuals and eta >= ||M - QB||_F, taken as the root of
      ||M||_F^2 - ||B||_F^2 plus _CERTIFY_EPS * eps * ||M||_F^2 for
      its rounding.

    The second test refuses rank below k, a sigma_k under ~1e-7 ||M||_F
    and spectra with no gap after sigma_k that the iteration could
    resolve; ties within the subspace pass once their residuals converge,
    since any basis of a tied cluster is optimal.
    """
    l = k + _OVERSAMPLE
    if l >= M.shape[1]:
        return None
    # under errstate, numpy scalars throughout: an overflow gives inf or
    # nan, never a warning or an OverflowError, and fails the certificate
    with np.errstate(over="ignore", invalid="ignore"):
        Y = M @ rng_stream(0, "truncated-svd").standard_normal((M.shape[1], l))
        for _ in range(_POWER_STEPS):
            Y = M @ np.linalg.qr(M.T @ np.linalg.qr(Y)[0])[0]
        Q = np.linalg.qr(Y)[0]
        B = Q.T @ M
        if not np.isfinite(B).all():
            return None
        Ub, sigma, Vt = np.linalg.svd(B, full_matrices=False)
        U, V = Q @ Ub, Vt.T
        MV = M @ V
        residual = MV - U * sigma
        margin = _CERTIFY_EPS * np.finfo(np.float64).eps
        tol = margin * sigma[0]
        fro_sq = np.linalg.norm(M) ** 2
        eta = np.sqrt(max(fro_sq - np.linalg.norm(B) ** 2, 0.0)
                      + margin * fro_sq)
        mu = np.linalg.norm(MV[:, k:], 2)
        gamma = np.linalg.norm(residual[:, k:], 2)
        certified = (np.max(np.linalg.norm(residual[:, :k], axis=0)) <= tol
                     and max(mu, eta) ** 2 + gamma * eta
                     < (sigma[k - 1] + tol) ** 2)
    return (U[:, :k], sigma[:k], V[:, :k]) if certified else None


def _tall_svd(M, k):
    """Exact rank-k SVD of an M with rows >= cols, the fallback of
    ``truncated_svd``.  The triangle R of M = QR has M's singular values
    and right vectors, so its full SVD gives the k leading right vectors
    Vk without Q.  One Rayleigh-Ritz step on the span of M @ Vk then
    yields U (orthonormal from the QR, even for zero singular values),
    sigma and the matching rotation of Vk.  Under the errstate of
    ``_block_svd`` an overflow gives inf or nan, never a warning; a
    triangle that is not finite means M's singular values overflow
    float64, and the result is None."""
    with np.errstate(over="ignore", invalid="ignore"):
        R = np.linalg.qr(M, mode="r")
        if not np.isfinite(R).all():
            return None
        Vk = np.linalg.svd(R)[2][:k].T
        Qy, Ry = np.linalg.qr(M @ Vk)
        if not np.isfinite(Ry).all():
            return None
        Ur, sigma, Zt = np.linalg.svd(Ry)
        return Qy @ Ur, sigma, Vk @ Zt.T


def nearest_kron_sum(M, left: Shape, right: Shape, s: int) -> SeparatedMatrix:
    """Best s-term two-factor Kronecker-sum approximation of M with the
    given factor shapes (optimal in Frobenius norm).

    Terms come out normalized: unit-Frobenius factors, weights descending.
    Numerically-zero weights (below sigma_max * max_dim * eps) are dropped.
    A singular pair's sign is arbitrary, so each term's sign is fixed: the
    largest-magnitude entry of its first factor is positive (the first in
    row-major order on a tie), and the second factor flips with it.
    """
    M = as_matrix(M, "M")
    R = rearrange(M, left, right)
    if not 1 <= s <= min(R.shape):
        raise ValueError(f"s={s} out of range for rearranged {R.shape}")
    U, sigma, V = truncated_svd(R, s)
    cutoff = sigma[0] * (max(R.shape) * np.finfo(np.float64).eps)
    kept = int(np.count_nonzero(sigma > cutoff))
    # column t of U is P_t flattened row-major (V likewise for Q_t)
    P, Q = U[:, :kept].T, V[:, :kept].T
    pivot = P[np.arange(kept), np.argmax(np.abs(P), axis=1)]
    sign = np.where(pivot < 0.0, -1.0, 1.0)[:, None]
    lr, lc, rr, rc = map(int, (*left, *right))
    return SeparatedMatrix(M.shape, sigma[:kept],
                           ((sign * P).reshape(kept, lr, lc),
                            (sign * Q).reshape(kept, rr, rc)))
