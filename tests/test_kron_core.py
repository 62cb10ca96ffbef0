"""Kronecker algebra against the naive block-expansion oracle."""

import numpy as np
import pytest

from lsradapt import (
    Shape,
    apply_kron2,
    apply_kron2_flops,
    apply_kron2_transpose,
    as_matrix,
    as_vector,
    forward,
    init,
    kron,
    kron_multi,
    plan_shapes,
    unvec,
    vec,
)
from lsradapt.kron_core import _project, _rearrange

from oracles import naive_kron, naive_rearrange, rel_err

# (m1, c1, m2, c2): a factor pair m1 x c1 and m2 x c2, or a matrix of
# (m1*m2) x (c1*c2) blocks; prime dimensions only split as p x 1
SHAPES = pytest.mark.parametrize(
    "dims", [(3, 5, 4, 2), (4, 4, 3, 3), (1, 6, 1, 5), (7, 1, 13, 1),
             (13, 1, 1, 7)],
    ids=["rect", "square", "1xn", "prime7x13", "prime13x7"])


class TestKron:
    def test_identity_factors(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_scalar_factors(self):
        assert np.array_equal(kron([[2.0]], [[3.0]]), [[6.0]])

    def test_block_expansion(self):
        got = kron([[1.0, 2.0], [3.0, 4.0]], [[0.0, 1.0], [1.0, 0.0]])
        # frozen from the double-loop oracle
        want = [[0, 1, 0, 2], [1, 0, 2, 0], [0, 3, 0, 4], [3, 0, 4, 0]]
        assert np.array_equal(got, want)

    def test_matches_naive_oracle(self):
        g = np.random.default_rng(3)
        for _ in range(20):
            U = g.normal(size=tuple(g.integers(1, 6, size=2)))
            V = g.normal(size=tuple(g.integers(1, 6, size=2)))
            assert np.array_equal(kron(U, V), naive_kron(U, V))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            kron([[np.nan]], [[1.0]])


class TestKronMulti:
    def test_single_factor(self):
        M = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(kron_multi([M]), M)

    def test_identity_chain(self):
        assert np.array_equal(kron_multi([np.eye(2)] * 3), np.eye(8))

    def test_fold_order_irrelevant(self):
        g = np.random.default_rng(4)
        A, B, C = (g.normal(size=(2, 2)) for _ in range(3))
        left = kron(kron(A, B), C)
        right = kron(A, kron(B, C))
        assert np.array_equal(kron_multi([A, B, C]), left)
        assert rel_err(right, left) <= 1e-12

    def test_empty_list(self):
        with pytest.raises(ValueError):
            kron_multi([])


class TestVecUnvec:
    def test_column_major(self):
        assert np.array_equal(vec([[1.0, 2.0], [3.0, 4.0]]), [1, 3, 2, 4])

    def test_unvec_inverse(self):
        assert np.array_equal(unvec([1.0, 3.0, 2.0, 4.0], Shape(2, 2)),
                              [[1, 2], [3, 4]])

    def test_row_matrix(self):
        row = [[5.0, 6.0, 7.0]]
        assert np.array_equal(vec(row), [5, 6, 7])

    def test_roundtrip_bit_exact(self):
        g = np.random.default_rng(5)
        for _ in range(20):
            rows, cols = g.integers(1, 9, size=2)
            M = g.normal(size=(rows, cols))
            assert np.array_equal(unvec(vec(M), Shape(rows, cols)), M)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            unvec([1.0, 2.0, 3.0], Shape(2, 2))


class TestApplyKron2:
    def test_identity_operator(self):
        x = np.arange(6.0)
        assert np.array_equal(apply_kron2(np.eye(2), np.eye(3), x), x)

    def test_matches_materialized(self):
        g = np.random.default_rng(6)
        P = g.normal(size=(3, 2))
        Q = g.normal(size=(4, 3))
        x = g.normal(size=6)
        want = naive_kron(P, Q) @ x
        assert rel_err(apply_kron2(P, Q, x), want) <= 1e-12

    def test_scalar_left_factor(self):
        g = np.random.default_rng(7)
        Q = g.normal(size=(3, 4))
        x = g.normal(size=4)
        assert rel_err(apply_kron2([[2.0]], Q, x), 2.0 * (Q @ x)) <= 1e-14

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            apply_kron2(np.eye(2), np.eye(3), np.ones(5))

    def test_transpose_identity(self):
        gvec = np.arange(4.0)
        assert np.array_equal(
            apply_kron2_transpose(np.eye(2), np.eye(2), gvec), gvec)

    def test_transpose_matches_materialized(self):
        g = np.random.default_rng(8)
        P = g.normal(size=(3, 2))
        Q = g.normal(size=(4, 3))
        gvec = g.normal(size=12)
        want = naive_kron(P, Q).T @ gvec
        assert rel_err(apply_kron2_transpose(P, Q, gvec), want) <= 1e-12

    def test_transpose_equals_forward_for_symmetric(self):
        g = np.random.default_rng(9)
        P = g.normal(size=(3, 3))
        P = P + P.T
        Q = g.normal(size=(2, 2))
        Q = Q + Q.T
        x = g.normal(size=6)
        assert np.array_equal(apply_kron2_transpose(P, Q, x),
                              apply_kron2(P, Q, x))

    def test_flop_count_is_cheaper_order(self):
        assert apply_kron2_flops((2, 32), (2, 24)) == min(
            2 * 24 * 32 * 2 + 2 * 2 * 24 * 2,
            2 * 2 * 24 * 32 + 2 * 2 * 32 * 2)


class TestSharedRearrangement:
    """The one index map beneath the Kronecker-sum kernels, and the
    kernels that use it, against loop oracles."""

    @SHAPES
    def test_matches_loop_oracle_and_is_its_own_inverse(self, dims):
        m1, c1, m2, c2 = dims
        D = np.random.default_rng(sum(dims)).normal(size=(m1 * m2, c1 * c2))
        R = _rearrange(D, m1, c1, m2, c2)
        assert np.array_equal(R, naive_rearrange(D, m1, c1, m2, c2))
        assert np.array_equal(_rearrange(R, m1, m2, c1, c2), D)

    @SHAPES
    @pytest.mark.parametrize("s", [1, 3])
    def test_project_is_adjoint_of_dense_kron_sum(self, dims, s):
        m1, c1, m2, c2 = dims
        g = np.random.default_rng(10 * sum(dims) + s)
        P, dP = g.normal(size=(2, s, m1, c1))
        Q, dQ = g.normal(size=(2, s, m2, c2))
        D = g.normal(size=(m1 * m2, c1 * c2))
        tangent = sum(naive_kron(dP[k], Q[k]) + naive_kron(P[k], dQ[k])
                      for k in range(s))
        want = np.sum(D * tangent)
        gP, gQ = _project(D, P, Q)
        got = np.sum(gP * dP) + np.sum(gQ * dQ)
        assert abs(got - want) <= 1e-12 * abs(want)

    @SHAPES
    def test_apply_kron2_matches_naive_kron(self, dims):
        m1, c1, m2, c2 = dims
        g = np.random.default_rng(20 * sum(dims))
        P = g.normal(size=(m1, c1))
        Q = g.normal(size=(m2, c2))
        K = naive_kron(P, Q)
        x = g.normal(size=c1 * c2)
        y = g.normal(size=m1 * m2)
        assert rel_err(apply_kron2(P, Q, x), K @ x) <= 1e-12
        assert rel_err(apply_kron2_transpose(P, Q, y), K.T @ y) <= 1e-12


class TestIdentities:
    """Spot checks of the algebraic identity suite (the acceptance module
    runs the full 200-trial version)."""

    def test_transpose_rule_elementwise_exact(self):
        g = np.random.default_rng(10)
        for _ in range(50):
            B = g.normal(size=tuple(g.integers(1, 9, size=2)))
            C = g.normal(size=tuple(g.integers(1, 9, size=2)))
            assert np.array_equal(kron(B, C).T, kron(B.T, C.T))

    def test_mixed_product(self):
        g = np.random.default_rng(11)
        for _ in range(50):
            m, n, k, p, q, t = g.integers(1, 5, size=6)
            B = g.normal(size=(m, n))
            D = g.normal(size=(n, k))
            C = g.normal(size=(p, q))
            E = g.normal(size=(q, t))
            assert rel_err(kron(B, C) @ kron(D, E),
                           kron(B @ D, C @ E)) <= 1e-12

    def test_associativity(self):
        g = np.random.default_rng(12)
        for _ in range(50):
            B, C, D = (g.normal(size=tuple(g.integers(1, 5, size=2)))
                       for _ in range(3))
            assert rel_err(kron(B, kron(C, D)), kron(kron(B, C), D)) <= 1e-12

    def test_norm_multiplicativity(self):
        g = np.random.default_rng(13)
        for _ in range(50):
            B = g.normal(size=tuple(g.integers(1, 9, size=2)))
            C = g.normal(size=tuple(g.integers(1, 9, size=2)))
            prod = np.linalg.norm(B) * np.linalg.norm(C)
            assert abs(np.linalg.norm(kron(B, C)) - prod) <= 1e-12 * prod


def test_as_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        as_matrix(np.ones(3))
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.inf, 1.0]]))


def test_zero_dim_input_is_refused_by_rank():
    # a 0-d array is not promoted to a length-1 vector anywhere
    with pytest.raises(ValueError, match="must be 1-D, got ndim=0"):
        as_vector(3.0)
    with pytest.raises(ValueError, match="must be 2-D, got ndim=0"):
        as_matrix(3.0)
    layer = init(np.eye(4), plan_shapes(4, 4, 2), s=1)
    with pytest.raises(ValueError, match=r"x has shape \(\)"):
        forward(layer, 3.0)
