"""Kronecker algebra against the naive block-expansion oracle."""

import numpy as np
import pytest

import lsradapt.adapter
from lsradapt import (
    KronSumPlant,
    SeparatedMatrix,
    Shape,
    ShapePlan,
    apply,
    apply_kron2,
    apply_kron2_flops,
    apply_kron2_transpose,
    as_matrix,
    as_vector,
    forward,
    init,
    kron,
    materialize,
    nearest_kron_sum,
    plan_shapes,
    rearrange,
    unvec,
    vec,
)
from lsradapt.kron_core import (
    _as_batch,
    _checked,
    _kron_sum,
    _project,
    _rearrange,
    _side_by_side,
)

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
    @pytest.mark.parametrize("s", [1, 3])
    @pytest.mark.parametrize("n", [1, 4])
    def test_kron_sum_matches_per_term_loop(self, dims, s, n):
        m1, c1, m2, c2 = dims
        g = np.random.default_rng(30 * sum(dims) + 4 * s + n)
        P = g.normal(size=(s, m1, c1))
        Q = g.normal(size=(s, m2, c2))
        Z = g.normal(size=(n, c1, c2))
        want = np.array([sum(P[k] @ Z[i] @ Q[k].T for k in range(s))
                         for i in range(n)])
        Qt = np.ascontiguousarray(Q.transpose(0, 2, 1))
        got = _kron_sum(_side_by_side(P), Qt, Z)
        assert got.shape == (n, m1, m2)
        assert rel_err(got, want) <= 1e-12

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
        # a batch: one row per input, each row its vector's result
        X = g.normal(size=(5, c1 * c2))
        Y = g.normal(size=(5, m1 * m2))
        assert rel_err(apply_kron2(P, Q, X), X @ K.T) <= 1e-12
        assert rel_err(apply_kron2_transpose(P, Q, Y), Y @ K) <= 1e-12


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


def _separated(g, left, right, s):
    # a two-factor representation of s random terms
    return SeparatedMatrix(Shape(left[0] * right[0], left[1] * right[1]),
                           g.normal(size=s), (g.normal(size=(s, *left)),
                                              g.normal(size=(s, *right))))


def _linear_maps(g):
    """Name -> (map, its dense matrix) for each public linear map of the
    package."""
    P, Q = g.normal(size=(6, 4)), g.normal(size=(5, 3))
    S = _separated(g, (4, 3), (6, 5), 3)
    return {"apply_kron2": (lambda x: apply_kron2(P, Q, x), naive_kron(P, Q)),
            "apply_kron2_transpose": (
                lambda x: apply_kron2_transpose(P, Q, x), naive_kron(P, Q).T),
            "apply": (lambda x: apply(S, x), materialize(S))}


MAPS = pytest.mark.parametrize(
    "name", ["apply_kron2", "apply_kron2_transpose", "apply"])


class TestBatchRule:
    """Every linear map takes x through ``kron_core._as_batch``: an
    (n, cols) batch or one vector, answered in kind."""

    def test_defined_once(self):
        assert lsradapt.adapter._as_batch is _as_batch

    @MAPS
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 64, 100])
    def test_rows_are_their_vectors_bit_for_bit(self, name, n):
        g = np.random.default_rng(n)
        fn, K = _linear_maps(g)[name]
        X = g.normal(size=(n, K.shape[1]))
        Y = fn(X)
        assert Y.shape == (n, K.shape[0]) and Y.flags.c_contiguous
        for x, y in zip(X, Y):
            assert y.tobytes() == fn(x).tobytes()
        assert rel_err(Y, X @ K.T) <= 1e-10

    @MAPS
    def test_vector_is_a_batch_of_one(self, name):
        g = np.random.default_rng(5)
        fn, K = _linear_maps(g)[name]
        x = g.normal(size=K.shape[1])
        y = fn(x)
        assert y.shape == (K.shape[0],)
        assert y.tobytes() == fn(x[None]).tobytes()
        assert fn(x[None]).shape == (1, K.shape[0])
        assert rel_err(y, K @ x) <= 1e-10

    @MAPS
    def test_empty_batch(self, name):
        fn, K = _linear_maps(np.random.default_rng(6))[name]
        assert fn(np.empty((0, K.shape[1]))).shape == (0, K.shape[0])

    @MAPS
    @pytest.mark.parametrize("bad, match", [
        (lambda c: np.ones(c - 1), "x has length {w}, expected {c}"),
        (lambda c: np.ones((2, c + 1)), r"x has shape \(2, {w}\), "
                                         r"expected \(n, {c}\)"),
        (lambda c: 3.0, r"x has shape \(\), expected \(n, {c}\)"),
        (lambda c: np.ones((2, 1, c)), r"x has shape \(2, 1, {c}\)"),
        (lambda c: np.full(c, np.nan), "x contains non-finite entries"),
        (lambda c: np.full((2, c), np.inf), "x contains non-finite entries"),
        (lambda c: [[1.0] * c, [1.0]], "x is not a rectangular float64"),
        (lambda c: np.full(c, 1 + 2j), "x is complex"),
        (lambda c: [[1j] * c], "x is complex"),
    ], ids=["short", "wide", "0-d", "3-D", "nan", "inf", "ragged", "complex",
            "complex-list"])
    def test_refusals_name_x(self, name, bad, match):
        fn, K = _linear_maps(np.random.default_rng(7))[name]
        c = K.shape[1]
        x = bad(c)
        w = c - 1 if getattr(x, "ndim", 0) == 1 else c + 1
        with pytest.raises(ValueError, match=match.format(c=c, w=w)):
            fn(x)


# every caller of the one split rule, given a left (x) right split and the
# (rows, cols) shape it should tile
SPLIT_CALLERS = {
    "rearrange": lambda left, right, shape: rearrange(
        np.ones(shape), left, right),
    "nearest_kron_sum": lambda left, right, shape: nearest_kron_sum(
        np.ones(shape), left, right, 1),
    "KronSumPlant": lambda left, right, shape: KronSumPlant(
        1, left, right).delta(*shape, np.random.default_rng(0)),
    # A_sum is the split (a1 x r1) (x) (a2 x r2) of w1 x r; B_sum is
    # 1 x 1 (x) r x 1, which tiles r x 1 whenever A_sum does
    "ShapePlan": lambda left, right, shape: ShapePlan(
        w1=shape[0], w2=1, r=shape[1], a1=left[0], r1=left[1], a2=right[0],
        r2=right[1], b1=1, b2=1),
}


class TestSplitRule:
    """A split left (x) right is checked by ``kron_core._check_split``
    alone, for every caller."""

    @pytest.mark.parametrize("caller", SPLIT_CALLERS.values(),
                             ids=SPLIT_CALLERS.keys())
    @pytest.mark.parametrize("left, right, match", [
        # (-2)(-6) = 12 would pass the product check alone
        ((-2, 4), (-6, 3), "positive sizes"),
        ((0, 4), (6, 3), "positive sizes"),
        ((2, 4), (6, -3), "positive sizes"),
        ((2, 4), (6, 2), r"\(x\) 6x2 is 12x8, not 12x12"),
        ((3, 4), (3, 3), r"\(x\) 3x3 is 9x12, not 12x12"),
    ], ids=["negative", "zero", "one-negative", "cols", "rows"])
    def test_refusals(self, caller, left, right, match):
        with pytest.raises(ValueError, match=match):
            caller(left, right, (12, 12))

    @pytest.mark.parametrize("caller", SPLIT_CALLERS.values(),
                             ids=SPLIT_CALLERS.keys())
    def test_tiling_split_is_taken(self, caller):
        caller((2, 4), (6, 3), (12, 12))

    def test_plan_checks_both_sums(self):
        with pytest.raises(ValueError, match="A_sum split 3x1 .* not 6x2"):
            ShapePlan(w1=6, w2=6, r=2, a1=3, a2=2, r1=1, r2=1, b1=3, b2=2)
        with pytest.raises(ValueError, match=r"B_sum split 1x3 \(x\) 2x3 "
                                             "is 2x9, not 2x6"):
            ShapePlan(w1=6, w2=6, r=2, a1=3, a2=2, r1=1, r2=2, b1=3, b2=3)
        with pytest.raises(ValueError, match="B_sum split .* positive sizes"):
            ShapePlan(w1=6, w2=6, r=2, a1=3, a2=2, r1=1, r2=2, b1=-3, b2=-2)


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


class TestChecked:
    """``_checked`` decides finiteness from one sum of squares and runs
    the exact test only when that sum is not finite."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("shape", [(6,), (3, 4), (2, 3, 4)])
    def test_overflowing_sum_of_squares_is_accepted(self, shape):
        a = np.full(shape, 1e200)
        assert np.array_equal(_checked(a, "a", len(shape)), a)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    @pytest.mark.parametrize("shape", [(7,), (3, 5), (3, 3, 3)])
    def test_non_finite_entry_is_refused(self, shape, where, bad):
        a = np.ones(shape)
        at = {"first": 0, "middle": a.size // 2, "last": a.size - 1}[where]
        a.reshape(-1)[at] = bad
        with pytest.raises(ValueError, match="a contains non-finite entries"):
            _checked(a, "a", len(shape))

    @pytest.mark.parametrize("shape", [(0,), (0, 3), (2, 0, 4)])
    def test_empty_array_is_accepted(self, shape):
        assert _checked(np.empty(shape), "a", len(shape)).shape == shape

    def test_zero_dim_array(self):
        assert _checked(2.5, "a", None) == 2.5
        assert _checked(1e200, "a", None) == 1e200
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                _checked(bad, "a", None)
        with pytest.raises(ValueError, match="must be 1-D, got ndim=0"):
            _checked(2.5, "a", 1)

    @pytest.mark.parametrize("ragged", [
        [[1.0, 2.0], [3.0]], [np.eye(2), np.eye(3)], [(1.0, [[1.0]])]])
    def test_ragged_input_is_refused_by_name(self, ragged):
        with pytest.raises(ValueError,
                           match="a is not a rectangular float64 array"):
            _checked(ragged, "a", None)

    # a cast to float64 would drop the imaginary part, even a zero one
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [
        np.array([[1 + 2j, 3]]), [[1 + 2j, 3]], [np.complex128(1 + 2j)], 1j,
        np.zeros(3, complex), np.ones((2, 2), np.complex64)])
    def test_complex_input_is_refused_by_name(self, bad):
        with pytest.raises(ValueError,
                           match="a is complex, not a real float64 array"):
            _checked(bad, "a", None)
