"""Adapter kernel: shape planning, init, forward/backward, accounting.

The binding gradient contract is agreement with central finite
differences of a probe loss, not any particular formula.
"""

import dataclasses
import gc
import math
import tracemalloc
import warnings
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from lsradapt import (
    DensePlant,
    LoraLayer,
    LsrAdaptLayer,
    OptimizerConfig,
    ShapePlan,
    backward,
    compare,
    count_params_lora,
    count_params_lsr,
    export_delta_as_separated,
    forward,
    gen_task,
    init,
    lora_backward,
    lora_forward,
    lora_init,
    materialize_delta,
    materialize,
    plan_shapes,
    train,
)

from lsradapt import train_harness, verify
from lsradapt.adapter import DEFAULT_ALPHA, _project
from lsradapt.kron_core import _dense_kron_sum
from lsradapt.rng import rng_stream
from lsradapt.verify import random_layer

from oracles import (
    _kron_sum_grads,
    central_diff,
    naive_kron,
    reference_train,
    rel_err,
)


# plan_shapes warns for each prime w1 or w2 (an n x 1 split); the tests
# marked with this use prime shapes on purpose
PRIME_SPLITS = pytest.mark.filterwarnings(
    r"ignore:w[12]=\d+ splits as:UserWarning")


def dense_delta_oracle(layer):
    """Materialize the update through the naive Kronecker oracle."""
    p = layer.plan
    a_sum = np.zeros((p.w1, p.r))
    b_sum = np.zeros((p.r, p.w2))
    for k in range(layer.s):
        a_sum += naive_kron(layer.A1[k], layer.A2[k])
        b_sum += naive_kron(layer.B1[k], layer.B2[k])
    return a_sum @ b_sum


class TestPlanShapes:
    def test_attention_layer_dims(self):
        plan = plan_shapes(768, 768, 4)
        assert (plan.a1, plan.a2) == (32, 24)
        assert (plan.b1, plan.b2) == (32, 24)
        assert (plan.r1, plan.r2) == (2, 2)

    def test_prime_dims(self):
        with pytest.warns(UserWarning, match=r"w[12]=7 splits as 7x1"):
            plan = plan_shapes(7, 7, 1)
        assert (plan.a1, plan.a2) == (7, 1)
        assert (plan.b1, plan.b2) == (7, 1)
        assert (plan.r1, plan.r2) == (1, 1)

    @pytest.mark.parametrize("w, r", [(48, 4), (768, 4), (48, 3)])
    def test_composite_dims_do_not_warn(self, w, r):
        # a prime r (an r x 1 inner split) is normal, and not warned about
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plan_shapes(w, w, r)

    def test_prime_dim_warns_once_naming_its_split(self):
        with pytest.warns(UserWarning) as caught:
            plan = plan_shapes(7, 8, 4)
        assert [str(w.message) for w in caught] == [
            "w1=7 splits as 7x1, so its Kronecker factors do not factor"]
        assert (plan.a1, plan.a2) == (7, 1)

    def test_perfect_squares(self):
        plan = plan_shapes(36, 16, 9)
        assert (plan.a1, plan.a2) == (6, 6)
        assert (plan.b1, plan.b2) == (4, 4)
        assert (plan.r1, plan.r2) == (3, 3)

    def test_deterministic_and_ordered(self):
        for n in (12, 24, 48, 60, 100):
            plan = plan_shapes(n, n, 4)
            assert plan == plan_shapes(n, n, 4)
            assert plan.a1 >= plan.a2
            assert plan.a1 * plan.a2 == n

    def test_invalid_plan_rejected(self):
        with pytest.raises(ValueError):
            ShapePlan(w1=6, w2=6, r=2, a1=2, a2=2, r1=1, r2=2, b1=3, b2=2)

    @pytest.mark.parametrize("bad", [0, -1])
    @pytest.mark.parametrize("entry", ["stack_shapes", "init",
                                       "count_params_lsr", "LsrAdaptLayer"])
    def test_separation_rank_rule_is_stack_shapes(self, monkeypatch, entry,
                                                  bad):
        # every entry point reaches the one refusal, ShapePlan.stack_shapes
        plan = plan_shapes(12, 8, 4)
        calls = []
        original = ShapePlan.stack_shapes
        monkeypatch.setattr(ShapePlan, "stack_shapes", lambda self, s:
                            calls.append(s) or original(self, s))
        arrays = init(np.zeros((12, 8)), plan, s=1).params
        run = {"stack_shapes": lambda: plan.stack_shapes(bad),
               "init": lambda: init(np.zeros((12, 8)), plan, s=bad),
               "count_params_lsr": lambda: count_params_lsr(plan, bad),
               "LsrAdaptLayer": lambda: LsrAdaptLayer(
                   W=np.zeros((12, 8)), alpha=1.0, plan=plan, s=bad,
                   **arrays)}[entry]
        calls.clear()
        with pytest.raises(ValueError, match=f"^separation rank s must be "
                                             f">= 1, got {bad}$"):
            run()
        assert calls == [bad]


class TestInit:
    def test_update_starts_at_zero(self):
        g = np.random.default_rng(60)
        layer = init(g.normal(size=(12, 8)), plan_shapes(12, 8, 4), s=2,
                     alpha=16.0, seed=1)
        assert np.array_equal(materialize_delta(layer), np.zeros((12, 8)))

    def test_forward_is_base_exactly(self):
        g = np.random.default_rng(61)
        W = g.normal(size=(12, 8))
        layer = init(W, plan_shapes(12, 8, 4), s=2, seed=1)
        x = g.normal(size=8)
        assert np.array_equal(forward(layer, x), W @ x)

    def test_seed_reproducibility(self):
        W = np.zeros((12, 8))
        a = init(W, plan_shapes(12, 8, 4), s=3, seed=9)
        b = init(W, plan_shapes(12, 8, 4), s=3, seed=9)
        for name in ("A1", "A2", "B1", "B2"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            init(np.zeros((5, 5)), plan_shapes(12, 8, 4), s=1)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_rank_below_one_refused_by_name(self, bad):
        # refused before numpy sees a negative size
        with pytest.raises(ValueError, match="separation rank s must be >= 1"):
            init(np.zeros((12, 8)), plan_shapes(12, 8, 4), s=bad)
        with pytest.raises(ValueError, match="rank r must be >= 1"):
            lora_init(np.zeros((12, 8)), r=bad)

    def test_draw_order(self):
        # A1, A2, B1 in that order from one "adapter-init" stream, and
        # A from one "lora-init" stream
        plan = plan_shapes(12, 8, 4)
        shapes = plan.stack_shapes(3)
        layer = init(np.zeros((12, 8)), plan, s=3, seed=9)
        g = rng_stream(9, "adapter-init")
        for name, std in (("A1", 8**-0.5), ("A2", 8**-0.5), ("B1", 0.5)):
            want = g.normal(0.0, std, size=shapes[name])
            assert np.array_equal(getattr(layer, name), want), name
        assert not layer.B2.any()
        lora = lora_init(np.zeros((12, 8)), r=3, seed=9)
        want = rng_stream(9, "lora-init").normal(0.0, np.sqrt(1.0 / 8),
                                                 size=(12, 3))
        assert np.array_equal(lora.A, want)
        assert not lora.B.any()


class TestArrayChecks:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("family", ["A1", "A2", "B1", "B2"])
    def test_non_finite_factor_stack_refused(self, family, bad):
        g = np.random.default_rng(95)
        layer = random_layer(g, 12, 8, 4, 2)
        stacks = {name: arr.copy() for name, arr in layer.params.items()}
        stacks[family][1, 0, -1] = bad
        with pytest.raises(ValueError, match=f"{family} contains non-finite"):
            LsrAdaptLayer(W=layer.W, alpha=1.0, plan=layer.plan, s=2,
                          **stacks)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_alpha_refused(self, bad):
        # a fresh layer's update is exactly zero, but alpha * 0 is not
        W = np.eye(4)
        with pytest.raises(ValueError, match="alpha must be finite"):
            init(W, plan_shapes(4, 4, 2), s=1, alpha=bad)
        with pytest.raises(ValueError, match="alpha must be finite"):
            lora_init(W, 2, alpha=bad)

    @pytest.mark.parametrize("change", [
        dict(W=np.full((12, 8), np.nan)),
        dict(W=np.ones(8)),
        dict(W=np.ones((8, 8))),            # W against the plan
        dict(alpha=np.inf),
        dict(alpha=np.nan),
        dict(s=0),
        dict(A1=np.ones((2, 3, 3))),        # wrong stack shape
        dict(B2=np.ones((2, 2))),           # wrong stack rank
        dict(A2=3.0),
    ], ids=["W-nan", "W-1d", "W-plan", "alpha-inf", "alpha-nan", "s-0",
            "stack-shape", "stack-rank", "stack-0d"])
    def test_lsr_construction_refusals_are_value_errors(self, change):
        g = np.random.default_rng(97)
        layer = random_layer(g, 12, 8, 4, 2)
        args = dict(W=layer.W, alpha=1.0, plan=layer.plan, s=2,
                    **{k: v.copy() for k, v in layer.params.items()})
        with pytest.raises(ValueError):
            LsrAdaptLayer(**dict(args, **change))

    @pytest.mark.parametrize("W, A, B", [
        (np.ones((12, 8)), np.ones((12, 2)), np.ones((3, 8))),   # rank
        (np.ones((12, 8)), np.ones((10, 2)), np.ones((2, 8))),   # rows
        (np.ones((12, 8)), np.ones((12, 2)), np.ones((2, 7))),   # cols
        (np.ones(8), np.ones((12, 2)), np.ones((2, 8))),         # 1-D W
        (np.ones((12, 8)), 3.0, np.ones((2, 8))),                # 0-d A
        (np.ones((12, 8)), np.ones(12), np.ones((2, 8))),        # 1-D A
        (np.ones((12, 8)), np.ones((12, 0)), np.ones((0, 8))),   # zero width
        (np.ones((12, 8)), np.ones((12, 2)), np.ones((2, 0))),   # empty B
        (np.ones((12, 8)), np.full((12, 2), np.inf), np.ones((2, 8))),
    ], ids=["rank", "rows", "cols", "W-1d", "A-0d", "A-1d", "zero-width",
            "B-empty", "A-inf"])
    def test_lora_construction_refusals_are_value_errors(self, W, A, B):
        with pytest.raises(ValueError):
            LoraLayer(W=W, alpha=1.0, A=A, B=B)

    def test_batch_errors_name_argument_and_width(self):
        g = np.random.default_rng(96)
        layer = random_layer(g, 12, 8, 4, 2)
        with pytest.raises(ValueError, match="x has length 7, expected 8"):
            forward(layer, np.ones(7))
        with pytest.raises(ValueError, match=r"x has shape .*\(n, 8\)"):
            forward(layer, np.ones((2, 3, 8)))
        with pytest.raises(ValueError, match=r"g has shape .*\(n, 12\)"):
            backward(layer, np.ones((3, 8)), np.ones((3, 8)))


class TestForward:
    def test_identity_update(self):
        # square plan with r = w1 = w2; identity factors make the update
        # the identity, so y = W x + x at alpha = 1
        g = np.random.default_rng(62)
        plan = plan_shapes(4, 4, 4)
        W = g.normal(size=(4, 4))
        eye = np.eye(2)[None]
        layer = LsrAdaptLayer(W=W, alpha=1.0, plan=plan, s=1,
                              A1=eye, A2=eye, B1=eye, B2=eye)
        x = g.normal(size=4)
        assert rel_err(forward(layer, x), W @ x + x) <= 1e-14

    def test_matches_materialized_oracle(self):
        g = np.random.default_rng(63)
        layer = random_layer(g, 24, 24, 4, 3, alpha=1.3)
        x = g.normal(size=24)
        want = (layer.W + layer.alpha * dense_delta_oracle(layer)) @ x
        assert rel_err(forward(layer, x), want) <= 1e-10

    def test_rectangular_dims(self):
        g = np.random.default_rng(64)
        for w1, w2, r, s in ((6, 15, 2, 1), (16, 9, 3, 2), (10, 10, 5, 4)):
            layer = random_layer(g, w1, w2, r, s, alpha=0.7)
            x = g.normal(size=w2)
            want = (layer.W + layer.alpha * dense_delta_oracle(layer)) @ x
            assert rel_err(forward(layer, x), want) <= 1e-10

    def test_length_mismatch(self):
        g = np.random.default_rng(65)
        layer = random_layer(g, 6, 6, 2, 1)
        with pytest.raises(ValueError):
            forward(layer, np.ones(7))


class TestMaterializeDelta:
    def test_zero_b2(self):
        g = np.random.default_rng(66)
        layer = init(g.normal(size=(12, 8)), plan_shapes(12, 8, 4), s=2)
        assert np.array_equal(materialize_delta(layer), np.zeros((12, 8)))

    def test_single_term_mixed_product(self):
        g = np.random.default_rng(67)
        layer = random_layer(g, 12, 8, 4, 1)
        want = naive_kron(layer.A1[0] @ layer.B1[0], layer.A2[0] @ layer.B2[0])
        assert rel_err(materialize_delta(layer), want) <= 1e-12

    def test_two_terms_expansion_oracle(self):
        g = np.random.default_rng(68)
        layer = random_layer(g, 12, 8, 4, 2)
        want = np.zeros((12, 8))
        for k in range(2):
            for j in range(2):
                want += naive_kron(layer.A1[k] @ layer.B1[j],
                                   layer.A2[k] @ layer.B2[j])
        assert rel_err(materialize_delta(layer), want) <= 1e-12


class TestBackward:
    def test_zero_init_gradient_structure(self):
        g = np.random.default_rng(69)
        layer = init(g.normal(size=(12, 8)), plan_shapes(12, 8, 4), s=2,
                     seed=3)
        x = g.normal(size=8)
        gvec = g.normal(size=12)
        grads, _ = backward(layer, x, gvec)
        assert not grads["A1"].any()
        assert not grads["A2"].any()
        assert grads["B2"].any()

    def test_alpha_zero(self):
        g = np.random.default_rng(70)
        layer = random_layer(g, 8, 6, 2, 2, alpha=0.0)
        x = g.normal(size=6)
        gvec = g.normal(size=8)
        grads, dx = backward(layer, x, gvec)
        for arr in (grads["A1"], grads["A2"], grads["B1"], grads["B2"]):
            assert not arr.any()
        assert rel_err(dx, layer.W.T @ gvec) <= 1e-14

    def test_matches_finite_differences(self):
        g = np.random.default_rng(71)
        layer = random_layer(g, 12, 12, 4, 2, alpha=1.4)
        x = g.normal(size=12)
        c = g.normal(size=12)
        grads, dx = backward(layer, x, c)
        probe = lambda: float(c @ forward(layer, x))
        for name, got in (("A1", grads["A1"]), ("A2", grads["A2"]),
                          ("B1", grads["B1"]), ("B2", grads["B2"])):
            fd = central_diff(probe, getattr(layer, name))
            assert rel_err(got, fd) <= 1e-5, name
        fd_x = central_diff(probe, x)
        assert rel_err(dx, fd_x) <= 1e-5

    def test_dimension_mismatch(self):
        g = np.random.default_rng(72)
        layer = random_layer(g, 8, 6, 2, 1)
        with pytest.raises(ValueError):
            backward(layer, np.ones(6), np.ones(6))


class TestParamCounts:
    def test_lora_reference_config(self):
        assert count_params_lora(768, 768, 8) == 12288

    def test_lsr_reference_config(self):
        assert count_params_lsr(plan_shapes(768, 768, 4), 16) == 3584

    def test_lsr_higher_rank_by_formula(self):
        # factor pairs (32x4), (24x4) on both sides at s=16
        plan = plan_shapes(768, 768, 16)
        assert (plan.r1, plan.r2) == (4, 4)
        assert count_params_lsr(plan, 16) == 7168

    def test_degenerate_dims(self):
        assert count_params_lora(1, 1, 1) == 2
        # four 1x1 factor matrices: the formula counts every scalar
        assert count_params_lsr(plan_shapes(1, 1, 1), 1) == 4

    def test_lsr_beats_lora_budget(self):
        assert count_params_lsr(plan_shapes(768, 768, 4), 16) \
            < count_params_lora(768, 768, 8)

    @pytest.mark.parametrize("w1, w2, r, s", [
        (12, 8, 4, 2), (48, 48, 4, 4), (30, 21, 6, 3)])
    def test_layer_n_params_is_flat_size(self, w1, w2, r, s):
        W = np.zeros((w1, w2))
        plan = plan_shapes(w1, w2, r)
        lsr = init(W, plan, s, seed=1)
        lora = lora_init(W, r, seed=1)
        shapes = plan.stack_shapes(s)
        assert list(shapes) == list(lsr.params)
        assert shapes == {k: p.shape for k, p in lsr.params.items()}
        assert shapes == {k: v for k, v in lsr._expected_shapes().items()
                          if k != "W"}
        assert sum(math.prod(v) for v in shapes.values()) \
            == count_params_lsr(plan, s) == lsr.n_params
        assert lsr.n_params == lsr.flat.size == count_params_lsr(plan, s)
        assert lora.n_params == lora.flat.size \
            == count_params_lora(w1, w2, r)

    @pytest.mark.parametrize("s", [0, -3])
    def test_lsr_count_refuses_separation_rank_below_one(self, s):
        with pytest.raises(ValueError, match="separation rank"):
            count_params_lsr(plan_shapes(8, 8, 2), s)


class TestLora:
    def test_zero_b_is_base(self):
        g = np.random.default_rng(73)
        layer = lora_init(g.normal(size=(10, 7)), r=3, seed=2)
        x = g.normal(size=7)
        assert not layer.B.any()
        assert np.array_equal(lora_forward(layer, x), layer.W @ x)

    def test_planted_full_rank_update(self):
        g = np.random.default_rng(74)
        W = g.normal(size=(6, 8))
        A = g.normal(size=(6, 6))
        B = g.normal(size=(6, 8))
        layer = LoraLayer(W=W, alpha=2.0, A=A, B=B)
        x = g.normal(size=8)
        want = (W + 2.0 * (A @ B)) @ x
        assert rel_err(lora_forward(layer, x), want) <= 1e-12

    def test_gradients_match_finite_differences(self):
        g = np.random.default_rng(75)
        layer = LoraLayer(W=g.normal(size=(9, 7)), alpha=1.2,
                          A=g.normal(size=(9, 3)), B=g.normal(size=(3, 7)))
        x = g.normal(size=7)
        c = g.normal(size=9)
        grads, dx = lora_backward(layer, x, c)
        dA, dB = grads["A"], grads["B"]
        probe = lambda: float(c @ lora_forward(layer, x))
        assert rel_err(dA, central_diff(probe, layer.A)) <= 1e-5
        assert rel_err(dB, central_diff(probe, layer.B)) <= 1e-5
        assert rel_err(dx, central_diff(probe, x)) <= 1e-5


class TestExportDelta:
    def test_zero_init(self):
        g = np.random.default_rng(76)
        layer = init(g.normal(size=(12, 8)), plan_shapes(12, 8, 4), s=2)
        S = export_delta_as_separated(layer)
        assert len(S.terms) == 4
        assert np.array_equal(materialize(S), np.zeros((12, 8)))

    def test_single_term(self):
        g = np.random.default_rng(77)
        layer = random_layer(g, 12, 8, 4, 1)
        S = export_delta_as_separated(layer)
        assert len(S.terms) == 1
        want = naive_kron(layer.A1[0] @ layer.B1[0], layer.A2[0] @ layer.B2[0])
        assert rel_err(materialize(S), want) <= 1e-12

    def test_matches_materialize_delta(self):
        g = np.random.default_rng(78)
        layer = random_layer(g, 12, 12, 4, 2)
        S = export_delta_as_separated(layer)
        assert len(S.terms) == 4
        assert rel_err(materialize(S), materialize_delta(layer)) <= 1e-12


def test_term_scaling_is_quartic():
    # two factors per side and two sides: scaling one term's factors by c
    # scales its update by c^4
    g = np.random.default_rng(79)
    layer = random_layer(g, 12, 8, 4, 1)
    base = materialize_delta(layer)
    c = 1.7
    scaled = LsrAdaptLayer(W=layer.W, alpha=layer.alpha, plan=layer.plan,
                           s=1, A1=c * layer.A1, A2=c * layer.A2,
                           B1=c * layer.B1, B2=c * layer.B2)
    assert rel_err(materialize_delta(scaled), c**4 * base) <= 1e-12


@PRIME_SPLITS
def test_forward_equivalence_sweep():
    g = np.random.default_rng(80)
    for _ in range(15):
        w1, w2 = (int(v) for v in g.integers(2, 65, size=2))
        r = int(g.integers(1, 9))
        s = int(g.integers(1, 9))
        layer = random_layer(g, w1, w2, r, s, alpha=float(g.uniform(0.1, 2)))
        x = g.normal(size=w2)
        want = (layer.W + layer.alpha * materialize_delta(layer)) @ x
        assert rel_err(forward(layer, x), want) <= 1e-10


# (w1, w2, r, s): s = 1, r = 1, prime dims (7 x 1 and 13 x 1 splits), and
# a general rectangular case
KERNEL_SHAPES = [(12, 8, 4, 1), (10, 6, 1, 3),
                 pytest.param((7, 13, 2, 2), marks=PRIME_SPLITS),
                 (24, 18, 6, 4)]


class TestBatchedKernel:
    @pytest.mark.parametrize("shape", KERNEL_SHAPES)
    @pytest.mark.parametrize("n", [1, 7])
    def test_forward_matches_dense(self, shape, n):
        g = np.random.default_rng(81)
        layer = random_layer(g, *shape, alpha=1.3)
        X = g.normal(size=(n, shape[1]))
        want = X @ (layer.W + layer.alpha * materialize_delta(layer)).T
        got = forward(layer, X)
        assert got.shape == (n, shape[0])
        for row, ref in zip(got, want):
            assert rel_err(row, ref) <= 1e-10

    @pytest.mark.parametrize("shape", KERNEL_SHAPES)
    def test_forward_rows_match_vector_calls(self, shape):
        # to rounding, not bit for bit: the single-vector base product is
        # a GEMV, which rounds differently from the batch GEMM
        g = np.random.default_rng(86)
        layer = random_layer(g, *shape, alpha=0.9)
        X = g.normal(size=(7, shape[1]))
        for row, x in zip(forward(layer, X), X):
            assert rel_err(row, forward(layer, x)) <= 1e-12

    @pytest.mark.parametrize("shape", KERNEL_SHAPES)
    def test_backward_is_sum_of_vector_calls(self, shape):
        g = np.random.default_rng(82)
        layer = random_layer(g, *shape, alpha=0.8)
        X = g.normal(size=(7, shape[1]))
        G = g.normal(size=(7, shape[0]))
        batch, batch_dx = backward(layer, X, G)
        singles = [backward(layer, x, gv) for x, gv in zip(X, G)]
        for name in ("A1", "A2", "B1", "B2"):
            want = sum(b[name] for b, _ in singles)
            assert rel_err(batch[name], want) <= 1e-12, name
        assert batch_dx.shape == X.shape
        for row, (_, single_dx) in zip(batch_dx, singles):
            assert rel_err(row, single_dx) <= 1e-12

    @pytest.mark.parametrize("shape", KERNEL_SHAPES)
    def test_backward_matches_finite_differences(self, shape):
        g = np.random.default_rng(83)
        layer = random_layer(g, *shape, alpha=1.1)
        X = g.normal(size=(7, shape[1]))
        C = g.normal(size=(7, shape[0]))
        grads, dx = backward(layer, X, C)
        probe = lambda: float(np.vdot(C, forward(layer, X)))
        for name in ("A1", "A2", "B1", "B2"):
            fd = central_diff(probe, getattr(layer, name))
            assert rel_err(grads[name], fd) <= 1e-5, name
        assert rel_err(dx, central_diff(probe, X)) <= 1e-5

    def test_vector_in_vector_out(self):
        g = np.random.default_rng(84)
        layer = random_layer(g, 12, 8, 4, 2)
        x = g.normal(size=8)
        y = forward(layer, x)
        assert y.shape == (12,)
        assert forward(layer, x[None]).shape == (1, 12)
        assert np.array_equal(forward(layer, x[None])[0], y)
        assert backward(layer, x, g.normal(size=12))[1].shape == (8,)
        lora = lora_init(layer.W, r=3, seed=1)
        assert lora_forward(lora, x).shape == (12,)
        assert lora_backward(lora, x, g.normal(size=12))[1].shape == (8,)

    def test_zero_b2_batch_is_base_exactly(self):
        g = np.random.default_rng(85)
        W = g.normal(size=(12, 8))
        X = g.normal(size=(7, 8))
        layer = init(W, plan_shapes(12, 8, 4), s=2, seed=1)
        assert np.array_equal(forward(layer, X), X @ W.T)
        lora = lora_init(W, r=3, seed=1)
        assert np.array_equal(lora_forward(lora, X), X @ W.T)

    def test_bad_input_rejected(self):
        g = np.random.default_rng(86)
        layer = random_layer(g, 12, 8, 4, 2)
        lora = lora_init(layer.W, r=3, seed=1)
        X = g.normal(size=(3, 8))
        G = g.normal(size=(3, 12))
        bad_x = [np.ones((3, 9)), np.ones((2, 3, 8)), np.ones(()),
                 np.where(np.eye(3, 8) > 0, np.nan, X),
                 np.where(np.eye(3, 8) > 0, np.inf, X)]
        for x in bad_x:
            for call in (lambda: forward(layer, x),
                         lambda: backward(layer, x, G),
                         lambda: lora_forward(lora, x),
                         lambda: lora_backward(lora, x, G)):
                with pytest.raises(ValueError):
                    call()
        for gb in (G[:2], np.ones((3, 8)),
                   np.where(np.eye(3, 12) > 0, np.inf, G)):
            with pytest.raises(ValueError):
                backward(layer, X, gb)
            with pytest.raises(ValueError):
                lora_backward(lora, X, gb)


class TestLoraBatched:
    def test_forward_matches_dense(self):
        g = np.random.default_rng(87)
        layer = LoraLayer(W=g.normal(size=(9, 7)), alpha=1.2,
                          A=g.normal(size=(9, 3)), B=g.normal(size=(3, 7)))
        X = g.normal(size=(5, 7))
        want = X @ (layer.W + layer.alpha * layer.A @ layer.B).T
        assert rel_err(lora_forward(layer, X), want) <= 1e-12

    def test_backward_is_sum_of_vector_calls(self):
        g = np.random.default_rng(88)
        layer = LoraLayer(W=g.normal(size=(9, 7)), alpha=1.2,
                          A=g.normal(size=(9, 3)), B=g.normal(size=(3, 7)))
        X = g.normal(size=(5, 7))
        G = g.normal(size=(5, 9))
        grads, dx = lora_backward(layer, X, G)
        singles = [lora_backward(layer, x, gv) for x, gv in zip(X, G)]
        assert rel_err(grads["A"], sum(s[0]["A"] for s in singles)) <= 1e-12
        assert rel_err(grads["B"], sum(s[0]["B"] for s in singles)) <= 1e-12
        for row, single in zip(dx, singles):
            assert rel_err(row, single[1]) <= 1e-12


# (m1, c1, m2, c2): F1[k] is m1 x c1 and F2[k] is m2 x c2; the last two
# are the A side of a w1 = 7 layer and the B side of a w2 = 13 layer,
# whose prime dimensions split as 7x1 and 13x1
@pytest.mark.parametrize("dims", [(2, 3, 4, 5), (3, 3, 3, 3), (7, 2, 1, 2),
                                  (2, 13, 2, 1)],
                         ids=["rect", "square", "prime7", "prime13"])
@pytest.mark.parametrize("s", [1, 5])
def test_stacked_kron_algebra_matches_oracles(s, dims):
    m1, c1, m2, c2 = dims
    g = np.random.default_rng(90)
    F1 = g.normal(size=(s, m1, c1))
    F2 = g.normal(size=(s, m2, c2))
    want = sum(naive_kron(F1[k], F2[k]) for k in range(s))
    assert rel_err(_dense_kron_sum(F1, F2), want) <= 1e-12
    D = g.normal(size=(m1 * m2, c1 * c2))
    for got, ref in zip(_project(D, F1, F2), _kron_sum_grads(D, F1, F2)):
        assert got.shape == ref.shape
        assert rel_err(got, ref) <= 1e-12


def _interface_layer(kind, g):
    if kind == "lsr":
        return random_layer(g, 12, 8, 4, 2, alpha=0.7)
    return LoraLayer(W=g.normal(size=(12, 8)), alpha=0.7,
                     A=g.normal(size=(12, 3)), B=g.normal(size=(3, 8)))


@pytest.mark.parametrize("kind", ["lsr", "lora"])
def test_layer_interface_contract(kind):
    g = np.random.default_rng(89)
    layer = _interface_layer(kind, g)
    params = layer.params
    X = g.normal(size=(5, 8))
    grads, dx = layer.backward(X, g.normal(size=(5, 12)))
    assert list(grads) == list(params)
    for name, p in params.items():
        assert grads[name].shape == p.shape, name
    assert dx.shape == X.shape
    assert layer.n_params == sum(p.size for p in params.values())

    A, B = layer.update_factors()
    want = X @ (layer.alpha * A @ B).T
    assert rel_err(layer.forward(X) - X @ layer.W.T, want) <= 1e-12

    before = {name: p.copy() for name, p in params.items()}
    task = gen_task(12, 8, DensePlant(), n_samples=16, noise_std=0.0, seed=4)
    train(layer, task, OptimizerConfig(steps=3, batch_size=8))
    for name, p in layer.params.items():
        assert p is params[name], name
        assert not np.array_equal(p, before[name]), name


class TestSharedLowRankPath:
    """Both layer types run one dense-factor path: an LSR layer behaves
    bit for bit like the plain low-rank layer on its own update factors."""

    @pytest.mark.parametrize("n", [None, 1, 6])
    def test_lora_on_lsr_factors_is_bit_identical(self, n):
        g = np.random.default_rng(91)
        layer = random_layer(g, 12, 15, 4, 3, alpha=0.7)
        A, B = layer.update_factors()
        lora = LoraLayer(W=layer.W, alpha=layer.alpha, A=A, B=B)
        size = () if n is None else (n,)
        X = g.normal(size=size + (15,))
        G = g.normal(size=size + (12,))
        assert np.array_equal(forward(layer, X), lora_forward(lora, X))
        assert np.array_equal(backward(layer, X, G)[1],
                              lora_backward(lora, X, G)[1])

    def test_factor_gradients_are_projected_lora_gradients(self):
        g = np.random.default_rng(92)
        layer = random_layer(g, 12, 15, 4, 3, alpha=0.7)
        lora = LoraLayer(layer.W, layer.alpha, *layer.update_factors())
        X = g.normal(size=(6, 15))
        G = g.normal(size=(6, 12))
        grads, _ = backward(layer, X, G)
        lgrads, _ = lora_backward(lora, X, G)
        want = dict(zip(("A1", "A2"), _project(lgrads["A"], layer.A1,
                                               layer.A2)))
        want.update(zip(("B1", "B2"), _project(lgrads["B"], layer.B1,
                                               layer.B2)))
        assert list(grads) == ["A1", "A2", "B1", "B2"]
        for name in grads:
            assert np.array_equal(grads[name], want[name]), name

    def test_update_matrix_is_never_materialized(self):
        # forward and backward at the paper's 768 x 768, s = 16 layer
        # allocate far less than one w1 x w2 float64 update at their peak
        g = np.random.default_rng(93)
        layer = random_layer(g, 768, 768, 4, 16)
        X = g.normal(size=(16, 768))
        G = g.normal(size=(16, 768))
        tracemalloc.start()
        try:
            forward(layer, X)
            backward(layer, X, G)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 768 * 768 * 8 / 4


def _twin(layer):
    """A new layer with copies of ``layer``'s current arrays."""
    return LsrAdaptLayer(W=layer.W, alpha=layer.alpha, plan=layer.plan,
                         s=layer.s, **{k: v.copy()
                                       for k, v in layer.params.items()})


class TestFactorCache:
    """``update_factors`` serves a layer's last formed factors again only
    while its parameters are unchanged: every result equals, bit for bit,
    that of a layer that forms them afresh."""

    def _served(self, seed):
        g = np.random.default_rng(seed)
        layer = random_layer(g, 12, 15, 4, 3, alpha=0.7)
        X = g.normal(size=(4, 15))
        forward(layer, X)  # leaves the entry warm for this layer
        return layer, X

    @pytest.mark.parametrize("name", ["A1", "A2", "B1", "B2", "flat"])
    def test_in_place_write_is_seen(self, name):
        layer, X = self._served(101)
        target = layer.flat if name == "flat" else layer.params[name]
        target.reshape(-1)[-1] += 0.5
        got = forward(layer, X)
        assert np.array_equal(got, forward(_twin(layer), X))
        grads, dx = backward(layer, X, np.ones((4, 12)))
        twin_grads, twin_dx = backward(_twin(layer), X, np.ones((4, 12)))
        assert np.array_equal(dx, twin_dx)
        for k in grads:
            assert np.array_equal(grads[k], twin_grads[k]), k

    @pytest.mark.parametrize("name", ["A1", "B2"])
    def test_restored_value_is_bit_identical(self, name):
        layer, X = self._served(102)
        want = forward(layer, X)
        A, B = layer.update_factors()
        arr = layer.params[name].reshape(-1)
        old = arr[0]
        arr[0] = old + 1.0
        arr[0] = old
        # no call saw the written value, so the entry is found again
        assert layer.update_factors()[0] is A
        arr[0] = old + 1.0
        assert not np.array_equal(forward(layer, X), want)
        arr[0] = old
        assert np.array_equal(forward(layer, X), want)

    @pytest.mark.parametrize("kind", ["lsr", "lora"])
    def test_rebinding_is_refused(self, kind):
        g = np.random.default_rng(103)
        layer, X = _layer(kind, g), g.normal(size=(4, 15))
        flat, want = layer.flat.tobytes(), forward(layer, X)
        names = [f.name for f in dataclasses.fields(layer)]
        for name in names + ["flat", "_params"]:
            value = getattr(layer, name)
            if isinstance(value, np.ndarray):
                value = np.ones_like(value)
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(layer, name, value)
        assert layer.flat.tobytes() == flat
        assert np.array_equal(forward(layer, X), want)

    def test_layers_served_alternately_get_their_own(self):
        g = np.random.default_rng(105)
        one = random_layer(g, 12, 15, 4, 3)
        two = random_layer(g, 12, 15, 4, 3)
        x = g.normal(size=15)
        want = {id(one): forward(_twin(one), x),
                id(two): forward(_twin(two), x)}
        for _ in range(3):
            for layer in (one, two, two, one):
                assert np.array_equal(forward(layer, x), want[id(layer)])

    def test_served_layer_is_collected_and_never_reused(self):
        layer, _ = self._served(106)
        A, B = layer.update_factors()
        arrays = {k: v.copy() for k, v in layer.params.items()}
        W, plan = layer.W, layer.plan
        ref = weakref.ref(layer)
        del layer
        gc.collect()
        assert ref() is None
        # same bytes, maybe the same address: still a new layer
        new = LsrAdaptLayer(W=W, alpha=0.7, plan=plan, s=3, **arrays)
        got = new.update_factors()
        assert got[0] is not A and got[1] is not B
        assert np.array_equal(got[0], A) and np.array_equal(got[1], B)

    def test_factors_are_read_only(self):
        layer, _ = self._served(107)
        for f in layer.update_factors():
            assert not f.flags.writeable
            with pytest.raises(ValueError):
                f[0, 0] = 1.0

    @pytest.mark.parametrize("kind", ["adam", "sgd"])
    def test_train_matches_reference_loop(self, kind):
        # both layers are served before and between their runs, so each
        # run starts from an entry another layer left
        g = np.random.default_rng(108)
        plan = plan_shapes(12, 12, 4)
        task = gen_task(12, 12, DensePlant(), n_samples=24, noise_std=0.0,
                        seed=5)
        layer = init(task.W, plan, 2, alpha=1.0, seed=5)
        ref = init(task.W, plan, 2, alpha=1.0, seed=5)
        layer.A2[...] = ref.A2[...] = g.normal(size=ref.A2.shape)
        layer.B2[...] = ref.B2[...] = g.normal(size=ref.B2.shape)
        x = g.normal(size=12)
        cfg = OptimizerConfig(kind=kind, learning_rate=1e-3, steps=40,
                              batch_size=8, seed=5)
        forward(layer, x)
        forward(ref, x)
        report = train(layer, task, cfg)
        forward(layer, x)
        curve = reference_train(ref, task, cfg)
        assert report.loss_curve == curve
        assert np.array_equal(layer.flat, ref.flat)
        assert np.array_equal(forward(layer, x), forward(ref, x))
        assert np.array_equal(forward(layer, x), forward(_twin(layer), x))


def test_every_alpha_default_is_the_one_default(monkeypatch):
    g = np.random.default_rng(111)
    W = g.normal(size=(12, 12))
    assert init(W, plan_shapes(12, 12, 4), 2).alpha == DEFAULT_ALPHA
    assert lora_init(W, 3).alpha == DEFAULT_ALPHA
    assert verify.random_layer(g, 12, 12, 4, 2).alpha == DEFAULT_ALPHA
    trained = []

    def capture(layer, task, config):
        trained.append(layer.alpha)
        return SimpleNamespace(trainable_params=layer.n_params)

    monkeypatch.setattr(train_harness, "train", capture)
    task = gen_task(12, 12, DensePlant(), n_samples=8, noise_std=0.0, seed=1)
    compare(task, 3, plan_shapes(12, 12, 4), 2, OptimizerConfig(steps=1))
    assert trained == [DEFAULT_ALPHA, DEFAULT_ALPHA]


def _layer(kind, g):
    if kind == "lsr":
        return random_layer(g, 12, 15, 4, 3, alpha=0.7)
    return LoraLayer(W=g.normal(size=(12, 15)), alpha=0.7,
                     A=g.normal(size=(12, 3)), B=g.normal(size=(3, 15)))


@pytest.mark.parametrize("kind", ["lsr", "lora"])
def test_replace_builds_a_new_checked_layer(kind):
    g = np.random.default_rng(109)
    layer = _layer(kind, g)
    x = g.normal(size=15)
    want = forward(layer, x)
    new = dataclasses.replace(layer, alpha=1.4)
    assert new.alpha == 1.4 and not np.shares_memory(new.flat, layer.flat)
    assert np.array_equal(new.flat, layer.flat)
    A, B = new.update_factors()
    assert np.allclose(forward(new, x), layer.W @ x + 1.4 * (A @ (B @ x)),
                       rtol=1e-12, atol=1e-12)
    new.flat[...] = 0.0  # its views are its own, bound to its own flat
    assert all(not v.any() for v in new.params.values())
    assert np.array_equal(forward(layer, x), want)


@pytest.mark.parametrize("kind", ["lsr", "lora"])
@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_replace_refuses_non_finite_alpha(kind, alpha):
    layer = _layer(kind, np.random.default_rng(110))
    with pytest.raises(ValueError, match="alpha must be finite"):
        dataclasses.replace(layer, alpha=alpha)
