"""Synthetic tasks, the optimization loop, and the paired comparison."""

import copy
import pickle

import numpy as np
import pytest

from lsradapt import (
    DensePlant,
    LoraLayer,
    LsrAdaptLayer,
    DivergenceError,
    KronSumPlant,
    LowRankPlant,
    LsrProductPlant,
    OptimizerConfig,
    Shape,
    compare,
    count_params_lora,
    count_params_lsr,
    gen_task,
    init,
    lora_init,
    materialize_delta,
    plan_shapes,
    rearrange,
    train,
)

from lsradapt import train_harness
from lsradapt.rng import rng_stream
from lsradapt.train_harness import recovery_error

from oracles import (
    _stream,
    dense_adam_recovery,
    jacobi_singular_values,
    reference_batches,
    reference_train,
)


class TestGenTask:
    def test_deterministic(self):
        a = gen_task(8, 6, DensePlant(), 10, 0.1, seed=3)
        b = gen_task(8, 6, DensePlant(), 10, 0.1, seed=3)
        for name in ("W", "delta_star", "inputs", "targets"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()

    def test_negative_seed_refused_by_name(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            rng_stream(-1, "task-base")
        with pytest.raises(ValueError, match="seed must be >= 0, got -2"):
            gen_task(8, 6, DensePlant(), 4, 0.0, seed=-2)

    def test_empty_sample_list_is_valid(self):
        task = gen_task(8, 6, DensePlant(), 0, 0.0, seed=1)
        assert task.n_samples == 0
        assert task.inputs.shape == (0, 6)

    def test_unit_norm_update(self):
        for plant in (DensePlant(), LowRankPlant(2),
                      KronSumPlant(2, Shape(4, 3), Shape(2, 2)),
                      LsrProductPlant(2, plan_shapes(8, 6, 2))):
            task = gen_task(8, 6, plant, 4, 0.0, seed=7)
            assert abs(np.linalg.norm(task.delta_star) - 1.0) <= 1e-12

    def test_kron_sum_plant_structure(self):
        # a 2-term plant rearranges to a rank-2 matrix
        task = gen_task(24, 4, KronSumPlant(2, Shape(6, 2), Shape(4, 2)),
                        0, 0.0, seed=5)
        sigma = jacobi_singular_values(
            rearrange(task.delta_star, Shape(6, 2), Shape(4, 2)))
        assert sigma[1] > 1e-3
        assert sigma[2] <= 1e-12 * sigma[0]

    def test_low_rank_plant_structure(self):
        task = gen_task(10, 8, LowRankPlant(3), 0, 0.0, seed=5)
        sigma = jacobi_singular_values(task.delta_star)
        assert sigma[2] > 1e-6
        assert sigma[3] <= 1e-12 * sigma[0]

    def test_noiseless_targets_exact(self):
        task = gen_task(6, 5, DensePlant(), 8, 0.0, seed=2)
        want = task.inputs @ (task.W + task.delta_star).T
        assert np.array_equal(task.targets, want)

    def test_noise_changes_targets(self):
        clean = gen_task(6, 5, DensePlant(), 8, 0.0, seed=2)
        noisy = gen_task(6, 5, DensePlant(), 8, 0.5, seed=2)
        assert not np.array_equal(clean.targets, noisy.targets)
        assert np.array_equal(clean.inputs, noisy.inputs)

    @pytest.mark.parametrize("noise_std", [-1.0, np.nan, np.inf, -np.inf])
    def test_invalid_noise_refused_before_any_draw(self, monkeypatch,
                                                   noise_std):
        def no_draw(*args):
            raise AssertionError("drew before checking noise_std")
        monkeypatch.setattr(train_harness, "rng_stream", no_draw)
        with pytest.raises(ValueError, match="noise_std must be finite"):
            gen_task(6, 5, DensePlant(), 8, noise_std, seed=2)

    def test_kron_plants_keep_draw_order(self):
        # per term: the left then the right factor (KronSumPlant), or A1,
        # A2, B1, B2 (LsrProductPlant), all from the "task-plant" stream
        plan = plan_shapes(12, 10, 4)
        cases = [
            (KronSumPlant(3, Shape(4, 5), Shape(3, 2)),
             [[(4, 5), (3, 2)]]),
            (LsrProductPlant(3, plan),
             [[(plan.a1, plan.r1), (plan.a2, plan.r2)],
              [(plan.r1, plan.b1), (plan.r2, plan.b2)]]),
        ]
        for plant, sides in cases:
            g = _stream(21, "task-plant")
            sums = [0.0 for _ in sides]
            for _ in range(plant.s):
                for i, (left, right) in enumerate(sides):
                    sums[i] = sums[i] + np.kron(g.normal(size=left),
                                                g.normal(size=right))
            want = sums[0] if len(sums) == 1 else sums[0] @ sums[1]
            want = want / np.linalg.norm(want)
            task = gen_task(12, 10, plant, 0, 0.0, seed=21)
            err = np.linalg.norm(task.delta_star - want) / np.linalg.norm(want)
            assert err <= 1e-12, plant
        # DensePlant: one (12, 10) draw; LowRankPlant(3): (12, 3) then
        # (3, 10), multiplied; both match their draws bit for bit
        g = _stream(21, "task-plant")
        dense = g.normal(size=(12, 10))
        g = _stream(21, "task-plant")
        low_rank = g.normal(size=(12, 3)) @ g.normal(size=(3, 10))
        for plant, want in ((DensePlant(), dense),
                            (LowRankPlant(3), low_rank)):
            task = gen_task(12, 10, plant, 0, 0.0, seed=21)
            assert np.array_equal(task.delta_star,
                                  want / np.linalg.norm(want)), plant

    @pytest.mark.parametrize("plant", [
        LowRankPlant(0), LowRankPlant(11),
        KronSumPlant(0, Shape(4, 5), Shape(3, 2)),
        LsrProductPlant(0, plan_shapes(12, 10, 4)),
        LsrProductPlant(2, plan_shapes(12, 12, 4)),
    ], ids=["rank-0", "rank-11", "kron-terms-0", "lsr-terms-0", "lsr-plan"])
    def test_plant_checks_its_parameters(self, plant):
        with pytest.raises(ValueError):
            gen_task(12, 10, plant, 4, 0.0, seed=0)

    @pytest.mark.parametrize("left, right", [
        (Shape(-2, 5), Shape(-6, 2)), (Shape(12, 0), Shape(1, 10))])
    def test_kron_plant_refuses_non_positive_sizes(self, left, right):
        # (-2)(-6) = 12 would pass the product check alone
        with pytest.raises(ValueError, match="positive sizes"):
            gen_task(12, 10, KronSumPlant(2, left, right), 4, 0.0, seed=0)

    def test_nonconforming_plant(self):
        with pytest.raises(ValueError):
            gen_task(8, 6, KronSumPlant(1, Shape(3, 2), Shape(2, 2)),
                     4, 0.0, seed=0)


def small_task(seed=11, n=32):
    plan = plan_shapes(12, 12, 4)
    task = gen_task(12, 12, LsrProductPlant(2, plan), n, 0.0, seed=seed)
    return plan, task


class TestTrain:
    def test_zero_steps(self):
        plan, task = small_task()
        layer = init(task.W, plan, 2, alpha=1.0, seed=1)
        before = {k: getattr(layer, k).copy()
                  for k in ("A1", "A2", "B1", "B2")}
        report = train(layer, task, OptimizerConfig(steps=0))
        assert len(report.loss_curve) == 1
        assert report.final_loss == report.loss_curve[0]
        for k, arr in before.items():
            assert np.array_equal(getattr(layer, k), arr)

    def test_alpha_zero_constant_curve(self):
        plan, task = small_task()
        layer = init(task.W, plan, 2, alpha=0.0, seed=1)
        report = train(layer, task, OptimizerConfig(steps=40, batch_size=8))
        assert len(set(report.loss_curve)) == 1

    def test_deterministic_curve(self):
        plan, task = small_task()
        cfg = OptimizerConfig(steps=60, batch_size=8, seed=4)
        runs = []
        for _ in range(2):
            layer = init(task.W, plan, 2, alpha=1.0, seed=4)
            runs.append(train(layer, task, cfg).loss_curve)
        assert runs[0] == runs[1]

    def test_sgd_small_lr_monotone(self):
        # full-batch descent at a small rate: the observed dataset loss
        # must not increase over the first 100 steps
        plan, task = small_task(n=32)
        layer = init(task.W, plan, 2, alpha=1.0, seed=6)
        cfg = OptimizerConfig(kind="sgd", learning_rate=1e-3, momentum=0.0,
                              steps=100, batch_size=32, seed=6)
        curve = train(layer, task, cfg).loss_curve
        assert len(curve) == 101
        for later, earlier in zip(curve[1:], curve[:-1]):
            assert later <= earlier + 1e-12

    def test_divergence_raises_with_step(self):
        plan, task = small_task()
        layer = init(task.W, plan, 2, alpha=1.0, seed=2)
        cfg = OptimizerConfig(kind="sgd", learning_rate=1e12, steps=200,
                              batch_size=8, seed=2)
        with pytest.raises(DivergenceError) as err:
            train(layer, task, cfg)
        assert err.value.step >= 0

    @pytest.mark.parametrize("kind", ["adam", "sgd"])
    def test_overflowed_gradient_is_divergence(self, kind):
        # at alpha 1e300 the first B2 gradient (~1e299) is finite but its
        # square is not: Adam's second moment would turn inf, every update 0
        plan, task = small_task()
        layer = init(task.W, plan, 2, alpha=1e300, seed=2)
        cfg = OptimizerConfig(kind=kind, steps=5, batch_size=8, seed=2)
        with pytest.raises(DivergenceError,
                           match="non-finite gradient at step 0") as err:
            train(layer, task, cfg)
        assert err.value.step == 0

    def test_planted_recovery(self):
        plan, task = small_task(seed=13, n=64)
        layer = init(task.W, plan, 2, alpha=1.0, seed=13)
        cfg = OptimizerConfig(kind="adam", learning_rate=1e-2, steps=700,
                              batch_size=16, seed=13)
        report = train(layer, task, cfg)
        assert report.recovery_error <= 5e-2
        assert report.trainable_params == count_params_lsr(plan, 2)

    def test_lora_training(self):
        _, task = small_task(seed=14, n=64)
        layer = lora_init(task.W, r=4, alpha=1.0, seed=14)
        cfg = OptimizerConfig(kind="adam", learning_rate=1e-2, steps=700,
                              batch_size=16, seed=14)
        report = train(layer, task, cfg)
        assert report.recovery_error <= 5e-2
        assert report.trainable_params == count_params_lora(12, 12, 4)

    @pytest.mark.parametrize("kind,alpha", [("lsr", 1.0), ("lsr", 0.5),
                                            ("lora", 1.0)])
    def test_recovery_matches_dense_adam_oracle(self, kind, alpha):
        # one batched forward/backward per step against an oracle that
        # materializes the update at every step; only summation order differs
        w1, w2, r, s, seed = 12, 8, 4, 2, 21
        plan = plan_shapes(w1, w2, r)
        task = gen_task(w1, w2, LsrProductPlant(2, plan), 24, 0.0, seed=seed)
        if kind == "lsr":
            layer = init(task.W, plan, s, alpha=alpha, seed=seed)
        else:
            layer = lora_init(task.W, r, alpha=alpha, seed=seed)
        cfg = OptimizerConfig(kind="adam", learning_rate=1e-2, steps=40,
                              batch_size=10, seed=seed)
        got = train(layer, task, cfg).recovery_error
        want = dense_adam_recovery(kind, w1, w2, r, s, 2, 24, 40, 10, 1e-2,
                                   seed, alpha=alpha)
        assert isinstance(got, float)
        assert abs(got - want) <= 1e-8 * want

    def test_recovery_error_row_blocks(self):
        # 150 rows span several row blocks, the last one partial
        g = np.random.default_rng(18)
        plan = plan_shapes(150, 20, 4)
        task = gen_task(150, 20, LsrProductPlant(2, plan), 0, 0.0, seed=18)
        layer = init(task.W, plan, 2, alpha=0.7, seed=18)
        layer.B2[...] = g.normal(size=layer.B2.shape)
        lora = lora_init(task.W, r=3, alpha=0.7, seed=18)
        lora.B[...] = g.normal(size=lora.B.shape)
        for lay, delta in ((layer, materialize_delta(layer)),
                           (lora, lora.A @ lora.B)):
            want = np.linalg.norm(lay.alpha * delta - task.delta_star)
            got = recovery_error(lay, task)
            assert isinstance(got, float)
            assert abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize("change", [
        dict(kind="lbfgs"), dict(learning_rate=0.0), dict(momentum=1.0),
        dict(steps=-1), dict(batch_size=0),
        dict(learning_rate=np.inf), dict(learning_rate=np.nan),
        dict(eps_hat=0.0), dict(eps_hat=-1.0), dict(eps_hat=np.nan),
        dict(eps_hat=np.inf),
    ], ids=lambda change: "-".join(f"{k}={v}" for k, v in change.items()))
    def test_invalid_config_refused(self, change):
        with pytest.raises(ValueError):
            OptimizerConfig(**change)

    def test_empty_task_rejected(self):
        plan, _ = small_task()
        task = gen_task(12, 12, DensePlant(), 0, 0.0, seed=1)
        layer = init(task.W, plan, 2, seed=1)
        with pytest.raises(ValueError):
            train(layer, task, OptimizerConfig(steps=1))


def fresh_layer(kind, task, plan, seed):
    if kind == "lsr":
        return init(task.W, plan, 2, alpha=1.0, seed=seed)
    return lora_init(task.W, r=4, alpha=1.0, seed=seed)


class TestFusedStep:
    """``train`` forms the factors once per parameter state and updates
    one flat buffer in one fused step; its results equal, bit for bit,
    those of a reference loop over the public forward and backward with
    per-array updates (``oracles.reference_train``)."""

    @pytest.mark.parametrize("steps", [30, 250])
    @pytest.mark.parametrize("opt", ["adam", "sgd"])
    @pytest.mark.parametrize("kind", ["lsr", "lora"])
    def test_matches_reference_loop(self, kind, opt, steps):
        plan, task = small_task(seed=19, n=40)
        cfg = OptimizerConfig(kind=opt, momentum=0.9 if opt == "sgd" else 0.0,
                              learning_rate=1e-2 if opt == "adam" else 1e-3,
                              steps=steps, batch_size=12, seed=19)
        layer = fresh_layer(kind, task, plan, 19)
        ref = fresh_layer(kind, task, plan, 19)
        report = train(layer, task, cfg)
        curve = reference_train(ref, task, cfg)
        # steps 30 logs every step, steps 250 every second step
        assert len(curve) == 1 + min(steps, 125)
        assert report.loss_curve == curve
        assert report.recovery_error == recovery_error(ref, task)
        assert np.array_equal(layer.flat, ref.flat)

    @pytest.mark.parametrize("n, batch", [
        (128, 32), (16, 16), (10, 32), (128, 7), (1, 1), (1, 5)])
    def test_batches_match_reference_sampler(self, n, batch):
        # at least three epochs, with batch > n and n = 1 among the cases
        got = train_harness._batches(n, batch, seed=23)
        want = reference_batches(n, batch, seed=23)
        for _ in range(-(-3 * n // batch) + 2):
            assert np.array_equal(next(got), next(want))


class TestFlatBuffer:
    @pytest.mark.parametrize("kind", ["lsr", "lora"])
    def test_params_are_views_of_one_buffer(self, kind):
        plan, task = small_task()
        layer = fresh_layer(kind, task, plan, 3)
        params = layer.params
        assert layer.flat.ndim == 1 and layer.flat.flags.c_contiguous
        assert layer.flat.size == layer.n_params
        start = 0
        for name, p in params.items():
            assert p is getattr(layer, name), name
            assert np.shares_memory(p, layer.flat), name
            assert np.array_equal(p.reshape(-1),
                                  layer.flat[start:start + p.size]), name
            start += p.size
        train(layer, task, OptimizerConfig(steps=3, batch_size=8))
        for name, p in layer.params.items():
            assert p is params[name], name
            assert np.shares_memory(p, layer.flat), name

    @pytest.mark.parametrize("kind", ["lsr", "lora"])
    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda layer:
                                       pickle.loads(pickle.dumps(layer))],
                             ids=["deepcopy", "pickle"])
    def test_copies_keep_their_views_bound(self, kind, clone):
        plan, task = small_task()
        layer = fresh_layer(kind, task, plan, 3)
        twin = clone(layer)
        assert not np.shares_memory(twin.flat, layer.flat)
        for name, p in twin.params.items():
            assert p is getattr(twin, name), name
            assert np.shares_memory(p, twin.flat), name
        cfg = OptimizerConfig(steps=20, batch_size=8)
        want = train(layer, task, cfg).loss_curve
        assert train(twin, task, cfg).loss_curve == want
        assert np.array_equal(twin.flat, layer.flat)

    def test_constructor_copies_its_arrays(self):
        g = np.random.default_rng(20)
        plan = plan_shapes(12, 12, 4)
        W = g.normal(size=(12, 12))
        stacks = [g.normal(size=(2, plan.a1, plan.r1)),
                  g.normal(size=(2, plan.a2, plan.r2)),
                  g.normal(size=(2, plan.r1, plan.b1)),
                  g.normal(size=(2, plan.r2, plan.b2))]
        A, B = g.normal(size=(12, 4)), g.normal(size=(4, 12))
        layers = [LsrAdaptLayer(W, 0.5, plan, 2, *stacks),
                  LoraLayer(W, 0.5, A, B)]
        before = [layer.flat.copy() for layer in layers]
        for arr in (*stacks, A, B):
            arr[...] = 7.0
        for layer, flat in zip(layers, before):
            assert np.array_equal(layer.flat, flat)

    @pytest.mark.parametrize("name", ["inputs", "targets"])
    def test_non_finite_task_refused_before_step_0(self, name, monkeypatch):
        plan, task = small_task()
        getattr(task, name)[3, 2] = np.nan
        layer = init(task.W, plan, 2, alpha=1.0, seed=1)
        before = layer.flat.copy()
        losses = []
        monkeypatch.setattr(train_harness, "_dataset_loss",
                            lambda *args: losses.append(args))
        with pytest.raises(ValueError, match=f"task.{name}"):
            train(layer, task, OptimizerConfig(steps=5, batch_size=8))
        assert losses == []
        assert np.array_equal(layer.flat, before)


class TestCompare:
    def test_reports_param_ratio(self):
        plan, task = small_task(seed=15, n=16)
        cfg = OptimizerConfig(steps=5, batch_size=8, seed=15)
        result = compare(task, lora_r=4, lsr_plan=plan, lsr_s=2, config=cfg)
        lora_n = count_params_lora(12, 12, 4)
        lsr_n = count_params_lsr(plan, 2)
        assert result.lora.trainable_params == lora_n
        assert result.lsr.trainable_params == lsr_n
        assert result.param_ratio == lsr_n / lora_n

    def test_deterministic(self):
        plan, task = small_task(seed=16, n=16)
        cfg = OptimizerConfig(steps=10, batch_size=8, seed=16)
        a = compare(task, 4, plan, 2, cfg)
        b = compare(task, 4, plan, 2, cfg)
        assert a.lora.loss_curve == b.lora.loss_curve
        assert a.lsr.loss_curve == b.lsr.loss_curve

    def test_matched_structure_recovery_band(self):
        # the plant matches the factored adapter's structure; its recovery
        # must not trail the baseline by more than the tolerance band
        plan, task = small_task(seed=17, n=64)
        cfg = OptimizerConfig(kind="adam", learning_rate=1e-2, steps=700,
                              batch_size=16, seed=17)
        result = compare(task, lora_r=4, lsr_plan=plan, lsr_s=2, config=cfg)
        assert result.lsr.recovery_error \
            <= result.lora.recovery_error + 0.05
