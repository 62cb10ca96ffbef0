"""The benchmark's span tracer binds lsradapt callables by identity.

``perfbench/tracer.py`` wraps every binding of each ``TARGETS`` object in
every lsradapt module.  A target that no longer resolves breaks traced
runs, and two targets that are one object (an alias) would be wrapped
twice, so the library keeps every traced name as its own object.  The
training loop must also keep calling its traced phases, so that a traced
run still reports their spans.
"""

import importlib.util
from pathlib import Path

import pytest

from lsradapt import (
    LsrProductPlant,
    OptimizerConfig,
    gen_task,
    init,
    plan_shapes,
    train_harness,
)

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def targets(tracer):
    return tracer.TARGETS


def test_every_target_resolves(targets):
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in targets if not hasattr(owner, attr)]
    assert not missing
    assert all(callable(getattr(owner, attr)) for owner, attr, _, _ in targets)


def test_targets_are_distinct_objects(targets):
    resolved = [getattr(owner, attr) for owner, attr, _, _ in targets]
    assert len({id(obj) for obj in resolved}) == len(resolved)


def test_train_phases_are_traced(tracer):
    # 3 steps log the dataset loss at step 0 and after every step
    plan = plan_shapes(12, 12, 4)
    task = gen_task(12, 12, LsrProductPlant(2, plan), 16, 0.0, seed=5)
    layer = init(task.W, plan, 2, alpha=1.0, seed=5)
    t = tracer.Tracer()
    t.install()
    try:
        train_harness.train(layer, task, OptimizerConfig(steps=3, batch_size=8))
    finally:
        assert t.restore() == 0
    assert t.calls["train_harness.train"] == 1
    assert t.calls["train_harness.loss_eval"] == 4
    assert t.calls["train_harness.optimizer"] == 3
