"""The benchmark's span tracer binds lsradapt callables by identity.

``perfbench/tracer.py`` wraps every binding of each ``TARGETS`` object in
every lsradapt module.  A target that no longer resolves breaks traced
runs, and two targets that are one object (an alias) would be wrapped
twice, so the library keeps every traced name as its own object.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_target_resolves(targets):
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in targets if not hasattr(owner, attr)]
    assert not missing
    assert all(callable(getattr(owner, attr)) for owner, attr, _, _ in targets)


def test_targets_are_distinct_objects(targets):
    resolved = [getattr(owner, attr) for owner, attr, _, _ in targets]
    assert len({id(obj) for obj in resolved}) == len(resolved)
