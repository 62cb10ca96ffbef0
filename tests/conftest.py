"""Shared fixtures."""

import pytest

from lsradapt import adapter


@pytest.fixture
def inject_gradient_sign_fault(monkeypatch):
    """A function that, once called, negates the A1 gradient of every
    ``adapter.backward`` call for the rest of the test: the defect that
    ``verify``'s gradient check must catch.  Both layers' ``backward``
    method looks the module function up on each call, so the patch
    reaches them too."""
    def inject():
        clean = adapter.backward

        def faulty(layer, x, g):
            grads, dx = clean(layer, x, g)
            if "A1" in grads:
                grads["A1"] = -grads["A1"]
            return grads, dx

        monkeypatch.setattr(adapter, "backward", faulty)
    return inject
