"""Span tracing around lsradapt's layer boundaries, from outside the package.

The library resolves its collaborators through module globals at call
time (``adapter._apply2``, ``train_harness._dataset_loss``, the ``adapter``
module attribute ``forward`` ...).  ``Tracer.install`` replaces every
binding of a traced function, in every lsradapt module and in the package
namespace, by a wrapper that records a span; ``Tracer.restore`` puts the
originals back.  Nothing under ``src/`` is edited.

A span's busy time is its duration; its self time is the duration minus
that of its direct child spans.  Busy time is also kept per parent span
name, so a helper can be split by caller (for example the B-side sum under
``forward`` versus under ``backward``).
"""

import os
import sys
import time
from collections import defaultdict
from functools import lru_cache

from lsradapt import adapter, cli, io, kron_core, lsr_repr, rng, train_harness

MODULES = ("lsradapt", "lsradapt.kron_core", "lsradapt.lsr_repr",
           "lsradapt.adapter", "lsradapt.train_harness", "lsradapt.io",
           "lsradapt.cli", "lsradapt.rng", "lsradapt.verify")


def _flops(args, _result):
    return "kron_core.apply2.flops", _apply2_flops(args[0].shape, args[1].shape)


@lru_cache(maxsize=None)
def _apply2_flops(p_shape, q_shape):
    return kron_core.apply_kron2_flops(p_shape, q_shape)


def _bytes_read(args, _result):
    return "io.bytes_read", os.path.getsize(args[0])


def _bytes_written_arg(args, _result):
    return "io.bytes_written", os.path.getsize(args[0])


def _bytes_written_result(_args, result):
    return "io.bytes_written", os.path.getsize(result)


# (owner, attribute, span name, counter hook) for every traced callable,
# owner being the module (or class) that defines it
TARGETS = [
    (kron_core, "_apply2", "kron_core.apply2", _flops),
    (kron_core, "apply_kron2", "kron_core.apply_kron2", None),
    (kron_core, "as_vector", "kron_core.as_vector", None),
    (adapter, "forward", "adapter.forward", None),
    (adapter, "backward", "adapter.backward", None),
    (adapter, "_apply_b", "adapter.b_side", None),
    (adapter, "_apply_a", "adapter.a_side", None),
    (adapter, "lora_forward", "adapter.lora_forward", None),
    (adapter, "lora_backward", "adapter.lora_backward", None),
    (adapter, "materialize_delta", "adapter.materialize_delta", None),
    (adapter, "init", "adapter.init", None),
    (adapter, "lora_init", "adapter.lora_init", None),
    (train_harness, "train", "train_harness.train", None),
    (train_harness, "_dataset_loss", "train_harness.loss_eval", None),
    (train_harness._Optimizer, "step", "train_harness.optimizer", None),
    (train_harness, "gen_task", "train_harness.gen_task", None),
    (lsr_repr, "nearest_kron_sum", "lsr_repr.nearest_kron_sum", None),
    (lsr_repr, "truncated_svd", "lsr_repr.truncated_svd", None),
    (lsr_repr, "rearrange", "lsr_repr.rearrange", None),
    (lsr_repr, "materialize", "lsr_repr.materialize", None),
    (lsr_repr, "condition_number", "lsr_repr.condition_number", None),
    (lsr_repr, "check_precision", "lsr_repr.check_precision", None),
    (lsr_repr, "apply", "lsr_repr.apply", None),
    (io, "read_matrix", "io.read_matrix", _bytes_read),
    (io, "read_separated", "io.read_separated", _bytes_read),
    (io, "write_separated", "io.write_separated", _bytes_written_result),
    (io, "write_matrix_binary", "io.write_matrix", _bytes_written_arg),
    (io, "write_matrix_text", "io.write_matrix", _bytes_written_arg),
    (rng, "rng_stream", "rng.rng_stream", None),
    (cli, "main", "cli.main", None),
]


class Tracer:
    def __init__(self):
        self.stack = []                       # [name, child_ns] frames
        self.calls = defaultdict(int)
        self.busy_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.busy_by_parent_ns = defaultdict(int)   # (name, parent) -> ns
        self.calls_by_phase = defaultdict(int)      # (name, phase) -> calls
        self.counters = defaultdict(int)
        self.phase = None
        self._patched = []                    # (owner, attr, original)

    def _wrap(self, fn, name, hook):
        stack = self.stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            frame = [name, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dt
                self.calls[name] += 1
                self.busy_ns[name] += dt
                self.self_ns[name] += dt - frame[1]
                self.busy_by_parent_ns[name, parent[0] if parent else None] += dt
                self.calls_by_phase[name, self.phase] += 1
            if hook is not None:
                key, amount = hook(args, result)
                self.counters[key] += amount
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for owner, attr, name, hook in TARGETS:
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, hook)
            owners = [owner] if isinstance(owner, type) else [
                sys.modules[m] for m in MODULES if m in sys.modules]
            for mod in owners:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def restore(self):
        """Put every original back; returns the number of bindings that
        did not end up restored (0 on success)."""
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        bad = sum(getattr(mod, key) is not original
                  for mod, key, original in self._patched)
        self._patched = []
        return bad

    def busy_s(self, name):
        return self.busy_ns[name] / 1e9

    def self_s(self, name):
        return self.self_ns[name] / 1e9

    def busy_under_s(self, name, parent):
        return self.busy_by_parent_ns[name, parent] / 1e9
