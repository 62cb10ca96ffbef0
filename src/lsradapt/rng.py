"""Seeded, splittable random streams.

Every random draw in the library flows from a single integer seed through
named substreams, so that components (task generation, adapter init,
minibatch shuffling, ...) are independent of each other and reproducible
across runs regardless of call order.
"""

import zlib

import numpy as np


def _key_part(part) -> int:
    if isinstance(part, (int, np.integer)):
        return int(part)
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    raise TypeError(f"stream path parts must be int or str, got {type(part)!r}")


def rng_stream(seed: int, *path) -> np.random.Generator:
    """Counter-based generator for the substream named by ``path``.

    Streams with distinct paths are statistically independent; the same
    (seed, path) always yields the same sequence.  A negative seed is
    refused with a ``ValueError`` that names it.
    """
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    ss = np.random.SeedSequence(entropy=seed,
                                spawn_key=tuple(_key_part(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))
