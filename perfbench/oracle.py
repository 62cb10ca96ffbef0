"""Independent references for the benchmark's correctness checks.

Nothing here imports lsradapt.  The training reference re-derives the
planted task, the adapter init, the minibatch order and the Adam updates
from the documented seeding scheme (named Philox substreams keyed by
crc32 of the stream name) and evaluates every step densely: the update
matrix is materialized and the factor gradients are contracted out of
the dense gradient, so it shares no arithmetic with the matrix-free
kernels it checks.
"""

import math
import zlib

import numpy as np


def stream(seed, *path):
    key = tuple(zlib.crc32(p.encode("utf-8")) if isinstance(p, str) else int(p)
                for p in path)
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


def balanced_split(n):
    d = math.isqrt(n)
    while d > 1 and n % d:
        d -= 1
    return n // d, d


def kron_sum(first, second):
    return sum(np.kron(first[k], second[k]) for k in range(len(first)))


def planted_task(w, r, plant_terms, n_samples, seed):
    """W, unit-norm planted product-of-Kronecker-sums update, inputs and
    noise-free targets, drawn in the library's documented order."""
    a1, a2 = balanced_split(w)
    r1, r2 = balanced_split(r)
    W = stream(seed, "task-base").normal(size=(w, w))
    g = stream(seed, "task-plant")
    a_sum = np.zeros((w, r))
    b_sum = np.zeros((r, w))
    for _ in range(plant_terms):
        a_sum += np.kron(g.normal(size=(a1, r1)), g.normal(size=(a2, r2)))
        b_sum += np.kron(g.normal(size=(r1, a1)), g.normal(size=(r2, a2)))
    delta = a_sum @ b_sum
    delta = delta / np.linalg.norm(delta)
    X = stream(seed, "task-inputs").normal(size=(n_samples, w))
    return W, delta, X, X @ (W + delta).T


def _batches(n, batch, seed):
    rng = stream(seed, "shuffle")
    order = rng.permutation(n)
    pos = 0
    while True:
        idx = []
        while len(idx) < batch:
            if pos == n:
                order = rng.permutation(n)
                pos = 0
            take = min(batch - len(idx), n - pos)
            idx.extend(order[pos:pos + take])
            pos += take
        yield idx


def _factor_grads(G, first, second):
    """Gradients of <G, sum_k first[k] (x) second[k]> w.r.t. both stacks."""
    s, p, q = first.shape
    _, u, v = second.shape
    blocks = G.reshape(p, u, q, v)
    return (np.einsum("iajb,kab->kij", blocks, second),
            np.einsum("iajb,kij->kab", blocks, first))


def train_recovery_error(kind, w, r, s, plant_r, plant_terms, n_total,
                         n_train, steps, batch, lr, seed, alpha=1.0):
    """Recovery error after ``steps`` Adam steps (beta 0.9/0.999, eps 1e-8)
    of the factored adapter (``kind == "lsr"``, inner rank r, s terms) or
    the rank-r baseline (``kind == "lora"``), from the standard init, on
    the first ``n_train`` samples of a task drawn with ``n_total`` samples
    whose plant has inner rank ``plant_r``."""
    W, delta, X, T = planted_task(w, plant_r, plant_terms, n_total, seed)
    X, T = X[:n_train], T[:n_train]
    if kind == "lsr":
        a1, a2 = balanced_split(w)
        r1, r2 = balanced_split(r)
        g = stream(seed, "adapter-init")
        std = np.sqrt(1.0 / w)
        P = {"A1": g.normal(0.0, std, size=(s, a1, r1)),
             "A2": g.normal(0.0, std, size=(s, a2, r2)),
             "B1": g.normal(0.0, np.sqrt(1.0 / r), size=(s, r1, a1)),
             "B2": np.zeros((s, r2, a2))}
    else:
        g = stream(seed, "lora-init")
        P = {"A": g.normal(0.0, np.sqrt(1.0 / w), size=(w, r)),
             "B": np.zeros((r, w))}

    def factors():
        if kind == "lsr":
            return (kron_sum(P["A1"], P["A2"]), kron_sum(P["B1"], P["B2"]))
        return P["A"], P["B"]

    m = {k: np.zeros_like(v) for k, v in P.items()}
    v2 = {k: np.zeros_like(v) for k, v in P.items()}
    batches = _batches(n_train, batch, seed)
    for t in range(1, steps + 1):
        idx = next(batches)
        A, B = factors()
        xb = X[idx]
        resid = xb @ (W + alpha * A @ B).T - T[idx]
        gA = alpha * resid.T @ (xb @ B.T) / len(idx)
        gB = alpha * (resid @ A).T @ xb / len(idx)
        if kind == "lsr":
            grads = dict(zip(("A1", "A2"), _factor_grads(gA, P["A1"], P["A2"])))
            grads.update(zip(("B1", "B2"), _factor_grads(gB, P["B1"], P["B2"])))
        else:
            grads = {"A": gA, "B": gB}
        bc1 = 1.0 - 0.9**t
        bc2 = 1.0 - 0.999**t
        for k in P:
            m[k] = 0.9 * m[k] + 0.1 * grads[k]
            v2[k] = 0.999 * v2[k] + 0.001 * grads[k] ** 2
            P[k] = P[k] - lr * (m[k] / bc1) / (np.sqrt(v2[k] / bc2) + 1e-8)
    A, B = factors()
    return float(np.linalg.norm(alpha * A @ B - delta) / np.linalg.norm(delta))


def kron_tail_error(M, left, right, terms):
    """Frobenius error of the best ``terms``-term Kronecker-sum
    approximation: the singular-value tail of the block rearrangement."""
    lr, lc = left
    rr, rc = right
    R = M.reshape(lr, rr, lc, rc).transpose(2, 0, 3, 1).reshape(lr * lc, rr * rc)
    sigma = np.linalg.svd(R, compute_uv=False)
    return float(np.sqrt(np.sum(sigma[terms:] ** 2)))


def rel_err(got, want):
    ref = np.linalg.norm(want)
    diff = np.linalg.norm(np.asarray(got) - np.asarray(want))
    return diff / ref if ref > 0 else diff
