"""Independent oracles used by the test suite.

These deliberately avoid the library's own code paths: the Kronecker
oracle is a naive quadruple loop, the SVD oracle is a one-sided Jacobi
iteration, gradients come from central finite differences, and the
training reference runs Adam on materialized update matrices.  Nothing
here imports the library; ``reference_train`` drives a layer only
through its public ``params``, ``forward`` and ``backward``.
"""

import math
import zlib

import numpy as np


def naive_kron(U, V):
    """Block-expansion Kronecker product by explicit loops."""
    U = np.asarray(U, dtype=float)
    V = np.asarray(V, dtype=float)
    ur, uc = U.shape
    vr, vc = V.shape
    out = np.zeros((ur * vr, uc * vc))
    for i in range(ur):
        for j in range(uc):
            for k in range(vr):
                for l in range(vc):
                    out[i * vr + k, j * vc + l] = U[i, j] * V[k, l]
    return out


def stacked(terms):
    """Per-term ``(weight, factors)`` literals as the ``(weights, stacks)``
    a separated representation takes: one stack per factor position."""
    terms = list(terms)
    return ([w for w, _ in terms],
            tuple(map(np.array, zip(*(fs for _, fs in terms)))))


def naive_rearrange(D, m1, c1, m2, c2):
    """Van Loan-Pitsianis rearrangement by explicit loops: entry
    [(i, j), (a, b)] of the (m1*c1) x (m2*c2) result is D[(i, a), (j, b)],
    pairs flattened row-major."""
    D = np.asarray(D, dtype=float)
    out = np.zeros((m1 * c1, m2 * c2))
    for i in range(m1):
        for j in range(c1):
            for a in range(m2):
                for b in range(c2):
                    out[i * c1 + j, a * c2 + b] = D[i * m2 + a, j * c2 + b]
    return out


def naive_kron_sum_grads(D, first, second):
    """Gradients of <D, sum_k first[k] (x) second[k]> with respect to both
    stacks, by explicit loops over every entry of every term."""
    D = np.asarray(D, dtype=float)
    s, m1, c1 = first.shape
    _, m2, c2 = second.shape
    g_first = np.zeros(first.shape)
    g_second = np.zeros(second.shape)
    for k in range(s):
        for i in range(m1):
            for j in range(c1):
                for a in range(m2):
                    for b in range(c2):
                        d = D[i * m2 + a, j * c2 + b]
                        g_first[k, i, j] += d * second[k, a, b]
                        g_second[k, a, b] += d * first[k, i, j]
    return g_first, g_second


def jacobi_singular_values(M, max_sweeps=60, tol=1e-14):
    """Singular values via one-sided Jacobi rotations on the columns.

    Rotates column pairs until all pairs are numerically orthogonal; the
    singular values are then the column norms, returned descending.
    """
    A = np.array(M, dtype=float)
    if A.shape[0] < A.shape[1]:
        A = A.T
    n = A.shape[1]
    scale = np.linalg.norm(A)
    if scale == 0.0:
        return np.zeros(n)
    for _ in range(max_sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = float(A[:, p] @ A[:, q])
                app = float(A[:, p] @ A[:, p])
                aqq = float(A[:, q] @ A[:, q])
                denom = math.sqrt(app * aqq)
                if denom > 0.0:
                    off = max(off, abs(apq) / denom)
                if apq == 0.0:
                    continue
                tau = (aqq - app) / (2.0 * apq)
                t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = c * t
                ap = A[:, p].copy()
                aq = A[:, q].copy()
                A[:, p] = c * ap - s * aq
                A[:, q] = s * ap + c * aq
        if off < tol:
            break
    values = np.sort(np.linalg.norm(A, axis=0))[::-1]
    return values


def central_diff(loss, array, step=1e-6):
    """Central finite differences of a scalar ``loss()`` w.r.t. ``array``,
    perturbing entries in place."""
    out = np.zeros_like(array)
    flat = array.reshape(-1)
    out_flat = out.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        up = loss()
        flat[i] = orig - step
        down = loss()
        flat[i] = orig
        out_flat[i] = (up - down) / (2.0 * step)
    return out


def rel_err(got, want):
    """Norm-wise relative error with a graceful zero-reference fallback."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    ref = np.linalg.norm(want)
    diff = np.linalg.norm(got - want)
    return diff / ref if ref > 0 else diff


def _stream(seed, name):
    """The documented seeding scheme: a Philox generator keyed by the seed
    and the crc32 of the substream name."""
    ss = np.random.SeedSequence(entropy=int(seed),
                                spawn_key=(zlib.crc32(name.encode("utf-8")),))
    return np.random.Generator(np.random.Philox(ss))


def _split(n):
    """Most balanced factor pair (larger first)."""
    d = math.isqrt(n)
    while d > 1 and n % d:
        d -= 1
    return n // d, d


def _kron_sum(first, second):
    return sum(np.kron(first[k], second[k]) for k in range(len(first)))


def _kron_sum_grads(D, first, second):
    """Gradients of <D, sum_k first[k] (x) second[k]> w.r.t. both stacks."""
    _, p, q = first.shape
    _, u, v = second.shape
    blocks = D.reshape(p, u, q, v)
    return (np.einsum("iajb,kab->kij", blocks, second),
            np.einsum("iajb,kij->kab", blocks, first))


def dense_adam_recovery(kind, w1, w2, r, s, plant_terms, n_samples, steps,
                        batch, lr, seed, alpha=1.0):
    """Recovery error after ``steps`` Adam steps (beta 0.9/0.999, eps 1e-8)
    on a noise-free product-of-Kronecker-sums task whose plant has inner
    rank r and ``plant_terms`` terms.  ``kind`` is "lsr" (the factored
    adapter with s terms) or "lora" (a rank-r baseline); both start from
    their standard init and all seeds are ``seed``.  Every step
    materializes the update and contracts the factor gradients out of
    the dense gradients."""
    a1, a2 = _split(w1)
    b1, b2 = _split(w2)
    r1, r2 = _split(r)
    W = _stream(seed, "task-base").normal(size=(w1, w2))
    g = _stream(seed, "task-plant")
    a_sum = np.zeros((w1, r))
    b_sum = np.zeros((r, w2))
    for _ in range(plant_terms):
        a_sum += np.kron(g.normal(size=(a1, r1)), g.normal(size=(a2, r2)))
        b_sum += np.kron(g.normal(size=(r1, b1)), g.normal(size=(r2, b2)))
    delta = a_sum @ b_sum
    delta = delta / np.linalg.norm(delta)
    X = _stream(seed, "task-inputs").normal(size=(n_samples, w2))
    T = X @ (W + delta).T

    if kind == "lsr":
        g = _stream(seed, "adapter-init")
        std = np.sqrt(1.0 / w2)
        P = {"A1": g.normal(0.0, std, size=(s, a1, r1)),
             "A2": g.normal(0.0, std, size=(s, a2, r2)),
             "B1": g.normal(0.0, np.sqrt(1.0 / r), size=(s, r1, b1)),
             "B2": np.zeros((s, r2, b2))}
    else:
        g = _stream(seed, "lora-init")
        P = {"A": g.normal(0.0, np.sqrt(1.0 / w2), size=(w1, r)),
             "B": np.zeros((r, w2))}

    def factors():
        if kind == "lsr":
            return _kron_sum(P["A1"], P["A2"]), _kron_sum(P["B1"], P["B2"])
        return P["A"], P["B"]

    shuffle = _stream(seed, "shuffle")
    order = shuffle.permutation(n_samples)
    pos = 0
    m = {k: np.zeros_like(v) for k, v in P.items()}
    v2 = {k: np.zeros_like(v) for k, v in P.items()}
    for t in range(1, steps + 1):
        idx = []
        while len(idx) < batch:
            if pos == n_samples:
                order = shuffle.permutation(n_samples)
                pos = 0
            take = min(batch - len(idx), n_samples - pos)
            idx.extend(order[pos:pos + take])
            pos += take
        A, B = factors()
        xb = X[idx]
        resid = xb @ (W + alpha * A @ B).T - T[idx]
        gA = alpha * resid.T @ (xb @ B.T) / batch
        gB = alpha * (resid @ A).T @ xb / batch
        if kind == "lsr":
            dA1, dA2 = _kron_sum_grads(gA, P["A1"], P["A2"])
            dB1, dB2 = _kron_sum_grads(gB, P["B1"], P["B2"])
            grads = {"A1": dA1, "A2": dA2, "B1": dB1, "B2": dB2}
        else:
            grads = {"A": gA, "B": gB}
        for k in P:
            m[k] = 0.9 * m[k] + 0.1 * grads[k]
            v2[k] = 0.999 * v2[k] + 0.001 * grads[k] ** 2
            P[k] = P[k] - lr * (m[k] / (1.0 - 0.9**t)) / (
                np.sqrt(v2[k] / (1.0 - 0.999**t)) + 1e-8)
    A, B = factors()
    return float(np.linalg.norm(alpha * A @ B - delta) / np.linalg.norm(delta))


def reference_batches(n, batch_size, seed):
    """The documented sampler, written plainly: index batches of a
    sequential wrap-around over a permutation of range(n) from the
    ``shuffle`` stream, drawn again each time the last one runs out."""
    shuffle = _stream(seed, "shuffle")
    order, pos = shuffle.permutation(n), 0
    while True:
        parts, count = [], 0
        while count < batch_size:
            if pos == n:
                order, pos = shuffle.permutation(n), 0
            take = min(batch_size - count, n - pos)
            parts.append(order[pos:pos + take])
            pos += take
            count += take
        yield np.concatenate(parts)


def reference_train(layer, task, config):
    """Loss curve of the training loop written plainly, with ``layer``
    trained in place: per minibatch one public ``layer.forward`` and one
    ``layer.backward`` call (each forms the factors again), then SGD with
    momentum or Adam (beta 0.9/0.999) array by array over
    ``layer.params``; every dataset loss is one public forward over all
    inputs.  Batches come from ``reference_batches``.  The loss is logged
    at step 0, every max(1, steps // 100) steps and after the last step."""
    params = layer.params
    state = {k: (np.zeros_like(p), np.zeros_like(p)) for k, p in params.items()}
    n = len(task.inputs)
    batches = reference_batches(n, config.batch_size, config.seed)
    log_every = max(1, config.steps // 100)

    def dataset_loss():
        resid = layer.forward(task.inputs) - task.targets
        return 0.5 * float(np.vdot(resid, resid)) / n

    curve = [dataset_loss()]
    for t in range(1, config.steps + 1):
        idx = next(batches)
        x = task.inputs[idx]
        resid = layer.forward(x) - task.targets[idx]
        grads, _ = layer.backward(x, (1.0 / len(idx)) * resid)
        for k, p in params.items():
            m, v = state[k]
            if config.kind == "sgd":
                m *= config.momentum
                m += grads[k]
                p -= config.learning_rate * m
            else:
                m *= 0.9
                m += (1.0 - 0.9) * grads[k]
                v *= 0.999
                v += (1.0 - 0.999) * grads[k] ** 2
                p -= config.learning_rate * (m / (1.0 - 0.9**t)) / (
                    np.sqrt(v / (1.0 - 0.999**t)) + config.eps_hat)
        if t % log_every == 0 or t == config.steps:
            curve.append(dataset_loss())
    return curve
