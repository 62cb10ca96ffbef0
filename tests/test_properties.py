"""Property tests: file-format round trips, corrupted files, the stored
layout of a separated matrix, and the stacked Kronecker-sum kernels
against the loop oracles.

Hypothesis runs derandomized with a bounded example count and no example
database, so every run draws the same examples.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lsradapt import SeparatedMatrix, Shape, apply, materialize
from lsradapt.io import (
    read_matrix,
    read_separated,
    write_matrix_binary,
    write_matrix_text,
    write_separated,
)
from lsradapt.kron_core import (
    _dense_kron_sum,
    _kron_sum,
    _project,
    _side_by_side,
)

from oracles import naive_kron, naive_kron_sum_grads, rel_err, stacked

PROPERTY = settings(derandomize=True, max_examples=20, deadline=None,
                    database=None)

FINITE = st.floats(allow_nan=False, allow_infinity=False)
DIM = st.integers(1, 5)


@st.composite
def matrices(draw, max_dim=6):
    shape = (draw(st.integers(1, max_dim)), draw(st.integers(1, max_dim)))
    return draw(arrays(np.float64, shape, elements=FINITE))


@st.composite
def separated(draw):
    """A SeparatedMatrix of 0-3 terms with drawn two-factor shapes."""
    (m1, c1), (m2, c2) = draw(st.tuples(DIM, DIM)), draw(st.tuples(DIM, DIM))
    terms = [(draw(FINITE),
              [draw(arrays(np.float64, (m1, c1), elements=FINITE)),
               draw(arrays(np.float64, (m2, c2), elements=FINITE))])
             for _ in range(draw(st.integers(0, 3)))]
    return SeparatedMatrix(Shape(m1 * m2, c1 * c2), *stacked(terms))


# a seeded corruption: ("cut", keep fraction) or ("flip", position
# fraction, xor mask)
CORRUPTIONS = st.one_of(
    st.tuples(st.just("cut"), st.floats(0.0, 1.0, exclude_max=True)),
    st.tuples(st.just("flip"), st.floats(0.0, 1.0, exclude_max=True),
              st.integers(1, 255)))


def corrupt(path, how):
    data = bytearray(path.read_bytes())
    pos = int(how[1] * len(data))
    if how[0] == "cut":
        del data[pos:]
    else:
        data[pos] ^= how[2]
    path.write_bytes(bytes(data))


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@PROPERTY
@given(M=matrices(), writer=st.sampled_from([write_matrix_text,
                                             write_matrix_binary]))
def test_matrix_roundtrip_bit_exact(M, writer):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m"
        writer(path, M)
        assert same_bits(read_matrix(path), M)


@PROPERTY
@given(S=separated())
def test_separated_roundtrip_bit_exact(S):
    with tempfile.TemporaryDirectory() as tmp:
        back = read_separated(write_separated(S, tmp, name="p"))
    assert back.shape == S.shape and len(back.terms) == len(S.terms)
    for a, b in zip(back.terms, S.terms):
        assert np.float64(a.weight).tobytes() == np.float64(b.weight).tobytes()
        assert all(map(same_bits, a.factors, b.factors))


def mantissas(S):
    """S with every weight and entry replaced by its binary mantissa: the
    drawn signs and zeros, in [0.5, 1) magnitude, so no product overflows."""
    return SeparatedMatrix(S.shape, np.frexp(S.weights)[0],
                           tuple(np.frexp(F)[0] for F in S.stacks))


@PROPERTY
@given(S=separated())
def test_stored_layout_rebuilds_the_representation(S):
    rebuilt = SeparatedMatrix(S.shape, S.weights, S.stacks)
    assert rebuilt.shape == S.shape
    assert same_bits(rebuilt.weights, S.weights)
    assert len(rebuilt.stacks) == len(S.stacks)
    assert all(map(same_bits, rebuilt.stacks, S.stacks))


@PROPERTY
@given(S=separated(), seed=st.integers(0, 2**32 - 1))
def test_terms_view_rebuilds_the_stacks(S, seed):
    rebuilt = SeparatedMatrix(
        S.shape, *stacked((t.weight, t.factors) for t in S.terms))
    assert same_bits(rebuilt.weights, S.weights)
    assert len(rebuilt.stacks) == len(S.stacks)
    assert all(map(same_bits, rebuilt.stacks, S.stacks))
    # apply and materialize sum the same products in different orders;
    # both are within a few eps of the sum of their magnitudes
    M = mantissas(rebuilt)
    magnitude = SeparatedMatrix(M.shape, np.abs(M.weights),
                                tuple(map(np.abs, M.stacks)))
    x = np.random.default_rng(seed).normal(size=S.shape.cols)
    scale = np.linalg.norm(materialize(magnitude) @ np.abs(x))
    assert (np.linalg.norm(apply(M, x) - materialize(M) @ x)
            <= 1e-10 * scale)


@PROPERTY
@given(M=matrices(), writer=st.sampled_from([write_matrix_text,
                                             write_matrix_binary]),
       how=CORRUPTIONS)
def test_corrupted_matrix_reads_or_names_the_file(M, writer, how):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m"
        writer(path, M)
        corrupt(path, how)
        try:
            back = read_matrix(path)
        except ValueError as exc:
            assert str(path) in str(exc)
        else:
            assert back.ndim == 2 and np.all(np.isfinite(back))


@PROPERTY
@given(S=separated(), how=CORRUPTIONS, target=st.integers(0, 4))
def test_corrupted_manifest_or_factor_reads_or_names_the_file(S, how, target):
    """target 0 corrupts the manifest, k > 0 the k-th factor file (the
    manifest when there are fewer)."""
    with tempfile.TemporaryDirectory() as tmp:
        manifest = write_separated(S, tmp, name="p")
        factors = sorted(Path(tmp).glob("*.lsrb"))
        path = factors[target - 1] if 0 < target <= len(factors) else manifest
        corrupt(path, how)
        try:
            back = read_separated(manifest)
        except ValueError as exc:
            assert str(exc).startswith(f"{manifest}: ")
            assert path == manifest or path.name in str(exc)
        else:
            assert isinstance(back, SeparatedMatrix)


# (seed, s, m1, c1, m2, c2): a stack of s factor pairs m1 x c1 and m2 x c2
STACKS = st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 3),
                   DIM, DIM, DIM, DIM)


def with_edge_shapes(test):
    """Always also run 1 x n factors and prime dimensions that only split
    as p x 1."""
    for case in [(1, 2, 1, 7, 1, 5), (2, 3, 7, 1, 13, 1), (3, 1, 1, 13, 7, 1)]:
        test = example(case)(test)
    return test


def seeded_stacks(case):
    seed, s, m1, c1, m2, c2 = case
    g = np.random.default_rng(seed)
    return g, g.normal(size=(s, m1, c1)), g.normal(size=(s, m2, c2))


def dense_oracle(P, Q):
    return sum(naive_kron(p, q) for p, q in zip(P, Q))


@PROPERTY
@given(case=STACKS)
@with_edge_shapes
def test_dense_kron_sum_matches_loop_oracle(case):
    _, P, Q = seeded_stacks(case)
    assert rel_err(_dense_kron_sum(P, Q), dense_oracle(P, Q)) <= 1e-12


@PROPERTY
@given(case=STACKS)
@with_edge_shapes
def test_kron_sum_matches_loop_oracle(case):
    g, P, Q = seeded_stacks(case)
    n = 1 + case[0] % 3
    Z = g.normal(size=(n, P.shape[2], Q.shape[2]))
    got = _kron_sum(_side_by_side(P), Q.transpose(0, 2, 1), Z)
    assert got.shape == (n, P.shape[1], Q.shape[1])
    assert rel_err(got.reshape(n, -1),
                   Z.reshape(n, -1) @ dense_oracle(P, Q).T) <= 1e-12


@PROPERTY
@given(case=STACKS)
@with_edge_shapes
def test_project_matches_loop_oracle(case):
    g, P, Q = seeded_stacks(case)
    D = g.normal(size=(P.shape[1] * Q.shape[1], P.shape[2] * Q.shape[2]))
    for got, want in zip(_project(D, P, Q), naive_kron_sum_grads(D, P, Q)):
        assert rel_err(got, want) <= 1e-12
