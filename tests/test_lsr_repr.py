"""Separated representations: construction, conditioning, approximation.

Expected values come from independent oracles: naive block expansion for
materialization, a one-sided Jacobi iteration for singular values, and
hand-worked small cases.
"""

import functools
import itertools
import tracemalloc

import numpy as np
import pytest

import lsradapt.lsr_repr
from lsradapt import (
    KronTerm,
    PrecisionBudget,
    SeparatedMatrix,
    Shape,
    apply,
    check_precision,
    condition_number,
    diagnose,
    kron,
    materialize,
    nearest_kron_sum,
    normalize_terms,
    rearrange,
    truncated_svd,
)
from lsradapt.io import VERSION, read_separated, write_matrix_binary
from lsradapt.kron_core import _dense_kron_sum, _kron_sum, _side_by_side
from lsradapt.lsr_repr import NumericalError

from oracles import (
    jacobi_singular_values,
    naive_kron,
    naive_rearrange,
    rel_err,
    stacked,
)

MU_16BIT = 2.0**-11


def random_separated(g, shape, s, left, right):
    terms = [(float(g.normal()), [g.normal(size=left), g.normal(size=right)])
             for _ in range(s)]
    return SeparatedMatrix(shape, *stacked(terms))


class TestMaterialize:
    def test_identity_single_term(self):
        S = SeparatedMatrix(Shape(4, 4),
                            *stacked([(1.0, [np.eye(2), np.eye(2)])]))
        assert np.array_equal(materialize(S), np.eye(4))

    def test_empty_terms_is_zero(self):
        S = SeparatedMatrix(Shape(3, 5))
        assert np.array_equal(materialize(S), np.zeros((3, 5)))

    def test_matches_per_term_oracle(self):
        g = np.random.default_rng(20)
        S = random_separated(g, Shape(6, 6), 2, (2, 3), (3, 2))
        want = sum(t.weight * naive_kron(*t.factors) for t in S.terms)
        assert rel_err(materialize(S), want) <= 1e-14

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SeparatedMatrix(Shape(4, 4),
                            *stacked([(1.0, [np.eye(2), np.eye(3)])]))

    @pytest.mark.parametrize("shapes", [
        [(40, 6), (3, 5)], [(5, 4), (70, 2)], [(30, 2), (1, 3), (3, 2)]],
        ids=["two-blocks", "row-per-block", "three-factors"])
    def test_blocks_equal_the_unblocked_sum(self, shapes):
        g = np.random.default_rng(sum(map(sum, shapes)))
        shape = Shape(*np.prod(shapes, axis=0))
        S = SeparatedMatrix(shape, *stacked(
            [(g.normal(), [g.normal(size=f) for f in shapes])
             for _ in range(5)]))
        P, Q = S._pair
        assert P.shape[1] * Q.shape[1] > lsradapt.lsr_repr._MATERIALIZE_ROWS
        assert np.array_equal(materialize(S), _dense_kron_sum(P, Q))

    def test_empty_blocks_equal_the_unblocked_sum(self):
        S = SeparatedMatrix(Shape(200, 3))
        assert np.array_equal(materialize(S), _dense_kron_sum(*S._pair))

    def test_peak_memory_stays_near_the_result(self):
        g = np.random.default_rng(21)
        S = random_separated(g, Shape(384, 384), 8, (16, 16), (24, 24))
        S._pair  # formed once per representation, outside the trace
        tracemalloc.start()
        try:
            M = materialize(S)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * M.nbytes


class TestApply:
    def test_identity(self):
        S = SeparatedMatrix(Shape(4, 4),
                            *stacked([(1.0, [np.eye(2), np.eye(2)])]))
        x = np.arange(4.0)
        assert np.array_equal(apply(S, x), x)

    def test_matches_materialized(self):
        g = np.random.default_rng(21)
        S = random_separated(g, Shape(12, 8), 3, (3, 4), (4, 2))
        x = g.normal(size=8)
        assert rel_err(apply(S, x), materialize(S) @ x) <= 1e-10

    def test_zero_weights(self):
        g = np.random.default_rng(22)
        terms = [(0.0, [g.normal(size=(2, 2)), g.normal(size=(2, 2))])
                 for _ in range(3)]
        S = SeparatedMatrix(Shape(4, 4), *stacked(terms))
        assert np.array_equal(apply(S, np.ones(4)), np.zeros(4))

    def test_three_factor_fallback(self):
        g = np.random.default_rng(23)
        S = SeparatedMatrix(Shape(8, 8), *stacked([(
            1.5, [g.normal(size=(2, 2)) for _ in range(3)])]))
        x = g.normal(size=8)
        assert rel_err(apply(S, x), materialize(S) @ x) <= 1e-12

    def test_length_mismatch(self):
        S = SeparatedMatrix(Shape(4, 4),
                            *stacked([(1.0, [np.eye(2), np.eye(2)])]))
        with pytest.raises(ValueError):
            apply(S, np.ones(5))

    def test_side_by_side_factor_is_formed_once(self, monkeypatch):
        g = np.random.default_rng(67)
        S = random_separated(g, Shape(12, 8), 3, (3, 4), (4, 2))
        calls = []
        monkeypatch.setattr(lsradapt.lsr_repr, "_side_by_side",
                            lambda P: calls.append(P) or _side_by_side(P))
        xs = g.normal(size=(3, 8))
        got = [apply(S, x) for x in xs]
        assert len(calls) == 1
        P, Q = S._pair
        for x, y in zip(xs, got):
            want = _kron_sum(_side_by_side(P), Q.transpose(0, 2, 1),
                             x.reshape(1, 4, 2))
            assert np.array_equal(y, want.reshape(-1))


FACTOR_SHAPES = {
    "one-rect": [(3, 4)],
    "one-prime": [(7, 1)],
    "two-rect": [(2, 3), (4, 5)],
    "two-prime": [(7, 1), (1, 2)],
    "three-rect": [(2, 3), (3, 1), (2, 2)],
    "three-prime": [(1, 2), (7, 1), (2, 3)],
}


class TestStackedKronSum:
    @pytest.mark.parametrize("s", [0, 1, 8])
    @pytest.mark.parametrize("shapes", FACTOR_SHAPES.values(),
                             ids=FACTOR_SHAPES.keys())
    def test_matches_per_term_oracle(self, shapes, s):
        g = np.random.default_rng(60 + s)
        terms = [(float(g.normal()), [g.normal(size=f) for f in shapes])
                 for _ in range(s)]
        rows = int(np.prod([r for r, _ in shapes]))
        cols = int(np.prod([c for _, c in shapes]))
        S = SeparatedMatrix(Shape(rows, cols), *stacked(terms))
        want = sum((w * functools.reduce(naive_kron, fs) for w, fs in terms),
                   np.zeros((rows, cols)))
        x = g.normal(size=cols)
        assert materialize(S).shape == (rows, cols)
        assert rel_err(materialize(S), want) <= 1e-12
        assert apply(S, x).shape == (rows,)
        assert rel_err(apply(S, x), want @ x) <= 1e-10
        # a batch: each row its vector's result, bit for bit
        X = g.normal(size=(4, cols))
        Y = apply(S, X)
        assert Y.shape == (4, rows)
        assert rel_err(Y, X @ want.T) <= 1e-10
        for x, y in zip(X, Y):
            assert y.tobytes() == apply(S, x).tobytes()

    def test_three_factor_apply_never_materializes(self, monkeypatch):
        g = np.random.default_rng(66)
        S = SeparatedMatrix(Shape(12, 12), *stacked([(
            float(g.normal()), [g.normal(size=(2, 3)), g.normal(size=(3, 2)),
                                g.normal(size=(2, 2))]) for _ in range(4)]))
        want = materialize(S) @ np.ones(12)
        calls = []
        original = lsradapt.lsr_repr.materialize
        monkeypatch.setattr(lsradapt.lsr_repr, "materialize",
                            lambda S: calls.append(S) or original(S))
        assert rel_err(apply(S, np.ones(12)), want) <= 1e-10
        assert calls == []

    def test_mixed_factor_shapes_name_the_term(self, tmp_path):
        # terms of different factor shapes cannot share stacks; per-term
        # factor lists come in only through a manifest, whose reader
        # refuses them by term index
        g = np.random.default_rng(67)
        terms = [[g.normal(size=(2, 3)), g.normal(size=(3, 2))],
                 [g.normal(size=(3, 2)), g.normal(size=(2, 3))]]
        lines = [f"lsr-manifest {VERSION}", "shape 6 6", "terms 2"]
        for k, factors in enumerate(terms):
            lines += [f"term {k}", "weight 1.0"]
            for i, F in enumerate(factors):
                write_matrix_binary(tmp_path / f"t{k}_f{i}.lsrb", F)
                lines.append(f"factor t{k}_f{i}.lsrb")
        manifest = tmp_path / "mixed.manifest"
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="term 1"):
            read_separated(manifest)


def _count_checks(monkeypatch):
    """The names ``lsr_repr._checked`` is called with, from now on."""
    checks = []
    original = lsradapt.lsr_repr._checked
    monkeypatch.setattr(lsradapt.lsr_repr, "_checked",
                        lambda a, name, ndim: checks.append(name) or
                        original(a, name, ndim))
    return checks


EYE2 = np.eye(2)
# per-term literals no representation may hold, handed over as a caller
# holding (weight, factors) pairs or KronTerm records would: gathered by
# factor position and stacked by the constructor.  A term short of a
# factor leaves a hole in its position rather than shortening it.
REFUSED_TERMS = {
    "nan-weight": ([(np.nan, [EYE2, EYE2])], "non-finite"),
    "inf-weight": ([(-np.inf, [EYE2, EYE2])], "non-finite"),
    "nan-factor": ([(1.0, [EYE2, np.full((2, 2), np.nan)])], "non-finite"),
    "inf-factor": ([(1.0, [np.full((2, 2), np.inf), EYE2])], "non-finite"),
    "no-factors": ([(1.0, [EYE2, EYE2]), (1.0, [])], None),
    "zero-size-factor": ([(1.0, [np.zeros((0, 2)), EYE2])],
                         "materialize to 0x4"),
    "mixed-shapes": ([(1.0, [EYE2, EYE2]),
                      (1.0, [np.ones((1, 4)), np.ones((4, 1))])], None),
    "mixed-counts": ([(1.0, [EYE2, EYE2]), (1.0, [np.eye(4)])], None),
    "wrong-shape": ([(1.0, [EYE2, np.eye(3)])], "materialize to"),
}
# weights and stacks that do not fit together, or a shape that no
# terms can have
REFUSED_STACKS = {
    "weights-without-stacks": ((4, 4), [1.0], (), "at least one stack"),
    "fewer-terms-than-weights": ((4, 4), [1.0, 2.0], ([EYE2], [EYE2]),
                                 "of 2 terms each, got \\[1, 1\\]"),
    "more-terms-than-weights": ((4, 4), [1.0], ([EYE2, EYE2], [EYE2]),
                                "of 1 terms each, got \\[2, 1\\]"),
    "2-D-stack": ((4, 4), [1.0], (EYE2, [EYE2]),
                  "factor 0 stack must be 3-D"),
    "zero-shape": ((0, 4), (), (), "shape must be positive"),
    "negative-shape": ((4, -1), [1.0], ([EYE2], [EYE2]),
                       "shape must be positive"),
    "pairs-as-weights": ((4, 4), [(1.0, [EYE2, EYE2])], (),
                         "weights is not a rectangular float64 array"),
    "ragged-stack": ((4, 4), [1.0, 1.0], ([EYE2, np.eye(3)], [EYE2, EYE2]),
                     "factor 0 stack is not a rectangular float64 array"),
}


def _by_position(terms, records):
    """``(weights, stacks)`` of per-term literals, one list of the terms'
    factors per position, the stacking left to the constructor."""
    if records:
        terms = [(t.weight, t.factors)
                 for t in (KronTerm(w, tuple(fs)) for w, fs in terms)]
    return ([w for w, _ in terms],
            tuple(map(list, itertools.zip_longest(*(fs for _, fs in terms)))))


REFUSALS = [pytest.param(Shape(4, 4), *_by_position(terms, form == "records"),
                         match, id=f"{case}-{form}")
            for case, (terms, match) in REFUSED_TERMS.items()
            for form in ("pairs", "records")]
REFUSALS += [pytest.param(*case, id=name)
             for name, case in REFUSED_STACKS.items()]


class TestConstructorBoundary:
    @pytest.mark.parametrize("shape, weights, stacks, match", REFUSALS)
    def test_refusals(self, shape, weights, stacks, match):
        with pytest.raises(ValueError, match=match):
            SeparatedMatrix(shape, weights, stacks)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_one_check_per_factor_position(self, monkeypatch, order):
        g = np.random.default_rng(69)
        weights = g.normal(size=5)
        stacks = (g.normal(size=(5, 2, 2)),) * order
        checks = _count_checks(monkeypatch)
        SeparatedMatrix(Shape(2**order, 2**order), weights, stacks)
        assert checks == ["weights"] + [f"factor {i} stack"
                                        for i in range(order)]

    def test_callers_arrays_stay_writeable_and_unshared(self):
        g = np.random.default_rng(70)
        weights = g.normal(size=3)
        stacks = (g.normal(size=(3, 2, 3)), g.normal(size=(3, 3, 2)))
        S = SeparatedMatrix(Shape(6, 6), weights, stacks)
        for mine, stored in zip((weights, *stacks), (S.weights, *S.stacks),
                                strict=True):
            assert mine.flags.c_contiguous and mine.flags.writeable
            assert not np.shares_memory(mine, stored)
            assert mine.tobytes() == stored.tobytes()


class TestStoredLayout:
    def _two_term(self):
        g = np.random.default_rng(68)
        weights = np.array([1.5, -0.5])
        stacks = (g.normal(size=(2, 2, 3)), g.normal(size=(2, 3, 2)))
        return weights, stacks, SeparatedMatrix(Shape(6, 6), weights, stacks)

    def test_weights_and_stacks_are_read_only_copies(self):
        *_, S = self._two_term()
        assert np.array_equal(S.weights, [1.5, -0.5])
        assert [F.shape for F in S.stacks] == [(2, 2, 3), (2, 3, 2)]
        for a in (S.weights, *S.stacks):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0

    def test_caller_writes_do_not_reach_the_representation(self):
        weights, stacks, S = self._two_term()
        before = materialize(S)
        weights[1] = 3.0
        stacks[0][0] = 0.0
        stacks[1][1] = 7.0
        assert np.array_equal(materialize(S), before)

    def test_terms_are_views_of_the_stacks(self):
        weights, stacks, S = self._two_term()
        assert S.separation_rank == len(S.terms) == 2
        for k, t in enumerate(S.terms):
            assert t.weight == weights[k]
            for i, f in enumerate(t.factors):
                assert np.shares_memory(f, S.stacks[i][k])
                assert np.array_equal(f, stacks[i][k])
                assert not f.flags.writeable

    def test_terms_view_does_not_check_again(self, monkeypatch):
        *_, S = self._two_term()
        checks = _count_checks(monkeypatch)
        assert len(S.terms) == 2
        assert checks == []
        # stacks from outside are checked where a representation takes
        # them in
        with pytest.raises(ValueError, match="non-finite"):
            SeparatedMatrix(Shape(1, 1), [1.0], ([[[np.nan]]],))
        assert checks == ["weights", "factor 0 stack"]

    def test_empty_has_no_stacks(self):
        S = SeparatedMatrix(Shape(3, 5))
        assert S.weights.shape == (0,) and S.stacks == () and S.terms == ()

    def test_stacks_without_terms_are_not_kept(self):
        # as a manifest with no terms reads back: no factor positions
        S = SeparatedMatrix(Shape(6, 6), [],
                            (np.zeros((0, 2, 3)), np.zeros((0, 3, 2))))
        assert S.stacks == () and S.terms == ()
        Z = nearest_kron_sum(np.zeros((6, 6)), Shape(2, 3), Shape(3, 2), 1)
        assert Z.separation_rank == 0 and Z.stacks == ()


class TestConditionNumber:
    def test_single_unit_norm_term(self):
        g = np.random.default_rng(24)
        S = normalize_terms(SeparatedMatrix(Shape(6, 6), *stacked([(
            7.5, [g.normal(size=(2, 2)), g.normal(size=(3, 3))])])))
        assert abs(condition_number(S) - 1.0) <= 1e-12

    def test_cancellation_is_error(self):
        g = np.random.default_rng(25)
        F1, F2 = g.normal(size=(2, 2)), g.normal(size=(2, 2))
        S = SeparatedMatrix(Shape(4, 4),
                            *stacked([(2.0, [F1, F2]), (-2.0, [F1, F2])]))
        with pytest.raises(ZeroDivisionError):
            condition_number(S)

    @pytest.mark.parametrize("order", [2, 3])
    def test_fused_round_off_cancellation_is_error(self, order):
        # a GEMM's fused multiply-add leaves ~eps of an exact cancellation
        g = np.random.default_rng(29)
        factors = [g.normal(size=(2, 2)) for _ in range(order)]
        S = SeparatedMatrix(Shape(2**order, 2**order),
                            *stacked([(0.3, factors), (-0.3, factors)]))
        with pytest.raises(ZeroDivisionError):
            condition_number(S)

    def test_near_cancellation_keeps_gamma(self):
        g = np.random.default_rng(30)
        F1, F2 = g.normal(size=(2, 3)), g.normal(size=(3, 2))
        S = SeparatedMatrix(Shape(6, 6), *stacked(
            [(1.0, [F1, F2]), (-(1.0 - 1e-8), [F1, F2])]))
        dense = sum(t.weight * naive_kron(*t.factors) for t in S.terms)
        want = np.sqrt(sum(t.weight**2 for t in S.terms)) / np.linalg.norm(dense)
        # each side carries ~eps / 1e-8 ~ 2e-8 relative error from the
        # cancellation itself
        assert abs(condition_number(S) - want) <= 1e-6 * want

    def test_matches_direct_formula(self):
        g = np.random.default_rng(26)
        S = random_separated(g, Shape(6, 6), 2, (2, 3), (3, 2))
        dense = sum(t.weight * naive_kron(*t.factors) for t in S.terms)
        want = np.sqrt(sum(t.weight**2 for t in S.terms)) / np.linalg.norm(dense)
        assert abs(condition_number(S) - want) <= 1e-12 * want


class TestCheckPrecision:
    def _unit_term(self):
        g = np.random.default_rng(27)
        return normalize_terms(SeparatedMatrix(Shape(4, 4), *stacked([(
            1.0, [g.normal(size=(2, 2)), g.normal(size=(2, 2))])])))

    def test_16bit_roundoff_passes_loose_budget(self):
        # gamma = 1, ||M||_F = 1, so the bound is mu = 2^-11 ~ 4.88e-4 <= 1
        S = self._unit_term()
        assert check_precision(S, PrecisionBudget(MU_16BIT, 1.0)) is True

    def test_tight_budget_fails(self):
        S = self._unit_term()
        assert check_precision(S, PrecisionBudget(MU_16BIT, 1e-6)) is False

    def test_boundary_is_inclusive(self):
        S = self._unit_term()
        fro = np.linalg.norm(materialize(S))
        eps = condition_number(S) * MU_16BIT * fro
        assert check_precision(S, PrecisionBudget(MU_16BIT, eps)) is True


class TestPrecisionBudget:
    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    @pytest.mark.parametrize("field", ["mu", "epsilon"])
    def test_non_positive_or_non_finite_refused(self, field, bad):
        values = {"mu": MU_16BIT, "epsilon": 1.0, field: bad}
        with pytest.raises(ValueError,
                           match=f"^{field} must be positive and finite"):
            PrecisionBudget(**values)


class TestDiagnose:
    def test_matches_wrappers_with_one_materialization_each(self, monkeypatch):
        g = np.random.default_rng(28)
        S = random_separated(g, Shape(6, 6), 3, (2, 3), (3, 2))
        budgets = [PrecisionBudget(MU_16BIT, 1.0),
                   PrecisionBudget(MU_16BIT, 1e-9)]
        calls = []
        original = lsradapt.lsr_repr.materialize
        monkeypatch.setattr(lsradapt.lsr_repr, "materialize",
                            lambda S: calls.append(S) or original(S))
        dense, gamma, verdicts = diagnose(S, budgets)
        assert len(calls) == 1
        assert np.array_equal(dense, original(S))
        assert verdicts == [True, False]
        calls.clear()
        assert condition_number(S) == gamma
        assert len(calls) == 1
        for budget, verdict in zip(budgets, verdicts):
            calls.clear()
            assert check_precision(S, budget) is verdict
            assert len(calls) == 1

    def test_zero_matrix_is_error(self):
        with pytest.raises(ZeroDivisionError):
            diagnose(SeparatedMatrix(Shape(2, 2)),
                     [PrecisionBudget(1e-3, 1.0)])

    @pytest.mark.parametrize("scale,what", [(1e100, "materialization"),
                                            (1e-100, "term-weight norm")])
    def test_overflow_is_numerical_error(self, scale, what):
        # 1e200 * (1e100)^2 overflows the materialization; 1e200 alone
        # overflows the squared weight norm; no RuntimeWarning escapes
        S = SeparatedMatrix(Shape(4, 4), *stacked([(
            1e200, [scale * np.eye(2), scale * np.eye(2)])]))
        for call in (lambda: diagnose(S, [PrecisionBudget(1e-3, 1.0)]),
                     lambda: condition_number(S)):
            with pytest.raises(NumericalError, match=f"overflows.*{what}"):
                call()


class TestNormalizeTerms:
    def test_folds_magnitudes_into_weight(self):
        S = SeparatedMatrix(Shape(4, 4), *stacked([(
            1.0, [2.0 * np.eye(2), 3.0 * np.eye(2)])]))
        N = normalize_terms(S)
        # ||2 I2||_F * ||3 I2||_F = 2 sqrt(2) * 3 sqrt(2) = 12
        assert abs(N.terms[0].weight - 12.0) <= 1e-12
        for f in N.terms[0].factors:
            assert abs(np.linalg.norm(f) - 1.0) <= 1e-12
        assert rel_err(materialize(N), materialize(S)) <= 1e-12

    def test_idempotent(self):
        g = np.random.default_rng(28)
        N = normalize_terms(random_separated(g, Shape(6, 6), 3, (2, 3), (3, 2)))
        N2 = normalize_terms(N)
        for t1, t2 in zip(N.terms, N2.terms):
            assert abs(t1.weight - t2.weight) <= 1e-15 * t1.weight
            for f1, f2 in zip(t1.factors, t2.factors):
                assert np.max(np.abs(f1 - f2)) <= 1e-15

    def test_negative_weight_flips_first_factor(self):
        g = np.random.default_rng(29)
        F1 = g.normal(size=(2, 2))
        F1 /= np.linalg.norm(F1)
        F2 = g.normal(size=(2, 2))
        F2 /= np.linalg.norm(F2)
        N = normalize_terms(SeparatedMatrix(Shape(4, 4),
                                            *stacked([(-5.0, [F1, F2])])))
        assert abs(N.terms[0].weight - 5.0) <= 1e-12
        assert np.max(np.abs(N.terms[0].factors[0] + F1)) <= 1e-12
        assert np.max(np.abs(N.terms[0].factors[1] - F2)) <= 1e-12

    def test_sorted_descending(self):
        g = np.random.default_rng(30)
        N = normalize_terms(random_separated(g, Shape(6, 6), 4, (2, 3), (3, 2)))
        weights = [t.weight for t in N.terms]
        assert weights == sorted(weights, reverse=True)
        assert all(w > 0 for w in weights)

    def test_weight_overflow_names_term(self):
        S = SeparatedMatrix(Shape(4, 4), *stacked([(
            1e200, [1e100 * np.eye(2), 1e100 * np.eye(2)])]))
        with pytest.raises(ValueError, match="term 0 weight overflows"):
            normalize_terms(S)

    def test_zero_factor_names_term(self):
        S = SeparatedMatrix(Shape(4, 4), *stacked([
            (1.0, [np.eye(2), np.eye(2)]),
            (1.0, [np.zeros((2, 2)), np.eye(2)])]))
        with pytest.raises(ValueError, match="term 1"):
            normalize_terms(S)


class TestRearrange:
    def test_kron_becomes_rank_one(self):
        g = np.random.default_rng(31)
        P = g.normal(size=(2, 2))
        Q = g.normal(size=(3, 2))
        R = rearrange(kron(P, Q), Shape(2, 2), Shape(3, 2))
        assert np.array_equal(R, np.outer(P.ravel(), Q.ravel()))

    def test_zero_matrix(self):
        R = rearrange(np.zeros((6, 4)), Shape(2, 2), Shape(3, 2))
        assert np.array_equal(R, np.zeros((4, 6)))

    def test_entry_permutation(self):
        g = np.random.default_rng(32)
        M = g.normal(size=(6, 6))
        R = rearrange(M, Shape(2, 3), Shape(3, 2))
        assert np.array_equal(np.sort(R, axis=None), np.sort(M, axis=None))

    def test_nonconforming_shapes(self):
        with pytest.raises(ValueError):
            rearrange(np.zeros((6, 6)), Shape(2, 2), Shape(2, 2))

    @pytest.mark.parametrize("left, right", [
        (Shape(-2, 4), Shape(-12, 6)), (Shape(4, -4), Shape(6, -6)),
        (Shape(0, 4), Shape(6, 6))])
    def test_non_positive_sizes_are_named(self, left, right):
        # (-2)(-12) = 24 would pass the product check alone
        with pytest.raises(ValueError, match="positive sizes"):
            rearrange(np.ones((24, 24)), left, right)

    @pytest.mark.parametrize(
        "left, right", [((3, 5), (4, 2)), ((4, 4), (3, 3)), ((1, 6), (1, 5)),
                        ((7, 1), (13, 1)), ((13, 1), (1, 7))],
        ids=["rect", "square", "1xn", "prime7x13", "prime13x7"])
    def test_is_shared_map_of_the_transpose(self, left, right):
        # the loop oracle's row-major map; of M^T with both splits
        # transposed, the same entries with each index pair swapped
        (lr, lc), (rr, rc) = left, right
        M = np.random.default_rng(lr + lc + rr + rc).normal(
            size=(lr * rr, lc * rc))
        R = rearrange(M, Shape(*left), Shape(*right))
        assert np.array_equal(R, naive_rearrange(M, lr, lc, rr, rc))
        swapped = R.reshape(lr, lc, rr, rc).transpose(1, 0, 3, 2)
        assert np.array_equal(rearrange(M.T, Shape(lc, lr), Shape(rc, rr)),
                              swapped.reshape(lc * lr, rc * rr))


def planted_spectrum(rows, cols, sigma, seed):
    """rows x cols matrix with singular values sigma (zero beyond)."""
    g = np.random.default_rng(seed)
    U = np.linalg.qr(g.normal(size=(rows, len(sigma))))[0]
    V = np.linalg.qr(g.normal(size=(cols, len(sigma))))[0]
    return (U * sigma) @ V.T


# eight halving singular values, then a tail four decades lower
GAPPED = np.concatenate([2.0 ** -np.arange(8.0), 1e-6 * np.linspace(1, 0.5, 92)])


@pytest.fixture
def exact_svd_calls(monkeypatch):
    """Shapes passed to the exact fallback ``_tall_svd``, in call order."""
    calls = []
    exact = lsradapt.lsr_repr._tall_svd

    def counted(M, k):
        calls.append(M.shape)
        return exact(M, k)

    monkeypatch.setattr(lsradapt.lsr_repr, "_tall_svd", counted)
    return calls


def assert_truncated_svd_contract(M, k, all_sigma):
    """truncated_svd(M, k) against the oracle's singular values, at the
    tolerances of ``test_contract_against_jacobi_oracle``."""
    rows, cols = M.shape
    U, sigma, V = truncated_svd(M, k)
    assert (U.shape, sigma.shape, V.shape) == ((rows, k), (k,), (cols, k))
    assert np.max(np.abs(sigma - all_sigma[:k])) <= 1e-10 * all_sigma[0]
    assert np.all(sigma >= 0.0) and np.all(np.diff(sigma) <= 0.0)
    assert np.max(np.abs(U.T @ U - np.eye(k))) <= 1e-10
    assert np.max(np.abs(V.T @ V - np.eye(k))) <= 1e-10
    err = np.linalg.norm(M - U @ np.diag(sigma) @ V.T)
    tail = np.sqrt(np.sum(all_sigma[k:] ** 2))
    # a rank below k leaves a round-off tail: compare on sigma_max's scale
    scale = tail if tail > 1e-12 * all_sigma[0] else all_sigma[0]
    assert abs(err - tail) <= 1e-10 * scale


class TestTruncatedSvd:
    def test_diagonal_case(self):
        U, sigma, V = truncated_svd(np.diag([3.0, 2.0, 1.0]), 2)
        assert np.allclose(sigma, [3.0, 2.0], atol=1e-14)
        recon = U @ np.diag(sigma) @ V.T
        assert rel_err(recon, np.diag([3.0, 2.0, 0.0])) <= 1e-12

    def test_rank_one_exact(self):
        g = np.random.default_rng(33)
        M = np.outer(g.normal(size=5), g.normal(size=4))
        U, sigma, V = truncated_svd(M, 1)
        assert rel_err(U @ np.diag(sigma) @ V.T, M) <= 1e-12

    def test_full_rank_against_jacobi_oracle(self):
        g = np.random.default_rng(34)
        M = g.normal(size=(6, 4))
        U, sigma, V = truncated_svd(M, 4)
        assert rel_err(U @ np.diag(sigma) @ V.T, M) <= 1e-10
        want = jacobi_singular_values(M)
        assert np.max(np.abs(sigma - want)) <= 1e-10 * want[0]

    def test_orthonormal_columns(self):
        g = np.random.default_rng(35)
        M = g.normal(size=(7, 5))
        U, _, V = truncated_svd(M, 3)
        assert np.max(np.abs(U.T @ U - np.eye(3))) <= 1e-10
        assert np.max(np.abs(V.T @ V - np.eye(3))) <= 1e-10

    def test_tail_error_identity(self):
        g = np.random.default_rng(36)
        M = g.normal(size=(6, 5))
        all_sigma = jacobi_singular_values(M)
        k = 2
        U, sigma, V = truncated_svd(M, k)
        err = np.linalg.norm(M - U @ np.diag(sigma) @ V.T)
        tail = np.sqrt(np.sum(all_sigma[k:] ** 2))
        assert abs(err - tail) <= 1e-10 * tail

    @pytest.mark.parametrize("rows, cols, rank, k", [
        (40, 12, 12, 5),    # tall
        (12, 40, 12, 5),    # wide
        (15, 15, 15, 6),    # square
        (40, 12, 3, 6),     # tall, rank-deficient: zero singular values kept
        (12, 40, 3, 6),     # wide, rank-deficient
        (9, 4, 0, 2),       # zero matrix
    ])
    def test_contract_against_jacobi_oracle(self, rows, cols, rank, k):
        g = np.random.default_rng(1000 * rows + 10 * cols + rank)
        M = g.normal(size=(rows, rank)) @ g.normal(size=(rank, cols))
        U, sigma, V = truncated_svd(M, k)
        assert (U.shape, sigma.shape, V.shape) == ((rows, k), (k,), (cols, k))
        all_sigma = jacobi_singular_values(M)
        assert np.max(np.abs(sigma - all_sigma[:k])) <= 1e-10 * all_sigma[0]
        assert np.all(sigma >= 0.0) and np.all(np.diff(sigma) <= 0.0)
        assert np.max(np.abs(U.T @ U - np.eye(k))) <= 1e-10
        assert np.max(np.abs(V.T @ V - np.eye(k))) <= 1e-10
        err = np.linalg.norm(M - U @ np.diag(sigma) @ V.T)
        tail = np.sqrt(np.sum(all_sigma[k:] ** 2))
        # a rank below k leaves a zero tail: compare on sigma_max's scale
        assert abs(err - tail) <= 1e-10 * (tail if rank > k else all_sigma[0])

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            truncated_svd(np.eye(3), 4)
        with pytest.raises(ValueError):
            truncated_svd(np.eye(3), 0)

    def test_gapped_spectrum_is_certified(self, exact_svd_calls):
        # sigma_9 / sigma_8 ~ 1e-4 with 100 columns (sketch width 16):
        # the block iteration certifies itself in either orientation.
        # Orthogonal columns (right vectors a permutation) keep the Jacobi
        # oracle to one sweep.
        g = np.random.default_rng(41)
        M = (np.linalg.qr(g.normal(size=(120, 100)))[0]
             * GAPPED)[:, g.permutation(100)]
        all_sigma = jacobi_singular_values(M)
        for A in (M, M.T):
            assert_truncated_svd_contract(A, 8, all_sigma)
        assert exact_svd_calls == []

    @pytest.mark.parametrize("make, k", [
        (lambda g: g.normal(size=(60, 40)), 5),
        (lambda g: g.normal(size=(60, 3)) @ g.normal(size=(3, 40)), 6),
    ], ids=["gaussian", "rank-deficient"])
    def test_uncertified_input_takes_exact_path(self, exact_svd_calls, make,
                                                k):
        M = make(np.random.default_rng(42))
        assert_truncated_svd_contract(M, k, jacobi_singular_values(M))
        assert exact_svd_calls == [(60, 40)]

    @pytest.mark.parametrize("tail", [1e-3 * 0.9 ** np.arange(30),
                                      np.full(30, 1e-9)],
                             ids=["slow-tail", "tied-then-gap"])
    def test_clustered_spectrum_meets_contract(self, tail):
        # sigma_7..sigma_10 agree to 1e-9 relative: a cluster across k = 8
        # (the slow tail takes the exact path; the tie with a gap after
        # it is certified)
        sigma = np.concatenate([2.0 ** -np.arange(6.0),
                                0.01 * (1 - 1e-9 * np.arange(4)), tail])
        M = planted_spectrum(60, 40, sigma, seed=43)
        assert_truncated_svd_contract(M, 8, jacobi_singular_values(M))

    def test_overflowing_singular_value_is_numerical_error(self):
        # ||M||_F = 2e308: the exact path's singular value is not finite
        M = np.array([[1e308, -1e308, -1e308, 1e308]])
        with pytest.raises(NumericalError, match="overflow float64"):
            truncated_svd(M, 1)
        with pytest.raises(NumericalError, match="overflow float64"):
            nearest_kron_sum(M.reshape(2, 2), Shape(1, 1), Shape(2, 2), 1)

    @pytest.mark.parametrize("M, k", [
        (np.full((24, 24), 1.7e308), 2),
        (rearrange(1.7e308 * np.eye(24), Shape(4, 4), Shape(6, 6)), 2),
        (np.random.default_rng(64).normal(size=(64, 64)) * 1e307, 2),
    ], ids=["constant", "rearranged-eye", "gaussian"])
    def test_overflowing_exact_path_is_named(self, exact_svd_calls, M, k):
        # the exact path's QR triangle overflows: named as an overflow,
        # not as a failed convergence, and no RuntimeWarning escapes
        with pytest.raises(NumericalError, match="overflow float64"):
            truncated_svd(M, k)
        assert len(exact_svd_calls) == 1

    def test_overflowing_certificate_takes_exact_path(self, exact_svd_calls):
        # the block iteration certifies this gapped input; at 1e200 times
        # it, ||M||_F^2 overflows, so the certificate fails without a
        # RuntimeWarning and the exact path gives the same singular values
        M = planted_spectrum(60, 40, GAPPED[:40], seed=44)
        _, want, _ = truncated_svd(M, 8)
        assert exact_svd_calls == []
        _, sigma, _ = truncated_svd(1e200 * M, 8)
        assert exact_svd_calls == [(60, 40)]
        assert np.max(np.abs(sigma / 1e200 - want)) <= 1e-12 * want[0]

    def test_bit_identical_on_repeat(self):
        for M in (planted_spectrum(60, 40, GAPPED[:40], seed=44),
                  np.random.default_rng(45).normal(size=(60, 40))):
            first, second = truncated_svd(M, 8), truncated_svd(M, 8)
            for a, b in zip(first, second):
                assert a.tobytes() == b.tobytes()


class TestNearestKronSum:
    def test_planted_single_term(self):
        g = np.random.default_rng(37)
        P = g.normal(size=(3, 2))
        Q = g.normal(size=(2, 3))
        M = kron(P, Q)
        S = nearest_kron_sum(M, Shape(3, 2), Shape(2, 3), 1)
        assert len(S.terms) == 1
        assert rel_err(materialize(S), M) <= 1e-12

    def test_planted_term_factors_unequal_shapes(self):
        # non-square factors of different shapes: a factor read with its
        # rows and columns swapped cannot match P or Q
        g = np.random.default_rng(43)
        P = g.normal(size=(3, 5))
        Q = g.normal(size=(4, 2))
        S = nearest_kron_sum(kron(P, Q), Shape(3, 5), Shape(4, 2), 1)
        (got_P,), (got_Q,) = S.stacks
        sign = np.sign(P.flat[np.argmax(np.abs(P))])
        assert np.max(np.abs(got_P - sign * P / np.linalg.norm(P))) <= 1e-12
        assert np.max(np.abs(got_Q - sign * Q / np.linalg.norm(Q))) <= 1e-12
        want = np.linalg.norm(P) * np.linalg.norm(Q)
        assert abs(S.weights[0] - want) <= 1e-12 * want

    def test_planted_three_terms(self):
        g = np.random.default_rng(38)
        left, right = Shape(3, 4), Shape(4, 3)
        M = sum(naive_kron(g.normal(size=left), g.normal(size=right))
                for _ in range(3))
        norm = np.linalg.norm(M)
        S3 = nearest_kron_sum(M, left, right, 3)
        assert np.linalg.norm(M - materialize(S3)) <= 1e-8 * norm
        # error at s=2 equals the third singular value of the rearrangement
        sigma = jacobi_singular_values(rearrange(M, left, right))
        S2 = nearest_kron_sum(M, left, right, 2)
        err2 = np.linalg.norm(M - materialize(S2))
        assert abs(err2 - sigma[2]) <= 1e-10 * sigma[2]

    @pytest.mark.parametrize("left, right", [((7, 3), (5, 2)),
                                             ((13, 1), (1, 7))],
                             ids=["prime7x3-5x2", "prime13x1-1x7"])
    def test_planted_three_terms_prime_shapes(self, left, right):
        g = np.random.default_rng(sum(left) + sum(right))
        M = sum(naive_kron(g.normal(size=left), g.normal(size=right))
                for _ in range(3))
        S = nearest_kron_sum(M, Shape(*left), Shape(*right), 3)
        assert len(S.terms) == 3
        assert rel_err(materialize(S), M) <= 1e-12
        # below the planted rank the error is the Jacobi-oracle tail
        sigma = jacobi_singular_values(rearrange(M, left, right))
        for s in (1, 2):
            err = np.linalg.norm(M - materialize(
                nearest_kron_sum(M, Shape(*left), Shape(*right), s)))
            tail = np.sqrt(np.sum(sigma[s:] ** 2))
            assert abs(err - tail) <= 1e-10 * tail

    def test_near_overflow_scale_keeps_its_terms(self):
        # sigma_1 ~ 1e307: neither the SVD certificate nor the drop
        # cutoff may overflow (no RuntimeWarning), and the weights are
        # the unscaled ones scaled up
        M = np.random.default_rng(47).normal(size=(64, 64))
        want = nearest_kron_sum(M, Shape(8, 8), Shape(8, 8), 2).weights
        S = nearest_kron_sum(1e306 * M, Shape(8, 8), Shape(8, 8), 2)
        assert S.separation_rank == 2
        assert np.max(np.abs(S.weights / 1e306 - want)) <= 1e-12 * want[0]

    def test_monotone_in_s(self):
        g = np.random.default_rng(39)
        M = g.normal(size=(12, 12))
        errs = [np.linalg.norm(M - materialize(
            nearest_kron_sum(M, Shape(3, 4), Shape(4, 3), s)))
            for s in range(1, 7)]
        for lo, hi in zip(errs[1:], errs[:-1]):
            assert lo <= hi + 1e-12

    def test_full_rank_reproduces(self):
        g = np.random.default_rng(40)
        M = g.normal(size=(8, 8))
        S = nearest_kron_sum(M, Shape(2, 4), Shape(4, 2), 8)
        assert rel_err(materialize(S), M) <= 1e-10

    def test_output_is_normalized(self):
        g = np.random.default_rng(41)
        M = g.normal(size=(8, 8))
        S = nearest_kron_sum(M, Shape(2, 4), Shape(4, 2), 4)
        weights = [t.weight for t in S.terms]
        assert weights == sorted(weights, reverse=True)
        for t in S.terms:
            for f in t.factors:
                assert abs(np.linalg.norm(f) - 1.0) <= 1e-12

    def test_factor_signs_agree_across_svd_paths(self, monkeypatch,
                                                 exact_svd_calls):
        # a planted 4-term sum plus a small tail: the block subspace path
        # certifies it, and the exact fallback must give the same factors
        g = np.random.default_rng(42)
        left, right = Shape(6, 5), Shape(4, 7)
        M = sum(w * naive_kron(g.normal(size=left), g.normal(size=right))
                for w in (8.0, 4.0, 2.0, 1.0))
        M = M + 1e-6 * g.normal(size=M.shape)
        block = nearest_kron_sum(M, left, right, 4)
        assert exact_svd_calls == []
        monkeypatch.setattr(lsradapt.lsr_repr, "_block_svd",
                            lambda M, k: None)
        exact = nearest_kron_sum(M, left, right, 4)
        assert len(exact_svd_calls) == 1
        sigma_1 = block.terms[0].weight
        assert len(block.terms) == len(exact.terms) == 4
        for b, e in zip(block.terms, exact.terms):
            assert abs(b.weight - e.weight) <= 1e-12 * sigma_1
            # the factors have unit norm, so this is 1e-12 of each term
            for fb, fe in zip(b.factors, e.factors):
                assert np.max(np.abs(fb - fe)) <= 1e-12
            for t in (b, e):
                first = t.factors[0].reshape(-1)
                assert first[np.argmax(np.abs(first))] > 0.0


class TestInvariants:
    def test_normalize_preserves_materialization(self):
        g = np.random.default_rng(47)
        for _ in range(10):
            S = random_separated(g, Shape(6, 6), int(g.integers(1, 5)),
                                 (2, 3), (3, 2))
            assert rel_err(materialize(normalize_terms(S)),
                           materialize(S)) <= 1e-12

    def test_rearranged_kron_has_rank_one(self):
        g = np.random.default_rng(48)
        for _ in range(10):
            P = g.normal(size=(2, 3))
            Q = g.normal(size=(3, 2))
            sigma = jacobi_singular_values(
                rearrange(kron(P, Q), Shape(2, 3), Shape(3, 2)))
            assert sigma[1] <= 1e-12 * sigma[0]

    def test_apply_matches_materialized_broadly(self):
        g = np.random.default_rng(49)
        for _ in range(10):
            lr, lc, rr, rc = g.integers(1, 5, size=4)
            s = int(g.integers(1, 9))
            S = random_separated(g, Shape(lr * rr, lc * rc), s,
                                 (lr, lc), (rr, rc))
            x = g.normal(size=lc * rc)
            assert rel_err(apply(S, x), materialize(S) @ x) <= 1e-10
