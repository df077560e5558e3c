"""Discrete identity checks: Cauchy-Binet, the point-measure bridge,
minor summation, and the block specialization."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from andreief import discrete
from andreief.discrete import (
    block_reclaims_cauchy_binet,
    cauchy_binet_lhs,
    cauchy_binet_rhs,
    discretized_andreief,
    minor_summation_lhs,
    minor_summation_rhs,
    ordered_tuple_sum,
)
from andreief.ensembles import (
    BUILTIN_ENSEMBLE_NAMES,
    NodeMeasure,
    build_ensemble,
    evaluate,
    family_matrix,
)
from andreief.identities import andreief_lhs_quadrature, gram_matrix
from andreief.linalg import SkewMatrix, det_by_permutation_expansion, relative_gap
from andreief.quadrature import BudgetError, gauss_rule


def random_int_matrix(rng, rows, cols):
    return rng.integers(-3, 4, size=(rows, cols))


def random_int_skew(rng, order):
    raw = rng.integers(-3, 4, size=(order, order))
    return raw - raw.T


class TestCauchyBinet:
    def test_hand_case_identity_plus_sum_row(self):
        x = np.array([[1, 0], [0, 1], [1, 1]])
        assert cauchy_binet_lhs(x, x) == 3
        assert cauchy_binet_rhs(x, x) == 3

    def test_single_entry(self):
        assert cauchy_binet_lhs([[3]], [[-2]]) == -6
        assert cauchy_binet_rhs([[3]], [[-2]]) == -6

    def test_square_case_is_determinant_product(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            x = random_int_matrix(rng, 3, 3)
            y = random_int_matrix(rng, 3, 3)
            want = det_by_permutation_expansion(x) * det_by_permutation_expansion(y)
            assert cauchy_binet_lhs(x, y) == want
            assert cauchy_binet_rhs(x, y) == want

    @pytest.mark.parametrize("shape", [(2, 2), (3, 2), (4, 3), (5, 4)])
    def test_lhs_equals_rhs_exactly(self, shape):
        rows, cols = shape
        rng = np.random.default_rng(rows * 100 + cols)
        for _ in range(20):
            x = random_int_matrix(rng, rows, cols)
            y = random_int_matrix(rng, rows, cols)
            lhs = cauchy_binet_lhs(x, y)
            rhs = cauchy_binet_rhs(x, y)
            assert isinstance(lhs, int)
            assert isinstance(rhs, int)
            assert lhs == rhs

    def test_float_path_matches_integer_path(self):
        rng = np.random.default_rng(11)
        x = random_int_matrix(rng, 5, 3)
        y = random_int_matrix(rng, 5, 3)
        exact = cauchy_binet_rhs(x, y)
        assert relative_gap(cauchy_binet_lhs(x.astype(float), y.astype(float)), exact) < 1e-12
        assert relative_gap(cauchy_binet_rhs(x.astype(float), y.astype(float)), exact) < 1e-12

    def test_float_path_spans_subset_blocks(self):
        rng = np.random.default_rng(13)
        x = random_int_matrix(rng, 200, 2)
        y = random_int_matrix(rng, 200, 2)
        assert math.comb(200, 2) > discrete._SUBSET_BLOCK
        exact = cauchy_binet_rhs(x, y)
        assert relative_gap(cauchy_binet_lhs(x.astype(float), y.astype(float)), exact) < 1e-12

    def test_zero_column_case(self):
        for rows in (3, 0):
            x = np.zeros((rows, 0), dtype=int)
            assert cauchy_binet_lhs(x, x) == 1
            assert cauchy_binet_rhs(x, x) == 1

    def test_wide_matrix_rejected(self):
        x = np.ones((2, 3), dtype=int)
        with pytest.raises(ValueError, match="at least as many rows"):
            cauchy_binet_lhs(x, x)
        with pytest.raises(ValueError, match="at least as many rows"):
            cauchy_binet_rhs(x, x)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            cauchy_binet_lhs(np.ones((3, 2)), np.ones((4, 2)))

    def test_vector_input_rejected(self):
        with pytest.raises(ValueError, match="2-D matrix"):
            cauchy_binet_rhs(np.ones(3), np.ones(3))


# sorted points inside each built-in ensemble's domain
ENSEMBLE_POINTS = {
    "uniform-monomial": (0.1, 0.35, 0.6, 0.85),
    "legendre-monomial": (-0.7, -0.2, 0.3, 0.8),
    "gue-monomial": (-1.5, -0.4, 0.6, 1.7),
    "shifted-gue": (-1.2, -0.1, 0.9, 2.0),
    "muttalib-borodin": (0.3, 0.9, 1.8, 3.1),
    "laguerre-product": (0.2, 0.8, 1.9, 3.4),
}


def point_bridge(spec, points):
    """discretized_andreief on the point measure's tables."""
    weights, (f, phi) = NodeMeasure.points(points).tables((spec.left, spec.right))
    return discretized_andreief(weights, f, phi)


class TestDiscretePointSet:
    """The point measure NodeMeasure.points: unit masses, no domain."""

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            NodeMeasure.points([0.0, np.inf])

    def test_needs_no_order_and_no_domain(self):
        spec = build_ensemble("uniform-monomial", 2)
        measure = NodeMeasure.points([2, 0, 1])
        assert measure.domain is None
        weights, (x, y) = measure.tables((spec.left, spec.right))
        assert weights.tolist() == [1.0, 1.0, 1.0]
        # 2 lies outside (0, 1): the families are evaluated as they are
        assert x.tolist() == [[1.0, 2.0], [1.0, 0.0], [1.0, 1.0]]
        assert discretized_andreief(weights, x, y) == (6.0, 6.0)

    @pytest.mark.parametrize("name", BUILTIN_ENSEMBLE_NAMES)
    def test_tables_are_family_matrices(self, name):
        spec = build_ensemble(name, 3)
        points = ENSEMBLE_POINTS[name]
        _, (x, y) = NodeMeasure.points(points).tables((spec.left, spec.right))
        assert np.array_equal(x, family_matrix(spec.left, points).T)
        assert np.array_equal(y, family_matrix(spec.right, points).T)


class TestDiscretizedAndreief:
    def test_monomials_on_three_integer_points(self):
        spec = build_ensemble("uniform-monomial", 2)
        lhs, rhs = point_bridge(spec, [0.0, 1.0, 2.0])
        # minors 1, 2, 1 -> squares sum to 6; det [[3,3],[3,5]] = 6
        assert lhs == 6.0
        assert rhs == 6.0

    def test_unpacks_as_pair(self):
        spec = build_ensemble("uniform-monomial", 2)
        lhs, rhs = point_bridge(spec, np.array([0.1, 0.4, 0.9]))
        assert relative_gap(lhs, rhs) < 1e-14

    @pytest.mark.parametrize("name,points", list(ENSEMBLE_POINTS.items()))
    def test_identity_and_bitwise_reduction(self, name, points):
        spec = build_ensemble(name, 3)
        lhs, rhs = point_bridge(spec, points)
        assert relative_gap(lhs, rhs) < 1e-12
        x = family_matrix(spec.left, points).T
        y = family_matrix(spec.right, points).T
        # same code path on the identified matrices, bit for bit
        assert lhs == cauchy_binet_lhs(x, y)
        assert rhs == cauchy_binet_rhs(x, y)

    def test_matrix_identification_includes_weights(self):
        spec = build_ensemble("muttalib-borodin", 2)
        points = [0.5, 1.5, 2.5]
        _, (x, y) = NodeMeasure.points(points).tables((spec.left, spec.right))
        for l, point in enumerate(points):
            for j in range(2):
                assert x[l, j] == evaluate(spec.left, j, point)
                assert y[l, j] == evaluate(spec.right, j, point)

    def test_needs_enough_points(self):
        spec = build_ensemble("uniform-monomial", 3)
        with pytest.raises(ValueError, match="at least as many rows as columns, got 2 < 3"):
            point_bridge(spec, [0.2, 0.7])

    def test_gauss_measure_gives_the_gram_determinant(self):
        # on a Gauss rule's measure the weights scale F: the right side is
        # det(F^T W Phi), the Gram determinant of the quadrature routes
        spec = build_ensemble("muttalib-borodin", 3)
        rule = gauss_rule(spec.domain, 9)
        measure = NodeMeasure(rule.nodes, rule.weights, spec.domain)
        weights, (f, phi) = measure.tables((spec.left, spec.right))
        lhs, rhs = discretized_andreief(weights, f, phi)
        gram = gram_matrix(spec, 9).entries
        assert relative_gap(rhs, np.linalg.det(gram)) < 1e-12
        # the Gauss-rule left side is this subset sum, times N!
        assert andreief_lhs_quadrature(spec, 9) == math.factorial(3) * lhs
        assert relative_gap(lhs, rhs) < 1e-12
        assert relative_gap(ordered_tuple_sum(weights, f, phi), lhs) < 1e-12


class TestOrderedTupleSum:
    def test_hand_case(self):
        # tuples (0,1), (1,0), (0,2), (2,0), (1,2), (2,1): 2 * 6 / 2!
        x = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
        assert ordered_tuple_sum(np.ones(3), x, x) == 6.0

    @pytest.mark.parametrize("name,points", list(ENSEMBLE_POINTS.items()))
    def test_equals_subset_sum(self, name, points):
        spec = build_ensemble(name, 3)
        weights, tables = NodeMeasure.points(points).tables((spec.left, spec.right))
        lhs = cauchy_binet_lhs(*tables)
        assert abs(ordered_tuple_sum(weights, *tables) - lhs) <= 1e-13 * abs(lhs)

    def test_spans_tuple_blocks(self):
        rng = np.random.default_rng(17)
        x = random_int_matrix(rng, 130, 2)
        y = random_int_matrix(rng, 130, 2)
        assert 130 * 129 > discrete._SUBSET_BLOCK
        exact = cauchy_binet_rhs(x, y)
        assert relative_gap(ordered_tuple_sum(np.ones(130), x, y), exact) < 1e-12

    def test_weights_scale_each_point(self):
        rng = np.random.default_rng(23)
        x, y = rng.standard_normal((5, 3)), rng.standard_normal((5, 3))
        weights = rng.uniform(0.5, 2.0, 5)
        exact = cauchy_binet_rhs(weights[:, None] * x, y)
        assert relative_gap(ordered_tuple_sum(weights, x, y), exact) < 1e-12

    def test_budget_bounds_tuple_count(self, monkeypatch):
        # 4 rows, N = 2: the 4 * 3 tuples of distinct rows, not 4**2
        x = np.ones((4, 2))
        monkeypatch.setattr(discrete, "DEFAULT_EVAL_BUDGET", 12)
        assert ordered_tuple_sum(np.ones(4), x, x) == 0.0
        monkeypatch.setattr(discrete, "DEFAULT_EVAL_BUDGET", 11)
        with pytest.raises(
            BudgetError, match="12 ordered 2-tuples of distinct rows of 4, allowed 11"
        ):
            ordered_tuple_sum(np.ones(4), x, x)


class TestMinorSummation:
    def test_two_by_two_identity_compression(self):
        a = np.array([[0, 1], [-1, 0]])
        t = np.eye(2, dtype=int)
        assert minor_summation_lhs(a, t) == 1
        assert minor_summation_rhs(a, t) == 1

    @pytest.mark.parametrize("shape", [(2, 2), (4, 2), (4, 4), (5, 2), (6, 4)])
    def test_lhs_equals_rhs_exactly(self, shape):
        order, rows = shape
        rng = np.random.default_rng(order * 10 + rows)
        for _ in range(15):
            a = random_int_skew(rng, order)
            t = random_int_matrix(rng, rows, order)
            lhs = minor_summation_lhs(a, t)
            rhs = minor_summation_rhs(a, t)
            assert isinstance(lhs, int)
            assert isinstance(rhs, int)
            assert lhs == rhs

    def test_float_path_agrees(self):
        rng = np.random.default_rng(3)
        a = random_int_skew(rng, 5)
        t = random_int_matrix(rng, 4, 5)
        exact = minor_summation_rhs(a, t)
        got_lhs = minor_summation_lhs(a.astype(float), t.astype(float))
        got_rhs = minor_summation_rhs(a.astype(float), t.astype(float))
        assert relative_gap(got_lhs, exact) < 1e-11
        assert relative_gap(got_rhs, exact) < 1e-11

    def test_float_path_spans_subset_blocks(self):
        rng = np.random.default_rng(17)
        a = random_int_skew(rng, 200)
        t = random_int_matrix(rng, 2, 200)
        assert math.comb(200, 2) > discrete._SUBSET_BLOCK
        exact = minor_summation_rhs(a, t)
        assert relative_gap(minor_summation_lhs(a.astype(float), t.astype(float)), exact) < 1e-12

    def test_skew_matrix_wrapper_accepted(self):
        rng = np.random.default_rng(5)
        raw = random_int_skew(rng, 4).astype(float)
        t = random_int_matrix(rng, 2, 4).astype(float)
        wrapped = SkewMatrix(raw)
        assert minor_summation_lhs(wrapped, t) == minor_summation_lhs(raw, t)
        assert minor_summation_rhs(wrapped, t) == minor_summation_rhs(raw, t)

    def test_empty_selection_is_one(self):
        a = np.array([[0, 2], [-2, 0]])
        t = np.zeros((0, 2), dtype=int)
        assert minor_summation_lhs(a, t) == 1
        assert minor_summation_rhs(a, t) == 1
        assert minor_summation_rhs(a.astype(float), t.astype(float)) == 1.0

    def test_odd_row_count_rejected(self):
        a = random_int_skew(np.random.default_rng(1), 4)
        t = np.ones((3, 4), dtype=int)
        with pytest.raises(ValueError, match="size must be even, got 3"):
            minor_summation_lhs(a, t)
        with pytest.raises(ValueError, match="size must be even, got 3"):
            minor_summation_rhs(a, t)

    def test_column_count_must_match(self):
        a = random_int_skew(np.random.default_rng(2), 4)
        with pytest.raises(ValueError, match="must have 4 columns"):
            minor_summation_lhs(a, np.ones((2, 3), dtype=int))

    def test_more_rows_than_columns_rejected(self):
        a = random_int_skew(np.random.default_rng(4), 2)
        with pytest.raises(ValueError, match="at least as many columns"):
            minor_summation_rhs(a, np.ones((4, 2), dtype=int))

    def test_integer_input_must_be_antisymmetric(self):
        bad = np.array([[0, 1], [1, 0]])
        with pytest.raises(ValueError, match="not antisymmetric"):
            minor_summation_lhs(bad, np.eye(2, dtype=int))


class TestSubsetBudget:
    """C(M, N) above DEFAULT_EVAL_BUDGET stops a subset sum before it
    enumerates, on the exact and the float path alike."""

    @pytest.mark.parametrize("dtype", [int, float])
    def test_cauchy_binet(self, monkeypatch, dtype):
        # 6 rows, N = 3: C(6, 3) = 20 subsets
        x = np.ones((6, 3), dtype=dtype)
        monkeypatch.setattr(discrete, "DEFAULT_EVAL_BUDGET", 20)
        assert cauchy_binet_lhs(x, x) == 0
        monkeypatch.setattr(discrete, "DEFAULT_EVAL_BUDGET", 19)
        monkeypatch.setattr(discrete, "subsets", None)
        with pytest.raises(BudgetError, match="20 3-subsets of the 6 rows, allowed 19"):
            cauchy_binet_lhs(x, x)

    @pytest.mark.parametrize("dtype", [int, float])
    def test_minor_summation(self, monkeypatch, dtype):
        # A of order 6, N = 2: C(6, 2) = 15 subsets
        a = random_int_skew(np.random.default_rng(97), 6).astype(dtype)
        t = np.ones((2, 6), dtype=dtype)
        monkeypatch.setattr(discrete, "DEFAULT_EVAL_BUDGET", 15)
        assert minor_summation_lhs(a, t) == 0
        monkeypatch.setattr(discrete, "DEFAULT_EVAL_BUDGET", 14)
        monkeypatch.setattr(discrete, "subsets", None)
        with pytest.raises(BudgetError, match="15 2-subsets of the 6 columns, allowed 14"):
            minor_summation_lhs(a, t)


class TestBlockConstruction:
    def test_column_vectors_give_inner_product(self):
        x = np.array([[2], [3]])
        y = np.array([[-1], [4]])
        ms, cb = block_reclaims_cauchy_binet(x, y)
        assert cb == 2 * -1 + 3 * 4
        assert ms == cb

    @pytest.mark.parametrize("shape", [(2, 1), (2, 2), (3, 2), (3, 3), (4, 3)])
    def test_magnitudes_always_agree(self, shape):
        rows, cols = shape
        rng = np.random.default_rng(rows * 17 + cols)
        for _ in range(20):
            x = random_int_matrix(rng, rows, cols)
            y = random_int_matrix(rng, rows, cols)
            ms, cb = block_reclaims_cauchy_binet(x, y)
            assert isinstance(ms, int)
            assert abs(ms) == abs(cb)

    @pytest.mark.parametrize("shape", [(2, 1), (2, 2), (3, 2), (3, 3), (4, 3), (4, 4)])
    def test_sign_ratio_constant_per_shape(self, shape):
        rows, cols = shape
        rng = np.random.default_rng(rows * 31 + cols)
        ratios = set()
        for _ in range(25):
            x = random_int_matrix(rng, rows, cols)
            y = random_int_matrix(rng, rows, cols)
            ms, cb = block_reclaims_cauchy_binet(x, y)
            if cb != 0:
                ratios.add(ms // cb)
        assert len(ratios) == 1
        assert ratios <= {1, -1}

    def test_float_inputs_supported(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((3, 2))
        y = rng.standard_normal((3, 2))
        ms, cb = block_reclaims_cauchy_binet(x, y)
        assert relative_gap(abs(ms), abs(cb)) < 1e-12

    def test_exact_and_float_inputs_mix_as_floats(self):
        rng = np.random.default_rng(10)
        x = np.array(random_int_matrix(rng, 3, 2).tolist(), dtype=object)
        y = rng.standard_normal((3, 2))
        ms, cb = block_reclaims_cauchy_binet(x, y)
        assert isinstance(ms, float) and isinstance(cb, float)
        assert relative_gap(abs(ms), abs(cb)) < 1e-12

    def test_requires_tall_input(self):
        with pytest.raises(ValueError, match="at least as many rows"):
            block_reclaims_cauchy_binet(np.ones((1, 2), dtype=int), np.ones((1, 2), dtype=int))


FRACTIONS = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def tall_fraction_pairs(draw):
    cols = draw(st.integers(1, 3))
    rows = draw(st.integers(cols, 5))
    cells = st.lists(FRACTIONS, min_size=rows * cols, max_size=rows * cols)
    x, y = draw(cells), draw(cells)
    return (
        np.array(x, dtype=object).reshape(rows, cols),
        np.array(y, dtype=object).reshape(rows, cols),
    )


@st.composite
def skew_and_compressor(draw):
    order = draw(st.integers(2, 5))
    rows = draw(st.sampled_from([r for r in (2, 4) if r <= order]))
    upper = draw(st.lists(FRACTIONS, min_size=order * order, max_size=order * order))
    a = np.array(upper, dtype=object).reshape(order, order)
    a = np.triu(a, 1) - np.triu(a, 1).T
    t = draw(st.lists(FRACTIONS, min_size=rows * order, max_size=rows * order))
    return a, np.array(t, dtype=object).reshape(rows, order)


class TestExactRationalInput:
    # the Bareiss quotients are exact in the rationals, but floor division
    # rounds a Fraction quotient: both sides once came out as integers
    X = np.array(
        [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 5)],
         [Fraction(1, 6), Fraction(1, 7)]],
        dtype=object,
    )
    Y = np.array(
        [[Fraction(1), Fraction(2, 3)], [Fraction(3, 5), Fraction(1, 9)],
         [Fraction(2, 7), Fraction(5, 11)]],
        dtype=object,
    )

    def test_hand_case_is_exact(self):
        assert cauchy_binet_lhs(self.X, self.Y) == Fraction(-2, 40425)
        assert cauchy_binet_rhs(self.X, self.Y) == Fraction(-2, 40425)

    def test_object_floats_rejected(self):
        z = np.array([[0.5, 0.25], [0.3, 0.7], [0.9, 0.1]], dtype=object)
        with pytest.raises(ValueError, match="int or Fraction entries, got 0.5"):
            cauchy_binet_lhs(z, z)
        with pytest.raises(ValueError, match="int or Fraction entries, got 0.5"):
            minor_summation_rhs(np.array([[0, 0.5], [-0.5, 0]], dtype=object),
                                np.eye(2, dtype=int))

    def test_object_ints_stay_integers(self):
        x = np.array([[1, 2], [3, 4], [5, 6]], dtype=object)
        assert cauchy_binet_lhs(x, x) == cauchy_binet_rhs(x, x) == 24
        assert isinstance(cauchy_binet_lhs(x, x), int)

    def test_int_and_fraction_mix(self):
        x = np.array([[1, 2], [3, 4], [5, 6]], dtype=object)
        # the int side must divide as Fractions too: / on two ints is a float
        want = det_by_permutation_expansion(x.T @ self.Y)
        for side in (cauchy_binet_lhs, cauchy_binet_rhs):
            value = side(x, self.Y)
            assert value == want
            assert isinstance(value, Fraction)

    def test_integer_a_with_float_t_is_not_floored(self):
        # an integer A once sent float T down the exact path, whose floor
        # division turned det T = 0.275 into 0.0
        a = np.array([[0, 1], [-1, 0]])
        t = np.array([[0.5, 0.25], [0.3, 0.7]])
        assert minor_summation_lhs(a, t) == pytest.approx(0.275, rel=1e-15)
        assert minor_summation_rhs(a, t) == pytest.approx(0.275, rel=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(tall_fraction_pairs())
    def test_cauchy_binet_matches_expansion(self, pair):
        x, y = pair
        want = det_by_permutation_expansion(x.T @ y)
        assert cauchy_binet_lhs(x, y) == want
        assert cauchy_binet_rhs(x, y) == want

    @settings(max_examples=60, deadline=None)
    @given(skew_and_compressor())
    def test_minor_summation_matches_expansion(self, pair):
        # Pf(T A T^T)^2 = det(T A T^T), expanded over permutations
        a, t = pair
        lhs, rhs = minor_summation_lhs(a, t), minor_summation_rhs(a, t)
        assert lhs == rhs
        assert lhs * lhs == det_by_permutation_expansion(t @ a @ t.T)
