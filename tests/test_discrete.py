"""Discrete identity checks: Cauchy-Binet, the point-measure bridge,
minor summation, and the block specialization."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from grid_oracles import (
    cauchy_binet_lhs_by_subsets,
    det_by_permutation_expansion,
    family_matrix,
    minor_summation_lhs_by_subsets,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from andreief import discrete, linalg, quadrature
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
    KernelFunction,
    NodeMeasure,
    build_ensemble,
    evaluate,
)
from andreief.identities import andreief_lhs_quadrature, debruijn_lhs_quadrature, gram_matrix
from andreief.linalg import SkewMatrix, relative_gap
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
        assert math.comb(200, 2) > quadrature._EVAL_ROWS
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
        assert 130 * 129 > quadrature._EVAL_ROWS
        exact = cauchy_binet_rhs(x, y)
        assert relative_gap(ordered_tuple_sum(np.ones(130), x, y), exact) < 1e-12

    def test_weights_scale_each_point(self):
        rng = np.random.default_rng(23)
        x, y = rng.standard_normal((5, 3)), rng.standard_normal((5, 3))
        weights = rng.uniform(0.5, 2.0, 5)
        exact = cauchy_binet_rhs(weights[:, None] * x, y)
        assert relative_gap(ordered_tuple_sum(weights, x, y), exact) < 1e-12

    def test_zero_columns_is_one(self):
        # one empty tuple, whose two empty determinants are 1
        assert ordered_tuple_sum(np.ones(3), np.ones((3, 0)), np.ones((3, 0))) == 1.0

    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_orders_in_chunks_are_exact(self, monkeypatch, rows, n):
        # integer-valued floats at N <= 3, where the cofactor determinants
        # and every partial sum are exact: the N! orders of each subset add
        # to N! times the exact subset sum, so the sum over N! equals it.
        # C(5, N) subsets in blocks of 1 or 3 rows: one order per stack, and
        # at rows = 3 a last one-subset block whose orders go 3 at a time
        monkeypatch.setattr(quadrature, "_EVAL_ROWS", rows)
        rng = np.random.default_rng(41 + n)
        x, y = random_int_matrix(rng, 5, n), random_int_matrix(rng, 5, n)
        weights = rng.integers(1, 4, 5)
        exact = cauchy_binet_lhs(weights[:, None] * x, y)
        floats = weights.astype(float), x.astype(float), y.astype(float)
        assert ordered_tuple_sum(*floats) == exact

    def test_budget_bounds_tuple_count(self, monkeypatch):
        # 4 rows, N = 2: the 4 * 3 tuples of distinct rows, not 4**2
        x = np.ones((4, 2))
        monkeypatch.setattr(quadrature, "DEFAULT_EVAL_BUDGET", 12)
        assert ordered_tuple_sum(np.ones(4), x, x) == 0.0
        monkeypatch.setattr(quadrature, "DEFAULT_EVAL_BUDGET", 11)
        with pytest.raises(
            BudgetError, match="12 ordered 2-tuples of distinct rows of 4, allowed 11"
        ):
            ordered_tuple_sum(np.ones(4), x, x)


class _CopySpy:
    """numpy, as linalg sees it, recording the shape of every 3-D array
    that np.ascontiguousarray copies."""

    def __init__(self):
        self.copies = []

    def __getattr__(self, name):
        return getattr(np, name)

    def ascontiguousarray(self, a):
        out = np.ascontiguousarray(a)
        if out.ndim == 3 and not np.shares_memory(out, a):
            self.copies.append(out.shape)
        return out


def _debruijn_sum():
    spec = build_ensemble("legendre-monomial", 4)
    return debruijn_lhs_quadrature(spec.left, KernelFunction.builtin("sign"), spec.domain, 24)


_GATHER_RNG = np.random.default_rng(29)
_CB_PAIR = _GATHER_RNG.standard_normal((2, 12, 5))
_TUPLE_TABLES = _GATHER_RNG.uniform(0.5, 2.0, 7), *_GATHER_RNG.standard_normal((2, 7, 4))

# every float sum whose order-4 or -5 stacks reach the lockstep LU
GATHERED_SUMS = {
    "debruijn_lhs_quadrature": _debruijn_sum,
    "cauchy_binet_lhs": lambda: cauchy_binet_lhs(*_CB_PAIR),
    "ordered_tuple_sum": lambda: ordered_tuple_sum(*_TUPLE_TABLES),
}


class TestEntryMajorGathers:
    @pytest.mark.parametrize("route", GATHERED_SUMS)
    def test_stacks_reach_the_lu_uncopied(self, monkeypatch, route):
        spy = _CopySpy()
        monkeypatch.setattr(linalg, "np", spy)
        GATHERED_SUMS[route]()
        assert spy.copies == []

    @pytest.mark.parametrize("route", GATHERED_SUMS)
    def test_values_equal_the_row_major_gather(self, monkeypatch, route):
        value = GATHERED_SUMS[route]()
        monkeypatch.setattr(discrete, "_row_stack", lambda x, index: x[index])
        assert GATHERED_SUMS[route]() == value


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
        assert math.comb(200, 2) > quadrature._EVAL_ROWS
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

    def test_int64_compression_equals_the_object_one(self):
        rng = np.random.default_rng(41)
        for order, rows in ((4, 2), (6, 4), (7, 6)):
            a, t = random_int_skew(rng, order), random_int_matrix(rng, rows, order)
            assert discrete._exact_compression(a, t).dtype == np.int64
            as_objects = a.astype(object), t.astype(object)
            assert discrete._exact_compression(*as_objects).dtype == object
            rhs = minor_summation_rhs(a, t)
            assert isinstance(rhs, int)
            assert rhs == minor_summation_rhs(*as_objects) == minor_summation_lhs_by_subsets(a, t)

    def test_entries_near_2_31_fall_back_to_object_arithmetic(self):
        # M^2 max|T|^2 max|A| = 16 * 2^62 * (2^31 - 1) is far past 2^63, and
        # T A T^T in int64 would wrap
        big = 2**31 - 1
        a = np.array([[0, big, -big, 1], [-big, 0, big, big], [big, -big, 0, -big],
                      [-1, -big, big, 0]], dtype=np.int64)
        t = np.array([[big, 1, -big, big], [-big, big, 2, big]], dtype=np.int64)
        assert discrete._exact_compression(a, t).dtype == object
        with np.errstate(over="ignore"):
            wrapped = (t @ a @ t.T)[0, 1]
        rhs = minor_summation_rhs(a, t)
        assert rhs == minor_summation_lhs_by_subsets(a, t) == minor_summation_lhs(a, t)
        assert rhs != wrapped

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
        monkeypatch.setattr(quadrature, "DEFAULT_EVAL_BUDGET", 20)
        if dtype is int:
            # the exact sum passes the subset count, then stops at the
            # 6 + 2*15 + 3*20 = 96 products of its minor table
            with pytest.raises(BudgetError, match="96 exact products"):
                cauchy_binet_lhs(x, x)
        else:
            assert cauchy_binet_lhs(x, x) == 0
        monkeypatch.setattr(quadrature, "DEFAULT_EVAL_BUDGET", 19)
        monkeypatch.setattr(discrete, "subsets", None)
        with pytest.raises(BudgetError, match="20 3-subsets of the 6 rows, allowed 19"):
            cauchy_binet_lhs(x, x)

    @pytest.mark.parametrize("dtype", [int, float])
    def test_minor_summation(self, monkeypatch, dtype):
        # A of order 6, N = 2: C(6, 2) = 15 subsets
        a = random_int_skew(np.random.default_rng(97), 6).astype(dtype)
        t = np.ones((2, 6), dtype=dtype)
        monkeypatch.setattr(quadrature, "DEFAULT_EVAL_BUDGET", 15)
        if dtype is int:
            # minors 6 + 2*15, Pfaffians 15: 51 products
            with pytest.raises(BudgetError, match="51 exact products"):
                minor_summation_lhs(a, t)
        else:
            assert minor_summation_lhs(a, t) == 0
        monkeypatch.setattr(quadrature, "DEFAULT_EVAL_BUDGET", 14)
        monkeypatch.setattr(discrete, "subsets", None)
        with pytest.raises(BudgetError, match="15 2-subsets of the 6 columns, allowed 14"):
            minor_summation_lhs(a, t)


class TestTableBudget:
    """Past the subset count, an exact sum bounds the products that build
    its tables by DEFAULT_EVAL_BUDGET, and raises naming them before any
    table is built."""

    def test_cauchy_binet(self, monkeypatch):
        # 6 rows, N = 3: 6 + 2*15 + 3*20 = 96 products
        x = np.ones((6, 3), dtype=int)
        monkeypatch.setattr(quadrature, "DEFAULT_EVAL_BUDGET", 96)
        assert cauchy_binet_lhs(x, x) == 0
        monkeypatch.setattr(quadrature, "DEFAULT_EVAL_BUDGET", 95)
        monkeypatch.setattr(discrete, "_grow", None)
        with pytest.raises(
            BudgetError, match="96 exact products to tabulate the minors of the 6 rows, allowed 95"
        ):
            cauchy_binet_lhs(x, x)

    def test_minor_summation(self, monkeypatch):
        # order 6, N = 2: minors 6 + 2*15, Pfaffians 15: 51 products
        a = random_int_skew(np.random.default_rng(97), 6)
        t = np.ones((2, 6), dtype=int)
        monkeypatch.setattr(quadrature, "DEFAULT_EVAL_BUDGET", 51)
        assert minor_summation_lhs(a, t) == 0
        monkeypatch.setattr(quadrature, "DEFAULT_EVAL_BUDGET", 50)
        monkeypatch.setattr(discrete, "_grow", None)
        with pytest.raises(BudgetError, match="51 exact products to tabulate the minors and "
                           "Pfaffians of the 6 columns, allowed 50"):
            minor_summation_lhs(a, t)

    def test_minor_summation_rhs(self, monkeypatch):
        # an order-4 compression: Pfaffians 1*6 + 3*1 = 9 products
        rng = np.random.default_rng(98)
        a, t = random_int_skew(rng, 6), random_int_matrix(rng, 4, 6)
        monkeypatch.setattr(quadrature, "DEFAULT_EVAL_BUDGET", 9)
        assert minor_summation_rhs(a, t) == minor_summation_lhs_by_subsets(a, t)
        monkeypatch.setattr(quadrature, "DEFAULT_EVAL_BUDGET", 8)
        monkeypatch.setattr(discrete, "_grow", None)
        with pytest.raises(BudgetError, match="9 exact products to tabulate the Pfaffians of "
                           "the order-4 compression, allowed 8"):
            minor_summation_rhs(a, t)
        assert minor_summation_rhs(a.astype(float), t.astype(float)) != 0

    def test_few_subsets_can_need_many_products(self):
        # C(30, 28) = 435 subsets, but 30 * 2**29 - 900 products at the
        # default budget
        x = np.ones((30, 28), dtype=int)
        with pytest.raises(BudgetError, match="16106126460 exact products"):
            cauchy_binet_lhs(x, x)


ENTRIES = st.integers(-3, 3)


def int_matrix(draw, rows, cols):
    cells = draw(st.lists(ENTRIES, min_size=rows * cols, max_size=rows * cols))
    return np.array(cells, dtype=np.int64).reshape(rows, cols)


@st.composite
def tall_int_pairs(draw):
    rows = draw(st.integers(0, 9))
    cols = draw(st.integers(0, rows))
    return int_matrix(draw, rows, cols), int_matrix(draw, rows, cols)


@st.composite
def int_skew_and_compressor(draw):
    order = draw(st.integers(0, 9))
    rows = draw(st.sampled_from(range(0, order + 1, 2)))
    upper = np.triu(int_matrix(draw, order, order), 1)
    return upper - upper.T, int_matrix(draw, rows, order)


def same_exact_value(got, want):
    return got == want and type(got) is type(want)


def as_fractions(a, rng):
    """The entries of a over random denominators 1..4, as Fractions."""
    out = np.empty(a.shape, dtype=object)
    for i in np.ndindex(a.shape):
        out[i] = Fraction(int(a[i]), int(rng.integers(1, 5)))
    return out


class TestMinorTables:
    """The exact left sides read every maximal minor, and every even
    principal Pfaffian, from tables; they equal the per-subset sums
    exactly, with the same result type."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(tall_int_pairs())
    def test_cauchy_binet_equals_subset_sum(self, pair):
        x, y = pair
        assert same_exact_value(cauchy_binet_lhs(x, y), cauchy_binet_lhs_by_subsets(x, y))

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(int_skew_and_compressor())
    def test_minor_summation_equals_subset_sum(self, pair):
        a, t = pair
        assert same_exact_value(minor_summation_lhs(a, t), minor_summation_lhs_by_subsets(a, t))

    @pytest.mark.parametrize("kind", ["object-int", "fraction", "mixed"])
    def test_object_and_rational_entries(self, kind):
        rng = np.random.default_rng(21)
        x, y = random_int_matrix(rng, 7, 3), random_int_matrix(rng, 7, 3)
        a, t = random_int_skew(rng, 7), random_int_matrix(rng, 4, 7)
        if kind == "object-int":
            x, y, a, t = (m.astype(object) for m in (x, y, a, t))
        elif kind == "fraction":
            x, y, t = (as_fractions(m, rng) for m in (x, y, t))
            upper = np.triu(as_fractions(a, rng), 1)
            a = upper - upper.T
        else:
            x, t = x.astype(object), as_fractions(t, rng)
            y = as_fractions(y, rng)
        cb = cauchy_binet_lhs(x, y)
        assert same_exact_value(cb, cauchy_binet_lhs_by_subsets(x, y))
        ms = minor_summation_lhs(a, t)
        assert same_exact_value(ms, minor_summation_lhs_by_subsets(a, t))
        assert isinstance(cb, int if kind == "object-int" else Fraction)

    def test_no_columns_and_square(self):
        rng = np.random.default_rng(22)
        for rows in (0, 4):
            empty = np.zeros((rows, 0), dtype=int)
            assert same_exact_value(cauchy_binet_lhs(empty, empty), 1)
        x, y = random_int_matrix(rng, 5, 5), random_int_matrix(rng, 5, 5)
        assert same_exact_value(cauchy_binet_lhs(x, y), cauchy_binet_lhs_by_subsets(x, y))
        a, t = random_int_skew(rng, 6), random_int_matrix(rng, 6, 6)
        assert same_exact_value(minor_summation_lhs(a, t), minor_summation_lhs_by_subsets(a, t))

    def test_blocks_of_a_few_subsets(self, monkeypatch):
        # every size spans several blocks, and the last one is partial
        rng = np.random.default_rng(23)
        x, y = random_int_matrix(rng, 8, 4), random_int_matrix(rng, 8, 4)
        a, t = random_int_skew(rng, 8), random_int_matrix(rng, 4, 8)
        want = cauchy_binet_lhs_by_subsets(x, y), minor_summation_lhs_by_subsets(a, t)
        rhs = minor_summation_rhs(a, t)
        monkeypatch.setattr(quadrature, "_EVAL_ROWS", 3)
        blocks = {}
        grow = discrete._grow

        def counted(binom, k, *args):
            for block in grow(binom, k, *args):
                blocks.setdefault((binom.shape[1] - 1, k), []).append(len(block[1]))
                yield block

        monkeypatch.setattr(discrete, "_grow", counted)
        assert (cauchy_binet_lhs(x, y), minor_summation_lhs(a, t)) == want
        assert minor_summation_rhs(a, t) == rhs == want[1]
        assert {k for m, k in blocks if m == 8} == {1, 2, 3, 4}
        for (m, k), sizes in blocks.items():
            assert max(sizes) <= 3 and len(sizes) >= math.comb(m, k) / 3, (m, k)


class TestBlockConstruction:
    def test_column_vectors_give_inner_product(self):
        x = np.array([[2], [3]])
        y = np.array([[-1], [4]])
        ms, cb = block_reclaims_cauchy_binet(x, y)
        assert cb == 2 * -1 + 3 * 4
        assert ms == cb

    # at (10, 7) the compression has order 14, past the expansion oracle's cap
    @pytest.mark.parametrize("shape", [(2, 1), (2, 2), (3, 2), (3, 3), (4, 3), (10, 7)])
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

    def test_integer_entries_near_2_31_stay_exact(self):
        # the int64 blocks compress in object arithmetic past the int64 bound
        x = np.array([[2**31 - 1, 5], [-(2**31), 2**31 - 3], [7, -(2**31) + 9]])
        y = np.array([[2**31 - 2, -1], [3, 2**31 - 1], [-(2**31) + 4, 2]])
        ms, cb = block_reclaims_cauchy_binet(x, y)
        assert isinstance(ms, int)
        assert cb == cauchy_binet_lhs_by_subsets(x, y)
        assert abs(ms) == abs(cb)
        assert ms == block_reclaims_cauchy_binet(x.astype(object), y.astype(object))[0]

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

    def test_first_bad_entry_named_in_flat_order(self):
        # bad entries in both arrays: the first array's first, in flat order
        x = np.array([[1, Fraction(1, 2)], [True, 0.75], [np.int64(4), 5]], dtype=object)
        y = np.array([[1, 2], [np.int64(7), 0.25], [1.5, 6]], dtype=object)
        for side in (cauchy_binet_lhs, cauchy_binet_rhs):
            with pytest.raises(ValueError, match="int or Fraction entries, got 0.75"):
                side(x, y)
            with pytest.raises(ValueError, match="got " + re.escape(repr(np.int64(7)))):
                side(y, x)

    def test_int_subclasses_accepted(self):
        x = np.array([[True, 2], [3, False], [1, 1]], dtype=object)
        assert same_exact_value(cauchy_binet_lhs(x, x), cauchy_binet_lhs_by_subsets(x, x))
        assert same_exact_value(cauchy_binet_lhs(x, x), cauchy_binet_rhs(x, x))

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

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(tall_fraction_pairs())
    def test_cauchy_binet_matches_expansion(self, pair):
        x, y = pair
        want = det_by_permutation_expansion(x.T @ y)
        assert cauchy_binet_lhs(x, y) == want
        assert cauchy_binet_rhs(x, y) == want

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(skew_and_compressor())
    def test_minor_summation_matches_expansion(self, pair):
        # Pf(T A T^T)^2 = det(T A T^T), expanded over permutations
        a, t = pair
        lhs, rhs = minor_summation_lhs(a, t), minor_summation_rhs(a, t)
        assert lhs == rhs
        assert lhs * lhs == det_by_permutation_expansion(t @ a @ t.T)
