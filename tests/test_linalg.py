"""Tests for the dense linear algebra kernel."""

import itertools
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from andreief import linalg
from andreief.linalg import (
    SkewMatrix,
    determinant,
    determinant_batch,
    pfaffian,
    pfaffian_batch,
    relative_gap,
    skew_symmetrize,
)

from grid_oracles import (
    EXPANSION_LIMIT,
    det_by_permutation_expansion,
    pfaffian_by_elimination,
    pfaffian_by_expansion,
    permutation_signature,
)


def random_skew(rng, n):
    a = rng.standard_normal((n, n))
    return a - a.T


class TestDeterminant:
    def test_two_by_two(self):
        assert determinant([[1.0, 2.0], [3.0, 4.0]]) == pytest.approx(-2.0, abs=1e-14)

    def test_identity(self):
        assert determinant(np.eye(5)) == pytest.approx(1.0, abs=1e-15)

    def test_empty(self):
        assert determinant(np.zeros((0, 0))) == 1.0

    def test_vandermonde(self):
        # nodes 0, 1, 2: product of differences (1-0)(2-0)(2-1) = 2
        v = np.vander([0.0, 1.0, 2.0], increasing=True)
        assert determinant(v) == pytest.approx(2.0, abs=1e-13)

    def test_singular(self):
        assert determinant([[1.0, 2.0], [2.0, 4.0]]) == 0.0

    def test_singular_three_by_three_exact(self):
        # every product and difference of the cofactor expansion is exact
        # here; an LU factorization may round to a few ulps instead
        assert determinant([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]]) == 0.0

    def test_hilbert_three_by_three(self):
        exact = det_by_permutation_expansion(
            np.array([[Fraction(1, i + j + 1) for j in range(3)] for i in range(3)])
        )
        hilbert = [[1.0 / (i + j + 1) for j in range(3)] for i in range(3)]
        assert abs(determinant(hilbert) - exact) <= 1e-13 * abs(exact)

    @pytest.mark.parametrize("order", [2, 4])
    def test_subnormal_pivot_gives_zero_silently(self, order):
        # at order 4 LU's second pivot underflows to zero, where
        # numpy.linalg.det alone warns "divide by zero encountered in det"
        c = 1.1e-308
        m = np.eye(order)
        m[:2, :2] = [[0.0, c], [c, c]]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert determinant(m) == 0.0

    def test_swap_changes_sign(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((4, 4))
        b = a[[1, 0, 2, 3], :]
        assert determinant(b) == pytest.approx(-determinant(a), rel=1e-12)

    def test_transpose_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.standard_normal((5, 5))
            assert determinant(a.T) == pytest.approx(determinant(a), rel=1e-10)

    def test_matches_expansion_oracle(self):
        rng = np.random.default_rng(11)
        for n in range(1, 7):
            for _ in range(10):
                a = rng.standard_normal((n, n))
                exact = det_by_permutation_expansion(a)
                assert relative_gap(determinant(a), exact) <= 1e-12

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            determinant(np.ones((2, 3)))


class TestExpansionOracle:
    def test_exact_integer_arithmetic(self):
        a = np.array([[10**9, 1], [1, 10**9]], dtype=object)
        val = det_by_permutation_expansion(a)
        assert isinstance(val, int)
        assert val == 10**18 - 1

    def test_size_limit(self):
        with pytest.raises(ValueError, match="expansion oracle size limit"):
            det_by_permutation_expansion(np.eye(EXPANSION_LIMIT + 1))

    def test_at_limit(self):
        assert det_by_permutation_expansion(np.eye(EXPANSION_LIMIT)) == pytest.approx(1.0)


class TestPermutations:
    def test_signature_identity(self):
        assert permutation_signature((1, 2, 3)) == 1

    def test_signature_transposition(self):
        assert permutation_signature((2, 1, 3)) == -1

    def test_signature_three_cycle(self):
        assert permutation_signature((2, 3, 1)) == 1

    def test_count(self):
        signs = [permutation_signature(p) for p in itertools.permutations(range(1, 5))]
        assert len(signs) == 24
        assert signs.count(1) == signs.count(-1) == 12

    def test_signatures_sum_to_zero(self):
        assert sum(
            permutation_signature(p) for p in itertools.permutations(range(1, 5))
        ) == 0

    def test_from_images(self):
        assert permutation_signature([3, 1, 2]) == 1


class TestSkewMatrix:
    def test_accepts_antisymmetric(self):
        s = SkewMatrix([[0.0, 2.0], [-2.0, 0.0]])
        assert s.order == 2
        assert s.entries[0, 1] == 2.0

    def test_rejects_symmetric_part(self):
        with pytest.raises(ValueError, match="antisymmetric"):
            SkewMatrix([[0.0, 2.0], [-1.0, 0.0]])

    def test_entries_read_only(self):
        s = SkewMatrix([[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(ValueError):
            s.entries[0, 1] = 5.0

    def test_symmetrize_repairs(self):
        s = skew_symmetrize([[1.0, 3.0], [1.0, 2.0]])
        assert s.entries[0, 1] == pytest.approx(1.0)
        assert s.entries[1, 0] == pytest.approx(-1.0)


class TestPfaffian:
    def test_order_two(self):
        assert pfaffian([[0.0, 3.0], [-3.0, 0.0]]) == pytest.approx(3.0, abs=1e-14)

    def test_empty(self):
        assert pfaffian(np.zeros((0, 0))) == 1.0

    def test_order_four_closed_form(self):
        # Pf = a12 a34 - a13 a24 + a14 a23
        rng = np.random.default_rng(17)
        for _ in range(25):
            a = random_skew(rng, 4)
            expected = (
                a[0, 1] * a[2, 3] - a[0, 2] * a[1, 3] + a[0, 3] * a[1, 2]
            )
            assert pfaffian(a) == expected

    def test_odd_order_rejected(self):
        with pytest.raises(ValueError, match="Pfaffian requires even order"):
            pfaffian(np.zeros((3, 3)))

    def test_square_equals_determinant(self):
        rng = np.random.default_rng(23)
        for n in range(2, 11, 2):
            for _ in range(20):
                a = random_skew(rng, n)
                pf = pfaffian(a)
                assert relative_gap(pf * pf, determinant(a)) <= 1e-10

    def test_zero_matrix(self):
        assert pfaffian(np.zeros((4, 4))) == 0.0

    def test_matches_expansion_oracle(self):
        rng = np.random.default_rng(29)
        for n in (2, 4, 6, 8):
            for _ in range(10):
                a = random_skew(rng, n)
                assert relative_gap(pfaffian(a), pfaffian_by_expansion(a)) <= 1e-11

    def test_expansion_exact_integers(self):
        a = np.array(
            [
                [0, 1, 2, 3],
                [-1, 0, 4, 5],
                [-2, -4, 0, 6],
                [-3, -5, -6, 0],
            ],
            dtype=object,
        )
        val = pfaffian_by_expansion(a)
        assert isinstance(val, int)
        assert val == 1 * 6 - 2 * 5 + 3 * 4

    def test_expansion_odd_rejected(self):
        with pytest.raises(ValueError, match="Pfaffian requires even order"):
            pfaffian_by_expansion(np.zeros((5, 5)))

    def test_accepts_skew_matrix_instance(self):
        s = SkewMatrix([[0.0, 2.5], [-2.5, 0.0]])
        assert pfaffian(s) == pytest.approx(2.5)


class TestBatchRoutines:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 8])
    def test_determinant_batch_matches_scalar_bitwise(self, n):
        rng = np.random.default_rng(41)
        stack = rng.standard_normal((30, n, n))
        batch = determinant_batch(stack)
        for i in range(30):
            assert batch[i] == determinant(stack[i])

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_determinant_batch_strided_view_bitwise(self, n):
        # the (P, n, n) transpose of a contiguous (n, P, n) array, the layout
        # the engines' value stacks hand over
        rng = np.random.default_rng(47)
        view = rng.standard_normal((n, 30, n)).transpose(1, 0, 2)
        assert not view.flags.c_contiguous or n == 1
        assert np.array_equal(
            determinant_batch(view), determinant_batch(np.ascontiguousarray(view))
        )

    def test_determinant_batch_singular_entries(self):
        stack = np.stack([np.eye(3), np.ones((3, 3)), 2 * np.eye(3)])
        assert determinant_batch(stack) == pytest.approx([1.0, 0.0, 8.0])

    def test_determinant_batch_rejects_flat(self):
        with pytest.raises(ValueError, match="stack"):
            determinant_batch(np.eye(3))

    @pytest.mark.parametrize("n", [0, 2, 4, 6, 8, 10, 12])
    def test_pfaffian_batch_matches_scalar(self, n):
        rng = np.random.default_rng(43)
        raw = rng.standard_normal((20, n, n))
        stack = raw - np.transpose(raw, (0, 2, 1))
        batch = pfaffian_batch(stack)
        for i in range(20):
            assert batch[i] == pfaffian(stack[i])

    def test_pfaffian_batch_odd_rejected(self):
        with pytest.raises(ValueError, match="even order"):
            pfaffian_batch(np.zeros((4, 3, 3)))

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    @pytest.mark.parametrize("n", [0, 2, 4, 6])
    def test_complex_stacks_rejected(self, n, dtype):
        # a cast to float would keep the real part and drop the rest
        skew = np.triu(np.ones((n, n)), 1)
        stack = ((skew - skew.T) * 1j).astype(dtype)[None]
        name = np.dtype(dtype).name
        for kernel in (determinant_batch, pfaffian_batch):
            with pytest.raises(ValueError, match=f"real input required, got dtype {name}"):
                kernel(stack)
        for scalar in (determinant, pfaffian):
            with pytest.raises(ValueError, match=name):
                scalar(stack[0])

    def test_float_stacks_are_not_copied(self):
        stack = np.random.default_rng(5).standard_normal((4, 3, 3)).transpose(0, 2, 1)
        assert linalg._as_float(stack) is stack
        ints = np.arange(8).reshape(2, 2, 2)
        assert linalg._as_float(ints).dtype == np.float64


PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=30)


def hadamard_bound(stack):
    """Per-matrix product of row norms, the largest |det| such rows allow;
    the scale against which LU rounding in a determinant is measured."""
    return np.prod(np.linalg.norm(stack, axis=2), axis=1)


@st.composite
def small_int_stacks(draw, orders=range(1, 7)):
    n = draw(st.sampled_from(list(orders)))
    p = draw(st.integers(1, 6))
    return draw(arrays(np.int64, (p, n, n), elements=st.integers(-4, 4), fill=st.nothing()))


@st.composite
def float_stacks(draw, orders=range(1, 7)):
    n = draw(st.sampled_from(list(orders)))
    p = draw(st.integers(1, 6))
    return draw(arrays(np.float64, (p, n, n), elements=st.floats(-2.0, 2.0), fill=st.nothing()))


class TestDeterminantProperties:
    @PROPERTY_SETTINGS
    @given(small_int_stacks())
    def test_batch_matches_permutation_expansion(self, stack):
        batch = determinant_batch(stack)
        scale = hadamard_bound(stack.astype(float))
        for value, matrix, bound in zip(batch, stack, scale):
            exact = det_by_permutation_expansion(matrix.astype(object))
            assert abs(value - exact) <= 1e-13 * max(1.0, bound)

    @PROPERTY_SETTINGS
    @given(float_stacks(), st.data())
    def test_unit_lower_factor_leaves_determinant(self, stack, data):
        n = stack.shape[1]
        strict = data.draw(
            arrays(np.float64, (n, n), elements=st.floats(-2.0, 2.0), fill=st.nothing())
        )
        lower = np.tril(strict, -1) + np.eye(n)
        product = lower @ stack
        scale = np.maximum(hadamard_bound(product), hadamard_bound(stack))
        gap = np.abs(determinant_batch(product) - determinant_batch(stack))
        assert np.all(gap <= 1e-13 * np.maximum(1.0, scale))

    @PROPERTY_SETTINGS
    @given(float_stacks(), st.floats(-3.0, 3.0))
    def test_scaling_covariance(self, stack, c):
        n = stack.shape[1]
        scaled = determinant_batch(c * stack)
        expected = c**n * determinant_batch(stack)
        scale = abs(c) ** n * hadamard_bound(stack)
        assert np.all(np.abs(scaled - expected) <= 1e-13 * np.maximum(1.0, scale))

    @PROPERTY_SETTINGS
    @given(float_stacks(orders=(2, 4, 6, 8, 10, 12)))
    def test_pfaffian_squared_is_determinant(self, raw):
        skew = raw - np.transpose(raw, (0, 2, 1))
        pf = pfaffian_batch(skew)
        scale = hadamard_bound(skew)
        gap = np.abs(pf * pf - determinant_batch(skew))
        assert np.all(gap <= 1e-13 * np.maximum(1.0, scale))


class TestLockstepDeterminant:
    """Orders 4 and 5: the lockstep LU in numpy ufuncs, not LAPACK."""

    @PROPERTY_SETTINGS
    @given(float_stacks(orders=(4, 5)))
    def test_matches_lapack(self, stack):
        gap = np.abs(determinant_batch(stack) - np.linalg.det(stack))
        assert np.all(gap <= 1e-13 * np.maximum(1.0, hadamard_bound(stack)))

    @pytest.mark.parametrize("order, bound", [(4, 2e-13), (5, 1e-13)])
    def test_hilbert_exact(self, order, bound):
        # measured 8.9e-14 at order 4 and 3.7e-14 at order 5
        exact = det_by_permutation_expansion(
            np.array([[Fraction(1, i + j + 1) for j in range(order)] for i in range(order)])
        )
        value = determinant([[1.0 / (i + j + 1) for j in range(order)] for i in range(order)])
        assert abs(Fraction(value) - exact) <= bound * exact

    @pytest.mark.parametrize("order", [4, 5])
    def test_repeated_column_is_exactly_zero(self, order):
        rng = np.random.default_rng(61)
        stack = rng.standard_normal((200, order, order))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for first, second in itertools.combinations(range(order), 2):
                repeated = stack.copy()
                repeated[:, :, second] = repeated[:, :, first]
                assert np.all(determinant_batch(repeated) == 0.0)
            zero_column = stack.copy()
            zero_column[:, :, 1] = 0.0
            assert np.all(determinant_batch(zero_column) == 0.0)

    @pytest.mark.parametrize("order", [4, 5])
    def test_subnormal_pivot_is_finite(self, order):
        # the leading row and column are subnormal, so is the first pivot;
        # its reciprocal overflows to inf
        m = np.eye(order)
        m[0, 0], m[1, 0], m[0, 1] = 3e-310, 1e-310, 1e-310
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            value = determinant(m)
        assert value == pytest.approx(3e-310, rel=1e-6)

    @pytest.mark.parametrize("order", [4, 5])
    def test_entry_major_view_bitwise_and_untouched(self, order):
        # the layout the de Bruijn integrand gathers: (n, n, P) contiguous,
        # handed over as its (P, n, n) transpose
        rng = np.random.default_rng(67)
        gathered = rng.standard_normal((order, order, 40))
        before = gathered.copy()
        view = gathered.transpose(2, 0, 1)
        assert np.array_equal(
            determinant_batch(view), determinant_batch(np.ascontiguousarray(view))
        )
        assert np.array_equal(gathered, before)

    def test_lapack_only_from_order_six(self, monkeypatch):
        def refuse(a):
            raise AssertionError("LAPACK reached")

        monkeypatch.setattr(np.linalg, "det", refuse)
        rng = np.random.default_rng(71)
        for order in (1, 2, 3, 4, 5):
            determinant_batch(rng.standard_normal((3, order, order)))
            determinant(rng.standard_normal((order, order)))
        with pytest.raises(AssertionError, match="LAPACK reached"):
            determinant_batch(rng.standard_normal((3, 6, 6)))


class TestLockstepPfaffian:
    """Orders 6 and up: the lockstep Parlett-Reid against the one-matrix
    elimination, bit for bit."""

    @pytest.mark.parametrize("order", [6, 8, 10, 12])
    @pytest.mark.parametrize("integers", [False, True])
    def test_matches_elimination_bitwise(self, order, integers):
        # small integer entries make pivot ties common: the first largest
        # entry wins, as numpy's argmax
        rng = np.random.default_rng(73)
        if integers:
            raw = rng.integers(-2, 3, size=(200, order, order)).astype(float)
        else:
            raw = rng.standard_normal((200, order, order))
        stack = raw - raw.transpose(0, 2, 1)
        expected = [pfaffian_by_elimination(m) for m in stack]
        assert pfaffian_batch(stack).tolist() == expected

    @pytest.mark.parametrize("order", [6, 8, 10, 12])
    def test_floored_pivots_give_zero_silently(self, order):
        # every third matrix has a zero or sub-PIVOT_FLOOR pivot column: the
        # first one, or the third, which the first step leaves untouched
        # once the first row and column meet the rest only in entry (0, 1)
        rng = np.random.default_rng(79)
        raw = rng.standard_normal((60, order, order))
        stack = raw - raw.transpose(0, 2, 1)
        for i in range(0, 60, 3):
            scale = (0.0, 1e-305)[i // 3 % 2]
            if i // 6 % 2:
                stack[i, 1:, 0] *= scale
                stack[i, 0, 1:] *= scale
            else:
                stack[i, 2:, :2] = stack[i, :2, 2:] = 0.0
                stack[i, 3:, 2] *= scale
                stack[i, 2, 3:] *= scale
        expected = [pfaffian_by_elimination(m) for m in stack]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            batch = pfaffian_batch(stack)
        assert batch.tolist() == expected
        assert np.all(batch[::3] == 0.0)
        assert np.all(batch[1::3] != 0.0)

    @pytest.mark.parametrize("order", [6, 8, 12])
    def test_strided_views_bitwise_and_untouched(self, order):
        # a (P, n, n) transpose of an (n, n, P) array, as the de Bruijn
        # integrand hands over, and a view that skips every other matrix;
        # more matrices than one lockstep block
        rng = np.random.default_rng(83)
        raw = rng.standard_normal((order, order, 4100))
        gathered = raw - raw.transpose(1, 0, 2)
        before = gathered.copy()
        for view in (gathered.transpose(2, 0, 1), gathered.transpose(2, 0, 1)[::2]):
            expected = [pfaffian_by_elimination(m) for m in view]
            assert pfaffian_batch(view).tolist() == expected
        assert np.array_equal(gathered, before)


class TestToleranceConvention:
    def test_gap_small_values(self):
        # denominator floors at 1, so this is an absolute gap
        assert relative_gap(1e-13, 0.0) == pytest.approx(1e-13)

    def test_gap_large_values(self):
        assert relative_gap(1e6, 1e6 + 1.0) == pytest.approx(1e-6, rel=1e-3)

    def test_within(self):
        assert relative_gap(1.0, 1.0 + 1e-10) <= 1e-9
        assert relative_gap(1.0, 1.0 + 1e-8) > 1e-9
