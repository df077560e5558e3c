"""Tests for the determinant- and Pfaffian-identity engines."""

import functools
import itertools
import logging
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from andreief.ensembles import (
    BUILTIN_ENSEMBLE_NAMES,
    EnsembleSpec,
    FunctionFamily,
    KernelFunction,
    Weight,
    build_ensemble,
    weight_factorization,
)
from andreief import ensembles, identities
from andreief.biortho import biorthogonality_residuals, biorthogonalize
from andreief.identities import (
    DEFAULT_TOLERANCE,
    MC_PASS_SLACK,
    Check,
    GramMatrix,
    VerifyConfig,
    _pair_integrand,
    andreief_lhs_mc,
    andreief_lhs_quadrature,
    andreief_rhs,
    chebyshev_gap,
    check,
    debruijn_lhs_quadrature,
    debruijn_rhs,
    gram_matrix,
    verify_andreief,
)
from andreief.linalg import determinant_batch, relative_gap
from andreief import quadrature
from andreief.quadrature import BudgetError, Domain, gauss_rule, integrate_nd
from grid_oracles import (
    andreief_lhs_permutation_oracle,
    debruijn_lhs_point_grid,
    gram_matrix_per_entry,
    integrate_nd_by_chunks,
    integrate_nd_by_itertools,
    point_integrand,
    rescale,
)

SQRT_PI = math.sqrt(math.pi)

UNIFORM2 = build_ensemble("uniform-monomial", 2)
GUE2 = build_ensemble("gue-monomial", 2)


class TestGramMatrix:
    def test_uniform_monomial_moments(self):
        g = gram_matrix(UNIFORM2)
        assert np.allclose(g.entries, [[1.0, 0.5], [0.5, 1.0 / 3.0]], atol=1e-14)
        assert g.order == 2
        assert "gauss(finite(0, 1), n=40)" == g.rule_descriptor

    def test_constant_families(self):
        spec = build_ensemble("uniform-monomial", 1)
        g = gram_matrix(spec)
        assert np.allclose(g.entries, [[1.0]], atol=1e-14)

    def test_gaussian_gram(self):
        g = gram_matrix(GUE2)
        expected = [[SQRT_PI, 0.0], [0.0, SQRT_PI / 2.0]]
        assert np.allclose(g.entries, expected, atol=1e-13)

    @pytest.mark.parametrize("n_nodes", [12, 40, 60])
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("name", BUILTIN_ENSEMBLE_NAMES)
    def test_matches_per_entry_oracle(self, name, size, n_nodes):
        # F^T W Phi against one integrate_1d per entry; the scale is the
        # entry's absolute integral, as some entries vanish analytically
        spec = build_ensemble(name, size)
        got = gram_matrix(spec, n_nodes).entries
        want = gram_matrix_per_entry(spec, n_nodes)
        scale = gram_matrix_per_entry(spec, n_nodes, absolute=True)
        assert np.all(np.abs(got - want) <= 1e-14 * scale)

    def test_entries_read_only(self):
        g = gram_matrix(UNIFORM2)
        with pytest.raises(ValueError):
            g.entries[0, 0] = 7.0

    def test_validation(self):
        with pytest.raises(ValueError, match="expected"):
            GramMatrix(order=2, entries=np.ones((3, 3)), rule_descriptor="x")
        with pytest.raises(ValueError, match="finite"):
            GramMatrix(
                order=1, entries=np.array([[np.inf]]), rule_descriptor="x"
            )


class TestAndreiefRhs:
    def test_uniform_case(self):
        g = GramMatrix(2, np.array([[1.0, 0.5], [0.5, 1.0 / 3.0]]), "hand")
        assert andreief_rhs(g) == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_order_one(self):
        g = GramMatrix(1, np.array([[3.25]]), "hand")
        assert andreief_rhs(g) == pytest.approx(3.25)

    def test_gaussian_diag(self):
        g = GramMatrix(2, np.diag([SQRT_PI, SQRT_PI / 2.0]), "hand")
        assert andreief_rhs(g) == pytest.approx(math.pi, rel=1e-14)

    def test_log_space_branch_matches_exact(self):
        n = 25
        g = GramMatrix(n, 0.9 * np.eye(n), "hand")
        exact = math.factorial(n) * 0.9**n
        assert relative_gap(andreief_rhs(g), exact) <= 1e-12
        g_neg = GramMatrix(n, -0.9 * np.eye(n), "hand")
        assert andreief_rhs(g_neg) == pytest.approx(-exact, rel=1e-12)

    def test_singular_gram(self):
        g = GramMatrix(2, np.ones((2, 2)), "hand")
        assert andreief_rhs(g) == 0.0


class TestAndreiefLhsQuadrature:
    def test_uniform_monomial(self):
        lhs = andreief_lhs_quadrature(UNIFORM2)
        assert relative_gap(lhs, 1.0 / 6.0) <= 1e-13

    @pytest.mark.parametrize("name", BUILTIN_ENSEMBLE_NAMES)
    def test_size_one_equals_gram_entry(self, name):
        spec = build_ensemble(name, 1)
        lhs = andreief_lhs_quadrature(spec, 40)
        entry = gram_matrix(spec, 40).entries[0, 0]
        assert relative_gap(lhs, entry) <= 1e-13

    def test_gaussian_pair(self):
        lhs = andreief_lhs_quadrature(GUE2)
        assert relative_gap(lhs, math.pi) <= 1e-10

    def test_no_size_gate(self):
        # N = 7 sums the C(8, 7) node subsets, which Cauchy-Binet equates
        # with N! det(F^T W Phi) on the same rule; the size gate is the
        # verdict's, in verify_andreief
        spec = build_ensemble("gue-monomial", 7)
        lhs = andreief_lhs_quadrature(spec, 8)
        assert relative_gap(lhs, andreief_rhs(gram_matrix(spec, 8))) <= 1e-12

    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    @pytest.mark.parametrize("name", BUILTIN_ENSEMBLE_NAMES)
    def test_equals_tensor_grid(self, name, size):
        spec = build_ensemble(name, size)
        rule = gauss_rule(spec.domain, 12)
        grid = integrate_nd_by_chunks(rule, size, point_integrand(rule, _pair_integrand(spec)))
        assert abs(andreief_lhs_quadrature(spec, 12) - grid) <= 1e-13 * abs(grid)

    @pytest.mark.parametrize("size", [5, 6])
    def test_uniform_monomial_exact_hilbert(self, size):
        # N! det H_N with det H_N = c_N^4 / c_2N, c_n = prod_{i<n} i!;
        # 12 Gauss-Legendre nodes integrate the degree-2(N-1) terms exactly
        def c(n):
            return math.prod(math.factorial(i) for i in range(n))

        exact = math.factorial(size) * Fraction(c(size) ** 4, c(2 * size))
        lhs = andreief_lhs_quadrature(build_ensemble("uniform-monomial", size), 12)
        assert abs(Fraction(lhs) - exact) <= Fraction(1e-12) * exact

    def test_fewer_nodes_than_size_is_zero(self):
        # every grid point repeats a node, so the tensor sum is exactly 0
        assert andreief_lhs_quadrature(build_ensemble("gue-monomial", 4), 3) == 0.0

    @pytest.mark.parametrize(
        "name, calls", [("uniform-monomial", 1), ("muttalib-borodin", 2)]
    )
    def test_one_determinant_per_distinct_family(self, monkeypatch, name, calls):
        # the Monte Carlo integrand squares the determinant of families that
        # reduce alike, on every node subset at once
        shapes = []

        def spy(stack):
            shapes.append(stack.shape)
            return determinant_batch(stack)

        monkeypatch.setattr(identities, "determinant_batch", spy)
        andreief_lhs_quadrature(build_ensemble(name, 5), 12)
        assert shapes == [(math.comb(12, 5), 5, 5)] * calls

    @pytest.mark.parametrize(
        "route, side",
        [
            pytest.param("andreief_lhs_quadrature", 0, id="left"),
            pytest.param("andreief_lhs_quadrature", 1, id="right"),
            pytest.param("gram_matrix", 0, id="gram-left"),
            pytest.param("gram_matrix", 1, id="gram-right"),
            pytest.param("debruijn_rhs", 0, id="debruijn-rhs"),
            pytest.param("biorthogonality_residuals", 0, id="residuals-left"),
            pytest.param("biorthogonality_residuals", 1, id="residuals-right"),
        ],
    )
    def test_non_finite_family_value_names_node(self, monkeypatch, route, side):
        system = biorthogonalize(UNIFORM2, 3)
        run = {
            "andreief_lhs_quadrature": lambda: andreief_lhs_quadrature(UNIFORM2, 3),
            "gram_matrix": lambda: gram_matrix(UNIFORM2, 3),
            "debruijn_rhs": lambda: debruijn_rhs(UNIFORM2.left, SIGN, UNIFORM2.domain, 3),
            "biorthogonality_residuals": lambda: biorthogonality_residuals(system, 3),
        }[route]

        def poisoned(families, domain):
            member_fns, point_factor = weight_factorization(families, domain)
            fn = member_fns[side][1]
            member_fns[side][1] = lambda x: np.where(x > 0.8, np.inf, fn(x))
            return member_fns, point_factor

        # NodeMeasure.tables reduces the families for every Gauss route but
        # the Andreief left side, whose node tables reduce them in identities
        monkeypatch.setattr(ensembles, "weight_factorization", poisoned)
        monkeypatch.setattr(identities, "weight_factorization", poisoned)
        # the 3-node Gauss-Legendre rule on (0, 1) has its last node at
        # 0.8873; every route names that node, not a row of nodes
        with pytest.raises(ValueError, match=r"non-finite .* at node 0\.887"):
            run()


class TestAndreiefLhsMC:
    def test_uniform_monomial_three_seeds(self):
        for seed in (1, 2, 3):
            est = andreief_lhs_mc(UNIFORM2, 10**5, seed)
            assert abs(est.mean - 1.0 / 6.0) <= 3.0 * est.std_error

    def test_constant_families_exact(self):
        spec = build_ensemble("uniform-monomial", 1)
        est = andreief_lhs_mc(spec, 1000, seed=5)
        assert est.mean == 1.0
        assert est.std_error == 0.0

    def test_gaussian_three_against_rhs(self):
        spec = build_ensemble("gue-monomial", 3)
        rhs = andreief_rhs(gram_matrix(spec))
        est = andreief_lhs_mc(spec, 2 * 10**5, seed=11)
        assert abs(est.mean - rhs) <= 3.0 * est.std_error

    def test_deterministic(self):
        a = andreief_lhs_mc(UNIFORM2, 5000, seed=9)
        b = andreief_lhs_mc(UNIFORM2, 5000, seed=9)
        assert a == b


# (mean, std_error) in hex of andreief_lhs_mc at N = 3, seed 31, over two
# full blocks and a 5-row one, recorded while the integrand still evaluated
# and eliminated both families on the (P, N) rows of every slice
MC_PINS = {
    "uniform-monomial": ("0x1.6bc9f283d1218p-9", "0x1.9123e3725649dp-17"),
    "gue-monomial": ("0x1.0650aa4ea90edp+3", "0x1.674ba0fd06e1dp-4"),
    "muttalib-borodin": ("0x1.1290584c82e1cp+12", "0x1.756b322a2b078p+8"),
}
PIN_SAMPLES = 2 * quadrature._MC_CHUNK + 5


class TestPairIntegrand:
    """The Monte Carlo integrand evaluates each distinct reduced member
    list once per row slice, on entry-major stacks, and keeps every bit."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name", list(MC_PINS))
    def test_estimates_keep_their_bits(self, monkeypatch, name, workers):
        monkeypatch.setattr(quadrature, "_WORKERS", workers)
        est = andreief_lhs_mc(build_ensemble(name, 3), PIN_SAMPLES, 31)
        assert (est.mean.hex(), est.std_error.hex()) == MC_PINS[name]

    @pytest.mark.parametrize(
        "name, lists",
        [("uniform-monomial", 1), ("gue-monomial", 1), ("muttalib-borodin", 2)],
    )
    def test_one_evaluation_and_elimination_per_distinct_list(
        self, monkeypatch, name, lists
    ):
        calls, stacks = [], []

        def counting(families, domain):
            member_fns, point_factor = weight_factorization(families, domain)
            wrapped = {}
            for fns in member_fns:
                wrapped.setdefault(id(fns), [
                    lambda x, fn=fn, j=j: calls.append(j) or fn(x)
                    for j, fn in enumerate(fns)
                ])
            return [wrapped[id(fns)] for fns in member_fns], point_factor

        def recording(stack):
            stacks.append(stack)
            return determinant_batch(stack)

        monkeypatch.setattr(quadrature, "_WORKERS", 1)
        monkeypatch.setattr(identities, "weight_factorization", counting)
        monkeypatch.setattr(identities, "determinant_batch", recording)
        andreief_lhs_mc(build_ensemble(name, 3), PIN_SAMPLES, 31)
        slices = PIN_SAMPLES // quadrature._EVAL_ROWS + 1
        assert calls.count(0) == lists * slices
        assert len(calls) == 3 * lists * slices
        assert len(stacks) == lists * slices
        for stack in stacks:
            # a view of a contiguous (n, n, P) array: entries are contiguous
            assert stack.base.flags.c_contiguous
            assert stack.strides[0] == stack.itemsize

    def test_a_differing_positivity_check_stays_unshared(self):
        # theta = 1 and c = 0 reduce both families to x^j on the half line,
        # but only the stretched monomials check x > 0
        spec = build_ensemble("muttalib-borodin", 3, theta=1.0, c=0.0)
        (left_fns, right_fns), point_factor = weight_factorization(
            (spec.left, spec.right), spec.domain
        )
        assert left_fns is not right_fns and point_factor is None
        integrand = _pair_integrand(spec)
        points = np.array([[0.5, 1.0, 2.0], [0.25, 0.0, 3.0]])
        with pytest.raises(ValueError, match="^x must be positive for stretched_monomial families$"):
            integrand(points)
        inside = points + 1.0
        assert np.array_equal(
            integrand(inside), _pair_integrand(build_ensemble("laguerre-product", 3, nu=0))(inside)
        )


class TestPermutationOracle:
    def test_uniform_monomial(self):
        val = andreief_lhs_permutation_oracle(UNIFORM2)
        assert relative_gap(val, 1.0 / 6.0) <= 1e-13

    def test_size_one(self):
        spec = build_ensemble("legendre-monomial", 1)
        assert relative_gap(
            andreief_lhs_permutation_oracle(spec), gram_matrix(spec).entries[0, 0]
        ) <= 1e-13

    def test_gaussian_pair(self):
        assert relative_gap(andreief_lhs_permutation_oracle(GUE2), math.pi) <= 1e-10

    @pytest.mark.parametrize("name", BUILTIN_ENSEMBLE_NAMES)
    @pytest.mark.parametrize("size", [2, 3, 4])
    def test_equals_direct_lhs_for_catalogue(self, name, size):
        spec = build_ensemble(name, size)
        direct = andreief_lhs_quadrature(spec)
        expanded = andreief_lhs_permutation_oracle(spec)
        assert relative_gap(direct, expanded) <= 1e-11


class TestCatalogueIdentity:
    @pytest.mark.parametrize("name", BUILTIN_ENSEMBLE_NAMES)
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
    def test_lhs_matches_rhs(self, name, size):
        spec = build_ensemble(name, size)
        rhs = andreief_rhs(gram_matrix(spec))
        lhs = andreief_lhs_quadrature(spec)
        assert relative_gap(lhs, rhs) <= 1e-9

    # Half-line ensembles have heavy polynomial tails under the exponential
    # sampler; the 3-sigma interval is only trustworthy at larger sample
    # counts there (the sample sigma undershoots until the tail is covered).
    MC_SAMPLES = {"muttalib-borodin": 10**6, "laguerre-product": 10**6}

    @pytest.mark.parametrize("name", BUILTIN_ENSEMBLE_NAMES)
    @pytest.mark.parametrize("size", [2, 3])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_mc_within_three_sigma(self, name, size, seed):
        spec = build_ensemble(name, size)
        rhs = andreief_rhs(gram_matrix(spec))
        est = andreief_lhs_mc(spec, self.MC_SAMPLES.get(name, 10**5), seed)
        assert check("mc", est.mean, rhs, DEFAULT_TOLERANCE, sigma=est.std_error).passed

    def test_scaling_covariance(self):
        spec = build_ensemble("uniform-monomial", 3)
        factors = [2.0, -0.5, 3.0]
        scaled = replace(spec, left=rescale(spec.left, factors))
        base_rhs = andreief_rhs(gram_matrix(spec))
        base_lhs = andreief_lhs_quadrature(spec)
        scaled_rhs = andreief_rhs(gram_matrix(scaled))
        scaled_lhs = andreief_lhs_quadrature(scaled)
        prod = math.prod(factors)
        assert relative_gap(scaled_rhs, prod * base_rhs) <= 1e-12
        assert relative_gap(scaled_lhs, prod * base_lhs) <= 1e-12
        assert relative_gap(scaled_lhs, scaled_rhs) <= 1e-11


MONO2 = FunctionFamily(2, "monomial")
MONO4 = FunctionFamily(4, "monomial")
UNIT = Domain.finite(0.0, 1.0)
DIFFERENCE = KernelFunction.builtin("difference")
SIGN = KernelFunction.builtin("sign")


class TestDeBruijn:
    def test_two_by_two_closed_form_rhs(self):
        val = debruijn_rhs(MONO2, DIFFERENCE, UNIT, 12)
        assert relative_gap(val, -1.0 / 12.0) <= 1e-13

    def test_two_by_two_closed_form_lhs(self):
        val = debruijn_lhs_quadrature(MONO2, DIFFERENCE, UNIT, 12)
        assert relative_gap(val, -1.0 / 12.0) <= 1e-13

    def test_zero_kernel(self):
        zero = KernelFunction.custom(lambda x, y: 0.0 * (x + y))
        assert debruijn_rhs(MONO2, zero, UNIT, 8) == 0.0
        assert debruijn_lhs_quadrature(MONO2, zero, UNIT, 8) == 0.0

    @pytest.mark.parametrize("kernel", [DIFFERENCE, SIGN], ids=["difference", "sign"])
    def test_order_two_cross_engine(self, kernel):
        lhs = debruijn_lhs_quadrature(MONO2, kernel, UNIT, 24)
        rhs = debruijn_rhs(MONO2, kernel, UNIT, 24)
        assert relative_gap(lhs, rhs) <= 1e-10

    @pytest.mark.parametrize("kernel", [DIFFERENCE, SIGN], ids=["difference", "sign"])
    def test_order_four_cross_engine(self, kernel):
        lhs = debruijn_lhs_quadrature(MONO4, kernel, UNIT, 12)
        rhs = debruijn_rhs(MONO4, kernel, UNIT, 12)
        assert relative_gap(lhs, rhs) <= 1e-9

    @pytest.mark.parametrize("kernel", [DIFFERENCE, SIGN], ids=["difference", "sign"])
    def test_weighted_family_cross_engine(self, kernel):
        fam = FunctionFamily(2, "weighted_monomial", weight=Weight("gaussian"))
        dom = Domain.real_line()
        lhs = debruijn_lhs_quadrature(fam, kernel, dom, 20)
        rhs = debruijn_rhs(fam, kernel, dom, 20)
        assert relative_gap(lhs, rhs) <= 1e-10

    def test_odd_size_rejected(self):
        fam = FunctionFamily(3, "monomial")
        with pytest.raises(ValueError, match="even"):
            debruijn_rhs(fam, DIFFERENCE, UNIT, 8)
        with pytest.raises(ValueError, match="even"):
            debruijn_lhs_quadrature(fam, DIFFERENCE, UNIT, 8)

    def test_subset_budget_bounds_six_variables(self, monkeypatch):
        # no size gate: 2n = 6 runs, and the budget on the grid sum's node
        # subsets refuses a large one before any matrix is eliminated
        fam = FunctionFamily(6, "monomial")
        lhs = debruijn_lhs_quadrature(fam, SIGN, UNIT, 12)
        assert relative_gap(lhs, debruijn_rhs(fam, SIGN, UNIT, 12)) <= 1e-10
        monkeypatch.setattr(identities, "determinant_batch", None)
        with pytest.raises(
            BudgetError, match="300500200 6-subsets of the 80 nodes, allowed 100000000"
        ):
            debruijn_lhs_quadrature(fam, SIGN, UNIT, 80)

    @pytest.mark.parametrize(
        "engine", [debruijn_lhs_quadrature, debruijn_rhs], ids=["lhs", "rhs"]
    )
    def test_non_finite_kernel_names_node_pair(self, engine):
        blowup = KernelFunction.custom(
            lambda x, y: np.where((x > 0.8) & (y < 0.2), np.inf, x - y)
        )
        # the 3-node Gauss-Legendre rule on (0, 1) has nodes 0.1127, 0.5, 0.8873;
        # the first bad entry of the table is h(0.1127, 0.8873) = -inf
        with pytest.raises(ValueError, match=r"value -inf at node \[0\.1127\d* +0\.8872"):
            engine(MONO2, blowup, UNIT, 3)

    @pytest.mark.parametrize(
        "engine", [debruijn_lhs_quadrature, debruijn_rhs], ids=["lhs", "rhs"]
    )
    def test_finite_kernel_table_builds_no_node_pairs(self, engine, monkeypatch):
        # the node-pair stack only names a bad entry, so a finite table skips it
        calls = []
        monkeypatch.setattr(identities, "_check_finite", lambda *args: calls.append(args))
        engine(MONO2, SIGN, UNIT, 12)
        assert calls == []

    def test_custom_kernel_antisymmetrized(self):
        # x*y + x has antisymmetric part (x - y)/2
        custom = KernelFunction.custom(lambda x, y: x * y + x)
        ref = debruijn_rhs(MONO2, DIFFERENCE, UNIT, 12)
        val = debruijn_rhs(MONO2, custom, UNIT, 12)
        assert relative_gap(val, 0.5 * ref) <= 1e-12


class TestChebyshevGap:
    def test_identity_pair(self):
        gap, double_form = chebyshev_gap(lambda x: x, lambda x: x, UNIT)
        assert gap == pytest.approx(1.0 / 12.0, abs=1e-14)
        assert double_form == pytest.approx(1.0 / 12.0, abs=1e-14)

    def test_constant_vanishes(self):
        gap, double_form = chebyshev_gap(
            lambda x: np.full_like(x, 2.5), lambda x: x**3, UNIT
        )
        assert abs(gap) < 1e-14
        assert abs(double_form) < 1e-14

    def test_scalar_constant_vanishes(self):
        gap, double_form = chebyshev_gap(lambda x: 2.5, lambda x: x**3, UNIT)
        assert abs(gap) < 1e-14
        assert double_form == 0.0

    def test_functions_evaluated_once_on_the_nodes(self):
        calls = []

        def f(x):
            calls.append(np.shape(x))
            return np.exp(x)

        chebyshev_gap(f, lambda x: x**2, UNIT, 7)
        assert calls == [(7,)]

    def test_non_finite_value_names_node(self):
        # the 3-node Gauss-Legendre rule on (0, 1) has its last node at 0.8873
        with pytest.raises(ValueError, match=r"non-finite .* at node 0\.887"):
            chebyshev_gap(lambda x: x, lambda x: np.where(x > 0.8, np.nan, x), UNIT, 3)

    def test_monotone_pair_non_negative(self):
        gap, double_form = chebyshev_gap(lambda x: x, lambda x: x**2, UNIT)
        assert relative_gap(gap, double_form) <= 1e-13
        assert gap >= 0

    def test_twenty_random_smooth_pairs(self):
        rng = np.random.default_rng(55)
        dom = Domain.finite(-1.0, 2.0)
        for _ in range(20):
            cf = rng.uniform(-2, 2, 4)
            cg = rng.uniform(-2, 2, 4)
            f = lambda x, c=cf: c[0] + c[1] * x + c[2] * x**2 + c[3] * x**3
            g = lambda x, c=cg: c[0] + c[1] * x + c[2] * x**2 + c[3] * np.sin(x)
            gap, double_form = chebyshev_gap(f, g, dom)
            assert relative_gap(gap, double_form) <= 1e-12

    def test_co_monotone_suite_non_negative(self):
        increasing = [
            lambda x: x,
            lambda x: x**3,
            lambda x: np.exp(x),
            lambda x: x + np.sin(x) / 2.0,
            lambda x: np.tanh(2.0 * x),
        ]
        for i, f in enumerate(increasing):
            for g in increasing[i:]:
                gap, double_form = chebyshev_gap(f, g, UNIT)
                assert relative_gap(gap, double_form) <= 1e-12
                assert gap >= -1e-13
                assert double_form >= -1e-13

    def test_anti_monotone_flips_sign(self):
        gap, double_form = chebyshev_gap(lambda x: x, lambda x: -x, UNIT)
        assert gap == pytest.approx(-1.0 / 12.0, abs=1e-14)
        assert relative_gap(gap, double_form) <= 1e-13

    def test_requires_finite_domain(self):
        with pytest.raises(ValueError, match="finite domain"):
            chebyshev_gap(lambda x: x, lambda x: x, Domain.half_line())


class TestInverseWeightPath:
    """Families with no closed form against the embedded weight omega do
    not decay, so on an infinite domain no route has a finite integral to
    compute: every route rejects them instead of dividing by omega."""

    @pytest.mark.parametrize("domain", [Domain.half_line(), Domain.real_line()], ids=str)
    def test_andreief_monomial_pair(self, domain):
        mono = FunctionFamily(3, "monomial")
        spec = EnsembleSpec("monomial-pair", domain, mono, mono)
        for route in (
            lambda: andreief_lhs_quadrature(spec, 12),
            lambda: andreief_rhs(gram_matrix(spec, 12)),
            lambda: andreief_lhs_mc(spec, 100, 1),
            lambda: verify_andreief(spec),
        ):
            with pytest.raises(ValueError, match=f"monomial and monomial on {domain}: .* diverges"):
                route()

    @pytest.mark.parametrize("kernel", [DIFFERENCE, SIGN], ids=["difference", "sign"])
    def test_debruijn_monomial_on_real_line(self, kernel):
        mono = FunctionFamily(2, "monomial")
        dom = Domain.real_line()
        with pytest.raises(ValueError, match="monomial on real_line: .* diverges"):
            debruijn_lhs_quadrature(mono, kernel, dom, 12)
        with pytest.raises(ValueError, match="monomial on real_line: .* diverges"):
            debruijn_rhs(mono, kernel, dom, 12)


class TestCheck:
    """identities.check, the one rule that turns a gap into a verdict."""

    def test_default_scale_is_relative_gap(self):
        for lhs, rhs in ((1.0, 1.0 + 1e-10), (1e6, 1e6 + 1.0), (1e-13, 0.0), (-3.0, 2.0)):
            c = check("c", lhs, rhs, 1e-9)
            assert c == Check("c", lhs, rhs, abs(lhs - rhs), relative_gap(lhs, rhs), None,
                              relative_gap(lhs, rhs) <= 1e-9)
        assert check("c", 1.0, 1.0 + 1e-10, 1e-9).passed
        assert not check("c", 1.0, 1.0 + 1e-8, 1e-9).passed

    def test_exact_refuses_what_the_relative_rule_passes(self):
        lhs, rhs = 10**13, 10**13 + 1
        assert check("c", lhs, rhs, 1e-9).passed
        exact = check("c", lhs, rhs, 1e-9, exact=True)
        assert not exact.passed
        assert (exact.abs_gap, exact.rel_gap) == (1, relative_gap(lhs, rhs))
        assert check("c", lhs, lhs, 1e-9, exact=True).passed

    def test_zero_sigma_passes_within_the_slack(self):
        assert check("mc", 1.0 + 0.5 * MC_PASS_SLACK, 1.0, 1e-15, sigma=0.0).passed
        assert not check("mc", 1.0 + 2.0 * MC_PASS_SLACK, 1.0, 1e-15, sigma=0.0).passed
        # the slack scales with |rhs| above 1
        assert check("mc", 1e3 * (1.0 + 0.5 * MC_PASS_SLACK), 1e3, 1e-15, sigma=0.0).passed

    @pytest.mark.parametrize("sigma", [0.0, 1e-3, 0.25])
    @pytest.mark.parametrize("rhs", [0.0, 0.5, -40.0])
    def test_sigma_rule_is_three_sigma_plus_slack(self, sigma, rhs):
        for lhs in (rhs + 2.9 * sigma, rhs - 3.1 * sigma - 1e-9, rhs + 1e-13):
            want = abs(lhs - rhs) <= 3.0 * sigma + MC_PASS_SLACK * max(1.0, abs(rhs))
            c = check("mc", lhs, rhs, 1e-15, sigma=sigma)
            assert c.passed == want
            assert (c.sigma, c.rel_gap) == (sigma, relative_gap(lhs, rhs))

    def test_explicit_scale_sets_rel_gap_and_verdict(self):
        # 2e-9 against 0: the default scale 1 refuses it, the scale 4 passes it
        assert not check("c", 2e-9, 0.0, 1e-9).passed
        c = check("c", 2e-9, 0.0, 1e-9, scale=4.0)
        assert c.rel_gap == 2e-9 / 4.0
        assert c.passed
        # below 1 the scale is not lifted to 1
        small = check("c", 1e-6, 1.1e-6, 1e-9, scale=1e-6)
        assert small.rel_gap == pytest.approx(0.1)
        assert not small.passed

    @pytest.mark.parametrize("zero", [0.0, 0, np.float64(0.0)])
    def test_zero_scale_is_well_defined(self, zero):
        equal = check("c", 0.0, 0.0, 1e-9, scale=zero)
        assert (equal.rel_gap, equal.passed) == (0.0, True)
        apart = check("c", 1e-300, 0.0, 1e-9, scale=zero)
        assert apart.rel_gap == math.inf
        assert apart.passed is False


class TestVerifyAndreief:
    def test_uniform_monomial_passes(self):
        (report,) = verify_andreief(UNIFORM2)
        assert report.name == "andreief-quadrature"
        assert report.passed
        assert report.rel_gap <= 1e-12
        assert report.sigma is None
        assert report.rhs == pytest.approx(1.0 / 6.0, abs=1e-13)

    def test_with_mc(self):
        cfg = VerifyConfig(mc_samples=50_000, seed=3)
        quad, mc = verify_andreief(UNIFORM2, cfg)
        assert [quad.name, mc.name] == ["andreief-quadrature", "andreief-mc"]
        assert quad.passed and mc.passed
        estimate = andreief_lhs_mc(UNIFORM2, 50_000, 3)
        assert (mc.lhs, mc.sigma, mc.rhs) == (estimate.mean, estimate.std_error, quad.rhs)

    def test_size_one_trivial(self):
        (report,) = verify_andreief(build_ensemble("shifted-gue", 1))
        assert report.passed

    def test_muttalib_borodin(self):
        spec = build_ensemble("muttalib-borodin", 3, theta=2.0, c=0.0)
        (report,) = verify_andreief(spec)
        assert report.passed
        assert report.rel_gap <= 1e-9

    @pytest.mark.parametrize(
        "params, powers",
        [({"theta": 0.5}, "x**0.5"), ({"theta": 1.5}, "x**1.5"),
         ({"c": 0.5}, "x**0.5, x**1.5")],
    )
    def test_non_integer_powers_warn_once(self, caplog, params, powers):
        # Gauss-Laguerre converges only algebraically on x**p with p not an
        # integer, and the two sides use 12 and 40 nodes; the verdict and
        # the report stay as they were
        spec = build_ensemble("muttalib-borodin", 2, **params)
        with caplog.at_level(logging.WARNING, logger="andreief"):
            (report,) = verify_andreief(spec)
        assert [r.levelname for r in caplog.records] == ["WARNING"]
        message = caplog.messages[0]
        assert f"non-integer powers of x ({powers})" in message
        assert "converge only algebraically" in message
        assert "12-node tensor side and the 40-node Gram side" in message
        assert report.passed == (report.rel_gap <= DEFAULT_TOLERANCE)

    @pytest.mark.parametrize(
        "spec",
        [build_ensemble("muttalib-borodin", 3, theta=2.0, c=1.0), UNIFORM2, GUE2,
         replace(build_ensemble("muttalib-borodin", 2, theta=0.5), domain=Domain.finite(0.5, 2.0))],
        ids=["integer-powers", "uniform", "gue", "away-from-zero"],
    )
    def test_integer_or_smooth_powers_do_not_warn(self, caplog, spec):
        with caplog.at_level(logging.WARNING, logger="andreief"):
            verify_andreief(spec)
        assert caplog.records == []

    def test_config_validation(self):
        with pytest.raises(ValueError, match="tolerance"):
            VerifyConfig(tolerance=0.0)
        with pytest.raises(ValueError, match="mc_samples"):
            VerifyConfig(mc_samples=-1)
        # a standard error needs two samples; monte_carlo_nd itself still
        # takes one (test_single_sample_has_zero_error)
        with pytest.raises(ValueError, match="^mc_samples must be 0 .off. or at least 2"):
            VerifyConfig(mc_samples=1)
        assert VerifyConfig(mc_samples=2).mc_samples == 2
        # an infinite tolerance would pass any gap
        for tolerance in (math.inf, math.nan):
            with pytest.raises(ValueError, match="^tolerance must be positive"):
                VerifyConfig(tolerance=tolerance)

    def test_size_gate_refuses_before_the_gram(self, monkeypatch):
        monkeypatch.setattr(identities, "gram_matrix", None)
        monkeypatch.setattr(identities, "andreief_lhs_quadrature", None)
        with pytest.raises(BudgetError, match=r"exceeds the default size gate \(6\)"):
            verify_andreief(build_ensemble("uniform-monomial", 7))


# the ensembles whose left family integrates against its domain
DEBRUIJN_ENSEMBLES = [
    "uniform-monomial", "legendre-monomial", "gue-monomial", "muttalib-borodin",
]
DEBRUIJN_KERNELS = {
    "sign": SIGN,
    "difference": DIFFERENCE,
    # not antisymmetric: the engines use its antisymmetric part
    "custom": KernelFunction.custom(lambda x, y: np.sin(x + 2.0 * y) + x * y),
}


class TestDeBruijnNodeTables:
    """The left side reads per-node tables; a grid oracle evaluates the
    family and the kernel at every point instead."""

    def test_other_ensembles_diverge(self):
        # shifted-gue and laguerre-product put monomials on an infinite domain
        for name in set(BUILTIN_ENSEMBLE_NAMES) - set(DEBRUIJN_ENSEMBLES):
            spec = build_ensemble(name, 2)
            with pytest.raises(ValueError, match="diverges"):
                debruijn_lhs_quadrature(spec.left, SIGN, spec.domain, 10)

    @pytest.mark.parametrize("kernel", DEBRUIJN_KERNELS)
    @pytest.mark.parametrize("two_n", [2, 4])
    @pytest.mark.parametrize("name", DEBRUIJN_ENSEMBLES)
    def test_equals_point_grid(self, name, two_n, kernel):
        spec = build_ensemble(name, two_n)
        args = (spec.left, DEBRUIJN_KERNELS[kernel], spec.domain, 10)
        tables = debruijn_lhs_quadrature(*args)
        points = debruijn_lhs_point_grid(*args)
        if pfaffians_vanish(kernel, two_n):
            # both sums are rounding around an exact 0, so the bound is the
            # scale of the Pfaffian's terms
            bound = 1e-12 * point_grid_and_scale(name, two_n, 10, kernel)[1]
        else:
            bound = 1e-14 * abs(points)
        assert abs(tables - points) <= bound

    @pytest.mark.parametrize("kernel", ["sign", "custom"])
    def test_identical_across_worker_counts(self, monkeypatch, kernel):
        spec = build_ensemble("gue-monomial", 4)
        assert math.comb(30, 4) > 3 * quadrature._EVAL_ROWS
        values = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(quadrature, "_WORKERS", workers)
            values.append(
                debruijn_lhs_quadrature(spec.left, DEBRUIJN_KERNELS[kernel], spec.domain, 30)
            )
        assert values[1:] == values[:-1]


# rank of each kernel's antisymmetric part on distinct points: sign's
# matrices are nonsingular at even order
KERNEL_RANKS = {"sign": math.inf, "difference": 2, "custom": 4}


def pfaffians_vanish(kernel, two_n):
    """Whether every 2n x 2n Pfaffian of the kernel is 0 by its rank."""
    return two_n > KERNEL_RANKS[kernel]


@functools.cache
def point_grid_and_scale(name, two_n, n_nodes, kernel):
    """debruijn_lhs_point_grid of a built-in ensemble, and the scale of its
    rounding, computed once per case: the sum of |w * det * Pf|, or where
    every Pfaffian vanishes and so is rounding itself, of |w * det| * haf|h|
    (the Pfaffian's terms in absolute value)."""
    spec = build_ensemble(name, two_n)
    args = (spec.left, DEBRUIJN_KERNELS[kernel], spec.domain, n_nodes)
    absolute = "terms" if pfaffians_vanish(kernel, two_n) else True
    return debruijn_lhs_point_grid(*args), debruijn_lhs_point_grid(*args, absolute=absolute)


class TestDeBruijnSubsetSum:
    """The de Bruijn left side as a sum over node subsets, against the full
    grid of debruijn_lhs_point_grid."""

    def test_fewer_nodes_than_variables_give_exact_zero(self, monkeypatch):
        # every grid point repeats a node: no subset, so no matrix is
        # gathered or eliminated
        monkeypatch.setattr(identities, "determinant_batch", None)
        monkeypatch.setattr(identities, "pfaffian_batch", None)
        spec = build_ensemble("legendre-monomial", 8)
        assert debruijn_lhs_quadrature(spec.left, SIGN, spec.domain, 7) == 0.0

    @pytest.mark.parametrize("kernel", ["sign", "difference", "custom"])
    @pytest.mark.parametrize("two_n, n_nodes", [(2, 10), (4, 10), (6, 6)])
    @pytest.mark.parametrize("name", DEBRUIJN_ENSEMBLES)
    def test_within_term_scale_of_point_grid(self, name, two_n, n_nodes, kernel):
        # where every Pfaffian vanishes (difference from 2n = 4, custom at
        # 2n = 6) the sum is all rounding, and the scale is that of the
        # Pfaffian's terms
        spec = build_ensemble(name, two_n)
        args = (spec.left, DEBRUIJN_KERNELS[kernel], spec.domain, n_nodes)
        got = debruijn_lhs_quadrature(*args)
        want, scale = point_grid_and_scale(name, two_n, n_nodes, kernel)
        assert abs(got - want) <= 1e-12 * scale

    def test_integrand_is_row_wise(self, monkeypatch):
        # any slice of rows, including more rows than integrate_nd hands
        # over at once, gives the whole block's values bit for bit
        captured = {}

        def capture(rule, dim, f):
            captured["f"] = f
            return 0.0

        monkeypatch.setattr(identities, "integrate_nd", capture)
        spec = build_ensemble("legendre-monomial", 6)
        debruijn_lhs_quadrature(spec.left, SIGN, spec.domain, 12)
        index = np.array(list(itertools.combinations(range(12), 6)))
        index = np.concatenate([index, index[:, ::-1]])  # 1848 rows
        f, whole = captured["f"], captured["f"](index)
        # symmetric in the points: reversed rows agree up to rounding
        assert np.allclose(whole[924:], whole[:924], rtol=1e-9, atol=0.0)
        for start, stop in [(0, 1), (7, 8), (100, 357), (900, 1848), (5, 9)]:
            assert np.array_equal(f(index[start:stop]), whole[start:stop])

    @pytest.mark.parametrize("kernel", DEBRUIJN_KERNELS)
    @pytest.mark.parametrize("two_n, n_nodes, chunk", [(2, 10, 7), (4, 10, 7), (6, 6, 200)])
    @pytest.mark.parametrize("name", DEBRUIJN_ENSEMBLES)
    def test_blocks_that_stop_mid_row(self, monkeypatch, name, two_n, n_nodes, chunk, kernel):
        # a row is the run of subsets that share their first node: blocks
        # of 7 of the 45 and 210 subsets at 2n = 2 and 4 stop inside rows,
        # and at 2n = 6 one block holds the one subset of 6 nodes
        spec = build_ensemble(name, two_n)
        args = (spec.left, DEBRUIJN_KERNELS[kernel], spec.domain, n_nodes)
        want, scale = point_grid_and_scale(name, two_n, n_nodes, kernel)
        monkeypatch.setattr(quadrature, "_EVAL_ROWS", chunk)
        assert abs(debruijn_lhs_quadrature(*args) - want) <= 1e-12 * scale


class TestSubsetSumBits:
    """The Gauss left sides equal integrate_nd_by_itertools, the subset sum
    of itertools blocks and np.prod weights, bit for bit; Andreief's also
    with its integrand evaluated at the points of each subset, as the Monte
    Carlo integrand does, instead of gathered from node tables."""

    @pytest.mark.parametrize("n_nodes", [5, 12, 16])
    @pytest.mark.parametrize("name", BUILTIN_ENSEMBLE_NAMES)
    def test_andreief_left_side(self, name, n_nodes):
        for size in range(1, 7):
            spec = build_ensemble(name, size)
            rule = gauss_rule(spec.domain, n_nodes)
            points = point_integrand(rule, _pair_integrand(spec))
            want = integrate_nd_by_itertools(rule, size, points)
            assert andreief_lhs_quadrature(spec, n_nodes) == want, (name, size)

    @pytest.mark.parametrize("kernel", DEBRUIJN_KERNELS)
    @pytest.mark.parametrize("two_n", [2, 4, 6])
    def test_debruijn_left_side(self, monkeypatch, two_n, kernel):
        spec = build_ensemble("legendre-monomial", two_n)
        args = (spec.left, DEBRUIJN_KERNELS[kernel], spec.domain, 14)
        value = debruijn_lhs_quadrature(*args)
        monkeypatch.setattr(identities, "integrate_nd", integrate_nd_by_itertools)
        assert value == debruijn_lhs_quadrature(*args)

    def test_chebyshev_double_form(self, monkeypatch):
        args = (np.exp, np.cos, Domain.finite(-1.0, 2.0), 40)
        value = chebyshev_gap(*args)
        monkeypatch.setattr(identities, "integrate_nd", integrate_nd_by_itertools)
        assert value == chebyshev_gap(*args)


class TestNodeMeasure:
    @pytest.mark.parametrize(
        "route",
        [
            "gram_matrix",
            "andreief_lhs_quadrature",
            "debruijn_rhs",
            "debruijn_lhs_quadrature",
            "biorthogonality_residuals",
            "chebyshev_gap",
        ],
    )
    def test_each_gauss_route_builds_its_rule_once(self, monkeypatch, route):
        system = biorthogonalize(UNIFORM2, 12)
        run = {
            "gram_matrix": lambda: gram_matrix(UNIFORM2, 12),
            "andreief_lhs_quadrature": lambda: andreief_lhs_quadrature(UNIFORM2, 12),
            "debruijn_rhs": lambda: debruijn_rhs(UNIFORM2.left, SIGN, UNIT, 12),
            "debruijn_lhs_quadrature": lambda: debruijn_lhs_quadrature(
                UNIFORM2.left, SIGN, UNIT, 12
            ),
            "biorthogonality_residuals": lambda: biorthogonality_residuals(system, 12),
            "chebyshev_gap": lambda: chebyshev_gap(np.sin, np.exp, UNIT, 12),
        }[route]
        calls = []

        def counting(domain, n_nodes):
            calls.append((domain, n_nodes))
            return gauss_rule(domain, n_nodes)

        monkeypatch.setattr(identities, "gauss_rule", counting)
        run()
        assert calls == [(UNIT, 12)]
