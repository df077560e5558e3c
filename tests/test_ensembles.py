"""Tests for function families, kernels, and the ensemble catalogue."""

import math

import numpy as np
import pytest
from grid_oracles import (
    closed_form_members,
    evaluate_by_kind,
    family_matrix,
    rescale,
    vandermonde_check,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from andreief.ensembles import (
    BUILTIN_ENSEMBLE_NAMES,
    EnsembleSpec,
    FunctionFamily,
    KernelFunction,
    NodeMeasure,
    Weight,
    build_ensemble,
    ensure_family_legal,
    evaluate,
    weight_factorization,
)
from andreief.linalg import determinant, relative_gap
from andreief.quadrature import EMBEDDED_WEIGHTS, Domain, _sample_block, gauss_rule


def random_domain_points(domain, rng, n):
    if domain.kind == "finite":
        return rng.uniform(domain.a, domain.b, n)
    if domain.kind == "half_line":
        return rng.standard_exponential(n) + 0.01
    return rng.standard_normal(n)


class TestEvaluate:
    def test_monomial(self):
        fam = FunctionFamily(4, "monomial")
        assert evaluate(fam, 3, 2.0) == 8.0
        assert evaluate(fam, 0, 5.0) == 1.0

    def test_shifted_gaussian_zero_shift(self):
        fam = FunctionFamily(2, "shifted_gaussian", shifts=(0.0, 0.0))
        for j in range(2):
            assert evaluate(fam, j, 1.0) == pytest.approx(math.exp(-1.0))

    def test_laguerre_meijer(self):
        fam = FunctionFamily(3, "laguerre_meijer", nu=1)
        assert evaluate(fam, 2, 1.0) == pytest.approx(math.exp(-1.0))
        assert evaluate(fam, 0, 2.0) == pytest.approx(2.0 * math.exp(-2.0))

    def test_stretched(self):
        fam = FunctionFamily(3, "stretched_monomial", theta=0.5)
        assert evaluate(fam, 2, 4.0) == pytest.approx(4.0)

    def test_positive_domain_enforced(self):
        fam = FunctionFamily(2, "stretched_monomial", theta=1.5)
        with pytest.raises(ValueError, match="must be positive"):
            evaluate(fam, 1, -1.0)
        lag = FunctionFamily(2, "laguerre_meijer", nu=0)
        with pytest.raises(ValueError, match="must be positive"):
            evaluate(lag, 0, np.array([1.0, -2.0]))

    def test_index_bounds(self):
        fam = FunctionFamily(2, "monomial")
        with pytest.raises(ValueError, match="member index"):
            evaluate(fam, 2, 1.0)

    def test_vectorized(self):
        fam = FunctionFamily(3, "monomial")
        out = evaluate(fam, 2, np.array([1.0, 2.0, 3.0]))
        assert out == pytest.approx([1.0, 4.0, 9.0])

    def test_family_matrix_layout(self):
        fam = FunctionFamily(3, "monomial")
        m = family_matrix(fam, [2.0, 3.0])
        # rows indexed by member j, columns by point k
        assert m.shape == (3, 2)
        assert m[2, 1] == 9.0

    def test_scales(self):
        fam = FunctionFamily(2, "monomial", scales=(2.0, 3.0))
        assert evaluate(fam, 1, 2.0) == 6.0
        doubled = rescale(fam, [5.0, 5.0])
        assert evaluate(doubled, 0, 1.0) == 10.0


class TestFamilyValidation:
    def test_theta_positive(self):
        with pytest.raises(ValueError, match="theta must be positive"):
            FunctionFamily(2, "stretched_monomial", theta=0.0)

    def test_nu_non_negative_integer(self):
        with pytest.raises(ValueError, match="nu"):
            FunctionFamily(2, "laguerre_meijer", nu=-1)
        with pytest.raises(ValueError, match="nu"):
            FunctionFamily(2, "laguerre_meijer", nu=1.5)

    def test_shift_count(self):
        with pytest.raises(ValueError, match="shifts"):
            FunctionFamily(3, "shifted_gaussian", shifts=(0.1, 0.2))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_scales_finite(self, bad):
        with pytest.raises(ValueError, match="scales must be finite"):
            FunctionFamily(2, "monomial", scales=(bad, 1.0))

    def test_coincident_shifts_permitted(self):
        fam = FunctionFamily(2, "shifted_gaussian", shifts=(0.3, 0.3))
        assert fam.shifts == (0.3, 0.3)

    def test_irrelevant_params_rejected(self):
        with pytest.raises(ValueError, match="takes no theta"):
            FunctionFamily(2, "monomial", theta=1.0)
        with pytest.raises(ValueError, match="requires a weight"):
            FunctionFamily(2, "weighted_monomial")

    def test_weight_validation(self):
        with pytest.raises(ValueError, match="c >= 0"):
            Weight("laguerre", c=-1.0)
        with pytest.raises(ValueError, match="unknown weight kind"):
            Weight("cosine")


OMEGA = {
    "finite": lambda x: np.ones_like(x),
    "half_line": lambda x: np.exp(-x),
    "real_line": lambda x: np.exp(-(x**2)),
}


class TestWeightFactorization:
    def test_gaussian_weight_on_real_line(self):
        fam = FunctionFamily(3, "weighted_monomial", weight=Weight("gaussian"))
        (fns,), point_factor = weight_factorization((fam,), Domain.real_line())
        assert point_factor is None
        x = np.array([0.5, -1.5])
        assert fns[2](x) == pytest.approx(x**2)

    def test_monomial_on_finite(self):
        fam = FunctionFamily(3, "monomial")
        (fns,), point_factor = weight_factorization((fam,), Domain.finite(0.0, 1.0))
        assert point_factor is None
        assert fns[2](0.5) == pytest.approx(0.25)

    def test_laguerre_meijer_on_half_line(self):
        fam = FunctionFamily(2, "laguerre_meijer", nu=2)
        (fns,), point_factor = weight_factorization((fam,), Domain.half_line())
        assert point_factor is None
        x = np.array([1.0, 3.0])
        assert fns[1](x) == pytest.approx(x**3)

    def test_two_absorbing_families_restore_one_weight(self):
        fam = FunctionFamily(2, "weighted_monomial", weight=Weight("gaussian"))
        _, point_factor = weight_factorization((fam, fam), Domain.real_line())
        assert point_factor is EMBEDDED_WEIGHTS["real_line"]

    @pytest.mark.parametrize("name", BUILTIN_ENSEMBLE_NAMES)
    def test_pairs_share_one_list_when_their_reductions_agree(self, name):
        spec = build_ensemble(name, 3)
        (left_fns, right_fns), _ = weight_factorization((spec.left, spec.right), spec.domain)
        shared = name in ("uniform-monomial", "legendre-monomial", "gue-monomial")
        assert (left_fns is right_fns) is shared
        x = random_domain_points(spec.domain, np.random.default_rng(3), 7)
        if shared:
            # the right families are plain monomials, reduced to themselves
            for j, fn in enumerate(left_fns):
                assert np.array_equal(fn(x), evaluate(spec.right, j, x))

    def test_scales_and_a_restored_weight_decide_sharing(self):
        gauss = FunctionFamily(3, "weighted_monomial", weight=Weight("gaussian"))
        domain = Domain.real_line()
        (left, right), point_factor = weight_factorization((gauss, gauss), domain)
        assert left is right and point_factor is EMBEDDED_WEIGHTS["real_line"]
        (left, right), _ = weight_factorization((gauss, rescale(gauss, [1.0, 1.0, 1.0])), domain)
        assert left is right
        (left, right), _ = weight_factorization((gauss, rescale(gauss, [1.0, 2.0, 1.0])), domain)
        assert left is not right

    def test_shared_list_gives_one_read_only_table(self):
        for name, shared in (("gue-monomial", True), ("muttalib-borodin", False)):
            spec = build_ensemble(name, 3)
            rule = gauss_rule(spec.domain, 8)
            measure = NodeMeasure(rule.nodes, rule.weights, spec.domain)
            _, (f, phi) = measure.tables((spec.left, spec.right))
            assert (f is phi) is shared
            assert not f.flags.writeable and not phi.flags.writeable
        _, (f, phi) = NodeMeasure.points([0.5, 1.5]).tables((spec.left, spec.left))
        assert f is not phi and np.array_equal(f, phi)

    def test_no_absorbing_family_rejected(self):
        mono = FunctionFamily(2, "monomial")
        with pytest.raises(ValueError, match="monomial on half_line: .* diverges"):
            weight_factorization((mono,), Domain.half_line())
        with pytest.raises(ValueError, match="monomial and monomial on real_line"):
            weight_factorization((mono, mono), Domain.real_line())
        stretched = FunctionFamily(2, "stretched_monomial", theta=2.0)
        with pytest.raises(ValueError, match="stretched_monomial on half_line"):
            weight_factorization((stretched,), Domain.half_line())
        # one absorbing family leaves omega**0: nothing to divide
        gauss = FunctionFamily(2, "weighted_monomial", weight=Weight("gaussian"))
        _, point_factor = weight_factorization((gauss, mono), Domain.real_line())
        assert point_factor is None

    @pytest.mark.parametrize(
        "domain",
        [Domain.finite(0.0, 1.0), Domain.half_line(), Domain.real_line()],
        ids=str,
    )
    def test_single_family_has_no_point_factor(self, domain):
        # The Pfaffian side reduces one family, so its integrand never
        # multiplies by a point factor.
        families = (
            FunctionFamily(3, "monomial"),
            FunctionFamily(3, "weighted_monomial", weight=Weight("gaussian")),
            FunctionFamily(3, "weighted_monomial", weight=Weight("laguerre")),
            FunctionFamily(3, "weighted_monomial", weight=Weight("laguerre", c=1.5)),
            FunctionFamily(3, "stretched_monomial", theta=2.0),
            FunctionFamily(3, "shifted_gaussian", shifts=(0.1, 0.2, 0.3)),
            FunctionFamily(3, "laguerre_meijer", nu=1),
        )
        legal = 0
        for fam in families:
            try:
                ensure_family_legal(fam, domain)
            except ValueError:
                continue
            legal += 1
            if not domain.is_finite and fam.kind in ("monomial", "stretched_monomial"):
                with pytest.raises(ValueError, match="diverges"):
                    weight_factorization((fam,), domain)
            else:
                _, point_factor = weight_factorization((fam,), domain)
                assert point_factor is None, fam
        assert legal == {"finite": 7, "half_line": 7, "real_line": 3}[domain.kind]

    @pytest.mark.parametrize("name", BUILTIN_ENSEMBLE_NAMES)
    def test_round_trip_catalogue(self, name):
        spec = build_ensemble(name, 4)
        rng = np.random.default_rng(99)
        pts = random_domain_points(spec.domain, rng, 100)
        omega = OMEGA[spec.domain.kind]
        for fam in (spec.left, spec.right):
            if not spec.domain.is_finite and fam.kind in ("monomial", "stretched_monomial"):
                # absorbs no weight and does not decay on its own
                with pytest.raises(ValueError, match="diverges"):
                    weight_factorization((fam,), spec.domain)
                continue
            (fns,), point_factor = weight_factorization((fam,), spec.domain)
            factor = 1.0 if point_factor is None else point_factor(pts)
            for j in range(fam.size):
                want = evaluate(fam, j, pts)
                got = fns[j](pts) * factor * omega(pts)
                for a, b in zip(got, want):
                    assert relative_gap(a, b) <= 1e-13


DOMAINS = (
    Domain.finite(0.0, 2.0),
    Domain.finite(-1.0, 1.0),
    Domain.half_line(),
    Domain.real_line(),
)

# every built-in ensemble, and its parameters where they change the formulas
BUILTIN_VARIANTS = [(name, {}) for name in BUILTIN_ENSEMBLE_NAMES] + [
    ("muttalib-borodin", {"theta": 0.5}),
    ("shifted-gue", {"shifts": (0.0, 0.3, -0.2, 0.5, 1.0, -1.0)}),
    ("laguerre-product", {"nu": 0}),
    ("laguerre-product", {"nu": 3}),
]


def sample_points(domain, seed=7):
    """The domain's Gauss nodes, and a 2-D block of Monte Carlo samples
    drawn as monte_carlo_nd draws them."""
    block = _sample_block(np.random.default_rng(seed), domain, (400, 3))
    return gauss_rule(domain, 24).nodes, block


def assert_relative(got, want, rel):
    # relative down to the smallest normal number: Gauss nodes far out on
    # the half line take values into the subnormal range
    assert np.all(np.abs(got - want) <= rel * np.abs(want) + np.finfo(float).tiny)


@st.composite
def families_on_domains(draw):
    """A random family of any kind with random parameters, and a domain
    that may or may not be legal for it."""
    size = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(
        ["monomial", "gaussian", "laguerre", "stretched_monomial",
         "shifted_gaussian", "laguerre_meijer"]
    ))
    floats = st.floats(0.25, 4.0)
    scales = draw(st.none() | st.lists(floats, min_size=size, max_size=size))
    if kind == "gaussian":
        fam = FunctionFamily(size, "weighted_monomial", weight=Weight("gaussian"), scales=scales)
    elif kind == "laguerre":
        c = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 3.0))
        fam = FunctionFamily(size, "weighted_monomial", weight=Weight("laguerre", c), scales=scales)
    elif kind == "stretched_monomial":
        fam = FunctionFamily(size, kind, theta=draw(st.floats(0.1, 3.0)), scales=scales)
    elif kind == "shifted_gaussian":
        shifts = draw(st.lists(st.floats(-1.0, 1.0), min_size=size, max_size=size))
        fam = FunctionFamily(size, kind, shifts=shifts, scales=scales)
    elif kind == "laguerre_meijer":
        fam = FunctionFamily(size, kind, nu=draw(st.integers(0, 3)), scales=scales)
    else:
        fam = FunctionFamily(size, kind, scales=scales)
    return fam, draw(st.sampled_from(DOMAINS))


class TestMemberForm:
    """Every kind is one form x**p_j * exp(-q x^2 + l_j x), and dividing by
    the embedded weight shifts q or l_j.  Against the kind-by-kind formulas
    of grid_oracles the members keep their bits, and the absorption
    decision is the closed-form table."""

    @pytest.mark.parametrize("name, params", BUILTIN_VARIANTS)
    def test_builtin_members_keep_their_bits(self, name, params):
        spec = build_ensemble(name, 6, **params)
        families = (spec.left, spec.right)
        (left_fns, right_fns), point_factor = weight_factorization(families, spec.domain)
        closed = [closed_form_members(fam, spec.domain) for fam in families]
        absorbed = sum(fns is not None for fns in closed)
        assert point_factor is (EMBEDDED_WEIGHTS[spec.domain.kind] if absorbed == 2 else None)
        for x in sample_points(spec.domain):
            for fam, fns, closed_fns in zip(families, (left_fns, right_fns), closed):
                for j in range(fam.size):
                    raw = evaluate_by_kind(fam, j, x)
                    assert np.array_equal(evaluate(fam, j, x), raw)
                    want = raw if closed_fns is None else closed_fns[j](x)
                    assert np.array_equal(fns[j](x), want)
                if x.ndim == 1:
                    want = np.stack([evaluate_by_kind(fam, j, x) for j in range(fam.size)])
                    assert np.array_equal(family_matrix(fam, x), want)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(families_on_domains())
    def test_absorbed_member_times_weight_is_the_member(self, case):
        fam, domain = case
        try:
            ensure_family_legal(fam, domain)
        except ValueError:
            with pytest.raises(ValueError, match="only legal"):
                weight_factorization((fam,), domain)
            return
        closed = closed_form_members(fam, domain)
        if closed is None and not domain.is_finite:
            for families in ((fam,), (fam, fam)):
                with pytest.raises(ValueError, match="diverges"):
                    weight_factorization(families, domain)
            return
        (fns,), point_factor = weight_factorization((fam,), domain)
        assert point_factor is None
        _, pair_factor = weight_factorization((fam, fam), domain)
        assert pair_factor is (None if closed is None else EMBEDDED_WEIGHTS[domain.kind])
        omega = OMEGA[domain.kind] if closed is not None else np.ones_like
        for x in sample_points(domain):
            for j in range(fam.size):
                raw = evaluate(fam, j, x)
                assert_relative(raw, evaluate_by_kind(fam, j, x), 1e-13)
                assert_relative(fns[j](x) * omega(x), raw, 1e-13)
                if closed is not None:
                    assert_relative(fns[j](x), closed[j](x), 1e-13)

    def test_zero_shift_on_the_real_line_is_a_constant_member(self):
        fam = FunctionFamily(2, "shifted_gaussian", shifts=(0.0, 0.5), scales=(3.0, 1.0))
        (fns,), _ = weight_factorization((fam,), Domain.real_line())
        x = np.array([[-1.0, 0.0], [0.5, 2.0]])
        assert np.array_equal(fns[0](x), np.full(x.shape, 3.0))

    def test_only_raw_members_check_positivity(self):
        x = np.array([-1.0, 1.0])
        for fam in (
            FunctionFamily(2, "laguerre_meijer", nu=1),
            FunctionFamily(2, "stretched_monomial", theta=1.5),
        ):
            with pytest.raises(ValueError, match="must be positive"):
                family_matrix(fam, x)
        lag = FunctionFamily(2, "laguerre_meijer", nu=1)
        (fns,), _ = weight_factorization((lag,), Domain.half_line())
        assert np.array_equal(fns[1](x), x**2)


class TestKernels:
    @pytest.mark.parametrize("kind", ["difference", "sign"])
    def test_builtin_antisymmetry_exact(self, kind):
        k = KernelFunction.builtin(kind)
        rng = np.random.default_rng(31)
        x = rng.standard_normal(1000)
        y = rng.standard_normal(1000)
        assert np.all(k.evaluator(x, y) + k.evaluator(y, x) == 0.0)

    def test_difference_values(self):
        k = KernelFunction.builtin("difference")
        assert k.evaluator(3.0, 1.0) == 2.0

    def test_sign_values(self):
        k = KernelFunction.builtin("sign")
        assert k.evaluator(1.0, 3.0) == 1.0
        assert k.evaluator(3.0, 1.0) == -1.0
        assert k.evaluator(2.0, 2.0) == 0.0

    def test_unknown_builtin(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            KernelFunction.builtin("laplace")

    def test_custom_antisymmetrized(self):
        k = KernelFunction.custom(lambda x, y: x * y + x)  # not antisymmetric
        h = k.antisymmetrized()
        rng = np.random.default_rng(37)
        x, y = rng.standard_normal(50), rng.standard_normal(50)
        assert np.allclose(h(x, y) + h(y, x), 0.0, atol=1e-15)

    def test_builtin_passthrough(self):
        k = KernelFunction.builtin("difference")
        assert k.antisymmetrized() is k.evaluator


class TestVandermondeCheck:
    def test_hand_case(self):
        det, prod = vandermonde_check([0.0, 1.0, 2.0])
        assert det == pytest.approx(2.0, abs=1e-13)
        assert prod == 2.0

    def test_singleton(self):
        assert vandermonde_check([5.0]) == (1.0, 1.0)

    def test_repeated_nodes_near_zero(self):
        det, prod = vandermonde_check([1.0, 1.0, 2.0])
        assert prod == 0.0
        assert abs(det) < 1e-12

    @pytest.mark.parametrize("n", range(1, 9))
    def test_random_nodes(self, n):
        rng = np.random.default_rng(200 + n)
        nodes = rng.uniform(-1.0, 1.0, n)
        det, prod = vandermonde_check(nodes)
        assert relative_gap(det, prod) <= 1e-12


class TestEnsembleSpec:
    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="sizes differ"):
            EnsembleSpec(
                "bad",
                Domain.finite(0, 1),
                FunctionFamily(2, "monomial"),
                FunctionFamily(3, "monomial"),
            )

    def test_positive_kind_illegal_on_real_line(self):
        with pytest.raises(ValueError, match="only legal"):
            EnsembleSpec(
                "bad",
                Domain.real_line(),
                FunctionFamily(2, "monomial"),
                FunctionFamily(2, "stretched_monomial", theta=1.5),
            )

    def test_positive_kind_legal_on_nonneg_interval(self):
        spec = EnsembleSpec(
            "ok",
            Domain.finite(0.0, 2.0),
            FunctionFamily(2, "monomial"),
            FunctionFamily(2, "stretched_monomial", theta=1.5),
        )
        assert spec.size == 2

    @pytest.mark.parametrize("name", BUILTIN_ENSEMBLE_NAMES)
    @pytest.mark.parametrize("size", [1, 2, 4])
    def test_catalogue_constructs(self, name, size):
        spec = build_ensemble(name, size)
        assert spec.size == size
        assert spec.name == name

    def test_unknown_name_lists_builtins(self):
        with pytest.raises(ValueError, match="uniform-monomial.*muttalib-borodin"):
            build_ensemble("circular", 2)

    def test_parameters_reach_families(self):
        spec = build_ensemble("muttalib-borodin", 3, theta=1.5, c=2.0)
        assert spec.right.theta == 1.5
        assert spec.left.weight.c == 2.0
        spec = build_ensemble("laguerre-product", 2, nu=3)
        assert spec.right.nu == 3
        spec = build_ensemble("shifted-gue", 2, shifts=[0.4, 0.9])
        assert spec.right.shifts == (0.4, 0.9)

    def test_default_shifts_distinct(self):
        spec = build_ensemble("shifted-gue", 4)
        assert len(set(spec.right.shifts)) == 4


class TestUnitaryInvariantReduction:
    def test_det_product_equals_weighted_vandermonde_squared(self):
        # det[x_k^j w(x_k)] det[x_k^j] = prod_l w(x_l) * prod_{j<k}(x_k - x_j)^2
        spec = build_ensemble("gue-monomial", 4)
        rng = np.random.default_rng(77)
        for _ in range(20):
            pts = rng.standard_normal(4)
            lhs = determinant(family_matrix(spec.left, pts)) * determinant(
                family_matrix(spec.right, pts)
            )
            _, delta = vandermonde_check(pts)
            rhs = float(np.prod(np.exp(-(pts**2)))) * delta**2
            assert relative_gap(lhs, rhs) <= 1e-12
