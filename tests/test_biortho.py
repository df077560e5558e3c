"""Biorthogonalization: Gram factorization, diagonal pairings, partition
values, and determinant invariance."""

import math

import numpy as np
import pytest

from andreief.biortho import (
    BiorthogonalSystem,
    FactorizationError,
    biorthogonality_residuals,
    biorthogonalize,
    partition_function,
)
from andreief.ensembles import build_ensemble
from andreief.identities import andreief_lhs_quadrature, andreief_rhs, gram_matrix
from andreief.linalg import relative_gap
from grid_oracles import verify_invariance_under_biorthogonalization

CATALOGUE = [
    "uniform-monomial",
    "legendre-monomial",
    "gue-monomial",
    "muttalib-borodin",
    "shifted-gue",
    "laguerre-product",
]

# strictly inside each ensemble's domain
SAMPLE_POINTS = {
    "uniform-monomial": (0.15, 0.5, 0.85),
    "legendre-monomial": (-0.6, 0.1, 0.7),
    "gue-monomial": (-1.3, 0.2, 1.5),
    "shifted-gue": (-1.1, 0.3, 1.6),
    "muttalib-borodin": (0.4, 1.2, 2.7),
    "laguerre-product": (0.3, 1.1, 2.6),
}


def make_system(**overrides):
    base = dict(
        size=2,
        c=np.array([[1.0, 0.0], [0.5, 1.0]]),
        d=np.array([[1.0, 0.0], [-0.25, 1.0]]),
        h=np.array([1.0, 2.0]),
        source=build_ensemble("uniform-monomial", 2),
    )
    base.update(overrides)
    return BiorthogonalSystem(**base)


class TestBiorthogonalSystem:
    def test_stores_read_only_arrays(self):
        system = make_system()
        with pytest.raises(ValueError):
            system.c[0, 0] = 5.0
        with pytest.raises(ValueError):
            system.h[0] = 5.0

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="must be 2 x 2"):
            make_system(c=np.eye(3))

    def test_rejects_non_unit_diagonal(self):
        with pytest.raises(ValueError, match="unit diagonal"):
            make_system(c=np.array([[2.0, 0.0], [0.0, 1.0]]))

    def test_rejects_upper_triangular_entries(self):
        with pytest.raises(ValueError, match="lower triangular"):
            make_system(d=np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_bad_h(self):
        with pytest.raises(ValueError, match="finite values"):
            make_system(h=np.array([1.0, np.nan]))
        with pytest.raises(ValueError, match="finite values"):
            make_system(h=np.array([1.0]))

    def test_member_index_range(self):
        system = make_system()
        with pytest.raises(ValueError, match="out of range"):
            system.left_member(2)
        with pytest.raises(ValueError, match="out of range"):
            system.right_member(-1)

    def test_members_combine_originals(self):
        # uniform-monomial members are 1 and x
        system = make_system()
        x = np.linspace(0.0, 1.0, 7)
        assert np.allclose(system.left_member(1)(x), 0.5 + x)
        assert np.allclose(system.right_member(1)(x), -0.25 + x)
        assert np.allclose(system.left_member(0)(x), np.ones_like(x))


class TestBiorthogonalize:
    def test_legendre_diagonal_pairings(self):
        system = biorthogonalize(build_ensemble("legendre-monomial", 3))
        assert np.allclose(system.h, [2.0, 2.0 / 3.0, 8.0 / 45.0], atol=1e-10)

    def test_legendre_recovers_monic_coefficients(self):
        system = biorthogonalize(build_ensemble("legendre-monomial", 3))
        # x and x^2 - 1/3
        assert np.allclose(system.c[1], [0.0, 1.0, 0.0], atol=1e-12)
        assert np.allclose(system.c[2], [-1.0 / 3.0, 0.0, 1.0], atol=1e-12)

    def test_uniform_diagonal_pairings(self):
        system = biorthogonalize(build_ensemble("uniform-monomial", 2))
        assert np.allclose(system.h, [1.0, 1.0 / 12.0], atol=1e-12)
        assert np.allclose(system.c[1], [-0.5, 1.0], atol=1e-12)

    def test_gaussian_diagonal_pairings(self):
        system = biorthogonalize(build_ensemble("gue-monomial", 3))
        want = [math.sqrt(math.pi) * math.factorial(j) / 2.0**j for j in range(3)]
        assert np.allclose(system.h, want, atol=1e-10)

    def test_identical_families_give_identical_sides(self):
        system = biorthogonalize(build_ensemble("legendre-monomial", 4))
        assert np.allclose(system.c, system.d, atol=1e-12)

    @pytest.mark.parametrize("name", CATALOGUE)
    def test_factorization_diagonalizes_gram(self, name):
        spec = build_ensemble(name, 3)
        system = biorthogonalize(spec)
        g = gram_matrix(spec, 40).entries
        recombined = system.c @ g @ system.d.T
        scale = max(1.0, float(np.abs(system.h).max()))
        assert np.allclose(recombined, np.diag(system.h), atol=1e-12 * scale)

    @pytest.mark.parametrize("name", ["muttalib-borodin", "laguerre-product"])
    def test_large_gram_entries_leave_small_pivots_valid(self, name):
        # max|G| is 5.1e19 on muttalib-borodin at N = 8: a cutoff relative to
        # it once called the pivot G[0, 0] = 1 numerically zero
        spec = build_ensemble(name, 8)
        system = biorthogonalize(spec)
        residuals = biorthogonality_residuals(system)
        assert np.abs(np.diag(residuals) / system.h - 1.0).max() < 1e-9
        rhs = andreief_rhs(gram_matrix(spec, 40))
        assert relative_gap(partition_function(spec), rhs) < 1e-9

    def test_size_one(self):
        spec = build_ensemble("uniform-monomial", 1)
        system = biorthogonalize(spec)
        assert system.c.tolist() == [[1.0]]
        assert abs(system.h[0] - 1.0) < 1e-14

    def test_coincident_shifts_not_factorizable(self):
        spec = build_ensemble("shifted-gue", 2, shifts=(0.3, 0.3))
        with pytest.raises(
            FactorizationError,
            match="not strictly factorizable: leading principal minor 2",
        ):
            biorthogonalize(spec)

    def test_factorization_error_is_value_error(self):
        assert issubclass(FactorizationError, ValueError)


class TestResiduals:
    @pytest.mark.parametrize("name", CATALOGUE)
    def test_pairings_are_diagonal(self, name):
        system = biorthogonalize(build_ensemble(name, 3))
        residuals = biorthogonality_residuals(system)
        scale = max(1.0, float(np.abs(system.h).max()))
        off = residuals - np.diag(np.diag(residuals))
        assert np.abs(off).max() <= 1e-10 * scale
        assert np.abs(np.diag(residuals) - system.h).max() <= 1e-10 * scale

    def test_coarser_rule_still_diagonal(self):
        system = biorthogonalize(build_ensemble("gue-monomial", 3))
        residuals = biorthogonality_residuals(system, n_nodes=12)
        assert np.abs(residuals - np.diag(system.h)).max() <= 1e-10


class TestPartitionFunction:
    def test_uniform_pair(self):
        value = partition_function(build_ensemble("uniform-monomial", 2))
        assert relative_gap(value, 1.0 / 6.0) < 1e-12

    def test_gaussian_three(self):
        value = partition_function(build_ensemble("gue-monomial", 3))
        assert relative_gap(value, 1.5 * math.pi**1.5) < 1e-10

    @pytest.mark.parametrize("name", CATALOGUE)
    @pytest.mark.parametrize("size", [2, 3, 4])
    def test_matches_gram_determinant_route(self, name, size):
        spec = build_ensemble(name, size)
        value = partition_function(spec)
        rhs = andreief_rhs(gram_matrix(spec, 40))
        assert relative_gap(value, rhs) < 1e-11

    @pytest.mark.parametrize("name", ["uniform-monomial", "muttalib-borodin"])
    def test_full_chain_from_multiple_integral(self, name):
        spec = build_ensemble(name, 4)
        lhs = andreief_lhs_quadrature(spec, n_nodes=12)
        assert relative_gap(lhs, partition_function(spec)) < 1e-9


class TestInvariance:
    @pytest.mark.parametrize("name", CATALOGUE)
    def test_determinants_unchanged(self, name):
        spec = build_ensemble(name, 3)
        det_f, det_big_f, det_phi, det_big_phi = (
            verify_invariance_under_biorthogonalization(spec, SAMPLE_POINTS[name])
        )
        assert relative_gap(det_f, det_big_f) < 1e-11
        assert relative_gap(det_phi, det_big_phi) < 1e-11

    def test_random_points(self):
        spec = build_ensemble("legendre-monomial", 4)
        rng = np.random.default_rng(13)
        for _ in range(5):
            pts = np.sort(rng.uniform(-1.0, 1.0, size=4))
            det_f, det_big_f, det_phi, det_big_phi = (
                verify_invariance_under_biorthogonalization(spec, pts)
            )
            assert relative_gap(det_f, det_big_f) < 1e-11
            assert relative_gap(det_phi, det_big_phi) < 1e-11

    def test_accepts_discrete_point_set(self):
        # a point sequence, as the CLI samples it
        spec = build_ensemble("uniform-monomial", 2)
        dets = verify_invariance_under_biorthogonalization(spec, (0.2, 0.9))
        assert relative_gap(dets[0], dets[1]) < 1e-13

    def test_wrong_point_count(self):
        spec = build_ensemble("uniform-monomial", 3)
        with pytest.raises(ValueError, match="exactly 3 points"):
            verify_invariance_under_biorthogonalization(spec, [0.1, 0.9])
