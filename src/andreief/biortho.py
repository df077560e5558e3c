"""Biorthogonal function systems from triangular Gram factorization.

Given a pair of function families with Gram matrix G under the ensemble
measure, finds unit-lower-triangular recombinations F_j = f_j + sum of
earlier f_l and Phi_k = phi_k + sum of earlier phi_l that pair diagonally:
the cross integrals satisfy <F_j, Phi_k> = h_j delta_jk.  Equivalently,
L G R^T = H with L, R unit lower triangular and H = diag(h).

The triangular change of basis leaves every N-point family determinant
unchanged, so the determinant identity rewrites the partition sum as
N! times the product of the h_j.  The factorization exists exactly when
all leading principal minors of G are nonzero; a vanishing pivot raises
:class:`FactorizationError` naming the offending minor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensembles import EnsembleSpec, evaluate, family_matrix, weight_factorization
from .identities import _factorial, gram_matrix
from .linalg import determinant
from .quadrature import DEFAULT_NODES_1D, gauss_rule

__all__ = [
    "BiorthogonalSystem",
    "FactorizationError",
    "biorthogonality_residuals",
    "biorthogonalize",
    "partition_function",
    "verify_invariance_under_biorthogonalization",
]

# pivot is compared against this times the largest Gram magnitude
PIVOT_RELATIVE_CUTOFF = 1e-13


class FactorizationError(ValueError):
    """Raised when the Gram matrix admits no strict LDU factorization."""


@dataclass(frozen=True, eq=False)
class BiorthogonalSystem:
    """Triangular recombination coefficients and diagonal normalizations.

    ``c[j, l]`` is the coefficient of the l-th left member in F_j and
    ``d[k, l]`` the coefficient of the l-th right member in Phi_k; both
    matrices are unit lower triangular, so each new member is the original
    one corrected by earlier members only.  ``h[j]`` is the diagonal
    pairing <F_j, Phi_j>.
    """

    size: int
    c: np.ndarray
    d: np.ndarray
    h: np.ndarray
    source: EnsembleSpec

    def __post_init__(self):
        n = self.size
        c = np.asarray(self.c, dtype=float)
        d = np.asarray(self.d, dtype=float)
        h = np.asarray(self.h, dtype=float)
        for name, m in (("c", c), ("d", d)):
            if m.shape != (n, n):
                raise ValueError(f"{name} must be {n} x {n}, got {m.shape}")
            if not np.all(np.isfinite(m)):
                raise ValueError(f"{name} has non-finite entries")
            if not np.array_equal(np.diag(m), np.ones(n)):
                raise ValueError(f"{name} must have a unit diagonal")
            if np.any(np.triu(m, 1) != 0.0):
                raise ValueError(f"{name} must be lower triangular")
        if h.shape != (n,) or not np.all(np.isfinite(h)):
            raise ValueError(f"h must be {n} finite values")
        for arr in (c, d, h):
            arr.setflags(write=False)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "h", h)

    def left_member(self, j: int):
        """Callable for F_j, the recombined j-th left function."""
        if not 0 <= j < self.size:
            raise ValueError(f"member index {j} out of range")
        family, coeffs = self.source.left, self.c[j, : j + 1]

        def member(x):
            x = np.asarray(x, dtype=float)
            total = np.zeros_like(x)
            for l, weight in enumerate(coeffs):
                total = total + weight * evaluate(family, l, x)
            return total

        return member

    def right_member(self, k: int):
        """Callable for Phi_k, the recombined k-th right function."""
        if not 0 <= k < self.size:
            raise ValueError(f"member index {k} out of range")
        family, coeffs = self.source.right, self.d[k, : k + 1]

        def member(x):
            x = np.asarray(x, dtype=float)
            total = np.zeros_like(x)
            for l, weight in enumerate(coeffs):
                total = total + weight * evaluate(family, l, x)
            return total

        return member


def _unit_lower_inverse(l: np.ndarray) -> np.ndarray:
    n = l.shape[0]
    inv = np.eye(n)
    for i in range(n):
        for j in range(i):
            inv[i, j] = -l[i, j:i] @ inv[j:i, j]
    return inv


def biorthogonalize(spec: EnsembleSpec, n_nodes: int = DEFAULT_NODES_1D) -> BiorthogonalSystem:
    """Factor the Gram matrix as L G R^T = H with unit-triangular L, R.

    Runs Doolittle elimination without pivoting; row reordering would
    break the triangular-recombination structure, so a pivot smaller than
    ``PIVOT_RELATIVE_CUTOFF`` times the largest Gram entry aborts with
    :class:`FactorizationError`.
    """
    g = np.array(gram_matrix(spec, n_nodes).entries)
    n = spec.size
    cutoff = PIVOT_RELATIVE_CUTOFF * max(1.0, float(np.abs(g).max())) if n else 0.0
    work = g.copy()
    l0 = np.eye(n)
    u0 = np.eye(n)
    h = np.zeros(n)
    for k in range(n):
        pivot = work[k, k]
        if abs(pivot) <= cutoff:
            raise FactorizationError(
                "Gram matrix not strictly factorizable: "
                f"leading principal minor {k + 1} is numerically zero"
            )
        h[k] = pivot
        l0[k + 1 :, k] = work[k + 1 :, k] / pivot
        u0[k, k + 1 :] = work[k, k + 1 :] / pivot
        work[k + 1 :, k + 1 :] -= np.outer(l0[k + 1 :, k], work[k, k + 1 :])
    return BiorthogonalSystem(
        size=n,
        c=_unit_lower_inverse(l0),
        d=_unit_lower_inverse(u0.T),
        h=h,
        source=spec,
    )


def biorthogonality_residuals(
    system: BiorthogonalSystem, n_nodes: int = DEFAULT_NODES_1D
) -> np.ndarray:
    """Matrix of pairings <F_j, Phi_k> recomputed from scratch.

    Assembles the recombined functions on a fresh quadrature rule and
    integrates every pairing directly; for a valid system the result is
    diag(h) up to quadrature noise.  Uses the weight-reduced member forms
    on infinite domains.
    """
    spec = system.source
    rule = gauss_rule(spec.domain, n_nodes)
    (left_fns, right_fns), point_factor = weight_factorization(
        (spec.left, spec.right), spec.domain
    )
    left_values = np.array([fn(rule.nodes) for fn in left_fns])
    right_values = np.array([fn(rule.nodes) for fn in right_fns])
    weights = rule.weights
    if point_factor is not None:
        weights = weights * point_factor(rule.nodes)
    recombined_left = system.c @ left_values
    recombined_right = system.d @ right_values
    return recombined_left @ (weights[:, None] * recombined_right.T)


def partition_function(spec: EnsembleSpec, n_nodes: int = DEFAULT_NODES_1D) -> float:
    """N! times the product of the diagonal pairings h_j.

    Equals the N-fold ensemble integral of the product of the two family
    determinants, since the triangular recombination changes neither
    determinant and the recombined Gram matrix is diagonal.
    """
    system = biorthogonalize(spec, n_nodes)
    return _factorial(spec.size) * float(np.prod(system.h))


def verify_invariance_under_biorthogonalization(
    spec: EnsembleSpec, points, n_nodes: int = DEFAULT_NODES_1D
) -> tuple:
    """Evaluate both family determinants at given points before and after
    recombination.

    Returns (det_f, det_F, det_phi, det_Phi); the triangular coefficient
    matrices have unit determinant, so the first pair and the second pair
    agree up to roundoff.
    """
    pts = np.asarray(getattr(points, "points", points), dtype=float)
    if pts.ndim != 1 or pts.size != spec.size:
        raise ValueError(f"needs exactly {spec.size} points, got shape {pts.shape}")
    system = biorthogonalize(spec, n_nodes)
    left_raw = family_matrix(spec.left, pts)
    right_raw = family_matrix(spec.right, pts)
    return (
        determinant(left_raw),
        determinant(system.c @ left_raw),
        determinant(right_raw),
        determinant(system.d @ right_raw),
    )
