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

from .ensembles import EnsembleSpec, evaluate, family_matrix
from .identities import _factorial, _node_measure, gram_matrix
from .linalg import determinant
from .quadrature import DEFAULT_NODES_1D

__all__ = [
    "BiorthogonalSystem",
    "FactorizationError",
    "biorthogonality_residuals",
    "biorthogonalize",
    "partition_function",
    "verify_invariance_under_biorthogonalization",
]

# a pivot of the row- and column-equilibrated Gram matrix at or below this
# magnitude is numerically zero
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
        return self._member(self.source.left, self.c, j)

    def right_member(self, k: int):
        """Callable for Phi_k, the recombined k-th right function."""
        return self._member(self.source.right, self.d, k)

    def _member(self, family, recombination: np.ndarray, j: int):
        if not 0 <= j < self.size:
            raise ValueError(f"member index {j} out of range")
        coeffs = recombination[j, : j + 1]

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
    break the triangular-recombination structure, so a vanishing pivot
    aborts with :class:`FactorizationError`.  Each pivot h_k is judged on
    the equilibrated Gram diag(r) G diag(c), with r_k = 1 / max_j |G_kj|
    and c_j = 1 / max_k |r_k G_kj|, whose pivots are r_k h_k c_k: a pivot
    at or below ``PIVOT_RELATIVE_CUTOFF`` there is numerically zero.  So
    the test does not depend on how the members of either family are
    scaled.
    """
    g = np.array(gram_matrix(spec, n_nodes).entries)
    n = spec.size
    # a zero row or column keeps scale 1 and leaves an exactly zero pivot
    rows = np.abs(g).max(axis=1, initial=0.0)
    r = np.divide(1.0, rows, out=np.ones(n), where=rows > 0)
    cols = np.abs(r[:, None] * g).max(axis=0, initial=0.0)
    c = np.divide(1.0, cols, out=np.ones(n), where=cols > 0)
    work = g.copy()
    l0 = np.eye(n)
    u0 = np.eye(n)
    h = np.zeros(n)
    for k in range(n):
        pivot = work[k, k]
        if abs(r[k] * pivot * c[k]) <= PIVOT_RELATIVE_CUTOFF:
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

    Recombines the node tables F and Phi of the Gauss node measure and
    integrates every pairing directly, (C F^T) W (Phi D^T); for a valid
    system the result is diag(h) up to quadrature noise.  Uses the
    weight-reduced member forms on infinite domains.
    """
    spec = system.source
    _, weights, (left, right) = _node_measure(
        (spec.left, spec.right), spec.domain, n_nodes
    )
    return (system.c @ left.T) @ (weights[:, None] * (system.d @ right.T).T)


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
    pts = np.asarray(points, dtype=float)
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
