"""Discrete analogues of the integration identities.

Cauchy-Binet expresses det(X^T Y) as a sum of products of maximal minors
over row subsets; restricting an ensemble to a finite point set turns the
determinant integration identity into exactly that statement.  The minor
summation formula is the Pfaffian analogue, and a block construction
specializes it back to Cauchy-Binet up to a shape-dependent sign.

All operations accept integer matrices, and object arrays of Python int
or Fraction entries (any other object entry is rejected), and then compute
in exact arithmetic (Bareiss elimination for determinants, recursive
expansion for Pfaffians), so the discrete identities can be checked for
literal equality.  Float input gathers the row subsets into stacks and
evaluates them with the batched determinant and Pfaffian kernels.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .ensembles import EnsembleSpec, family_matrix
from .linalg import (
    SkewMatrix,
    determinant,
    determinant_batch,
    pfaffian,
    pfaffian_batch,
    pfaffian_by_expansion,
    subsets,
)

__all__ = [
    "DiscretePointSet",
    "DiscretizedAndreief",
    "block_reclaims_cauchy_binet",
    "cauchy_binet_lhs",
    "cauchy_binet_rhs",
    "discretized_andreief",
    "minor_summation_lhs",
    "minor_summation_rhs",
]


# Row subsets gathered into one determinant/Pfaffian stack on the float path.
_SUBSET_BLOCK = 1 << 14


def _is_exact(*arrays) -> bool:
    """True when every array is integer-typed or an object array; an object
    array must hold only Python int and Fraction entries."""
    arrays = [np.asarray(a) for a in arrays]
    for v in (v for a in arrays if a.dtype == object for v in a.flat):
        if not isinstance(v, (int, Fraction)):
            raise ValueError(f"exact input takes int or Fraction entries, got {v!r}")
    return all(a.dtype == object or np.issubdtype(a.dtype, np.integer) for a in arrays)


def _exact_det(rows: list):
    """Exact determinant by Bareiss elimination, whose divisions are exact:
    // on int entries, / once any entry is a Fraction."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(row) for row in rows]
    div = operator.floordiv
    if any(isinstance(v, Fraction) for row in m for v in row):
        m = [[Fraction(v) for v in row] for row in m]
        div = operator.truediv
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = div(m[i][j] * m[k][k] - m[i][k] * m[k][j], prev)
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _as_rect(m, name: str) -> np.ndarray:
    a = np.asarray(m)
    if a.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix, got shape {a.shape}")
    return a


def _check_tall(x: np.ndarray, y: np.ndarray) -> None:
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    m, n = x.shape
    if m < n:
        raise ValueError(f"requires at least as many rows as columns, got {m} < {n}")


def _row_indices(m: int, n: int) -> Iterator[tuple[int, ...]]:
    # subsets() enumerates 1-based; convert to row indices
    for chosen in subsets(m, n):
        yield tuple(i - 1 for i in chosen)


def _subset_blocks(m: int, n: int) -> Iterator[np.ndarray]:
    """The row subsets in _row_indices order, as (c, n) index arrays of at
    most _SUBSET_BLOCK subsets each, so a gathered stack stays bounded."""
    chosen = subsets(m, n)
    while block := list(itertools.islice(chosen, _SUBSET_BLOCK)):
        # subsets() enumerates 1-based
        yield np.array(block, dtype=int).reshape(len(block), n) - 1


def cauchy_binet_lhs(x, y):
    """Sum over all column-count row subsets K of det(X_K) * det(Y_K).

    X and Y are M x N with M >= N; K ranges over the C(M, N) subsets of
    rows, restricted to which both matrices become square.  Integer input
    gives an exact integer result, Fraction input an exact Fraction.
    """
    xa, ya = _as_rect(x, "x"), _as_rect(y, "y")
    _check_tall(xa, ya)
    m, n = xa.shape
    if _is_exact(xa, ya):
        xr, yr = xa.tolist(), ya.tolist()
        total = 0
        for rows in _row_indices(m, n):
            total += _exact_det([xr[i] for i in rows]) * _exact_det(
                [yr[i] for i in rows]
            )
        return total
    total = 0.0
    for idx in _subset_blocks(m, n):
        total += float(np.sum(determinant_batch(xa[idx]) * determinant_batch(ya[idx])))
    return total


def cauchy_binet_rhs(x, y):
    """det(X^T Y) for M x N matrices with M >= N.

    Integer input gives an exact integer result, Fraction input an exact
    Fraction.
    """
    xa, ya = _as_rect(x, "x"), _as_rect(y, "y")
    _check_tall(xa, ya)
    if _is_exact(xa, ya):
        xr, yr = xa.tolist(), ya.tolist()
        m, n = xa.shape
        product = [
            [sum(xr[l][i] * yr[l][j] for l in range(m)) for j in range(n)]
            for i in range(n)
        ]
        return _exact_det(product)
    return determinant(xa.T @ ya)


@dataclass(frozen=True)
class DiscretePointSet:
    """Support points of a sum-of-point-masses measure."""

    points: tuple[float, ...]

    def __init__(self, points: Sequence[float]):
        pts = tuple(float(p) for p in points)
        if not all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True, eq=False)
class DiscretizedAndreief:
    """Both sides of the identity over a point measure, plus the matrix
    identification that makes it literally Cauchy-Binet.

    x_matrix[l, j] = f_j(y_l) and y_matrix[l, j] = phi_j(y_l); lhs is the
    subset sum of minor products and rhs is det(x_matrix^T y_matrix).
    Unpacks as the (lhs, rhs) pair.
    """

    lhs: float
    rhs: float
    x_matrix: np.ndarray
    y_matrix: np.ndarray

    def __iter__(self):
        return iter((self.lhs, self.rhs))


def discretized_andreief(
    spec: EnsembleSpec, pts: DiscretePointSet
) -> DiscretizedAndreief:
    """Replace the integrals of the determinant identity by sums over the
    given points.

    LHS becomes the sum over ordered N-point subsets of the product of the
    two family determinants; RHS becomes the determinant of the discrete
    Gram sum.  Both are computed by the Cauchy-Binet routines on the
    identified matrices, so the equality is the discrete identity verbatim.
    """
    n = spec.size
    m = len(pts)
    if m < n:
        raise ValueError(f"needs at least {n} points, got {m}")
    nodes = np.asarray(pts.points)
    x_matrix = family_matrix(spec.left, nodes).T
    y_matrix = family_matrix(spec.right, nodes).T
    return DiscretizedAndreief(
        lhs=cauchy_binet_lhs(x_matrix, y_matrix),
        rhs=cauchy_binet_rhs(x_matrix, y_matrix),
        x_matrix=x_matrix,
        y_matrix=y_matrix,
    )


def _skew_entries(a):
    """(entries, exact) for a SkewMatrix or antisymmetric array-like."""
    if isinstance(a, SkewMatrix):
        return a.entries, False
    arr = np.asarray(a)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"square matrix required, got shape {arr.shape}")
    if _is_exact(arr):
        if np.any(arr != -arr.T):
            raise ValueError("entries are not antisymmetric")
        return arr, True
    return SkewMatrix(arr).entries, False


def _compression(a, t):
    """(entries, t, exact) for minor summation, with T's shape checked
    against A: N x M, N even, M >= N."""
    entries, exact = _skew_entries(a)
    ta = _as_rect(t, "t")
    m = entries.shape[0]
    n_rows, t_cols = ta.shape
    if t_cols != m:
        raise ValueError(f"t must have {m} columns, got {t_cols}")
    if n_rows > m:
        raise ValueError(f"requires at least as many columns as rows, got {m} < {n_rows}")
    if n_rows % 2:
        raise ValueError(f"size must be even, got {n_rows}")
    return entries, ta, exact


def minor_summation_lhs(a, t):
    """Sum over column subsets J of Pf(A_{J,J}) * det(T_J).

    A is M x M antisymmetric, T is N x M with N even and M >= N; A_{J,J}
    is the principal submatrix on J and T_J keeps the columns J.  Integer
    input gives an exact integer result, Fraction input an exact Fraction.
    """
    entries, ta, exact = _compression(a, t)
    m, n_rows = entries.shape[0], ta.shape[0]
    if n_rows == 0:
        # empty compression: Pf of the 0 x 0 matrix is the empty product
        return 1 if exact else 1.0
    if exact:
        tr = ta.tolist()
        total = 0
        for cols in _row_indices(m, n_rows):
            sub = entries[np.ix_(cols, cols)]
            pf = pfaffian_by_expansion(sub)
            total += pf * _exact_det([[tr[i][j] for j in cols] for i in range(n_rows)])
        return total
    total = 0.0
    for idx in _subset_blocks(m, n_rows):
        subs = entries[idx[:, :, None], idx[:, None, :]]
        minors = ta[:, idx].transpose(1, 0, 2)
        total += float(np.sum(pfaffian_batch(subs) * determinant_batch(minors)))
    return total


def minor_summation_rhs(a, t):
    """Pfaffian of T A T^T, the N x N antisymmetric compression of A by T.

    Same shape rules as minor_summation_lhs; integer input gives an exact
    integer result, Fraction input an exact Fraction.
    """
    entries, ta, exact = _compression(a, t)
    m, n_rows = entries.shape[0], ta.shape[0]
    if n_rows == 0:
        return 1 if exact else 1.0
    if exact:
        tr, ar = ta.tolist(), entries.tolist()
        at = [
            [sum(ar[i][l] * tr[r][l] for l in range(m)) for r in range(n_rows)]
            for i in range(m)
        ]
        compressed = np.array(
            [
                [sum(tr[r][i] * at[i][s] for i in range(m)) for s in range(n_rows)]
                for r in range(n_rows)
            ],
            dtype=object,
        )
        return pfaffian_by_expansion(compressed)
    compressed = ta @ entries @ ta.T
    # exact antisymmetry holds in exact arithmetic; strip the float noise
    return pfaffian((compressed - compressed.T) / 2.0)


def block_reclaims_cauchy_binet(x, y) -> tuple:
    """Evaluate the block specialization of minor summation against
    Cauchy-Binet.

    For m x n inputs (m >= n), builds the 2m x 2m antisymmetric
    A = [[0, I], [-I, 0]] and the 2n x 2m block matrix
    T = [[X^T, 0], [0, Y^T]], and returns
    (minor_summation_rhs(A, T), cauchy_binet_rhs(x, y)).  The two agree in
    magnitude; the sign ratio depends only on n and is asserted constant
    across instances by the tests rather than assumed.
    """
    xa, ya = _as_rect(x, "x"), _as_rect(y, "y")
    _check_tall(xa, ya)
    m, n = xa.shape
    exact = _is_exact(xa, ya)
    dtype = object if exact else float
    eye = np.eye(m, dtype=int if exact else float)
    a = np.zeros((2 * m, 2 * m), dtype=dtype)
    a[:m, m:] = eye
    a[m:, :m] = -eye
    t = np.zeros((2 * n, 2 * m), dtype=dtype)
    t[:n, :m] = xa.T
    t[n:, m:] = ya.T
    if exact:
        a = np.array(a.tolist(), dtype=object)
        t = np.array(t.tolist(), dtype=object)
    return minor_summation_rhs(a, t), cauchy_binet_rhs(xa, ya)
