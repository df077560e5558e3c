"""Discrete analogues of the integration identities.

Cauchy-Binet expresses det(X^T Y) as a sum of products of maximal minors
over row subsets.  On a finite measure sum_l w_l delta(x - x_l) the
determinant integration identity is exactly that statement, with X = W F
and Y = Phi read from the measure's tables (ensembles.NodeMeasure):
discretized_andreief evaluates both sides, and ordered_tuple_sum the
N-fold sum over ordered point tuples that Cauchy-Binet reduces to row
subsets.  The minor summation formula is the Pfaffian analogue, and a
block construction specializes it back to Cauchy-Binet up to a
shape-dependent sign.

The Cauchy-Binet, minor summation and block routines accept integer
matrices, and object arrays of Python int or Fraction entries (any other
object entry is rejected), and then compute in exact arithmetic (Bareiss
elimination for determinants, recursive expansion for Pfaffians), so the
discrete identities can be checked for literal equality.  Float input
gathers the row subsets into stacks and evaluates them with the batched
determinant and Pfaffian kernels.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Iterator

import numpy as np

from .linalg import (
    SkewMatrix,
    determinant,
    determinant_batch,
    pfaffian,
    pfaffian_batch,
    pfaffian_by_expansion,
    subsets,
)
from .quadrature import DEFAULT_EVAL_BUDGET, BudgetError

__all__ = [
    "block_reclaims_cauchy_binet",
    "cauchy_binet_lhs",
    "cauchy_binet_rhs",
    "discretized_andreief",
    "minor_summation_lhs",
    "minor_summation_rhs",
    "ordered_tuple_sum",
]


# Most row subsets or tuples gathered into one det/Pf stack on the float path.
_SUBSET_BLOCK = 1 << 14


def _exact_division(*arrays):
    """The exact division of Bareiss elimination on these arrays, or None
    unless every array is integer-typed or an object array: // on int
    entries, / once any entry is a Fraction (see _exact_rows).  An object
    array must hold only Python int and Fraction entries."""
    arrays = [np.asarray(a) for a in arrays]
    fraction = False
    for v in (v for a in arrays if a.dtype == object for v in a.flat):
        if isinstance(v, Fraction):
            fraction = True
        elif not isinstance(v, int):
            raise ValueError(f"exact input takes int or Fraction entries, got {v!r}")
    if not all(a.dtype == object or np.issubdtype(a.dtype, np.integer) for a in arrays):
        return None
    return operator.truediv if fraction else operator.floordiv


def _exact_rows(a: np.ndarray, div) -> list:
    """a as nested lists, with every entry a Fraction when div is /, so
    that no quotient of two ints becomes a float."""
    rows = a.tolist()
    if div is operator.truediv:
        rows = [[Fraction(v) for v in row] for row in rows]
    return rows


def _exact_det(rows: list, div):
    """Exact determinant by Bareiss elimination, whose divisions div (from
    _exact_division) are exact."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(row) for row in rows]
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
    div = _exact_division(xa, ya)
    if div is not None:
        xr, yr = _exact_rows(xa, div), _exact_rows(ya, div)
        total = 0
        for rows in _row_indices(m, n):
            total += _exact_det([xr[i] for i in rows], div) * _exact_det(
                [yr[i] for i in rows], div
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
    div = _exact_division(xa, ya)
    if div is not None:
        return _exact_det(_exact_rows(xa.astype(object).T @ ya.astype(object), div), div)
    return determinant(xa.T @ ya)


def _distinct_tuples(m: int, n: int, prefix=None) -> Iterator[np.ndarray]:
    """The ordered n-tuples of distinct rows of m that extend prefix (all
    m!/(m-n)! by default), in lexicographic order, as (c, n) index arrays
    of at most _SUBSET_BLOCK tuples: each block grows over its free rows."""
    prefix = np.zeros((1, 0), dtype=int) if prefix is None else prefix
    if prefix.shape[1] == n:
        yield prefix
        return
    free = np.ones((len(prefix), m), dtype=bool)
    free[np.arange(len(prefix))[:, None], prefix] = False
    rows, cols = np.nonzero(free)
    grown = np.column_stack([prefix[rows], cols])
    for start in range(0, len(grown), _SUBSET_BLOCK):
        yield from _distinct_tuples(m, n, grown[start : start + _SUBSET_BLOCK])


def _weighted_tables(weights, f, phi) -> tuple[np.ndarray, np.ndarray]:
    """(X, Y) = (W F, Phi) from a finite measure's tables; unit weights
    leave F unchanged bit for bit."""
    x = np.asarray(weights, dtype=float)[:, None] * _as_rect(f, "f")
    return x, _as_rect(phi, "phi")


def ordered_tuple_sum(weights, f, phi) -> float:
    """The N-fold integral of det[f_j(x_k)] * det[phi_j(x_k)] over the
    finite measure sum_l w_l delta(x - x_l) with tables (W, [F, Phi]),
    over N!: the sum over ordered N-tuples t of rows of det((W F)_t) *
    det(Phi_t), as it stands.  Only the M!/(M-N)! tuples of distinct rows
    are enumerated (a repeated row makes both determinants 0), within
    DEFAULT_EVAL_BUDGET.  Cauchy-Binet reduces the sum to cauchy_binet_lhs."""
    x, y = _weighted_tables(weights, f, phi)
    _check_tall(x, y)
    m, n = x.shape
    if (count := math.perm(m, n)) > DEFAULT_EVAL_BUDGET:
        raise BudgetError(
            f"budget exceeded: {count} ordered {n}-tuples of distinct rows of {m}, "
            f"allowed {DEFAULT_EVAL_BUDGET}"
        )
    total = 0.0
    for idx in _distinct_tuples(m, n):
        total += float(np.sum(determinant_batch(x[idx]) * determinant_batch(y[idx])))
    return total / math.factorial(n)


def discretized_andreief(weights, f, phi) -> tuple[float, float]:
    """(cauchy_binet_lhs, cauchy_binet_rhs) of X = W F and Y = Phi: the
    determinant identity over the finite measure sum_l w_l delta(x - x_l)
    with tables (W, [F, Phi]) (ensembles.NodeMeasure) is Cauchy-Binet."""
    x, y = _weighted_tables(weights, f, phi)
    return cauchy_binet_lhs(x, y), cauchy_binet_rhs(x, y)


def _skew_entries(a, ta: np.ndarray):
    """(entries, div) for a SkewMatrix or antisymmetric array-like A
    compressed by ta; div is _exact_division of both, None unless both
    are exact."""
    if isinstance(a, SkewMatrix):
        return a.entries, None
    arr = np.asarray(a)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"square matrix required, got shape {arr.shape}")
    div = _exact_division(arr, ta)
    if div is not None:
        if np.any(arr != -arr.T):
            raise ValueError("entries are not antisymmetric")
        return arr, div
    return SkewMatrix(arr).entries, None


def _compression(a, t):
    """(entries, t, div) for minor summation, with T's shape checked
    against A: N x M, N even, M >= N; div as in _skew_entries."""
    ta = _as_rect(t, "t")
    entries, div = _skew_entries(a, ta)
    m = entries.shape[0]
    n_rows, t_cols = ta.shape
    if t_cols != m:
        raise ValueError(f"t must have {m} columns, got {t_cols}")
    if n_rows > m:
        raise ValueError(f"requires at least as many columns as rows, got {m} < {n_rows}")
    if n_rows % 2:
        raise ValueError(f"size must be even, got {n_rows}")
    return entries, ta, div


def minor_summation_lhs(a, t):
    """Sum over column subsets J of Pf(A_{J,J}) * det(T_J).

    A is M x M antisymmetric, T is N x M with N even and M >= N; A_{J,J}
    is the principal submatrix on J and T_J keeps the columns J.  Integer
    input gives an exact integer result, Fraction input an exact Fraction.
    """
    entries, ta, div = _compression(a, t)
    m, n_rows = entries.shape[0], ta.shape[0]
    if n_rows == 0:
        # empty compression: Pf of the 0 x 0 matrix is the empty product
        return 1.0 if div is None else 1
    if div is not None:
        tr = _exact_rows(ta, div)
        total = 0
        for cols in _row_indices(m, n_rows):
            sub = entries[np.ix_(cols, cols)]
            pf = pfaffian_by_expansion(sub)
            total += pf * _exact_det([[tr[i][j] for j in cols] for i in range(n_rows)], div)
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
    entries, ta, div = _compression(a, t)
    if ta.shape[0] == 0:
        return 1.0 if div is None else 1
    if div is not None:
        to = ta.astype(object)
        return pfaffian_by_expansion(to @ entries.astype(object) @ to.T)
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
    # exact input gives object blocks, anything else float ones
    dtype = object if _exact_division(xa, ya) is not None else float
    a = np.kron([[0, 1], [-1, 0]], np.eye(m, dtype=int)).astype(dtype)
    zero = np.zeros((n, m), dtype=int)
    t = np.block([[xa.T, zero], [zero, ya.T]]).astype(dtype)
    return minor_summation_rhs(a, t), cauchy_binet_rhs(xa, ya)
