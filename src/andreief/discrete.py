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
object entry is rejected), and then compute in exact arithmetic, so the
discrete identities can be checked for literal equality.  The exact left
sides read tables: every maximal minor of each matrix, built column by
column by Laplace expansion, and for minor summation every even principal
Pfaffian of A, built by expansion along the first index; each sum is then
the sum over row subsets of products of two table entries.  The exact
minor summation right side is the one full-order entry of the Pfaffian
table of T A T^T, and cauchy_binet_rhs runs Bareiss elimination.  Float
input gathers the row subsets into stacks and evaluates them with the
batched determinant and Pfaffian kernels.  Its subsets come in blocks from
quadrature.subsets, the enumerator integrate_nd walks; ordered_tuple_sum
takes each block of subsets in every order of its columns.  The exact
tables grow their own colex subsets (_grow), whose parent ranks make each
table level a gather.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

import numpy as np

from . import quadrature
from .linalg import (
    SkewMatrix,
    determinant,
    determinant_batch,
    pfaffian,
    pfaffian_batch,
)
from .quadrature import _check_budget, _check_subset_budget, subsets

__all__ = [
    "block_reclaims_cauchy_binet",
    "cauchy_binet_lhs",
    "cauchy_binet_rhs",
    "discretized_andreief",
    "minor_summation_lhs",
    "minor_summation_rhs",
    "ordered_tuple_sum",
]


def _exact_division(*arrays):
    """The exact division of Bareiss elimination on these arrays, or None
    unless every array is integer-typed or an object array: // on int
    entries, / once any entry is a Fraction (see _exact_array).  An object
    array must hold only Python int and Fraction entries; each distinct
    entry type is judged once."""
    arrays = [np.asarray(a) for a in arrays]
    objects = [a for a in arrays if a.dtype.kind == "O"]
    kinds = {kind for a in objects for kind in map(type, a.flat)}
    if bad := {kind for kind in kinds if not issubclass(kind, (int, Fraction))}:
        first = next(v for a in objects for v in a.flat if type(v) in bad)
        raise ValueError(f"exact input takes int or Fraction entries, got {first!r}")
    if not all(a.dtype.kind in "iuO" for a in arrays):
        return None
    return operator.truediv if any(issubclass(k, Fraction) for k in kinds) else operator.floordiv


def _exact_array(a: np.ndarray, div) -> np.ndarray:
    """a as an object array, with every entry a Fraction when div is /, so
    that no quotient of two ints becomes a float."""
    out = a.astype(object)
    return np.frompyfunc(Fraction, 1, 1)(out) if div is operator.truediv else out


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


def _row_stack(x: np.ndarray, index: np.ndarray) -> np.ndarray:
    """x[index], the stack of the rows index[p] of x, as a view of a
    contiguous entry-major array that the lockstep LU reads uncopied."""
    return x.T.take(index.T, axis=1).transpose(2, 1, 0)


def _pf_det_terms(
    a: np.ndarray, t: np.ndarray, index: np.ndarray, pfaffians, determinants
) -> np.ndarray:
    """Pf(A_{J,J}) * det(T_J) for each row J of a (P, k) block of column
    indices into the (M, M) array a and the (k, M) array t.

    The stacks are gathered entry-major, each entry a contiguous (P,)
    vector, so the lockstep eliminations read them without a copy, and one
    at a time, so only one is held.  The caller passes its own module's
    pfaffian_batch and determinant_batch, where perfbench's tracer wraps
    them."""
    dets = determinants(_row_stack(t.T, index).transpose(0, 2, 1))
    columns = index.T
    principal = a[columns[:, None], columns[None, :]]
    return pfaffians(principal.transpose(2, 0, 1)) * dets


def _grow(binom, k, parents, parent_ranks):
    """The k-subsets of range(m) in colex order, in blocks of at most
    _EVAL_ROWS: (ranks slice, idx, removal ranks), with each subset a
    sorted row of idx and column p of its removal ranks the rank of the
    subset without its p-th element.

    Colex rank is sum_i C(K_i, i + 1) (the combinatorial number system),
    so K = S + {c} with c = max K has rank rank(S) + C(c, k): one search
    finds c and the parent S among the (k-1)-subsets parents, whose
    removal ranks parent_ranks shift by C(c, k - 1); removing c leaves S."""
    count, rows = int(binom[k, -1]), quadrature._EVAL_ROWS
    for start in range(0, count, rows):
        rank = np.arange(start, min(start + rows, count))
        last = binom[k, 1:].searchsorted(rank, side="right")
        parent = rank - binom[k].take(last)
        idx = np.empty((len(rank), k), dtype=int)
        idx[:, :-1] = parents.take(parent, axis=0)
        idx[:, -1] = last
        ranks = np.empty((len(rank), k), dtype=int)
        np.add(parent_ranks.take(parent, axis=0), binom[k - 1].take(last)[:, None],
               out=ranks[:, :-1])
        ranks[:, -1] = parent
        yield slice(start, start + len(rank)), idx, ranks


class _MinorTable:
    """det X[K, :k] on the k-subsets K of rows, by Laplace expansion along
    column k - 1 from the size k - 1 minors.  Built from the columns of X,
    an (N, M) object array (X transposed), or (N, 2, M) for a pair of
    matrices whose minors are carried in lockstep."""

    step = 1

    def __init__(self, columns: np.ndarray):
        # each column on rows 0..M-1, then its negation
        self.columns = np.concatenate([columns, -columns], axis=-1)
        self.empty = np.ones(columns.shape[1:-1] + (1,), dtype=object)

    def level(self, idx, ranks, parent_ranks, prev):
        k, m = idx.shape[1], self.columns.shape[-1] // 2
        # the term of row position p has sign (-1)^(p + k - 1)
        signed = idx + m * (np.arange(k - 1, 2 * k - 1) % 2)
        terms = self.columns[k - 1].take(signed, axis=-1) * prev.take(ranks, axis=-1)
        return np.add.reduce(terms, axis=-1)


class _PfaffianTable:
    """Pf(A_J) on the even subsets J, by expansion along J's first index:
    Pf(A_J) = sum_q (-1)^(q+1) a[j_0, j_q] Pf(A_{J minus j_0, j_q}).  J
    without j_0 is the subset of rank ranks[:, 0] one size down, so its
    removal ranks, read from parent_ranks, rank J without j_0 and j_q."""

    step = 2

    def __init__(self, a: np.ndarray):
        self.signed = np.stack([a, -a])
        self.empty = np.ones(1, dtype=object)

    def level(self, idx, ranks, parent_ranks, prev):
        sign = np.arange(idx.shape[1] - 1) % 2
        terms = self.signed[sign, idx[:, :1], idx[:, 1:]]
        return np.add.reduce(terms * prev[parent_ranks[ranks[:, 0]]], axis=-1)


def _table_sum(m: int, n: int, tables: list, combine):
    """The sum over the n-subsets K of range(m) of combine(values on K),
    with one value array per table, subsets on its last axis.

    A table holds a value on every subset whose size its step divides, 1
    on the empty one, and its level(idx, ranks, parent_ranks, prev)
    computes them on the subsets idx (see _grow) from those one step
    smaller, prev.  Subsets run in colex order in blocks of _EVAL_ROWS.
    Only the previous size is kept; size n is summed block by block and
    never stored.  Callers bound the products first (_check_table_budget)."""
    prev = {table: table.empty for table in tables}
    if n == 0:
        return combine(*prev.values())
    binom = np.array([[math.comb(c, j) for c in range(m + 1)] for j in range(n + 1)])
    # inner sizes are kept in the narrowest types that hold their indices and ranks
    index_type, rank_type = np.min_scalar_type(m), np.min_scalar_type(binom.max())
    parents = parent_ranks = np.zeros((1, 0), dtype=int)
    for size in range(1, n):
        due = [table for table in tables if size % table.step == 0]
        count = math.comb(m, size)
        kept = np.empty((count, size), index_type), np.empty((count, size), rank_type)
        grown = {t: np.empty(t.empty.shape[:-1] + (count,), dtype=object) for t in due}
        for block, idx, ranks in _grow(binom, size, parents, parent_ranks):
            kept[0][block], kept[1][block] = idx, ranks
            for table in due:
                grown[table][..., block] = table.level(idx, ranks, parent_ranks, prev[table])
        (parents, parent_ranks), prev = kept, {**prev, **grown}
    total = 0
    for _, idx, ranks in _grow(binom, n, parents, parent_ranks):
        values = [table.level(idx, ranks, parent_ranks, prev[table]) for table in tables]
        total += combine(*values)
    return total


# The tables of each exact sum: their steps, and what they tabulate on m
# indices, as a budget message names it.
_TABLES = {
    "cauchy_binet": ((_MinorTable.step,), "the minors of the {m} rows"),
    "minor_summation": ((_MinorTable.step, _PfaffianTable.step),
                        "the minors and Pfaffians of the {m} columns"),
    "compression": ((_PfaffianTable.step,), "the Pfaffians of the order-{m} compression"),
}


def _check_table_budget(tables: str, m: int, n: int) -> None:
    """The budget check of the products that the _TABLES of one sum take
    on the subsets of range(m) up to size n (see _table_sum): s - step + 1
    for a size-s value (s for a minor, s - 1 for a Pfaffian)."""
    steps, what = _TABLES[tables]
    count = sum(
        (size - step + 1) * math.comb(m, size)
        for step in steps
        for size in range(step, n + 1, step)
    )
    _check_budget(count, f"exact products to tabulate {what.format(m=m)}")


def _check_tuple_budget(m: int, n: int) -> None:
    """The budget check of the ordered n-tuples of distinct rows of m."""
    _check_budget(math.perm(m, n), f"ordered {n}-tuples of distinct rows of {m}")


def cauchy_binet_lhs(x, y):
    """Sum over all column-count row subsets K of det(X_K) * det(Y_K).

    X and Y are M x N with M >= N; K ranges over the C(M, N) subsets of
    rows, restricted to which both matrices become square, within
    DEFAULT_EVAL_BUDGET.  Integer input gives an exact integer result,
    Fraction input an exact Fraction, read from the minor tables of X and
    Y, whose sum(k C(M, k), k <= N) products are also bounded by the
    budget.
    """
    xa, ya = _as_rect(x, "x"), _as_rect(y, "y")
    _check_tall(xa, ya)
    m, n = xa.shape
    _check_subset_budget(m, n, "rows")
    div = _exact_division(xa, ya)
    if div is not None:
        _check_table_budget("cauchy_binet", m, n)
        pair = _MinorTable(_exact_array(np.stack([xa.T, ya.T], axis=1), div))
        return _table_sum(m, n, [pair], lambda v: np.dot(v[0], v[1]))
    total = 0.0
    for idx in subsets(m, n):
        total += float(np.sum(determinant_batch(_row_stack(xa, idx))
                              * determinant_batch(_row_stack(ya, idx))))
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
        gram = _exact_array(xa.astype(object).T @ ya.astype(object), div)
        return _exact_det(gram.tolist(), div)
    return determinant(xa.T @ ya)


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
    DEFAULT_EVAL_BUDGET.  Cauchy-Binet reduces the sum to cauchy_binet_lhs.

    Each block of row subsets is taken in the N! orders of its columns, as
    few orders at once as keep a gathered stack within _EVAL_ROWS rows."""
    x, y = _weighted_tables(weights, f, phi)
    _check_tall(x, y)
    m, n = x.shape
    _check_tuple_budget(m, n)
    total = 0.0
    for idx in subsets(m, n):
        orders = itertools.permutations(range(n))
        while chunk := list(itertools.islice(orders, quadrature._EVAL_ROWS // len(idx))):
            order = np.array(chunk, dtype=np.intp)
            # (not reshape(-1, n), which fails on an empty row at n = 0)
            tuples = idx[:, order].reshape(len(idx) * len(order), n)
            total += float(np.sum(determinant_batch(_row_stack(x, tuples))
                                  * determinant_batch(_row_stack(y, tuples))))
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
    is the principal submatrix on J and T_J keeps the columns J.  J ranges
    over the C(M, N) subsets within DEFAULT_EVAL_BUDGET.  Integer input
    gives an exact integer result, Fraction input an exact Fraction, read
    from the minor table of T^T and the Pfaffian table of A, whose
    products are also bounded by the budget.
    """
    entries, ta, div = _compression(a, t)
    m, n_rows = entries.shape[0], ta.shape[0]
    if n_rows == 0:
        # empty compression: Pf of the 0 x 0 matrix is the empty product
        return 1.0 if div is None else 1
    _check_subset_budget(m, n_rows, "columns")
    if div is not None:
        _check_table_budget("minor_summation", m, n_rows)
        tables = [_MinorTable(_exact_array(ta, div)), _PfaffianTable(entries.astype(object))]
        return _table_sum(m, n_rows, tables, np.dot)
    total = 0.0
    for idx in subsets(m, n_rows):
        terms = _pf_det_terms(entries, ta, idx, pfaffian_batch, determinant_batch)
        total += float(np.sum(terms))
    return total


def _largest(a: np.ndarray) -> int:
    """max |a| as a Python int (0 for an empty array), without the
    overflow of np.abs on the most negative int64."""
    return max(int(a.max()), -int(a.min())) if a.size else 0


def _exact_compression(entries: np.ndarray, ta: np.ndarray) -> np.ndarray:
    """T A T^T on exact input.  Every entry of T A and T A T^T is a sum of
    at most M^2 terms of magnitude at most max|T|^2 max|A|, so when both
    arrays are integer-typed and M^2 max|T|^2 max|A| < 2^63 the product is
    formed in int64; otherwise in object arithmetic."""
    m = entries.shape[0]
    if (
        entries.dtype.kind in "iu" and ta.dtype.kind in "iu"
        and m * m * _largest(ta) ** 2 * _largest(entries) < 2**63
    ):
        t64 = ta.astype(np.int64)
        return t64 @ entries.astype(np.int64) @ t64.T
    to = ta.astype(object)
    return to @ entries.astype(object) @ to.T


def minor_summation_rhs(a, t):
    """Pfaffian of T A T^T, the N x N antisymmetric compression of A by T.

    Same shape rules as minor_summation_lhs; integer input gives an exact
    integer result, Fraction input an exact Fraction: the one full-order
    entry of the Pfaffian table of T A T^T, whose products are bounded by
    DEFAULT_EVAL_BUDGET (T A T^T by _exact_compression).
    """
    entries, ta, div = _compression(a, t)
    if ta.shape[0] == 0:
        return 1.0 if div is None else 1
    if div is not None:
        order = ta.shape[0]
        _check_table_budget("compression", order, order)
        exact = _exact_compression(entries, ta).astype(object)
        return _table_sum(order, order, [_PfaffianTable(exact)], np.sum)
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
    # integer input gives int64 blocks, other exact input object ones, and
    # anything else float ones
    if all(v.dtype.kind in "iu" and np.can_cast(v.dtype, np.int64) for v in (xa, ya)):
        dtype = np.int64
    else:
        dtype = object if _exact_division(xa, ya) is not None else float
    a = np.kron([[0, 1], [-1, 0]], np.eye(m, dtype=int)).astype(dtype)
    zero = np.zeros((n, m), dtype=int)
    t = np.block([[xa.T, zero], [zero, ya.T]]).astype(dtype)
    return minor_summation_rhs(a, t), cauchy_binet_rhs(xa, ya)
