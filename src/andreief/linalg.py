"""Dense real linear algebra: determinants, Pfaffians, and the combinatorial
expansions used as brute-force cross-checks.

Everything operates on plain numpy arrays (or array-likes).  Determinants
come in three order ranges: cofactor expansions at orders <= 3, a
row-pivoted LU run on a whole stack in lockstep at orders 4 and 5, and
LAPACK's row-pivoted LU (numpy.linalg.det) from order 6.  Pfaffians are
closed forms at orders <= 4 and a lockstep Parlett-Reid from order 6; the
scalar routines are the batch ones on a one-matrix stack, and all convert
to float64, rejecting complex input.  The expansion oracles keep the input
dtype so that integer inputs are evaluated in exact integer arithmetic.

The package-wide relative-tolerance convention lives here:
|a - b| <= tol * max(1, |a|, |b|).
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "EXPANSION_LIMIT",
    "PIVOT_FLOOR",
    "SKEW_TOLERANCE",
    "SkewMatrix",
    "det_by_permutation_expansion",
    "determinant",
    "determinant_batch",
    "pfaffian",
    "pfaffian_batch",
    "pfaffian_by_expansion",
    "permutation_signature",
    "relative_gap",
    "skew_symmetrize",
    "subsets",
    "within_tolerance",
]

# Pfaffian elimination treats pivots at or below this magnitude as exact zeros.
PIVOT_FLOOR = 1e-300

# Absolute asymmetry tolerated by the SkewMatrix constructor.
SKEW_TOLERANCE = 1e-12

# Largest order accepted by the factorial-cost expansion oracles.
EXPANSION_LIMIT = 9

# Largest order whose determinants come from the lockstep LU; LAPACK
# takes over above it (see determinant_batch).
_LOCKSTEP_MAX_ORDER = 5

# Matrices eliminated at once by a lockstep LU or Parlett-Reid.  Temporaries
# scale with this count (about 0.7 MB for the LU at order 4, 1.2 MB for the
# Parlett-Reid copy at order 6), so it bounds their peak memory per call.
# The stacks that still reach the LU's orders 4-5 are the float subset sums
# of andreief.discrete (up to _SUBSET_BLOCK subsets, on the calling thread),
# Monte Carlo slices at N = 4-5 (8192 rows, one call per pool thread, built
# entry-major so the LU reads them without a copy) and the de Bruijn minor
# tables at 2n = 8; the de Bruijn grid eliminates no
# determinant per point.  Its Pfaffians reach the Parlett-Reid from 2n = 6,
# up to 8192 per row tile, on the calling thread.  The count was set when
# the grid still took per-point LU determinants: eliminating a whole
# 8192-point chunk at once put the tensor benchmark's peak RSS at
# 45.2-46.1 MB, two blocks of 4096 at 43.5-44.0 MB (LAPACK: 44.9-45.7 MB).
_LOCKSTEP_BLOCK = 4096


def relative_gap(a: float, b: float) -> float:
    """Scaled gap |a - b| / max(1, |a|, |b|)."""
    return abs(a - b) / max(1.0, abs(a), abs(b))


def within_tolerance(a: float, b: float, tol: float) -> bool:
    """True when a and b agree per the package tolerance convention."""
    return relative_gap(a, b) <= tol


def _as_float(m) -> np.ndarray:
    """m as a float64 array, not copied when it is one already; a complex
    dtype is rejected rather than cast to its real part."""
    a = np.asarray(m)
    if a.dtype.kind == "c":
        raise ValueError(f"real input required, got dtype {a.dtype}")
    return a.astype(float, copy=False)


def _as_square(m) -> np.ndarray:
    a = _as_float(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"square matrix required, got shape {a.shape}")
    return a


def determinant(m) -> float:
    """Determinant of a square matrix: :func:`determinant_batch` on a
    one-matrix stack, so the two agree bit for bit.

    Singular input is not an error.
    """
    return float(determinant_batch(_as_square(m)[None])[0])


def determinant_batch(stack) -> np.ndarray:
    """Determinants of a (P, n, n) stack of matrices.

    Three order ranges:

    * 0-3: cofactor expansions (first-row expansion at order 3), a few
      vectorized products per stack.  They stay at roundoff up to order 3
      (relative error 9.8e-15 on the 3x3 Hilbert matrix) but fall behind
      LU at order 4 (3.6e-12 against 8.7e-14).
    * 4-5: :func:`_lockstep_lu_determinant`, a row-pivoted LU in numpy
      ufuncs that eliminates every matrix of the stack at once.  Its ufuncs
      release the interpreter lock, so it scales over threads, where
      LAPACK's ``getrf`` does not.  Per call on 8192 random matrices (one
      BLAS thread, 2-core host, medians of 7 rounds in two sweeps), alone
      and when two threads call at once: order 4, LAPACK 4.2-4.4 and
      12.4-12.9 ms, lockstep 3.0-3.3 and 5.0 ms; order 5, LAPACK 4.4-5.6
      and 13.3-15.0 ms, lockstep 3.2-4.1 and 6.0-6.7 ms.
    * 6 and up: LAPACK's row-pivoted LU (``numpy.linalg.det``).  Alone,
      the lockstep ties with it at orders 6-7 and is 15% slower at 8; it
      still leads at 6-7 with two threads.  The hot stacks are of order
      5 at most: the float subset sums of andreief.discrete (the
      Andreief quadrature left side) and Monte Carlo blocks, since the de
      Bruijn grid reads half-size minor tables instead of eliminating
      each point.  So the cutoff stays at 5.

    A pivot that underflows to zero gives 0.0 without a divide-by-zero
    warning.  A complex stack raises ValueError.
    """
    a = _as_float(stack)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"(P, n, n) stack required, got shape {a.shape}")
    n = a.shape[1]
    if n == 0:
        return np.ones(a.shape[0])
    if n == 1:
        return a[:, 0, 0].copy()
    if n == 2:
        return a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]
    if n == 3:
        return (
            a[:, 0, 0] * (a[:, 1, 1] * a[:, 2, 2] - a[:, 1, 2] * a[:, 2, 1])
            - a[:, 0, 1] * (a[:, 1, 0] * a[:, 2, 2] - a[:, 1, 2] * a[:, 2, 0])
            + a[:, 0, 2] * (a[:, 1, 0] * a[:, 2, 1] - a[:, 1, 1] * a[:, 2, 0])
        )
    if n <= _LOCKSTEP_MAX_ORDER:
        return _in_blocks(_lockstep_lu_determinant, a)
    with np.errstate(divide="ignore"):
        return np.linalg.det(a)


def _lockstep_lu_determinant(a: np.ndarray) -> np.ndarray:
    """Determinants of a (P, n, n) stack by row-pivoted LU, all P at once.

    Factors the transposes, det A = det A^T: ``rows[c][r]`` is the (P,)
    vector of entry (r, c) over the stack, so elimination row c is column
    c of every matrix and each step is a handful of ufuncs on contiguous
    (P,) vectors.  Two equal columns then stay bitwise equal until one
    becomes the pivot, and the other cancels to exactly 0, so a matrix
    with a repeated column -- a grid point that repeats a node, in a value
    stack [f_j(x_k)] -- gives exactly 0.0.  A stack whose matrix index is
    its contiguous axis, such as the (P, n, n) view ``g.transpose(2, 0, 1)``
    of a contiguous (n, n, P) array g, is read without a copy; any other
    is copied into that layout once.

    Each step takes the largest |entry| of the leading column as pivot (the
    first on ties, as LAPACK's ``idamax``) and divides by it, so every
    multiplier has magnitude <= 1 and a subnormal pivot stays finite.  An
    exactly zero column gives det 0.0 and its zeros are divided by 1, not
    by 0.  Non-finite entries give a non-finite value without a warning,
    as LAPACK's does.
    """
    count = a.shape[0]
    work = a.transpose(2, 1, 0)
    if work.strides[2] != work.itemsize:
        work = np.ascontiguousarray(work)
    rows = list(work)
    det = np.ones(count)
    odd = np.zeros(count, dtype=bool)  # parity of the row swaps
    with np.errstate(invalid="ignore"):
        while len(rows) > 1:
            best = np.abs(rows[0][0])
            head = rows[0]
            pivot_row = np.zeros(count, dtype=np.intp)
            for i in range(1, len(rows)):
                magnitude = np.abs(rows[i][0])
                larger = magnitude > best
                best = np.maximum(best, magnitude)
                head = np.where(larger, rows[i], head)
                pivot_row = np.where(larger, i, pivot_row)
            det *= head[0]
            odd ^= pivot_row != 0
            pivot = head[0] if best.all() else np.where(best == 0.0, 1.0, head[0])
            below = np.empty((len(rows) - 1, len(rows) - 1, count))
            for i, out in enumerate(below, start=1):
                # row i, or the old leading row where row i is the pivot
                row = np.where(pivot_row == i, rows[0], rows[i])
                np.multiply(row[0] / pivot, head[1:], out=out)
                np.subtract(row[1:], out, out=out)
            rows = list(below)
        det *= rows[0][0]
    return np.where(odd, -det, det)


def _in_blocks(eliminate, a: np.ndarray) -> np.ndarray:
    """eliminate on slices of at most _LOCKSTEP_BLOCK matrices of a, joined."""
    starts = range(0, max(len(a), 1), _LOCKSTEP_BLOCK)
    return np.concatenate([eliminate(a[s : s + _LOCKSTEP_BLOCK]) for s in starts])


def pfaffian_batch(stack) -> np.ndarray:
    """Pfaffians of a (P, n, n) stack of antisymmetric matrices.

    Closed-form expansions at orders 0, 2 and 4; from order 6 a lockstep
    Parlett-Reid elimination.  Entries are trusted to be antisymmetric (the
    engines build them from antisymmetric evaluators).  A complex stack
    raises ValueError.
    """
    a = _as_float(stack)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"(P, n, n) stack required, got shape {a.shape}")
    n = a.shape[1]
    if n % 2:
        raise ValueError("Pfaffian requires even order")
    if n == 0:
        return np.ones(a.shape[0])
    if n == 2:
        return a[:, 0, 1].copy()
    if n == 4:
        return (
            a[:, 0, 1] * a[:, 2, 3]
            - a[:, 0, 2] * a[:, 1, 3]
            + a[:, 0, 3] * a[:, 1, 2]
        )
    return _in_blocks(_lockstep_parlett_reid, a)


def _lockstep_parlett_reid(a: np.ndarray) -> np.ndarray:
    """Pfaffians of a (P, n, n) stack by skew-symmetric elimination
    (Parlett-Reid), all P at once on an entry-major copy: ``work[i, j]`` is
    the (P,) vector of entry (i, j).  Each matrix takes the first largest
    |entry| below the diagonal of column k as pivot and gets one matrix's
    operations in one matrix's order, so its value is that of a scalar
    elimination bit for bit.  A pivot at most PIVOT_FLOOR gives 0.0, and
    that matrix divides by 1, so no warning is raised."""
    count, n = a.shape[0], a.shape[1]
    work = a.transpose(1, 2, 0).copy()
    lanes = np.arange(count)
    value = np.ones(count)
    floored = np.zeros(count, dtype=bool)
    for k in range(0, n - 1, 2):
        block = work[k:, k:]
        # pivot row in block coordinates, and the swap that brings it to 1
        row = 1 + np.argmax(np.abs(block[1:, 0]), axis=0)
        order = np.arange(n - k)[:, None]
        order = np.where(order == 1, row, np.where(order == row, 1, order))
        block[...] = block[order[:, None], order[None, :], lanes]
        value = np.where(row != 1, -value, value)
        small = np.abs(block[1, 0]) <= PIVOT_FLOOR
        floored |= small
        value *= block[0, 1]
        # the rank-2 update of the trailing block (empty at the last step)
        tau = block[2:, 0] / np.where(small, 1.0, block[1, 0])
        col = block[2:, 1]  # not written: the update starts at column 2
        block[2:, 2:] += tau[:, None] * col[None, :]
        block[2:, 2:] -= col[:, None] * tau[None, :]
    return np.where(floored, 0.0, value)


class SkewMatrix:
    """Real antisymmetric matrix.

    Construction validates entries[j][k] == -entries[k][j] to within
    ``SKEW_TOLERANCE`` absolute and rejects anything worse; use
    :func:`skew_symmetrize` to build the antisymmetric part (A - A^T)/2 of a
    noisy matrix instead of silently repairing it here.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries):
        a = _as_square(entries).copy()
        if a.size and float(np.max(np.abs(a + a.T))) > SKEW_TOLERANCE:
            raise ValueError(
                f"entries are not antisymmetric within {SKEW_TOLERANCE:g} absolute"
            )
        a.setflags(write=False)
        self._entries = a

    @property
    def order(self) -> int:
        return self._entries.shape[0]

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    def __repr__(self) -> str:
        return f"SkewMatrix(order={self.order})"


def skew_symmetrize(m) -> SkewMatrix:
    """SkewMatrix built from the antisymmetric part (A - A^T)/2."""
    a = _as_square(m)
    return SkewMatrix((a - a.T) / 2.0)


def pfaffian(a) -> float:
    """Pfaffian of an even-order antisymmetric matrix: :func:`pfaffian_batch`
    on a one-matrix stack, so the two agree bit for bit.  The result
    satisfies pfaffian(a)**2 == determinant(a) up to roundoff, and the
    empty matrix has Pfaffian 1 (empty product).

    Accepts a :class:`SkewMatrix` or any array-like that passes its
    antisymmetry check.
    """
    m = a.entries if isinstance(a, SkewMatrix) else SkewMatrix(a).entries
    return float(pfaffian_batch(m[None])[0])


def permutation_signature(images: Sequence[int]) -> int:
    """Signature (+1/-1) from the parity of the inversion count."""
    inversions = 0
    n = len(images)
    for i in range(n):
        for j in range(i + 1, n):
            if images[i] > images[j]:
                inversions += 1
    return 1 if inversions % 2 == 0 else -1


def det_by_permutation_expansion(m):
    """Leibniz-sum determinant: sum over all n! permutations P of
    sign(P) * prod_j m[j, P(j)].

    Test oracle only: factorial cost, order capped at ``EXPANSION_LIMIT``.
    Integer input is evaluated in exact (arbitrary-precision) integer
    arithmetic.
    """
    a = np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"square matrix required, got shape {a.shape}")
    n = a.shape[0]
    if n > EXPANSION_LIMIT:
        raise ValueError(f"expansion oracle size limit: order {n} > {EXPANSION_LIMIT}")
    rows = a.tolist()
    total = 0
    for images in itertools.permutations(range(n)):
        term = permutation_signature(images)
        for j, image in enumerate(images):
            term = term * rows[j][image]
        total = total + term
    return total


def pfaffian_by_expansion(a):
    """Pfaffian by recursive expansion along the first row.

    Test oracle only: (order-1)!! terms, order capped at ``EXPANSION_LIMIT + 3``.
    Keeps the input dtype, so integer input is evaluated exactly.
    """
    arr = a.entries if isinstance(a, SkewMatrix) else np.asarray(a)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"square matrix required, got shape {arr.shape}")
    n = arr.shape[0]
    if n % 2:
        raise ValueError("Pfaffian requires even order")
    if n > EXPANSION_LIMIT + 3:
        raise ValueError(f"expansion oracle size limit: order {n} > {EXPANSION_LIMIT + 3}")
    return _expand_pfaffian(arr.tolist(), list(range(n)))


def _expand_pfaffian(rows: list, active: list[int]):
    """Pf of the nested lists rows on the indices active, by expansion."""
    if not active:
        return 1
    first = active[0]
    total = 0
    sign = 1
    for pos in range(1, len(active)):
        rest = active[1:pos] + active[pos + 1 :]
        total = total + sign * rows[first][active[pos]] * _expand_pfaffian(rows, rest)
        sign = -sign
    return total


def subsets(m: int, n: int) -> Iterator[tuple[int, ...]]:
    """All C(m, n) sorted n-element subsets of {1..m} in lexicographic order.

    n > m yields the empty sequence; n = 0 yields the single empty subset.
    """
    if m < 0 or n < 0:
        raise ValueError("subset sizes must be non-negative")
    return itertools.combinations(range(1, m + 1), n)
