"""Dense real linear algebra: determinants, Pfaffians, and the combinatorial
expansions used as brute-force cross-checks.

Everything operates on plain numpy arrays (or array-likes).  Determinants
come in three order ranges: cofactor expansions at orders <= 3, a
row-pivoted LU run on a whole stack in lockstep at orders 4 and 5, and
LAPACK's row-pivoted LU (numpy.linalg.det) from order 6.  Pfaffians come
from skew-symmetric Gaussian elimination; all convert to float64.  The
expansion oracles keep the input dtype so that integer inputs are
evaluated in exact integer arithmetic.

The package-wide relative-tolerance convention lives here:
|a - b| <= tol * max(1, |a|, |b|).
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

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

# Matrices eliminated at once by the lockstep LU.  Its temporaries scale
# with this count (about 0.7 MB at order 4) and one call runs per pool
# thread, so it bounds their peak memory: eliminating a whole 8192-point
# grid chunk at once put the tensor benchmark's peak RSS at 45.2-46.1 MB,
# two blocks of 4096 at 43.5-44.0 MB (LAPACK at these orders: 44.9-45.7 MB).
_LOCKSTEP_BLOCK = 4096


def relative_gap(a: float, b: float) -> float:
    """Scaled gap |a - b| / max(1, |a|, |b|)."""
    return abs(a - b) / max(1.0, abs(a), abs(b))


def within_tolerance(a: float, b: float, tol: float) -> bool:
    """True when a and b agree per the package tolerance convention."""
    return relative_gap(a, b) <= tol


def _as_square(m, dtype=float) -> np.ndarray:
    a = np.asarray(m, dtype=dtype)
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
      still leads at 6-7 with two threads.  No stack of order 6 or more is
      on a hot path, so the cutoff stays at 5.

    A pivot that underflows to zero gives 0.0 without a divide-by-zero
    warning.
    """
    a = np.asarray(stack, dtype=float)
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
        if a.shape[0] <= _LOCKSTEP_BLOCK:
            return _lockstep_lu_determinant(a)
        return np.concatenate([
            _lockstep_lu_determinant(a[start : start + _LOCKSTEP_BLOCK])
            for start in range(0, a.shape[0], _LOCKSTEP_BLOCK)
        ])
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


def pfaffian_batch(stack) -> np.ndarray:
    """Pfaffians of a (P, n, n) stack of antisymmetric matrices.

    Orders 2 and 4 use the closed-form expansions; larger even orders fall
    back to the scalar routine per matrix.  Entries are trusted to be
    antisymmetric (the engines build them from antisymmetric evaluators).
    """
    a = np.asarray(stack, dtype=float)
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
    return np.array([pfaffian(m) for m in a])


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

    def principal_submatrix(self, rows: Iterable[int]) -> np.ndarray:
        """Restriction to the given 0-based rows and the same columns."""
        idx = np.fromiter(rows, dtype=int)
        return self._entries[np.ix_(idx, idx)]

    def __repr__(self) -> str:
        return f"SkewMatrix(order={self.order})"


def skew_symmetrize(m) -> SkewMatrix:
    """SkewMatrix built from the antisymmetric part (A - A^T)/2."""
    a = _as_square(m)
    return SkewMatrix((a - a.T) / 2.0)


def pfaffian(a) -> float:
    """Pfaffian of an even-order antisymmetric matrix.

    Skew-symmetric Gaussian elimination (Parlett-Reid) with symmetric
    row+column pivoting; every symmetric swap flips the tracked sign.  The
    result satisfies pfaffian(a)**2 == determinant(a) up to roundoff.  A
    pivot column that is numerically zero yields 0.0.  The empty matrix has
    Pfaffian 1 (empty product).

    Accepts a :class:`SkewMatrix` or any array-like that passes its
    antisymmetry check.
    """
    m = a.entries if isinstance(a, SkewMatrix) else SkewMatrix(a).entries
    n = m.shape[0]
    if n % 2:
        raise ValueError("Pfaffian requires even order")
    if n == 0:
        return 1.0
    work = m.copy()
    value = 1.0
    for k in range(0, n - 1, 2):
        p = k + 1 + int(np.argmax(np.abs(work[k + 1 :, k])))
        if abs(work[p, k]) <= PIVOT_FLOOR:
            return 0.0
        if p != k + 1:
            work[[k + 1, p], :] = work[[p, k + 1], :]
            work[:, [k + 1, p]] = work[:, [p, k + 1]]
            value = -value
        value *= work[k, k + 1]
        if k + 2 < n:
            tau = work[k + 2 :, k] / work[k + 1, k]
            col = work[k + 2 :, k + 1].copy()
            work[k + 2 :, k + 2 :] += np.outer(tau, col)
            work[k + 2 :, k + 2 :] -= np.outer(col, tau)
    return value


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
    if isinstance(a, SkewMatrix):
        arr = a.entries
    else:
        arr = np.asarray(a)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"square matrix required, got shape {arr.shape}")
    n = arr.shape[0]
    if n % 2:
        raise ValueError("Pfaffian requires even order")
    if n > EXPANSION_LIMIT + 3:
        raise ValueError(f"expansion oracle size limit: order {n} > {EXPANSION_LIMIT + 3}")
    rows = arr.tolist()

    def expand(active: list[int]):
        if not active:
            return 1
        first = active[0]
        total = 0
        sign = 1
        for pos in range(1, len(active)):
            rest = active[1:pos] + active[pos + 1 :]
            total = total + sign * rows[first][active[pos]] * expand(rest)
            sign = -sign
        return total

    return expand(list(range(n)))


def subsets(m: int, n: int) -> Iterator[tuple[int, ...]]:
    """All C(m, n) sorted n-element subsets of {1..m} in lexicographic order.

    n > m yields the empty sequence; n = 0 yields the single empty subset.
    """
    if m < 0 or n < 0:
        raise ValueError("subset sizes must be non-negative")
    return itertools.combinations(range(1, m + 1), n)
