"""Dense real linear algebra: determinants, Pfaffians, and the combinatorial
expansions used as brute-force cross-checks.

Everything operates on plain numpy arrays (or array-likes).  Determinants
come from LAPACK's row-pivoted LU (numpy.linalg.det), Pfaffians from
skew-symmetric Gaussian elimination; both convert to float64.  The
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
    """Determinant by LAPACK's row-pivoted LU factorization (``getrf``).

    Singular input is not an error: an exactly zero pivot gives 0.0.
    """
    return float(np.linalg.det(_as_square(m)))


def determinant_batch(stack) -> np.ndarray:
    """Determinants of a (P, n, n) stack of matrices.

    The same LAPACK factorization as :func:`determinant`, applied to every
    matrix of the stack; per-matrix results are bit-identical to the scalar
    routine.
    """
    a = np.asarray(stack, dtype=float)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"(P, n, n) stack required, got shape {a.shape}")
    return np.linalg.det(a)


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
