"""Gaussian quadrature on finite, semi-infinite, and doubly infinite
domains, plus tensor-product and Monte Carlo multidimensional integration.

Infinite domains are never truncated.  The rules there carry an embedded
weight (e^{-x} on the half line, e^{-x^2} on the real line) and the
integrand handed to them must already be divided by that weight.  Monte
Carlo sampling on infinite domains draws from the matching density, so both
integrators estimate the same weighted integral under one contract.

Node/weight construction is the Golub-Welsch route: the symmetric
tridiagonal eigenproblem of the monic three-term recurrence.

Vectorized callable contract: 1-D integrands map an (n,) node array to an
(n,) value array.  Tensor-grid integrands (integrate_nd) are symmetric in
their dim points and zero wherever two coincide, so the grid sum is a sum
over node subsets; they map a (P, dim) integer block of sorted, distinct
node indices into rule.nodes to a (P,) value array, and can read values
computed once per node (or node pair) from tables.  Monte Carlo
integrands map a (P, dim) block of sample points to a (P,) value array.
Scalar returns are broadcast.

Every sum over node subsets or point tuples, here and in andreief.discrete,
checks DEFAULT_EVAL_BUDGET (_check_budget) before any term is computed and
runs in blocks of at most _EVAL_ROWS rows, as Monte Carlo integrands do, so
the arrays made per block stay cache-sized.  One enumerator, subsets,
unranks each block of sorted index subsets in numpy; integrate_nd and the
float subset and tuple sums of andreief.discrete walk it.  Monte Carlo
integrands must be row-wise: row i of their values depends on row i of
their input only, so a slice gives the same values as the whole block
would.

integrate_nd sums its subset blocks in order on the calling thread.  Only
monte_carlo_nd uses the thread pool: it evaluates up to one sample block
per CPU at once, so a Monte Carlo integrand may run on several threads at
once and must not mutate shared state.  Samples are drawn on the calling
thread from one generator, in block order, and partial results are
reduced in block order.  So neither result depends on the number of CPUs,
bit for bit.
"""

from __future__ import annotations

import functools
import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_EVAL_BUDGET",
    "DEFAULT_NODES_1D",
    "DEFAULT_NODES_TENSOR",
    "BudgetError",
    "Domain",
    "MCEstimate",
    "QuadratureRule",
    "gauss_rule",
    "integrate_1d",
    "integrate_nd",
    "monte_carlo_nd",
    "subsets",
]

DEFAULT_EVAL_BUDGET = 10**8
DEFAULT_NODES_1D = 40
DEFAULT_NODES_TENSOR = 12

# Most samples in a Monte Carlo block.  Fixed, so the reduction order (and
# hence the float result) is the same on every run and every CPU count.
_MC_CHUNK = 1 << 17

# Most rows handled at once: node subsets of integrate_nd, Monte Carlo
# samples, and the subsets or tuples andreief.discrete gathers into one
# det/Pf stack or tabulates exactly.  The arrays made stay cache-sized.
_EVAL_ROWS = 1 << 13

# Monte Carlo blocks evaluated at once, and so the most blocks in memory
# at once: one per CPU this process may run on.
_WORKERS = (
    len(os.sched_getaffinity(0))
    if hasattr(os, "sched_getaffinity")
    else os.cpu_count() or 1
)


class BudgetError(ValueError):
    """Requested evaluation count exceeds the configured budget."""


def _check_budget(count: int, what: str) -> None:
    """BudgetError naming count and what it counts when it exceeds
    DEFAULT_EVAL_BUDGET, before any of it is computed."""
    if count > DEFAULT_EVAL_BUDGET:
        raise BudgetError(f"budget exceeded: {count} {what}, allowed {DEFAULT_EVAL_BUDGET}")


def _check_subset_budget(m: int, n: int, what: str) -> None:
    """The budget check of the C(m, n) subsets of a subset sum."""
    _check_budget(math.comb(m, n), f"{n}-subsets of the {m} {what}")


@dataclass(frozen=True)
class Domain:
    """Integration domain: finite(a, b), half_line (x > 0), or real_line."""

    kind: str
    a: float | None = None
    b: float | None = None

    _KINDS = ("finite", "half_line", "real_line")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if self.kind == "finite":
            if self.a is None or self.b is None:
                raise ValueError("finite domain requires both endpoints")
            if not (math.isfinite(self.a) and math.isfinite(self.b)):
                raise ValueError("finite domain endpoints must be finite")
            if not self.a < self.b:
                raise ValueError(f"finite domain requires a < b, got [{self.a}, {self.b}]")
        elif self.a is not None or self.b is not None:
            raise ValueError(f"{self.kind} domain takes no endpoints")

    @classmethod
    def finite(cls, a: float, b: float) -> "Domain":
        return cls("finite", float(a), float(b))

    @classmethod
    def half_line(cls) -> "Domain":
        return cls("half_line")

    @classmethod
    def real_line(cls) -> "Domain":
        return cls("real_line")

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    def contains(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "finite":
            return (x >= self.a) & (x <= self.b)
        if self.kind == "half_line":
            return x > 0
        return np.ones_like(x, dtype=bool)

    def __str__(self) -> str:
        if self.kind == "finite":
            return f"finite({self.a:g}, {self.b:g})"
        return self.kind


def _exp_weight(x):
    return np.exp(-np.asarray(x, dtype=float))


def _gauss_weight(x):
    x = np.asarray(x, dtype=float)
    return np.exp(-x * x)


# Weight absorbed by the Gauss rule on each unbounded domain kind.
EMBEDDED_WEIGHTS = {
    "finite": None,
    "half_line": _exp_weight,
    "real_line": _gauss_weight,
}


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes and positive weights of a rule on a domain."""

    domain: Domain
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise ValueError("nodes and weights must be 1-D arrays of equal length")
        if nodes.size == 0:
            raise ValueError("rule requires at least one node")
        if not np.all(weights > 0):
            raise ValueError("all weights must be positive")
        if not np.all(np.diff(nodes) > 0):
            raise ValueError("nodes must be strictly increasing")
        if not np.all(self.domain.contains(nodes)):
            raise ValueError(f"nodes must lie in domain {self.domain}")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def n_nodes(self) -> int:
        return self.nodes.size


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo mean with its standard error."""

    mean: float
    std_error: float
    samples: int

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be positive")
        if not self.std_error >= 0:
            raise ValueError("std_error must be non-negative")


def _recurrence(kind: str, n: int):
    """Monic three-term recurrence (diag, offdiag^2, zeroth moment).

    x p_k = p_{k+1} + a_k p_k + b_k p_{k-1}; returns a_0..a_{n-1},
    b_1..b_{n-1}, and mu0 = integral of the weight.
    """
    k = np.arange(n, dtype=float)
    if kind == "finite":  # Legendre on [-1, 1]
        diag = np.zeros(n)
        bk = k[1:] ** 2 / (4.0 * k[1:] ** 2 - 1.0)
        mu0 = 2.0
    elif kind == "half_line":  # Laguerre, weight e^{-x}
        diag = 2.0 * k + 1.0
        bk = k[1:] ** 2
        mu0 = 1.0
    else:  # Hermite, weight e^{-x^2}
        diag = np.zeros(n)
        bk = k[1:] / 2.0
        mu0 = math.sqrt(math.pi)
    return diag, bk, mu0


@functools.lru_cache(maxsize=128, typed=True)
def gauss_rule(domain: Domain, n_nodes: int) -> QuadratureRule:
    """Gauss rule with n_nodes points on the given domain.

    Gauss-Legendre on finite domains (affinely mapped from [-1, 1]),
    Gauss-Laguerre on the half line, Gauss-Hermite on the real line.
    Exact for polynomial integrands of degree <= 2 n_nodes - 1 against
    the domain's weight.  Memoized on (domain, n_nodes): a rule is frozen
    with read-only arrays, so callers share it.
    """
    if n_nodes < 1:
        raise ValueError("n_nodes must be at least 1")
    diag, bk, mu0 = _recurrence(domain.kind, n_nodes)
    if n_nodes == 1:
        nodes = diag.copy()
        weights = np.array([mu0])
    else:
        jacobi = np.diag(diag) + np.diag(np.sqrt(bk), 1) + np.diag(np.sqrt(bk), -1)
        eigvals, eigvecs = np.linalg.eigh(jacobi)
        nodes = eigvals
        weights = mu0 * eigvecs[0, :] ** 2
    if domain.kind == "finite":
        half = 0.5 * (domain.b - domain.a)
        nodes = domain.a + half * (nodes + 1.0)
        weights = half * weights
    elif domain.kind == "half_line":
        # eigh can return a slightly negative smallest node for large n
        nodes = np.maximum(nodes, np.finfo(float).tiny)
    return QuadratureRule(domain, nodes, weights)


def _check_finite(values: np.ndarray, where: np.ndarray) -> None:
    bad = ~np.isfinite(values)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(
            f"non-finite integrand value {values[i]} at node {np.asarray(where)[i]}"
        )


def integrate_1d(rule: QuadratureRule, f) -> float:
    """Weighted node sum of f over the rule.

    On an infinite domain the rule embeds the domain's weight
    (EMBEDDED_WEIGHTS), and f must be the integrand divided by it.
    """
    return float(np.dot(rule.weights, _block_values(f, rule.nodes, lambda: rule.nodes)))


def _run_blocks(task, blocks) -> list:
    """[task(block) for block in blocks], with up to _WORKERS tasks at once.

    The next block is taken from the iterable, on the calling thread, only
    once fewer than _WORKERS tasks are in flight, so at most _WORKERS blocks
    are in memory.  Results are read in block order: the first failing
    block raises, as in a serial run (a later block's error is dropped),
    and leaving the pool waits for every task already submitted, so no
    thread outlives the call.
    """
    results = []
    with ThreadPoolExecutor(max_workers=_WORKERS) as pool:
        pending = deque()
        for block in blocks:
            pending.append(pool.submit(task, block))
            if len(pending) == _WORKERS:
                results.append(pending.popleft().result())
        results.extend(future.result() for future in pending)
    return results


def _block_values(f, block: np.ndarray, points) -> np.ndarray:
    """f on a block of P rows (nodes, or (P, dim) points) as a checked,
    finite (P,) array; points() gives their coordinates, to name a bad value."""
    count = block.shape[0]
    values = np.asarray(f(block), dtype=float)
    if values.ndim == 0:
        values = np.broadcast_to(values, (count,))
    if values.shape != (count,):
        raise ValueError(
            f"integrand returned shape {values.shape}, expected ({count},)"
        )
    if not np.isfinite(values).all():
        _check_finite(values, points())
    return values


def subsets(m: int, n: int):
    """The C(m, n) sorted n-subsets of range(m) in lexicographic order, as
    consecutive (P, n) intp blocks of at most _EVAL_ROWS rows: n = 0 gives
    one empty row, n > m no block, and a negative size raises ValueError.

    Each block is unranked, not enumerated: the lex rank r of a subset A is
    the colex rank C(m, n) - 1 - r of its reflection m - 1 - A, and the
    colex rank of c_1 < ... < c_n is sum_i C(c_i, i) (the combinatorial
    number system), so its largest element c_n is the last c with
    C(c, n) <= rank: one searchsorted per position, from the first element
    of A on.  A block is the transpose of a contiguous (n, P) array, so
    each of its columns is a contiguous (P,) vector."""
    count = math.comb(m, n)
    # C(c, i) for c < m, capped at count (no rank reaches it) to fit an intp
    binomials = [
        np.array([min(math.comb(c, i), count) for c in range(m)], dtype=np.intp)
        for i in range(n, 0, -1)
    ]

    def block(start: int) -> np.ndarray:
        # a function, so its rank and search temporaries are freed before
        # the caller evaluates the block
        size = min(_EVAL_ROWS, count - start)
        rank = np.arange(count - 1 - start, count - 1 - start - size, -1, dtype=np.intp)
        index = np.empty((n, size), dtype=np.intp)
        for column, binomial in zip(index, binomials):
            c = binomial.searchsorted(rank, side="right") - 1
            rank -= binomial[c]
            np.subtract(m - 1, c, out=column)
        return index.T

    return map(block, range(0, count, _EVAL_ROWS))


def integrate_nd(rule: QuadratureRule, dim: int, f) -> float:
    """Grid sum of a symmetric, diagonal-zero integrand, taken over node
    subsets.

    f must be symmetric in its dim points and zero wherever two coincide;
    for any other f the value is not the dim-fold tensor-product sum.  For
    such an f the points that repeat a node add nothing, and the dim!
    orderings of one node subset add alike, so the grid sum is dim! times
    the sum of prod(w) * f over the C(n_nodes, dim) sorted node subsets,
    and only those are evaluated: with fewer nodes than dim, none, and the
    value is 0.0.  DEFAULT_EVAL_BUDGET bounds the subset count, checked
    before f is first called.  The same embedded-weight contract as
    integrate_1d applies to every coordinate.

    f receives (P, dim) blocks of node indices into rule.nodes: rows of
    strictly increasing indices, in lexicographic order, at most _EVAL_ROWS
    per block, on the calling thread.  The blocks are unranked in numpy
    (subsets), and their columns are contiguous.  So f can gather
    values computed once per node instead of evaluating its functions at
    every point; a point integrand g becomes
    ``lambda index: g(rule.nodes[index])``.  Each row's weight product is
    w[i_0] * w[i_1] * ..., left to right, one column at a time.  A
    non-finite value is reported with its point's coordinates.
    """
    if dim < 1:
        raise ValueError("dim must be positive")
    _check_subset_budget(rule.n_nodes, dim, "nodes")
    total = 0.0
    for index in subsets(rule.n_nodes, dim):
        values = _block_values(f, index, lambda: rule.nodes[index])
        columns = iter(index.T)
        weights = rule.weights[next(columns)]
        for column in columns:
            weights *= rule.weights[column]
        total += float(np.dot(weights, values))
    return math.factorial(dim) * total


def _sample_block(rng, domain: Domain, shape):
    if domain.kind == "finite":
        return rng.uniform(domain.a, domain.b, size=shape)
    if domain.kind == "half_line":
        return rng.standard_exponential(size=shape)
    if domain.kind == "real_line":
        points = rng.standard_normal(size=shape)
        points /= math.sqrt(2.0)
        return points
    raise ValueError(f"no sampler for domain kind {domain.kind!r}")


def _mc_factor(domain: Domain, dim: int) -> float:
    # Ratio of the target measure to the sampling density, constant per kind:
    # uniform on [a,b]^dim, Exp(1)^dim against e^{-x}, N(0,1/2)^dim against
    # e^{-x^2} (density e^{-x^2}/sqrt(pi) per coordinate).
    if domain.kind == "finite":
        return (domain.b - domain.a) ** dim
    if domain.kind == "half_line":
        return 1.0
    return math.pi ** (dim / 2.0)


def _block_moments(f, points: np.ndarray) -> tuple[float, float, int]:
    """Mean, centred sum of squares and size of f on one sample block.

    f runs on slices of _EVAL_ROWS rows; the moments are taken over the
    whole block."""
    slices = (
        points[start : start + _EVAL_ROWS]
        for start in range(0, points.shape[0], _EVAL_ROWS)
    )
    values = np.concatenate(
        [_block_values(f, rows, lambda rows=rows: rows) for rows in slices]
    )
    mean = float(np.mean(values))
    return mean, float(np.sum((values - mean) ** 2)), values.size


def monte_carlo_nd(domain: Domain, dim: int, f, samples: int, seed: int) -> MCEstimate:
    """Monte Carlo estimate of the dim-fold integral of f over the domain.

    On infinite domains the estimate is of the weighted integral (the same
    quantity gauss_rule targets), and f must be the integrand divided by the
    embedded weight.  Deterministic for a given seed: blocks of _MC_CHUNK
    samples are drawn in order from one generator on the calling thread,
    evaluated on up to _WORKERS threads at once (so f may run concurrently
    and must not mutate shared state), and merged in block order.  f must
    be row-wise: it is called on row slices of at most _EVAL_ROWS samples
    of a block, in draw order, and its values are the same on any slice.
    """
    if dim < 1:
        raise ValueError("dim must be positive")
    if samples < 1:
        raise ValueError("samples must be positive")
    factor = _mc_factor(domain, dim)
    rng = np.random.default_rng(seed)
    blocks = (
        _sample_block(rng, domain, (min(_MC_CHUNK, samples - start), dim))
        for start in range(0, samples, _MC_CHUNK)
    )
    # Block means and centred sums of squares are merged by the pairwise
    # update of Chan, Golub and LeVeque; a raw sum of squares minus
    # n*mean^2 cancels catastrophically when |mean| >> spread.
    count = 0
    mean = 0.0
    centred_sq = 0.0
    for block_mean, block_sq, block in _run_blocks(
        lambda points: _block_moments(f, points), blocks
    ):
        delta = block_mean - mean
        merged = count + block
        mean += delta * (block / merged)
        centred_sq += block_sq + delta * delta * (count * block / merged)
        count = merged
    spread = math.sqrt(centred_sq / (samples - 1)) if samples > 1 else 0.0
    return MCEstimate(
        mean=factor * mean,
        std_error=factor * spread / math.sqrt(samples),
        samples=samples,
    )
