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
(n,) value array.  Tensor-grid integrands (integrate_nd) map a (P, dim)
integer block of node indices into rule.nodes to a (P,) value array: every
grid point is a tuple of the rule's n nodes, so an integrand can read
values computed once per node (or node pair) from tables instead of
evaluating its functions at all n**dim points.  Monte Carlo integrands map
a (P, dim) block of sample points to a (P,) value array.  Scalar returns
are broadcast.

Every nd integrand must be row-wise: row i of its values depends on row i
of its input only.  The integrators call it on row slices of at most
_EVAL_ROWS rows, so the arrays it makes stay cache-sized, and a slice
gives the same values as the whole block would.

The multidimensional integrators cut their work into fixed blocks (grid
chunks, sample blocks) and evaluate up to one block per CPU at once on a
thread pool, so an integrand may run on several threads at once and must
not mutate shared state.  Samples are drawn on the calling thread from one
generator, in block order, and partial results are reduced in block order,
so a result does not depend on the number of CPUs, bit for bit.
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
]

DEFAULT_EVAL_BUDGET = 10**8
DEFAULT_NODES_1D = 40
DEFAULT_NODES_TENSOR = 12

# Grid points / samples handled per block.  Fixed, so the reduction order
# (and hence the float result) is the same on every run and every CPU count.
_GRID_CHUNK = 1 << 13
_MC_CHUNK = 1 << 17

# Most rows an nd integrand is called on at once; a grid chunk is one call.
_EVAL_ROWS = _GRID_CHUNK

# Blocks evaluated at once, and so the most blocks in memory at once: one
# per CPU this process may run on.
_WORKERS = (
    len(os.sched_getaffinity(0))
    if hasattr(os, "sched_getaffinity")
    else os.cpu_count() or 1
)


class BudgetError(ValueError):
    """Requested evaluation count exceeds the configured budget."""


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
    """Nodes, positive weights, and the weight the rule absorbs (if any)."""

    domain: Domain
    nodes: np.ndarray
    weights: np.ndarray
    embedded_weight: object = None

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
    return QuadratureRule(domain, nodes, weights, EMBEDDED_WEIGHTS[domain.kind])


def _check_finite(values: np.ndarray, where: np.ndarray) -> None:
    bad = ~np.isfinite(values)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(
            f"non-finite integrand value {values[i]} at node {np.asarray(where)[i]}"
        )


def integrate_1d(rule: QuadratureRule, f) -> float:
    """Weighted node sum of f over the rule.

    If the rule has an embedded weight, f must be the integrand divided by
    that weight.
    """
    values = np.asarray(f(rule.nodes), dtype=float)
    if values.ndim == 0:
        values = np.broadcast_to(values, rule.nodes.shape)
    if values.shape != rule.nodes.shape:
        raise ValueError(
            f"integrand returned shape {values.shape}, expected {rule.nodes.shape}"
        )
    _check_finite(values, rule.nodes)
    return float(np.dot(rule.weights, values))


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
    """f on a (P, dim) block as a checked, finite (P,) array; points()
    gives the block's (P, dim) coordinates, to name a non-finite value."""
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


def _grid_chunk_sum(rule: QuadratureRule, dim: int, f, start: int, stop: int) -> float:
    shape = (rule.n_nodes,) * dim
    # (P, dim) view of a (dim, P) array: index.T, one row per coordinate,
    # is contiguous for integrands that gather per coordinate
    index = np.stack(np.unravel_index(np.arange(start, stop), shape)).T
    values = _block_values(f, index, lambda: rule.nodes[index])
    wprod = np.ones(stop - start)
    for coordinate in index.T:
        wprod *= rule.weights[coordinate]
    return float(np.dot(wprod, values))


def integrate_nd(rule: QuadratureRule, dim: int, f) -> float:
    """Full tensor-product sum of f over the dim-fold grid of the rule.

    f receives (P, dim) integer blocks of node indices into rule.nodes, in
    row-major grid order (the last coordinate varies fastest): row i is the
    grid point rule.nodes[index[i]].  So f can gather values computed once
    per node instead of evaluating its functions at every point; a point
    integrand g becomes ``lambda index: g(rule.nodes[index])``.  A
    non-finite value is reported with its point's coordinates.  The same
    embedded-weight contract as integrate_1d applies to every coordinate.
    Grid chunks of _GRID_CHUNK points are evaluated on up to _WORKERS
    threads at once, so f may run concurrently and must not mutate shared
    state; their partial sums are reduced in chunk order, so the result is
    bit-reproducible for a given configuration on any number of CPUs.
    """
    if dim < 1:
        raise ValueError("dim must be positive")
    total_evals = rule.n_nodes**dim
    if total_evals > DEFAULT_EVAL_BUDGET:
        raise BudgetError(
            f"budget exceeded: grid requires {total_evals} evaluations, "
            f"allowed {DEFAULT_EVAL_BUDGET}"
        )
    partials = _run_blocks(
        lambda start: _grid_chunk_sum(
            rule, dim, f, start, min(start + _GRID_CHUNK, total_evals)
        ),
        range(0, total_evals, _GRID_CHUNK),
    )
    return float(sum(partials))


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
