"""Engines for the determinant and Pfaffian integration identities.

Four computations share this module:

* the N-fold integral of det[f_j(x_k)] det[phi_j(x_k)] (by Gauss
  quadrature summed over node subsets, which is Cauchy-Binet on the node
  measure, and by Monte Carlo; both run one determinant product, which
  eliminates each distinct reduced family once per point and squares the
  determinant when the two families reduce alike, the Gauss side on
  values gathered from tables built once per node and Monte Carlo on
  values at its samples), against N! times the determinant of the Gram
  matrix of pairwise integrals, F^T W Phi on the node tables;
* the 2n-fold integral of det[f_j(x_k)] Pf[h(x_j, x_k)] / (2n)! against the
  Pfaffian of the matrix of double integrals of f_j(x) h(x, y) f_k(y); the
  left side is the minor-summation form of a Gauss rule's tensor grid
  sum, integrate_nd's sum over node subsets, with each subset's matrices
  gathered from tables built once per call: the family values f_j(x_k)
  per node and the kernel values h(x_a, x_b) per node pair;
* the finite-interval covariance-style gap (b-a) int fg - int f int g and
  its double-integral form, which is non-negative for co-monotone pairs.

check is the one place a gap between two sides becomes a verdict: every
report check, verify_andreief's among them, is a Check it built.

Every engine integrates against the same measure by calling the one
reduction ensembles.weight_factorization, with the ensemble's two families
or the Pfaffian side's single family: it returns the member functions and
one per-point factor (a power of the embedded weight, or None); two
families that reduce alike share one member list.  Both Andreief left
sides read it directly (_andreief_integrand): the Gauss side tabulates
each distinct member list and the point factor on the rule's nodes
(_node_tables) and keeps the rule's weights, so its products are those
of the Monte Carlo integrand at the nodes, bit for bit.  The other Gauss
routes read it through _node_measure: the rule's ensembles.NodeMeasure
folds the point factor into the weights W and tabulates each distinct
member list on the nodes, and discrete.discretized_andreief reads the
same tables.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .discrete import _pf_det_terms
from .ensembles import (
    EnsembleSpec,
    FunctionFamily,
    KernelFunction,
    NodeMeasure,
    _form,
    _node_matrix,
    weight_factorization,
)
from .linalg import (
    determinant,
    determinant_batch,
    pfaffian,
    pfaffian_batch,
    relative_gap,
    skew_symmetrize,
)
from .quadrature import (
    DEFAULT_NODES_1D,
    DEFAULT_NODES_TENSOR,
    BudgetError,
    Domain,
    MCEstimate,
    _check_finite,
    _check_subset_budget,
    gauss_rule,
    integrate_1d,
    integrate_nd,
    monte_carlo_nd,
)

__all__ = [
    "DEFAULT_SEED",
    "DEFAULT_TOLERANCE",
    "MC_PASS_SLACK",
    "TENSOR_SIZE_LIMIT",
    "Check",
    "GramMatrix",
    "VerifyConfig",
    "andreief_lhs_mc",
    "andreief_lhs_quadrature",
    "andreief_rhs",
    "chebyshev_gap",
    "check",
    "debruijn_lhs_quadrature",
    "debruijn_rhs",
    "gram_matrix",
    "verify_andreief",
]

DEFAULT_TOLERANCE = 1e-9
DEFAULT_SEED = 42

_LOG = logging.getLogger("andreief")

# Largest N that verify_andreief gives a verdict on.  It guards the verdict
# rather than a cost: past it, the max(1, |lhs|, |rhs|) verdict scale makes
# a pass on small values vacuous.  The left sides themselves take any N.
TENSOR_SIZE_LIMIT = 6

# Absolute slack added to the 3-sigma Monte Carlo pass rule so that
# zero-variance estimates tolerate quadrature round-off on the other side.
MC_PASS_SLACK = 1e-12


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Matrix of pairwise integrals int f_j(x) phi_k(x) dx."""

    order: int
    entries: np.ndarray
    rule_descriptor: str

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float).copy()
        if entries.shape != (self.order, self.order):
            raise ValueError(
                f"expected ({self.order}, {self.order}) entries, got {entries.shape}"
            )
        if not np.all(np.isfinite(entries)):
            raise ValueError("Gram entries must be finite")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)


@dataclass(frozen=True)
class VerifyConfig:
    """Knobs for verify_andreief; defaults match the CLI defaults."""

    n_nodes_1d: int = DEFAULT_NODES_1D
    mc_samples: int = 0
    seed: int = DEFAULT_SEED
    tolerance: float = DEFAULT_TOLERANCE

    def __post_init__(self):
        if not 0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be positive and finite")
        if self.mc_samples < 0:
            raise ValueError("mc_samples must be non-negative (0 disables MC)")
        if self.mc_samples == 1:
            raise ValueError(
                "mc_samples must be 0 (off) or at least 2: one sample has no standard error"
            )


@dataclass(frozen=True)
class Check:
    """One verified equality; sigma is the MC standard error when the
    left side is a Monte Carlo mean, else None."""

    name: str
    lhs: float
    rhs: float
    abs_gap: float
    rel_gap: float
    sigma: float | None
    passed: bool


def check(name, lhs, rhs, tolerance, *, scale=None, sigma=None, exact=False) -> Check:
    """The verdict on lhs = rhs.  rel_gap is |lhs - rhs| / scale, the scale
    defaulting to relative_gap's max(1, |lhs|, |rhs|); at scale 0 it is 0
    for equal sides and inf otherwise.  passed is lhs == rhs when exact,
    |lhs - rhs| within 3 sigma plus MC_PASS_SLACK * max(1, |rhs|) when sigma
    is given (a round-off floor for sigma = 0), else rel_gap <= tolerance.
    """
    abs_gap = abs(lhs - rhs)
    if scale is None:
        rel = relative_gap(lhs, rhs)
    else:
        rel = abs_gap / scale if scale else (0.0 if abs_gap == 0 else math.inf)
    if exact:
        passed = lhs == rhs
    elif sigma is not None:
        passed = abs_gap <= 3.0 * sigma + MC_PASS_SLACK * max(1.0, abs(rhs))
    else:
        passed = rel <= tolerance
    return Check(name, lhs, rhs, abs_gap, rel, sigma, bool(passed))


# ---------------------------------------------------------------------------
# reduced integrands and node tables


def _member_values(fns, columns: np.ndarray) -> np.ndarray:
    """(len(fns), N, P) array with [j, k, p] = fns[j](columns[k, p]), each
    member evaluated on the whole (N, P) block of sample columns."""
    values = np.empty((len(fns),) + columns.shape)
    for row, fn in zip(values, fns):
        row[...] = fn(columns)
    return values


def _node_tables(nodes: np.ndarray) -> Callable:
    """The tabulate argument of _andreief_integrand for a node subset sum: each
    list fns is evaluated once on the nodes by _node_matrix, which names a
    bad value's node, into a contiguous (len(fns), n_nodes) table, and an
    (N, P) block of node indices gathers its (len(fns), N, P) values."""

    def tabulate(fns):
        table = np.ascontiguousarray(_node_matrix(fns, nodes).T)
        return lambda columns: table.take(columns, axis=1)

    return tabulate


def _andreief_integrand(spec: EnsembleSpec, tabulate: Callable) -> Callable:
    """The integrand of both Andreief left sides, det[f_j(x_k)]
    det[phi_j(x_k)] times prod_k of the point factor, on the families
    reduced by weight_factorization, as a function of an (N, P) block of
    columns.  tabulate(fns) gives the map from a block to the
    (len(fns), N, P) values of the list fns: Monte Carlo evaluates the
    members at its samples (_pair_integrand), and the Gauss left side
    gathers them from _node_tables.  Either way a value stack is the
    (P, len(fns), N) view whose entries [:, j, k] are contiguous (P,)
    vectors, which determinant_batch reads without a copy.

    Each distinct member list is eliminated once: when both families reduce
    to one list, the integrand is its determinant squared, bit for bit the
    product of two equal determinants.  The point factor is tabulated like a
    member and multiplied in after the determinants, so both left sides take
    the same products in the same order."""
    (left_fns, right_fns), point_factor = weight_factorization(
        (spec.left, spec.right), spec.domain
    )
    left = tabulate(left_fns)
    right = None if right_fns is left_fns else tabulate(right_fns)
    factor = None if point_factor is None else tabulate([point_factor])

    def integrand(columns: np.ndarray) -> np.ndarray:
        dets = determinant_batch(left(columns).transpose(2, 0, 1))
        if right is None:
            values = dets * dets
        else:
            values = dets * determinant_batch(right(columns).transpose(2, 0, 1))
        if factor is not None:
            values = values * np.prod(factor(columns)[0], axis=0)
        return values

    return integrand


def _pair_integrand(spec: EnsembleSpec) -> Callable:
    """The row-wise Monte Carlo integrand: _andreief_integrand with every
    member evaluated at the samples, each (P, N) row slice transposed once
    into contiguous (N, P) columns."""
    integrand = _andreief_integrand(spec, lambda fns: functools.partial(_member_values, fns))
    return lambda points: integrand(np.ascontiguousarray(points.T))


def _kernel_table(h, nodes: np.ndarray) -> np.ndarray:
    """(n_nodes, n_nodes) table with [a, b] = h(nodes[a], nodes[b]); a
    scalar value is broadcast, and the table is checked finite, naming the
    first bad node pair."""
    x, y = np.meshgrid(nodes, nodes, indexing="ij")
    table = np.broadcast_to(np.asarray(h(x, y), dtype=float), x.shape)
    if not np.isfinite(table).all():
        _check_finite(table.ravel(), np.stack([x.ravel(), y.ravel()], axis=1))
    return table


def _node_measure(families, domain: Domain, n_nodes: int):
    """(rule, weights, tables) of the Gauss node measure for one or two
    families, from NodeMeasure.tables on the rule.  The Gram matrix, both
    de Bruijn sides and biortho's residuals read their weights and family
    values from here.  Andreief's Gauss left side tabulates the same
    members (_node_tables) but keeps the point factor out of W, which would
    change the order of its products and so the last bits of its sum."""
    rule = gauss_rule(domain, n_nodes)
    weights, tables = NodeMeasure(rule.nodes, rule.weights, domain).tables(families)
    return rule, weights, tables


# ---------------------------------------------------------------------------
# determinant identity


def gram_matrix(spec: EnsembleSpec, n_nodes: int = DEFAULT_NODES_1D) -> GramMatrix:
    """Pairwise-integral matrix of the ensemble on the 1-D Gauss node
    measure: F^T W Phi from the node tables of _node_measure."""
    families = (spec.left, spec.right)
    _, weights, (left, right) = _node_measure(families, spec.domain, n_nodes)
    descriptor = f"gauss({spec.domain}, n={n_nodes})"
    entries = left.T @ (weights[:, None] * right)
    return GramMatrix(order=spec.size, entries=entries, rule_descriptor=descriptor)


def _factorial(n: int) -> float:
    if n <= 20:
        return float(math.factorial(n))
    return math.exp(math.lgamma(n + 1.0))


def andreief_rhs(g: GramMatrix) -> float:
    """N! times the determinant of the Gram matrix."""
    n = g.order
    det = determinant(g.entries)
    if n <= 20:
        return _factorial(n) * det
    if det == 0.0:
        return 0.0
    return math.copysign(
        math.exp(math.lgamma(n + 1.0) + math.log(abs(det))), det
    )


def andreief_lhs_quadrature(spec: EnsembleSpec, n_nodes: int = DEFAULT_NODES_TENSOR) -> float:
    """N-fold tensor Gauss quadrature of det[f_j(x_k)] det[phi_j(x_k)]:
    integrate_nd's sum of the Monte Carlo integrand's determinant product
    over the C(n_nodes, N) node subsets, as it is symmetric in its points
    and zero where two coincide.  Each reduced member list and the point
    factor are evaluated once per node (_node_tables, which names a
    non-finite value's node), and every block gathers its stacks from
    those tables; the products are the Monte Carlo integrand's at the
    nodes, bit for bit.  On the node measure that is Cauchy-Binet,
    N! * sum_K det((W F)_K) * det(Phi_K).  DEFAULT_EVAL_BUDGET bounds the
    subset count, checked before the rule is built; fewer nodes than N give
    the exact value 0.0.

    Cauchy-Binet also equals det(F^T W Phi), but that is the Gram route of
    andreief_rhs on another rule: summing the minors keeps this side
    independent of the right side.
    """
    _check_subset_budget(n_nodes, spec.size, "nodes")
    rule = gauss_rule(spec.domain, n_nodes)
    integrand = _andreief_integrand(spec, _node_tables(rule.nodes))
    return integrate_nd(rule, spec.size, lambda index: integrand(index.T))


def andreief_lhs_mc(spec: EnsembleSpec, samples: int, seed: int) -> MCEstimate:
    """Monte Carlo estimate of the same N-fold integral."""
    return monte_carlo_nd(spec.domain, spec.size, _pair_integrand(spec), samples, seed)


# ---------------------------------------------------------------------------
# Pfaffian identity


def _check_even(family: FunctionFamily) -> None:
    if family.size % 2:
        raise ValueError(f"size must be even, got {family.size}")


def debruijn_rhs(
    left: FunctionFamily, kernel: KernelFunction, domain: Domain, n_nodes: int
) -> float:
    """Pf of the matrix of double integrals int int f_j(x) h(x,y) f_k(y).

    On the node measure B = (W F)^T H (W F), with H[a, b] = h(x_a, x_b): a
    full 2-D tensor-quadrature value per entry.  B is antisymmetrized to
    (B - B^T)/2 before the Pfaffian; the pre-existing asymmetry (quadrature
    reduction order only) is checked against 1e-12 * max(1, max|B|).  That
    bound is a precondition guard, not a verdict, so it does not go through
    check: past it the call raises, and the CLI exits 2 without a report.
    """
    _check_even(left)
    rule, weights, (values,) = _node_measure((left,), domain, n_nodes)
    weighted = np.ascontiguousarray(values.T) * weights
    b = weighted @ _kernel_table(kernel.antisymmetrized(), rule.nodes) @ weighted.T
    asymmetry = float(np.max(np.abs(b + b.T))) if b.size else 0.0
    if asymmetry > 1e-12 * max(1.0, float(np.max(np.abs(b)))):
        raise ValueError(
            f"kernel integral matrix asymmetry {asymmetry:g} exceeds 1e-12"
        )
    return pfaffian(skew_symmetrize(b))


def debruijn_lhs_quadrature(
    left: FunctionFamily, kernel: KernelFunction, domain: Domain, n_nodes: int
) -> float:
    """Tensor quadrature of det[f_j(x_k)] Pf[h(x_j, x_k)] over the 2n =
    left.size variables, divided by (2n)!.

    The integrand is symmetric in its points (a swap flips the sign of the
    determinant and of the Pfaffian) and zero where two coincide (the
    determinant has two equal columns), so integrate_nd sums it over the
    C(n_nodes, 2n) node subsets, within DEFAULT_EVAL_BUDGET: the
    minor-summation form of the n_nodes**(2n) grid sum.  Fewer nodes than
    2n leave no subset and the exact value 0.0.  The family values
    F[k, j] = f_j(x_k) and the kernel values H[a, b] = h(x_a, x_b) are
    computed, and checked finite, once per node and node pair; a block's
    (2n, 2n) matrices are gathered from them, and eliminated, by
    discrete._pf_det_terms, the terms of minor_summation_lhs's float sum.
    """
    _check_even(left)
    rule, _, (values,) = _node_measure((left,), domain, n_nodes)
    table = _kernel_table(kernel.antisymmetrized(), rule.nodes)
    family = np.ascontiguousarray(values.T)

    def integrand(index: np.ndarray) -> np.ndarray:
        return _pf_det_terms(table, family, index, pfaffian_batch, determinant_batch)

    return integrate_nd(rule, left.size, integrand) / _factorial(left.size)


# ---------------------------------------------------------------------------
# covariance-gap identity


def chebyshev_gap(
    f: Callable,
    g: Callable,
    domain: Domain,
    n_nodes: int = DEFAULT_NODES_1D,
) -> tuple[float, float]:
    """Both forms of the finite-interval covariance gap.

    Returns ((b-a) int fg - int f int g, (1/2) int int (f(x)-f(y))(g(x)-g(y))).
    The two agree identically; both are non-negative when f and g are
    co-monotone, and flip sign together when one is reversed.  The double
    form's integrand is symmetric in x and y and zero at x = y, so
    integrate_nd sums it over the node pairs x < y.
    """
    if domain.kind != "finite":
        raise ValueError("covariance gap requires a finite domain")
    rule = gauss_rule(domain, n_nodes)
    # f and g once on the nodes, for the three 1-D sums and the double form
    fx, gx = np.ascontiguousarray(_node_matrix((f, g), rule.nodes).T)
    int_fg = integrate_1d(rule, lambda x: fx * gx)
    int_f = integrate_1d(rule, lambda x: fx)
    int_g = integrate_1d(rule, lambda x: gx)
    gap = (domain.b - domain.a) * int_fg - int_f * int_g

    def spread(index: np.ndarray) -> np.ndarray:
        x, y = index[:, 0], index[:, 1]
        return (fx[x] - fx[y]) * (gx[x] - gx[y])

    double_form = 0.5 * integrate_nd(rule, 2, spread)
    return gap, double_form


# ---------------------------------------------------------------------------
# bundled verification


def _non_integer_powers(spec: EnsembleSpec) -> list:
    """The non-integer powers p of x in the members of either family, when
    the domain reaches x = 0, where x**p is not smooth."""
    if spec.domain.kind == "real_line" or (
        spec.domain.kind == "finite" and spec.domain.a > 0
    ):
        return []
    powers = (p for f in (spec.left, spec.right) for p in _form(f)[0])
    return sorted({p for p in powers if p is not None and not float(p).is_integer()})


def verify_andreief(spec: EnsembleSpec, config: VerifyConfig | None = None) -> list:
    """Evaluate both sides of the determinant identity and return the
    checks: andreief-quadrature, then andreief-mc when config.mc_samples > 0.

    Disagreement shows up as passed=False with the gaps in the check, never
    as a silent adjustment.  N above TENSOR_SIZE_LIMIT raises BudgetError
    before either side is computed.
    """
    if spec.size > TENSOR_SIZE_LIMIT:
        raise BudgetError(
            f"N = {spec.size}, where the max(1, |lhs|, |rhs|) verdict scale passes "
            f"small values vacuously, exceeds the default size gate "
            f"({TENSOR_SIZE_LIMIT}); no CLI option lifts it (a library caller can "
            "compute andreief_lhs_quadrature, andreief_lhs_mc and andreief_rhs itself)"
        )
    cfg = config if config is not None else VerifyConfig()
    powers = _non_integer_powers(spec)
    if powers:
        _LOG.warning(
            "%s has non-integer powers of x (%s) at the edge x = 0 of %s: the "
            "Gauss rules then converge only algebraically, and the %d-node "
            "tensor side and the %d-node Gram side may disagree",
            spec.name, ", ".join(f"x**{p:g}" for p in powers), spec.domain,
            DEFAULT_NODES_TENSOR, cfg.n_nodes_1d,
        )
    rhs = andreief_rhs(gram_matrix(spec, cfg.n_nodes_1d))
    lhs = andreief_lhs_quadrature(spec, DEFAULT_NODES_TENSOR)
    checks = [check("andreief-quadrature", lhs, rhs, cfg.tolerance)]
    if cfg.mc_samples > 0:
        estimate = andreief_lhs_mc(spec, cfg.mc_samples, cfg.seed)
        checks.append(check("andreief-mc", estimate.mean, rhs, cfg.tolerance,
                            sigma=estimate.std_error))
    return checks
