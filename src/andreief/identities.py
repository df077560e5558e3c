"""Engines for the determinant and Pfaffian integration identities.

Four computations share this module:

* the N-fold integral of det[f_j(x_k)] det[phi_j(x_k)] (by Gauss
  quadrature summed over node subsets, which is Cauchy-Binet on the node
  measure, and by Monte Carlo, whose integrand evaluates and eliminates
  each distinct reduced family once per sample and squares the
  determinant when the two families reduce alike), against N! times the
  determinant of the Gram matrix of pairwise integrals, F^T W Phi on the
  node tables;
* the 2n-fold integral of det[f_j(x_k)] Pf[h(x_j, x_k)] / (2n)! against the
  Pfaffian of the matrix of double integrals of f_j(x) h(x, y) f_k(y); the
  left side sums the tensor grid of a Gauss rule from tables built once
  per call: the kernel values h(x_a, x_b) per node pair, and the n x n
  minors of the family values f_j(x_k) per ordered n-tuple of nodes.  A
  grid point's determinant is a dot product of two table rows (Laplace
  expansion along its first n coordinates), and since integrate_nd hands
  the integrand consecutive runs of the grid on the calling thread, a
  run's determinants are one small product of the two tables and its
  Pfaffian stack is filled by broadcasting kernel-table rows into one
  buffer reused from run to run;
* the finite-interval covariance-style gap (b-a) int fg - int f int g and
  its double-integral form, which is non-negative for co-monotone pairs;
* the bundled pass/fail report combining the routes above.

Every engine integrates against the same measure by calling the one
reduction ensembles.weight_factorization, with the ensemble's two families
or the Pfaffian side's single family: it returns the member functions and
one per-point factor (a power of the embedded weight, or None); two
families that reduce alike share one member list.  The Gauss routes read
it through _node_measure: the rule's ensembles.NodeMeasure folds the
point factor into the weights W and tabulates each distinct member list
on the nodes, and discrete.discretized_andreief reads the same tables.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .discrete import cauchy_binet_lhs
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
    _GRID_CHUNK,
    DEFAULT_EVAL_BUDGET,
    DEFAULT_NODES_1D,
    DEFAULT_NODES_TENSOR,
    BudgetError,
    Domain,
    MCEstimate,
    _check_finite,
    gauss_rule,
    grid_size,
    integrate_1d,
    integrate_nd,
    monte_carlo_nd,
)

__all__ = [
    "DEFAULT_SEED",
    "DEFAULT_TOLERANCE",
    "MC_PASS_SLACK",
    "TENSOR_SIZE_LIMIT",
    "GramMatrix",
    "IdentityReport",
    "VerifyConfig",
    "andreief_lhs_mc",
    "andreief_lhs_quadrature",
    "andreief_rhs",
    "chebyshev_gap",
    "debruijn_lhs_quadrature",
    "debruijn_rhs",
    "gram_matrix",
    "verify_andreief",
]

DEFAULT_TOLERANCE = 1e-9
DEFAULT_SEED = 42

_LOG = logging.getLogger("andreief")

# Size gate on the Andreief quadrature left side; an explicit force flag
# overrides it.  It guards the verdict rather than a cost: past it, the
# max(1, |lhs|, |rhs|) verdict scale makes a pass on small values vacuous.
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
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.mc_samples < 0:
            raise ValueError("mc_samples must be non-negative (0 disables MC)")


@dataclass(frozen=True, eq=False)
class IdentityReport:
    """Both sides of an identity plus the agreement verdict.

    passed requires rel_gap <= tolerance for the quadrature route and, when
    a Monte Carlo estimate is present, |mean - rhs| within 3 standard errors
    (plus MC_PASS_SLACK absolute).
    """

    lhs_quadrature: float
    lhs_mc: MCEstimate | None
    rhs: float
    abs_gap: float
    rel_gap: float
    passed: bool
    metadata: dict


def mc_agrees(estimate: MCEstimate, reference: float) -> bool:
    """3-sigma agreement with a round-off floor for sigma = 0 cases."""
    slack = MC_PASS_SLACK * max(1.0, abs(reference))
    return abs(estimate.mean - reference) <= 3.0 * estimate.std_error + slack


# ---------------------------------------------------------------------------
# reduced integrands and node tables


def _value_stack(fns, columns: np.ndarray) -> np.ndarray:
    """(P, len(fns), N) stack with [p, j, k] = fns[j](columns[k, p]), from
    an (N, P) block of sample columns.

    Each member is evaluated on the whole block into one contiguous
    (len(fns), N, P) array, and the stack is a view of it whose entries
    [:, j, k] are contiguous (P,) vectors: determinant_batch reads them
    without a copy, in its cofactor formulas and its lockstep LU alike.
    """
    values = np.empty((len(fns),) + columns.shape)
    for row, fn in zip(values, fns):
        row[...] = fn(columns)
    return values.transpose(2, 0, 1)


def _pair_integrand(spec: EnsembleSpec) -> Callable:
    """The row-wise Monte Carlo integrand det[f_j(x_k)] det[phi_j(x_k)]
    times the point factor, on the families reduced by
    weight_factorization.  Each (P, N) row slice is transposed once into
    contiguous (N, P) columns, and each distinct member list is evaluated
    and eliminated once: when both families reduce to one list, the
    integrand is its determinant squared, bit for bit the product of two
    equal determinants."""
    (left_fns, right_fns), point_factor = weight_factorization(
        (spec.left, spec.right), spec.domain
    )

    def integrand(points: np.ndarray) -> np.ndarray:
        columns = np.ascontiguousarray(points.T)
        left = determinant_batch(_value_stack(left_fns, columns))
        if right_fns is left_fns:
            values = left * left
        else:
            values = left * determinant_batch(_value_stack(right_fns, columns))
        if point_factor is not None:
            values = values * np.prod(np.asarray(point_factor(columns), dtype=float), axis=0)
        return values

    return integrand


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
    families, from NodeMeasure.tables on the rule.  Every Gauss-rule route
    reads its weights and family values from here."""
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


def andreief_lhs_quadrature(
    spec: EnsembleSpec,
    n_nodes: int = DEFAULT_NODES_TENSOR,
    *,
    force: bool = False,
) -> float:
    """N-fold tensor Gauss quadrature of det[f_j(x_k)] det[phi_j(x_k)],
    summed over node subsets.

    On the rule's nodes x_k and weights w_k the n_nodes**N grid sum is
    Cauchy-Binet: a grid point that repeats a node gives both determinants
    two equal columns and contributes 0, and the N! orderings of one node
    subset K contribute equally.  So the sum is
    N! * sum_K det((W F)_K) * det(Phi_K) over the C(n_nodes, N) subsets,
    with F[k, j] = f_j(x_k), Phi[k, j] = phi_j(x_k) and
    W = diag(w_k * point_factor(x_k)).  Fewer nodes than N leave no subset
    and the exact value 0.0.  DEFAULT_EVAL_BUDGET bounds the subset count.

    Cauchy-Binet also equals det(F^T W Phi), but that is the Gram route of
    andreief_rhs on another rule: summing the minors keeps this side
    independent of the right side.
    """
    n = spec.size
    count = math.comb(n_nodes, n)
    if n > TENSOR_SIZE_LIMIT:
        if not force:
            raise BudgetError(
                f"N = {n}, where the max(1, |lhs|, |rhs|) verdict scale passes "
                f"small values vacuously, exceeds the default size gate "
                f"({TENSOR_SIZE_LIMIT}); no CLI option lifts it (a library "
                "caller can use andreief_lhs_mc or pass force=True)"
            )
        _LOG.info("evaluation count: %d", count)
    if count > DEFAULT_EVAL_BUDGET:
        raise BudgetError(
            f"budget exceeded: {count} node subsets, allowed {DEFAULT_EVAL_BUDGET}; "
            "consider andreief_lhs_mc"
        )
    _, weights, (left, right) = _node_measure(
        (spec.left, spec.right), spec.domain, n_nodes
    )
    if count == 0:
        return 0.0
    return _factorial(n) * cauchy_binet_lhs(weights[:, None] * left, right)


def andreief_lhs_mc(spec: EnsembleSpec, samples: int, seed: int) -> MCEstimate:
    """Monte Carlo estimate of the same N-fold integral."""
    integrand = _pair_integrand(spec)
    return monte_carlo_nd(spec.domain, spec.size, integrand, samples, seed)


# ---------------------------------------------------------------------------
# Pfaffian identity


def _check_debruijn_size(two_n: int, family_size: int) -> None:
    if two_n % 2:
        raise ValueError(f"size must be even, got {two_n}")
    if two_n != family_size:
        raise ValueError(
            f"size {two_n} does not match family size {family_size}"
        )


def debruijn_rhs(
    left: FunctionFamily,
    kernel: KernelFunction,
    domain: Domain,
    n_nodes: int,
    two_n: int,
) -> float:
    """Pf of the matrix of double integrals int int f_j(x) h(x,y) f_k(y).

    On the node measure B = (W F)^T H (W F), with H[a, b] = h(x_a, x_b): a
    full 2-D tensor-quadrature value per entry.  B is antisymmetrized to
    (B - B^T)/2 before the Pfaffian; the pre-existing asymmetry (quadrature
    reduction order only) is checked against 1e-12.
    """
    _check_debruijn_size(two_n, left.size)
    rule, weights, (values,) = _node_measure((left,), domain, n_nodes)
    weighted = np.ascontiguousarray(values.T) * weights
    b = weighted @ _kernel_table(kernel.antisymmetrized(), rule.nodes) @ weighted.T
    asymmetry = float(np.max(np.abs(b + b.T))) if b.size else 0.0
    if asymmetry > 1e-12 * max(1.0, float(np.max(np.abs(b)))):
        raise ValueError(
            f"kernel integral matrix asymmetry {asymmetry:g} exceeds 1e-12"
        )
    return pfaffian(skew_symmetrize(b))


def _half_minor_tables(values: np.ndarray, half: int):
    """(minors, cofactors) tables of the half-size minors of a (2n, N)
    family table values[j, k] = f_j(x_k), with n = half.

    Row u of either table is one ordered n-tuple of nodes, numbered in
    row-major order over (N,) * n, and column s is the s-th row subset S
    of size n in itertools.combinations order.  minors[u, s] =
    det[f_j(x_{u_k})]_{j in S, k < n}, and cofactors[u, s] =
    eps_S * minors[u, S'] with S' the complement of S and
    eps_S = (-1)^(sum S + n(n-1)/2) (0-based).  Laplace expansion along
    the first n columns then gives, for a grid point t = (u, v),

        det[f_j(x_{t_k})] = sum_s minors[u, s] * cofactors[v, s].

    One determinant_batch call per subset, on an (N**n, n, n) stack, so the
    temporaries stay at one stack.  Both tables are read-only.
    """
    two_n, n_nodes = values.shape
    tuples = np.stack(np.unravel_index(np.arange(n_nodes**half), (n_nodes,) * half))
    row_sets = list(itertools.combinations(range(two_n), half))
    minors = np.empty((tuples.shape[1], len(row_sets)))
    for s, rows in enumerate(row_sets):
        stack = np.take(values[list(rows)], tuples, axis=1)  # (n, n, N**n)
        minors[:, s] = determinant_batch(stack.transpose(2, 0, 1))
    # complementing reverses lexicographic order, so S' is column C - 1 - s
    signs = [(-1.0) ** (sum(rows) + half * (half - 1) // 2) for rows in row_sets]
    cofactors = minors[:, ::-1] * np.array(signs)
    minors.setflags(write=False)
    cofactors.setflags(write=False)
    return minors, cofactors


def _debruijn_runs(minors, cofactors, table: np.ndarray, half: int) -> Callable:
    """The de Bruijn grid integrand det * Pf on consecutive runs of the
    row-major grid, read from the half-minor tables and the (N, N) kernel
    table.

    A grid point t = (u, v) has flat number u * H + v, with H = N**n the
    count of half tuples, so a run is a stretch of rows u of an (H, H)
    array.  The rows are taken G at a time, G = max(1, _GRID_CHUNK // H),
    in fixed groups: a group's determinants are one product
    minors[group] @ cofactors^T (Laplace expansion of each point's own
    matrix), and its strict-upper kernel entries are written into one
    (2n, 2n, G * H) buffer per call, pairs within one half from per-call
    tables and cross pairs from a gather of kernel-table rows.  The lower
    triangle (0 - h, so a repeated node's +0.0 stays +0.0) and the
    Pfaffians are taken on the run's part of the group only.  A group is
    kept while consecutive runs read it.  Every point's value comes from
    its own group whatever run asks for it, so any split of the grid into
    runs gives the same values, bit for bit.

    The buffer makes the integrand stateful: integrate_nd calls it once per
    tile, in grid order, on the calling thread.  A block that is not a
    consecutive run raises ValueError; a run of any length is accepted.
    """
    n_nodes = table.shape[0]
    two_n, rows = 2 * half, minors.shape[0]
    group = max(1, _GRID_CHUNK // rows)
    tuples = np.unravel_index(np.arange(rows), (n_nodes,) * half)
    within = {
        pair: table[tuples[pair[0]], tuples[pair[1]]]
        for pair in itertools.combinations(range(half), 2)
    }
    pairs = list(itertools.combinations(range(two_n), 2))
    kernels = np.zeros((two_n, two_n, group * rows))  # the diagonal stays 0
    dets = np.empty(group * rows)
    held = None  # first row of the group in the buffers

    def fill(start: int) -> None:
        nonlocal held
        stop = min(start + group, rows)
        shape = (stop - start, rows)
        size = shape[0] * rows
        np.matmul(minors[start:stop], cofactors.T, out=dets[:size].reshape(shape))
        for j, k in pairs:
            out = kernels[j, k, :size].reshape(shape)
            if k < half:
                out[...] = within[j, k][start:stop, None]
            elif j >= half:
                out[...] = within[j - half, k - half]
            else:
                # h(x_{u_j}, x_{v_c}): row u_j of the table, read at digit c of v
                c = k - half
                grid = out.reshape(shape[0], n_nodes**c, n_nodes, -1)
                grid[...] = table[tuples[j][start:stop]][:, None, :, None]
        held = start

    def integrand(index: np.ndarray) -> np.ndarray:
        count = index.shape[0]
        first, last = np.ravel_multi_index(index[[0, -1]].T, (n_nodes,) * two_n)
        if last - first != count - 1:
            raise ValueError(
                f"de Bruijn integrand needs a consecutive run of grid points: "
                f"{count} rows span flat numbers {first} to {last}"
            )
        values = np.empty(count)
        at, end = int(first), int(first) + count
        while at < end:
            start = at // rows // group * group
            if held != start:
                fill(start)
            stop = min(end, (start + group) * rows)
            part = slice(at - start * rows, stop - start * rows)
            for j, k in pairs:
                np.subtract(0.0, kernels[j, k, part], out=kernels[k, j, part])
            values[at - first : stop - first] = dets[part] * pfaffian_batch(
                kernels[:, :, part].transpose(2, 0, 1)
            )
            at = stop
        return values

    return integrand


def debruijn_lhs_quadrature(
    left: FunctionFamily,
    kernel: KernelFunction,
    domain: Domain,
    n_nodes: int,
    two_n: int,
) -> float:
    """Tensor quadrature of det[f_j(x_k)] Pf[h(x_j, x_k)] over 2n variables,
    divided by (2n)!, within integrate_nd's DEFAULT_EVAL_BUDGET on the
    n_nodes**(2n) grid points.

    Every grid point is a tuple of the rule's nodes, so the family values
    F[k, j] = f_j(x_k) and the kernel values H[a, b] = h(x_a, x_b) are
    computed, and checked finite, once per node and node pair.  The
    determinant comes from half-tuple minor tables (_half_minor_tables):
    a grid point t = (u, v), u its first n coordinates and v its last n,
    has det = sum_S eps_S D_S(u) D_S'(v) over the C(2n, n) row subsets S.
    integrate_nd hands the integrand (_debruijn_runs) consecutive runs of
    the grid, so a run's determinants are slices of small products of the
    two tables, and its Pfaffian stack is filled from the kernel table by
    broadcasting, with no per-point gather or elimination.

    The grid budget is checked before the minor tables are built.  A grid
    point that repeats a node has two equal columns and det 0, so fewer
    nodes than 2n give the exact value 0.0, as fewer nodes than N do for
    andreief_lhs_quadrature.  Otherwise the budget puts 2n <= 8 and
    N**n <= 10**4, so either table has at most 10**4 * C(8, 4) entries.
    """
    _check_debruijn_size(two_n, left.size)
    rule, _, (values,) = _node_measure((left,), domain, n_nodes)
    table = _kernel_table(kernel.antisymmetrized(), rule.nodes)
    grid_size(n_nodes, two_n)
    if n_nodes < two_n:
        return 0.0
    half = two_n // 2
    minors, cofactors = _half_minor_tables(np.ascontiguousarray(values.T), half)
    integrand = _debruijn_runs(minors, cofactors, table, half)
    return integrate_nd(rule, two_n, integrand) / _factorial(two_n)


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
    co-monotone, and flip sign together when one is reversed.
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


def verify_andreief(
    spec: EnsembleSpec, config: VerifyConfig | None = None
) -> IdentityReport:
    """Evaluate both sides of the determinant identity and report agreement.

    Quadrature LHS is always computed; Monte Carlo runs when
    config.mc_samples > 0.  Disagreement shows up as passed=False with the
    gaps in the report, never as a silent adjustment.
    """
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
    abs_gap = abs(lhs - rhs)
    rel = relative_gap(lhs, rhs)
    passed = rel <= cfg.tolerance
    estimate = None
    if cfg.mc_samples > 0:
        estimate = andreief_lhs_mc(spec, cfg.mc_samples, cfg.seed)
        passed = passed and mc_agrees(estimate, rhs)
    metadata = {
        "ensemble": spec.name,
        "size": spec.size,
        "domain": str(spec.domain),
        "n_nodes_1d": cfg.n_nodes_1d,
        "n_nodes_tensor": DEFAULT_NODES_TENSOR,
        "mc_samples": cfg.mc_samples,
        "seed": cfg.seed,
        "tolerance": cfg.tolerance,
    }
    return IdentityReport(
        lhs_quadrature=lhs,
        lhs_mc=estimate,
        rhs=rhs,
        abs_gap=abs_gap,
        rel_gap=rel,
        passed=passed,
        metadata=metadata,
    )
