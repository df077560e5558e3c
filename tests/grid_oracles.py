"""Tensor-grid oracles for the tests.  An integrand receives (P, dim)
blocks of node indices into rule.nodes, as integrate_nd's do, but the
oracles sum every point of the grid, repeated nodes and every ordering
included, and ask no symmetry of it.

Each oracle looks its points up, ``rule.nodes[index]``, and evaluates the
families and the kernel at every grid point, so it checks the package's
routes against values that were not read from per-node tables, nor summed
over node subsets.

pfaffian_by_elimination is the one-matrix Parlett-Reid elimination that
the lockstep pfaffian_batch must reproduce bit for bit.

cauchy_binet_lhs_by_subsets and minor_summation_lhs_by_subsets are the
exact discrete left sides one row subset at a time, a fresh Bareiss
determinant and Pfaffian expansion per subset, that the minor and
Pfaffian tables of andreief.discrete must equal.

evaluate_by_kind and closed_form_members are the member formulas written
out kind by kind, as the package had them before every kind became one
form x**p_j * exp(-q x^2 + l_j x): the raw members, and the members
divided by the domain's embedded weight where a closed form exists (None
where it does not, which is the absorption table).

integrate_nd_by_chunks is the full grid sum in fixed chunks of flat grid
numbers, each chunk's index rebuilt with np.unravel_index and its weights
multiplied coordinate by coordinate; andreief_lhs_permutation_oracle and
debruijn_lhs_point_grid sum through it.
"""

import itertools
import math

import numpy as np

from andreief.discrete import _exact_array, _exact_det, _exact_division
from andreief.ensembles import weight_factorization
from andreief.identities import _value_stack
from andreief.linalg import PIVOT_FLOOR, _expand_pfaffian, determinant_batch, pfaffian_batch
from andreief.quadrature import gauss_rule, integrate_1d


def integrate_nd_by_chunks(rule, dim, f, chunk=1 << 13, absolute=False):
    """The dim-fold grid sum of f in chunks of `chunk` flat grid numbers;
    with absolute=True the sum of |w * f| instead, a scale for rounding."""
    total_points = rule.n_nodes**dim
    total = 0.0
    for start in range(0, total_points, chunk):
        flat = np.arange(start, min(start + chunk, total_points))
        index = np.stack(np.unravel_index(flat, (rule.n_nodes,) * dim)).T
        values = np.asarray(f(index), dtype=float)
        weights = np.ones(flat.size)
        for coordinate in index.T:
            weights *= rule.weights[coordinate]
        if absolute:
            total += float(np.sum(np.abs(weights * values)))
        else:
            total += float(np.dot(weights, values))
    return total


def point_integrand(rule, g):
    """The index integrand of a point integrand g for the rule's grid."""
    return lambda index: g(rule.nodes[index])


def andreief_lhs_permutation_oracle(spec, n_nodes=12):
    """N! times the grid integral of prod_j f_{j-1}(x_j) * det[phi_{j-1}(x_k)].

    The intermediate form obtained by expanding the left determinant over
    permutations and relabelling; must equal andreief_lhs_quadrature.
    """
    n = spec.size
    rule = gauss_rule(spec.domain, n_nodes)
    (left_fns, right_fns), point_factor = weight_factorization(
        (spec.left, spec.right), spec.domain
    )

    def integrand(points):
        prod = np.ones(points.shape[0])
        for j in range(n):
            prod *= np.asarray(left_fns[j](points[:, j]), dtype=float)
        values = prod * determinant_batch(_value_stack(right_fns, points.T))
        if point_factor is not None:
            values = values * np.prod(np.asarray(point_factor(points), dtype=float), axis=1)
        return values

    return math.factorial(n) * integrate_nd_by_chunks(rule, n, point_integrand(rule, integrand))


def debruijn_lhs_point_grid(left, kernel, domain, n_nodes, two_n, absolute=False):
    """The de Bruijn left side with the family and the kernel evaluated at
    every grid point: the tensor sum of det[f_j(x_k)] Pf[h(x_j, x_k)],
    divided by (2n)!.  absolute=True sums |det Pf| instead, the scale of
    the sum's rounding error.  absolute="terms" sums |det| * haf|h|, with
    the hafnian the sum of the Pfaffian's terms in absolute value: the
    scale where the kernel's rank makes every Pfaffian 0 (the rank-2
    difference kernel from 2n = 4), so that each |Pf| is rounding too."""
    rule = gauss_rule(domain, n_nodes)
    (fns,), _ = weight_factorization((left,), domain)
    h = kernel.antisymmetrized()

    def integrand(points):
        kernels = np.asarray(h(points[:, :, None], points[:, None, :]), dtype=float)
        dets = determinant_batch(_value_stack(fns, points.T))
        if absolute == "terms":
            return np.abs(dets) * hafnian_batch(np.abs(kernels))
        return dets * pfaffian_batch(kernels)

    grid = point_integrand(rule, integrand)
    raw = integrate_nd_by_chunks(rule, two_n, grid, absolute=bool(absolute))
    return raw / math.factorial(two_n)


def hafnian_batch(stack):
    """Hafnians of a (P, m, m) stack, m even, by expansion along the first
    row: the sum over perfect matchings of the products of matched entries."""
    m = stack.shape[1]
    if m == 0:
        return np.ones(stack.shape[0])
    total = np.zeros(stack.shape[0])
    for j in range(1, m):
        rest = [k for k in range(1, m) if k != j]
        total += stack[:, 0, j] * hafnian_batch(stack[:, rest][:, :, rest])
    return total


def pfaffian_by_elimination(m):
    """Pfaffian of one even-order antisymmetric float matrix by Parlett-Reid
    elimination with symmetric row+column pivoting, one matrix at a time:
    the first largest |entry| of column k below row k is the pivot, each
    swap flips the sign, and a pivot at or below PIVOT_FLOOR gives 0.0."""
    n = m.shape[0]
    if n == 0:
        return 1.0
    work = np.array(m, dtype=float)
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


def gram_matrix_per_entry(spec, n_nodes, absolute=False):
    """The Gram matrix entry by entry: one integrate_1d call per pair
    (j, k) on the product f_j(x) phi_k(x) point_factor(x), each member
    evaluated anew at every call.  absolute=True integrates |product|
    instead, the scale of the entry's rounding error."""
    rule = gauss_rule(spec.domain, n_nodes)
    (left_fns, right_fns), point_factor = weight_factorization(
        (spec.left, spec.right), spec.domain
    )
    reduce = np.abs if absolute else (lambda v: v)
    n = spec.size
    entries = np.empty((n, n))
    for j in range(n):
        for k in range(n):
            lf, rf = left_fns[j], right_fns[k]
            if point_factor is None:
                f = lambda x, lf=lf, rf=rf: reduce(lf(x) * rf(x))
            else:
                f = lambda x, lf=lf, rf=rf: reduce(lf(x) * rf(x) * point_factor(x))
            entries[j, k] = integrate_1d(rule, f)
    return entries


def cauchy_binet_lhs_by_subsets(x, y):
    """Exact sum over the row subsets K of det(X_K) * det(Y_K), with a
    Bareiss elimination of both blocks per subset: int input gives an
    int, Fraction input a Fraction."""
    xa, ya = np.asarray(x), np.asarray(y)
    div = _exact_division(xa, ya)
    xr, yr = _exact_array(xa, div).tolist(), _exact_array(ya, div).tolist()
    total = 0
    for rows in itertools.combinations(range(xa.shape[0]), xa.shape[1]):
        total += _exact_det([xr[i] for i in rows], div) * _exact_det([yr[i] for i in rows], div)
    return total


def minor_summation_lhs_by_subsets(a, t):
    """Exact sum over the column subsets J of Pf(A_J) * det(T_J), with a
    Pfaffian expansion and a Bareiss elimination per subset."""
    aa, ta = np.asarray(a), np.asarray(t)
    div = _exact_division(aa, ta)
    n = ta.shape[0]
    if n == 0:
        return 1
    ar, tr = aa.tolist(), _exact_array(ta, div).tolist()
    total = 0
    for cols in itertools.combinations(range(aa.shape[0]), n):
        pf = _expand_pfaffian(ar, list(cols))
        total += pf * _exact_det([[tr[i][j] for j in cols] for i in range(n)], div)
    return total


def evaluate_by_kind(family, j, x):
    """Member j of the family at x, by a switch over the kinds."""
    arr = np.asarray(x, dtype=float)
    kind = family.kind
    if kind in ("stretched_monomial", "laguerre_meijer") and np.any(arr <= 0):
        raise ValueError(f"x must be positive for {kind} families")
    if kind == "monomial":
        val = arr**j
    elif kind == "weighted_monomial":
        if family.weight.kind == "gaussian":
            weight = np.exp(-arr * arr)
        elif family.weight.c == 0.0:
            weight = np.exp(-arr)
        else:
            weight = arr**family.weight.c * np.exp(-arr)
        val = arr**j * weight
    elif kind == "stretched_monomial":
        val = arr ** (family.theta * j)
    elif kind == "shifted_gaussian":
        val = np.exp(-arr * arr + 2.0 * family.shifts[j] * arr)
    else:  # laguerre_meijer
        val = arr ** (family.nu + j) * np.exp(-arr)
    return family.scale_of(j) * val


def closed_form_members(family, domain):
    """The members f_j / omega in closed form when the family's decay
    matches the domain's embedded weight omega, else None."""
    kind, s = family.kind, family.scale_of
    gaussian = kind == "weighted_monomial" and family.weight.kind == "gaussian"
    laguerre = kind == "weighted_monomial" and family.weight.kind == "laguerre"
    size = range(family.size)
    if domain.kind == "half_line":
        if laguerre:
            c = family.weight.c
            return [lambda x, j=j: s(j) * np.asarray(x, float) ** (c + j) for j in size]
        if kind == "laguerre_meijer":
            return [lambda x, j=j: s(j) * np.asarray(x, float) ** (family.nu + j) for j in size]
        if gaussian:
            return [
                lambda x, j=j: s(j) * np.asarray(x, float) ** j
                * np.exp(-np.asarray(x, float) ** 2 + np.asarray(x, float))
                for j in size
            ]
        if kind == "shifted_gaussian":
            return [
                lambda x, j=j, a=family.shifts[j]: s(j)
                * np.exp(-np.asarray(x, float) ** 2 + (2.0 * a + 1.0) * np.asarray(x, float))
                for j in size
            ]
    if domain.kind == "real_line":
        if gaussian:
            return [lambda x, j=j: s(j) * np.asarray(x, float) ** j for j in size]
        if kind == "shifted_gaussian":
            return [
                lambda x, j=j, a=family.shifts[j]: s(j) * np.exp(2.0 * a * np.asarray(x, float))
                for j in size
            ]
    return None
