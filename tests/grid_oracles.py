"""Tensor-grid oracles for the tests, written against integrate_nd's index
contract: an integrand receives (P, dim) blocks of node indices into
rule.nodes.

Each oracle looks its points up, ``rule.nodes[index]``, and evaluates the
families and the kernel at every grid point, so it checks the package's
routes against values that were not read from per-node tables.

pfaffian_by_elimination is the one-matrix Parlett-Reid elimination that
the lockstep pfaffian_batch must reproduce bit for bit.
"""

import math

import numpy as np

from andreief.ensembles import weight_factorization
from andreief.identities import _value_stack
from andreief.linalg import PIVOT_FLOOR, determinant_batch, pfaffian_batch
from andreief.quadrature import gauss_rule, integrate_1d, integrate_nd


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
        values = prod * determinant_batch(_value_stack(right_fns, points))
        if point_factor is not None:
            values = values * np.prod(np.asarray(point_factor(points), dtype=float), axis=1)
        return values

    return math.factorial(n) * integrate_nd(rule, n, point_integrand(rule, integrand))


def debruijn_lhs_point_grid(left, kernel, domain, n_nodes, two_n):
    """The de Bruijn left side with the family and the kernel evaluated at
    every grid point: the tensor sum of det[f_j(x_k)] Pf[h(x_j, x_k)],
    divided by (2n)!."""
    rule = gauss_rule(domain, n_nodes)
    (fns,), _ = weight_factorization((left,), domain)
    h = kernel.antisymmetrized()

    def integrand(points):
        kernels = np.asarray(h(points[:, :, None], points[:, None, :]), dtype=float)
        return determinant_batch(_value_stack(fns, points)) * pfaffian_batch(kernels)

    raw = integrate_nd(rule, two_n, point_integrand(rule, integrand))
    return raw / math.factorial(two_n)


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
