"""Function families, antisymmetric kernels, and built-in ensemble pairs.

An ensemble pair is two same-size families {f_j}, {phi_j} on a common
domain; the identity engines integrate products of their determinants.
This module owns the catalogue of built-in pairs and the one weight
reduction, weight_factorization, that bridges families to the embedded
weight omega of the domain's Gauss rule (see quadrature).  Every family
kind is one form, member j = scale_j * x**p_j * exp(-q x^2 + l_j x), so a
family that decays on the domain absorbs one power of omega by shifting
an exponent (q - 1 against e^{-x^2}, l_j + 1 against e^{-x}), any other
family is evaluated as is, and the single leftover power
omega**(absorbed - 1) becomes a per-point factor.  A leftover omega**-1
would mean integrating families that do not decay over an infinite
domain, so it is rejected.  NodeMeasure.tables is the one place that
tabulates families on a finite measure, a Gauss rule's or a point set's.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .linalg import determinant
from .quadrature import EMBEDDED_WEIGHTS, Domain, _check_finite

__all__ = [
    "BUILTIN_ENSEMBLE_NAMES",
    "EnsembleSpec",
    "FunctionFamily",
    "KernelFunction",
    "NodeMeasure",
    "Weight",
    "build_ensemble",
    "evaluate",
    "family_matrix",
    "rescale",
    "vandermonde_check",
    "weight_factorization",
]

# Family kinds whose members involve non-integer powers of x and are
# therefore only defined for x > 0.
_POSITIVE_X_KINDS = ("stretched_monomial", "laguerre_meijer")

_FAMILY_KINDS = (
    "monomial",
    "weighted_monomial",
    "stretched_monomial",
    "shifted_gaussian",
    "laguerre_meijer",
)


@dataclass(frozen=True)
class Weight:
    """Scalar weight attached to a weighted_monomial family.

    kind "gaussian" is e^{-x^2}; kind "laguerre" is x^c e^{-x} with c >= 0.
    """

    kind: str
    c: float = 0.0

    def __post_init__(self):
        if self.kind not in ("gaussian", "laguerre"):
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if self.kind == "gaussian" and self.c != 0.0:
            raise ValueError("gaussian weight takes no exponent parameter")
        if self.kind == "laguerre" and self.c < 0:
            raise ValueError("laguerre weight requires c >= 0")


@dataclass(frozen=True)
class FunctionFamily:
    """Indexed family f_0 .. f_{size-1}, member j = x^{p_j} e^{-q x^2 + l_j x}.

    kind                member j                      p_j       q  l_j
    monomial            x^j                           j         0  0
    weighted_monomial   x^j e^{-x^2}    (gaussian w)  j         1  0
                        x^{j+c} e^{-x}  (laguerre w)  j + c     0  -1
    stretched_monomial  x^{theta j},  theta > 0       theta j   0  0
    shifted_gaussian    e^{-x^2 + 2 a_j x}            none      1  2 a_j
    laguerre_meijer     x^{nu + j} e^{-x},  nu >= 0   nu + j    0  -1

    scales, when set, multiplies member j by scales[j]; used to probe
    scaling covariance of the identities.
    """

    size: int
    kind: str
    weight: Weight | None = None
    theta: float | None = None
    shifts: tuple[float, ...] | None = None
    nu: int | None = None
    scales: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("family size must be at least 1")
        if self.kind not in _FAMILY_KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.kind == "weighted_monomial":
            if self.weight is None:
                raise ValueError("weighted_monomial requires a weight")
        elif self.weight is not None:
            raise ValueError(f"{self.kind} takes no weight")
        if self.kind == "stretched_monomial":
            if self.theta is None or not self.theta > 0:
                raise ValueError("theta must be positive")
        elif self.theta is not None:
            raise ValueError(f"{self.kind} takes no theta")
        if self.kind == "shifted_gaussian":
            if self.shifts is None:
                raise ValueError("shifted_gaussian requires a shift per member")
            object.__setattr__(self, "shifts", tuple(float(a) for a in self.shifts))
            if len(self.shifts) != self.size:
                raise ValueError(
                    f"expected {self.size} shifts, got {len(self.shifts)}"
                )
        elif self.shifts is not None:
            raise ValueError(f"{self.kind} takes no shifts")
        if self.kind == "laguerre_meijer":
            if self.nu is None or self.nu != int(self.nu) or self.nu < 0:
                raise ValueError("nu must be a non-negative integer")
            object.__setattr__(self, "nu", int(self.nu))
        elif self.nu is not None:
            raise ValueError(f"{self.kind} takes no nu")
        if self.scales is not None:
            object.__setattr__(self, "scales", tuple(float(s) for s in self.scales))
            if len(self.scales) != self.size:
                raise ValueError(
                    f"expected {self.size} scales, got {len(self.scales)}"
                )

    def scale_of(self, j: int) -> float:
        return 1.0 if self.scales is None else self.scales[j]


def rescale(family: FunctionFamily, factors: Sequence[float]) -> FunctionFamily:
    """Copy of the family with member j multiplied by factors[j]."""
    if len(factors) != family.size:
        raise ValueError(f"expected {family.size} factors, got {len(factors)}")
    combined = tuple(
        family.scale_of(j) * float(factors[j]) for j in range(family.size)
    )
    return replace(family, scales=combined)


def _form(family: FunctionFamily) -> tuple:
    """(powers, q, linear): member j is x**powers[j] * exp(-q x^2 +
    linear[j] x), with no power of x for a power of None; one row per kind."""
    size, kind, j = family.size, family.kind, range(family.size)
    flat, decaying = (0.0,) * size, (-1.0,) * size
    if kind == "monomial":
        return tuple(j), 0.0, flat
    if kind == "stretched_monomial":
        return tuple(family.theta * i for i in j), 0.0, flat
    if kind == "shifted_gaussian":
        return (None,) * size, 1.0, tuple(2.0 * a for a in family.shifts)
    if kind == "laguerre_meijer":
        return tuple(family.nu + i for i in j), 0.0, decaying
    if family.weight.kind == "gaussian":
        return tuple(j), 1.0, flat
    return tuple(family.weight.c + i for i in j), 0.0, decaying


def _absorbed(form: tuple, domain: Domain) -> tuple | None:
    """The form divided by the domain's embedded weight when the family
    decays there, and so absorbs it: q > 0, or every l_j < 0 on the half
    line.  None otherwise, and always on a finite domain."""
    powers, q, linear = form
    if domain.kind == "real_line" and q > 0:
        return powers, q - 1.0, linear
    if domain.kind == "half_line" and (q > 0 or all(l < 0 for l in linear)):
        return powers, q, tuple(l + 1.0 for l in linear)
    return None


def _positive_check(family: FunctionFamily, form: tuple | None) -> str | None:
    """The kind named by the x > 0 check of the family's members in a
    form: only the family's own form (form None) checks, and only for the
    _POSITIVE_X_KINDS."""
    return family.kind if form is None and family.kind in _POSITIVE_X_KINDS else None


def _member(family: FunctionFamily, j: int, form: tuple | None = None) -> Callable:
    """Callable for member j of a form of the family, by default its own:
    scale_j * x**power * exp(-q x^2 + l x), leaving out a zero term, a zero
    exponent and a power of None, after the x > 0 check of
    _positive_check."""
    powers, q, linear = _form(family) if form is None else form
    power, l, scale = powers[j], linear[j], family.scale_of(j)
    positive_kind = _positive_check(family, form)

    def member(x):
        x = np.asarray(x, dtype=float)
        if positive_kind is not None and np.any(x <= 0):
            raise ValueError(f"x must be positive for {positive_kind} families")
        exponent = l * x if l else None
        if q:
            exponent = -q * x * x if exponent is None else -q * x * x + exponent
        value = None if power is None else x**power
        if exponent is not None:
            value = np.exp(exponent) if value is None else value * np.exp(exponent)
        value = np.ones_like(x) if value is None else value
        return value if scale == 1.0 else scale * value

    return member


def _members(family: FunctionFamily, form: tuple | None = None) -> list[Callable]:
    return [_member(family, j, form) for j in range(family.size)]


def evaluate(family: FunctionFamily, j: int, x):
    """Value of member j at x (scalar or array, shape preserved)."""
    if not 0 <= j < family.size:
        raise ValueError(f"member index {j} outside 0..{family.size - 1}")
    val = _member(family, j)(x)
    return float(val) if np.ndim(x) == 0 else val


def family_matrix(family: FunctionFamily, x) -> np.ndarray:
    """Matrix [f_j(x_k)] of shape (size, len(x))."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    return np.stack([member(arr) for member in _members(family)])


def weight_factorization(
    families: Sequence[FunctionFamily], domain: Domain
) -> tuple[list[list[Callable]], Callable | None]:
    """Reduce one or two families against the domain's embedded weight omega.

    Returns (member_fns_per_family, point_factor).  A family that decays
    on the domain (see _absorbed) has members f_j / omega; any other family
    is used as is.  The Gauss rule divides out one power, so the integrand
    of the product of one member per family carries point_factor =
    omega**(absorbed - 1), with None meaning 1 (always so on finite
    domains).  With no family absorbing there is nothing that decays, so
    the integral diverges and a ValueError says so.  A single family
    therefore never carries a point factor: it is None or the call raises.

    Two families whose reductions agree (the same reduced form, scales and
    x > 0 check) get one member list object, so a caller evaluates it
    once: uniform-monomial's x^j twice, gue-monomial's x^j e^{-x^2}
    reduced to x^j against x^j.
    """
    if not 1 <= len(families) <= 2:
        raise ValueError(f"expected one or two families, got {len(families)}")
    for family in families:
        ensure_family_legal(family, domain)
    absorbed = [_absorbed(_form(family), domain) for family in families]
    member_fns = [_members(family, form) for family, form in zip(families, absorbed)]
    reductions = [
        (form or _form(family), tuple(map(family.scale_of, range(family.size))),
         _positive_check(family, form))
        for family, form in zip(families, absorbed)
    ]
    if len(families) == 2 and reductions[0] == reductions[1]:
        member_fns[1] = member_fns[0]
    power = len(families) - absorbed.count(None) - 1
    if power == 0 or domain.kind == "finite":
        return member_fns, None
    if power == 1:
        return member_fns, EMBEDDED_WEIGHTS[domain.kind]
    kinds = " and ".join(family.kind for family in families)
    raise ValueError(
        f"{kinds} on {domain}: no family decays, so the integral diverges"
    )


def _node_matrix(fns, nodes: np.ndarray) -> np.ndarray:
    """(n_nodes, len(fns)) matrix with [k, j] = fns[j](nodes[k]); a scalar
    value is broadcast, and every column is checked finite, naming the
    first bad node."""
    columns = [
        np.broadcast_to(np.asarray(fn(nodes), dtype=float), nodes.shape)
        for fn in fns
    ]
    for column in columns:
        _check_finite(column, nodes)
    return np.stack(columns, axis=1)


@dataclass(frozen=True, eq=False)
class NodeMeasure:
    """The finite measure sum_k weights[k] delta(x - nodes[k]): a Gauss
    rule's nodes and weights with its domain, or a point measure
    (NodeMeasure.points) with unit weights and no domain.
    """

    nodes: np.ndarray
    weights: np.ndarray
    domain: Domain | None = None

    @classmethod
    def points(cls, pts) -> "NodeMeasure":
        """Unit point masses at pts, which must be finite; they need no
        order and no domain."""
        nodes = np.asarray(pts, dtype=float)
        if not np.all(np.isfinite(nodes)):
            raise ValueError("points must be finite")
        return cls(nodes, np.ones_like(nodes))

    def tables(self, families) -> tuple[np.ndarray, list[np.ndarray]]:
        """(W, [F, ...]), one table per family with F[k, j] = f_j(x_k), all
        checked finite and read-only.  A Gauss measure reduces the families
        against the domain's embedded weight (weight_factorization) and
        folds the point factor into W[k] = w_k * point_factor(x_k); a point
        measure evaluates them as they are, with W its unit weights.  One
        table is built per distinct member list, so two families that
        share one get the same table object."""
        if self.domain is None:
            member_fns, point_factor = [_members(f) for f in families], None
        else:
            member_fns, point_factor = weight_factorization(families, self.domain)
        weights = self.weights
        if point_factor is not None:
            weights = weights * np.asarray(point_factor(self.nodes), dtype=float)
        _check_finite(weights, self.nodes)
        tables = {}
        for fns in member_fns:
            if id(fns) not in tables:
                table = _node_matrix(fns, self.nodes)
                table.setflags(write=False)
                tables[id(fns)] = table
        return weights, [tables[id(fns)] for fns in member_fns]


def ensure_family_legal(family: FunctionFamily, domain: Domain) -> None:
    """Construction-time legality of a family on a domain.

    Non-integer powers of x (stretched_monomial, laguerre weight with
    c > 0) require x >= 0, so those kinds are only legal on the half line
    or on finite(a, b) with a >= 0; laguerre_meijer additionally carries
    e^{-x}, which is non-normalizable on the real line.
    """
    needs_nonneg = family.kind in _POSITIVE_X_KINDS or (
        family.kind == "weighted_monomial"
        and family.weight.kind == "laguerre"
    )
    if needs_nonneg:
        ok = domain.kind == "half_line" or (
            domain.kind == "finite" and domain.a >= 0
        )
        if not ok:
            raise ValueError(
                f"{family.kind} family is only legal on half_line or "
                f"finite(a, b) with a >= 0, not {domain}"
            )


@dataclass(frozen=True)
class EnsembleSpec:
    """Named pair of same-size families on a common domain."""

    name: str
    domain: Domain
    left: FunctionFamily
    right: FunctionFamily

    def __post_init__(self):
        if self.left.size != self.right.size:
            raise ValueError(
                f"family sizes differ: {self.left.size} vs {self.right.size}"
            )
        ensure_family_legal(self.left, self.domain)
        ensure_family_legal(self.right, self.domain)

    @property
    def size(self) -> int:
        return self.left.size


def _difference_kernel(x, y):
    return np.asarray(x, dtype=float) - np.asarray(y, dtype=float)


def _sign_kernel(x, y):
    return np.sign(np.asarray(y, dtype=float) - np.asarray(x, dtype=float))


_BUILTIN_KERNELS = {
    "difference": _difference_kernel,
    "sign": _sign_kernel,
}


@dataclass(frozen=True, eq=False)
class KernelFunction:
    """Two-point kernel h(x, y) for the Pfaffian-side identities.

    Built-in kinds are antisymmetric exactly (h(x, y) = -h(y, x) in floating
    point); custom evaluators carry no such guarantee and the identity
    engines use their antisymmetric part instead.
    """

    kind: str
    evaluator: Callable

    @classmethod
    def builtin(cls, kind: str) -> "KernelFunction":
        if kind not in _BUILTIN_KERNELS:
            raise ValueError(
                f"unknown kernel {kind!r}; built-ins: "
                + ", ".join(sorted(_BUILTIN_KERNELS))
            )
        return cls(kind, _BUILTIN_KERNELS[kind])

    @classmethod
    def custom(cls, fn: Callable) -> "KernelFunction":
        return cls("custom", fn)

    @property
    def is_builtin(self) -> bool:
        return self.kind != "custom"

    def antisymmetrized(self) -> Callable:
        """Evaluator guaranteed antisymmetric: built-ins pass through,
        custom kernels are replaced by (h(x,y) - h(y,x)) / 2."""
        if self.is_builtin:
            return self.evaluator
        fn = self.evaluator
        return lambda x, y: 0.5 * (fn(x, y) - fn(y, x))


def vandermonde_check(nodes) -> tuple[float, float]:
    """(det[x_k^j], product of differences) for the given nodes.

    The two values agree by the Vandermonde identity; repeated nodes give
    a pair of (near-)zeros rather than an error.
    """
    arr = np.atleast_1d(np.asarray(nodes, dtype=float))
    det = determinant(np.vander(arr, increasing=True).T)
    prod = 1.0
    n = arr.size
    for k in range(n):
        for j in range(k):
            prod *= arr[k] - arr[j]
    return det, prod


def _default_shifts(size: int) -> tuple[float, ...]:
    # distinct by default: coincident shifts make det[phi_j(x_k)] vanish
    return tuple(0.1 * (j + 1) for j in range(size))


def build_ensemble(
    name: str,
    size: int,
    *,
    theta: float = 2.0,
    c: float = 0.0,
    shifts: Sequence[float] | None = None,
    nu: int = 1,
) -> EnsembleSpec:
    """Construct a built-in ensemble pair by name.

    Parameters beyond size apply only where meaningful: theta and c to
    muttalib-borodin, shifts to shifted-gue, nu to laguerre-product.
    """
    if size < 1:
        raise ValueError("size must be at least 1")
    mono = FunctionFamily(size, "monomial")
    if name == "uniform-monomial":
        return EnsembleSpec(name, Domain.finite(0.0, 1.0), mono, mono)
    if name == "legendre-monomial":
        return EnsembleSpec(name, Domain.finite(-1.0, 1.0), mono, mono)
    if name == "gue-monomial":
        left = FunctionFamily(size, "weighted_monomial", weight=Weight("gaussian"))
        return EnsembleSpec(name, Domain.real_line(), left, mono)
    if name == "muttalib-borodin":
        left = FunctionFamily(size, "weighted_monomial", weight=Weight("laguerre", c=c))
        right = FunctionFamily(size, "stretched_monomial", theta=theta)
        return EnsembleSpec(name, Domain.half_line(), left, right)
    if name == "shifted-gue":
        resolved = _default_shifts(size) if shifts is None else tuple(shifts)
        right = FunctionFamily(size, "shifted_gaussian", shifts=resolved)
        return EnsembleSpec(name, Domain.real_line(), mono, right)
    if name == "laguerre-product":
        right = FunctionFamily(size, "laguerre_meijer", nu=nu)
        return EnsembleSpec(name, Domain.half_line(), mono, right)
    raise ValueError(
        f"unknown ensemble {name!r}; built-ins: " + ", ".join(BUILTIN_ENSEMBLE_NAMES)
    )


BUILTIN_ENSEMBLE_NAMES = (
    "uniform-monomial",
    "legendre-monomial",
    "gue-monomial",
    "muttalib-borodin",
    "shifted-gue",
    "laguerre-product",
)
