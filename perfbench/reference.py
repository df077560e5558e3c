"""Independent references at 50 digits, and the check of each CLI report
against them.

Nothing here calls the andreief package.  Gram matrices come from
closed-form moments, Gauss-Legendre nodes from a Newton iteration on the
Legendre recurrence, and Pfaffians from an expansion along the first row,
all in mpmath.  The discrete instances are redrawn from the seed in the
CLI's documented draw order, and their minors are evaluated exactly.

Gaps use a true relative scale |a - b| / |ref|, not the package's
max(1, |a|, |b|).  A reference that is exactly zero is degenerate: the
reported value is then checked absolutely against the reference's own term
scale (the sum of the absolute terms that cancel to zero).
"""

from __future__ import annotations

import json

import mpmath
import numpy as np

from workloads import ENSEMBLE_PARAMS

DIGITS = 50
mp = mpmath.mp
mp.dps = DIGITS

# MC values count as wrong numbers only beyond this many standard errors;
# the CLI's own 3-sigma verdict is checked separately as a pass/fail.
MC_WRONG_SIGMAS = 6.0
MC_VERDICT_SIGMAS = 3.0
MC_SLACK = 1e-12


# ---------------------------------------------------------------------------
# Gram matrices and partition functions


def _flag(argv: tuple, name: str, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def ensemble_params(name: str) -> dict:
    """The ensemble's parameters as the CLI parses them from its flags:
    floats are taken at their binary value."""
    flags = ENSEMBLE_PARAMS[name]
    return {
        "theta": mpmath.mpf(float(_flag(flags, "--theta", "2.0"))),
        "c": mpmath.mpf(float(_flag(flags, "--c", "0.0"))),
        "nu": int(_flag(flags, "--nu", "1")),
        "shifts": [mpmath.mpf(float(s)) for s in _flag(flags, "--shifts", "").split(",") if s],
    }


def _gaussian_moment(i: int):
    """int u^i e^{-u^2} du over the real line."""
    return mpmath.gamma(mpmath.mpf(i + 1) / 2) if i % 2 == 0 else mpmath.mpf(0)


def gram(name: str, size: int):
    """Matrix of int f_j phi_k against the ensemble's measure."""
    p = ensemble_params(name)

    def entry(j, k):
        if name == "uniform-monomial":
            return mpmath.mpf(1) / (j + k + 1)
        if name == "legendre-monomial":
            return mpmath.mpf(2) / (j + k + 1) if (j + k) % 2 == 0 else mpmath.mpf(0)
        if name == "gue-monomial":
            return _gaussian_moment(j + k)
        if name == "muttalib-borodin":
            return mpmath.gamma(p["c"] + j + p["theta"] * k + 1)
        if name == "shifted-gue":
            # int x^j e^{-x^2 + 2 a x} = e^{a^2} int (u + a)^j e^{-u^2}
            a = p["shifts"][k]
            return mpmath.exp(a * a) * mpmath.fsum(
                mpmath.binomial(j, i) * a ** (j - i) * _gaussian_moment(i)
                for i in range(j + 1)
            )
        if name == "laguerre-product":
            return mpmath.gamma(p["nu"] + j + k + 1)
        raise ValueError(f"no reference for ensemble {name!r}")

    return mpmath.matrix([[entry(j, k) for k in range(size)] for j in range(size)])


def partition(name: str, size: int):
    """N! det G: the value both sides of the determinant identity equal."""
    return mpmath.factorial(size) * mpmath.det(gram(name, size))


def pairings(name: str, size: int) -> list:
    """h_j = D_{j+1} / D_j, with D_k the leading principal minors of G."""
    g = gram(name, size)
    minors = [mpmath.mpf(1)] + [mpmath.det(g[:k, :k]) for k in range(1, size + 1)]
    return [minors[j + 1] / minors[j] for j in range(size)]


# ---------------------------------------------------------------------------
# Pfaffian identity on the discrete Gauss-Legendre measure


def gauss_legendre(n: int) -> tuple:
    """Nodes (increasing) and weights of the n-point rule on [-1, 1]."""
    nodes, weights = [], []
    eps = mpmath.mpf(10) ** (5 - DIGITS)
    for i in range(1, n + 1):
        x = mpmath.cos(mpmath.pi * (i - mpmath.mpf(1) / 4) / (n + mpmath.mpf(1) / 2))
        for _ in range(100):
            p0, p1 = mpmath.mpf(1), x
            for k in range(2, n + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            dp = n * (x * p1 - p0) / (x * x - 1)
            step = p1 / dp
            x -= step
            if abs(step) < eps:
                break
        p0, p1 = mpmath.mpf(1), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = n * (x * p1 - p0) / (x * x - 1)
        nodes.append(x)
        weights.append(2 / ((1 - x * x) * dp * dp))
    order = sorted(range(n), key=lambda i: nodes[i])
    return [nodes[i] for i in order], [weights[i] for i in order]


def pfaffian_terms(b, order: list | None = None) -> tuple:
    """(Pf, sum of |terms|) of an antisymmetric matrix, by expansion along
    the first row."""
    idx = list(range(b.rows)) if order is None else order
    if not idx:
        return mpmath.mpf(1), mpmath.mpf(1)
    first, value, scale, sign = idx[0], mpmath.mpf(0), mpmath.mpf(0), 1
    for pos in range(1, len(idx)):
        rest = idx[1:pos] + idx[pos + 1:]
        sub, sub_scale = pfaffian_terms(b, rest)
        value += sign * b[first, idx[pos]] * sub
        scale += abs(b[first, idx[pos]]) * sub_scale
        sign = -sign
    return value, scale


def debruijn(kernel: str, n_nodes: int, two_n: int) -> tuple:
    """(Pf B, term scale) for B_jk = sum_a sum_b w_a w_b x_a^j h(x_a, x_b) x_b^k,
    the legendre-monomial family on the n_nodes-point rule."""
    x, w = gauss_legendre(n_nodes)
    if kernel == "sign":
        h = lambda s, t: mpmath.sign(t - s)
    elif kernel == "difference":
        h = lambda s, t: s - t
    else:
        raise ValueError(f"no reference for kernel {kernel!r}")
    u = [[w[a] * x[a] ** j for a in range(n_nodes)] for j in range(two_n)]
    k_mat = [[h(x[a], x[c]) for c in range(n_nodes)] for a in range(n_nodes)]
    v = [[mpmath.fsum(k_mat[a][c] * u[k][c] for c in range(n_nodes)) for a in range(n_nodes)]
         for k in range(two_n)]
    b = mpmath.matrix(two_n, two_n)
    for j in range(two_n):
        for k in range(two_n):
            b[j, k] = mpmath.fsum(u[j][a] * v[k][a] for a in range(n_nodes))
    return pfaffian_terms(b)


# ---------------------------------------------------------------------------
# covariance gap


CHEBYSHEV_MP = {
    "x": lambda x: x,
    "-x": lambda x: -x,
    "x^2": lambda x: x**2,
    "-x^2": lambda x: -(x**2),
    "x^3": lambda x: x**3,
    "exp": mpmath.exp,
    "-exp": lambda x: -mpmath.exp(x),
    "cos": mpmath.cos,
}


def chebyshev(f: str, g: str, a: float, b: float):
    """(b - a) int fg - int f int g on [a, b]."""
    ff, gg = CHEBYSHEV_MP[f], CHEBYSHEV_MP[g]
    lo, hi = mpmath.mpf(a), mpmath.mpf(b)
    fg = mpmath.quad(lambda x: ff(x) * gg(x), [lo, hi])
    return (hi - lo) * fg - mpmath.quad(ff, [lo, hi]) * mpmath.quad(gg, [lo, hi])


# ---------------------------------------------------------------------------
# discrete identities


def _exact_det(rows) -> int:
    m = mpmath.matrix([[int(v) for v in row] for row in rows])
    return int(mpmath.nint(mpmath.det(m)))


def discrete(seed: int, rows: int, cols: int, instances: int) -> dict:
    """Per-instance values of the four discrete checks.

    Redraws the instances in the CLI's order (two integer matrices, a skew
    matrix, a compression matrix, then the sorted points of the default
    uniform-monomial N=2 ensemble on [0, 1]) and evaluates the true value
    of each identity: det(X^T Y), Pf(T A T^T), the Gram sum over the
    points, and |det(X^T Y)|.
    """
    rng = np.random.default_rng(seed)
    ms_cols = cols - cols % 2
    out = {"cauchy-binet": [], "minor-summation": [], "discretization-bridge": [],
           "block-reclaims": []}
    for _ in range(instances):
        x = rng.integers(-3, 4, size=(rows, cols))
        y = rng.integers(-3, 4, size=(rows, cols))
        raw = rng.integers(-3, 4, size=(rows, rows))
        a = raw - raw.T
        t = rng.integers(-3, 4, size=(ms_cols, rows))
        pts = np.sort(rng.uniform(0.0, 1.0, size=max(rows, 2)))
        cb = _exact_det((x.T @ y).tolist())
        out["cauchy-binet"].append(cb)
        out["block-reclaims"].append(abs(cb))
        comp = mpmath.matrix((t @ a @ t.T).tolist())
        out["minor-summation"].append(int(mpmath.nint(pfaffian_terms(comp)[0])))
        p = [mpmath.mpf(float(v)) for v in pts]
        s = [mpmath.fsum(v**i for v in p) for i in range(3)]
        out["discretization-bridge"].append(s[0] * s[2] - s[1] * s[1])
    return out


# ---------------------------------------------------------------------------
# reference table and report checks


def table(job_list: list) -> dict:
    """Reference of every distinct job, keyed by Job.ref."""
    refs = {}
    for job in job_list:
        key = job.ref
        if key in refs:
            continue
        kind = key[0]
        if kind in ("andreief", "partition"):
            refs[key] = {"value": partition(key[1], key[2])}
        elif kind == "biorthogonalize":
            refs[key] = {"h": pairings(key[1], key[2])}
        elif kind == "debruijn":
            value, scale = debruijn(key[1], key[2], key[3])
            # exact zero: the difference kernel has rank 2, so Pf vanishes
            # for 2n >= 4 and only the term scale is informative
            degenerate = abs(value) <= mpmath.mpf(10) ** (10 - DIGITS) * scale
            refs[key] = {"value": value, "scale": scale, "degenerate": bool(degenerate)}
        elif kind == "chebyshev":
            refs[key] = {"value": chebyshev(*key[1:])}
        elif kind == "discrete":
            refs[key] = discrete(*key[1:])
        else:
            raise ValueError(f"no reference for job kind {kind!r}")
    return refs


def true_gap(value, ref) -> float:
    """|value - ref| / |ref|."""
    return float(abs(mpmath.mpf(value) - ref) / abs(ref))


class Verdict:
    """Outcome of one job: failure reasons, and whether a number was wrong."""

    def __init__(self):
        self.reasons = []
        self.wrong_value = False
        self.degenerate = False

    def fail(self, reason: str, wrong_value: bool = True):
        self.reasons.append(reason)
        self.wrong_value = self.wrong_value or wrong_value

    @property
    def failed(self) -> bool:
        return bool(self.reasons)


def _close(name, value, ref, tol, verdict):
    gap = true_gap(value, ref)
    if not gap <= tol:
        verdict.fail(f"{name}: {value!r} is {gap:.3g} from the reference (tolerance {tol:g})")


def check(job, exit_code: int, stdout: str, refs: dict) -> Verdict:
    """Judge one job's exit code and report against its reference."""
    verdict = Verdict()
    if exit_code not in (0, 1):
        verdict.fail(f"exit code {exit_code}")
        return verdict
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        verdict.fail("report is not JSON")
        return verdict
    try:
        referenced = _check_report(report, refs[job.ref], verdict)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        verdict.fail(f"report lacks a field the check needs: {type(exc).__name__}: {exc}")
        return verdict
    if referenced == 0:
        verdict.fail("report has no check with a reference")
    return verdict


def _check_report(report: dict, ref: dict, verdict: Verdict) -> int:
    """Compare every check of the report with the reference; returns the
    number of checks that have one."""
    if not report.get("passed", False):
        verdict.fail("report says passed: false for a true identity", wrong_value=False)
    tol = float(report["config"]["tolerance"])
    referenced = 0
    for c in report["checks"]:
        name = c["name"]
        lhs, rhs = c["lhs"], c["rhs"]
        referenced += 1
        if name == "andreief-quadrature" or name == "partition-vs-gram-determinant":
            _close(name + " lhs", lhs, ref["value"], tol, verdict)
            _close(name + " rhs", rhs, ref["value"], tol, verdict)
        elif name == "andreief-mc":
            _close(name + " rhs", rhs, ref["value"], tol, verdict)
            sigma = float(c["sigma"])
            dist = float(abs(mpmath.mpf(lhs) - ref["value"]))
            slack = MC_SLACK * float(abs(ref["value"]))
            if dist > MC_VERDICT_SIGMAS * sigma + slack:
                verdict.fail(
                    f"{name}: mean is {dist / sigma:.2f} sigma from the reference",
                    wrong_value=dist > MC_WRONG_SIGMAS * sigma + slack,
                )
        elif name.startswith("debruijn-"):
            if ref["degenerate"]:
                verdict.degenerate = True
                limit = tol * float(ref["scale"])
                for side, v in (("lhs", lhs), ("rhs", rhs)):
                    if not abs(v) <= limit:
                        verdict.fail(f"{name} {side}: |{v!r}| exceeds {limit:.3g} "
                                     "(tolerance times the term scale of a zero value)")
            else:
                _close(name + " lhs", lhs, ref["value"], tol, verdict)
                _close(name + " rhs", rhs, ref["value"], tol, verdict)
        elif name.startswith("pairing-"):
            h = ref["h"][int(name.split("-")[1])]
            _close(name + " lhs", lhs, h, tol, verdict)
            _close(name + " rhs", rhs, h, tol, verdict)
        elif name == "off-diagonal-residual":
            limit = tol * float(max(abs(h) for h in ref["h"]))
            if not abs(lhs) <= limit:
                verdict.fail(f"{name}: {lhs!r} exceeds {limit:.3g}")
        elif name == "chebyshev-gap-identity":
            _close(name + " lhs", lhs, ref["value"], tol, verdict)
            _close(name + " rhs", rhs, ref["value"], tol, verdict)
        elif name in ("cauchy-binet", "minor-summation", "block-reclaims"):
            if not any(lhs == v and rhs == v for v in ref[name]):
                verdict.fail(f"{name}: ({lhs!r}, {rhs!r}) matches no instance's exact value")
        elif name == "discretization-bridge":
            if not any(true_gap(lhs, v) <= tol and true_gap(rhs, v) <= tol for v in ref[name]):
                verdict.fail(f"{name}: ({lhs!r}, {rhs!r}) matches no instance's reference")
        else:  # a check without a reference here is neither passed nor failed
            referenced -= 1
    return referenced


# ---------------------------------------------------------------------------
# self-checks of the table against known closed forms


def self_check() -> list:
    """Known closed forms the reference table must reproduce; returns the
    names of those that do not."""
    bad = []
    # gue-monomial: N! prod_j sqrt(pi) j! / 2^j
    for n in (3, 5, 6):
        closed = mpmath.factorial(n) * mpmath.fprod(
            mpmath.sqrt(mpmath.pi) * mpmath.factorial(j) / 2**j for j in range(n))
        if abs(partition("gue-monomial", n) / closed - 1) > mpmath.mpf(10) ** -40:
            bad.append(f"gue-monomial N={n}")
    if not mpmath.nstr(partition("gue-monomial", 5), 20).startswith("590.40286855733"):
        bad.append("gue-monomial N=5 = 590.40286855733...")
    # Hilbert determinant: c_n^4 / c_{2n} with c_n = prod_{i<n} i!
    c = lambda n: mpmath.fprod(mpmath.factorial(i) for i in range(1, n))
    for n in (3, 5, 6):
        if abs(mpmath.det(gram("uniform-monomial", n)) * c(2 * n) / c(n) ** 4 - 1) > mpmath.mpf(10) ** -40:
            bad.append(f"Hilbert determinant N={n}")
    # det[Gamma(a_k + j)] = prod Gamma(a_k) * Vandermonde(a_k)
    for name, a in (("muttalib-borodin", lambda k: 2 * k + 1),
                    ("laguerre-product", lambda k: k + 2)):
        for n in (3, 5, 6):
            closed = mpmath.fprod(mpmath.gamma(a(k)) for k in range(n)) * mpmath.fprod(
                a(k) - a(j) for k in range(n) for j in range(k))
            if abs(mpmath.det(gram(name, n)) / closed - 1) > mpmath.mpf(10) ** -40:
                bad.append(f"{name} N={n}")
    # the 24-point Gauss-Legendre rule is exact up to degree 47
    x, w = gauss_legendre(24)
    if abs(mpmath.fsum(wi * xi**46 for wi, xi in zip(w, x)) - mpmath.mpf(2) / 47) > mpmath.mpf(10) ** -45:
        bad.append("Gauss-Legendre 24 nodes")
    # Pf [[0, I], [-I, 0]] = -1 at order 4, and Pf^2 = det
    j4 = mpmath.matrix([[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]])
    a4 = mpmath.matrix([[0, 1, 2, 3], [-1, 0, 4, 5], [-2, -4, 0, 6], [-3, -5, -6, 0]])
    if pfaffian_terms(j4)[0] != -1 or abs(pfaffian_terms(a4)[0] ** 2 - mpmath.det(a4)) > 1e-40:
        bad.append("Pfaffian expansion")
    if abs(chebyshev("x", "x^2", 0.0, 1.0) - mpmath.mpf(1) / 12) > mpmath.mpf(10) ** -45:
        bad.append("covariance gap of x, x^2 on [0, 1]")
    return bad
