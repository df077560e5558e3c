"""Acceptance gate: every advertised exact-value and identity property,
one check per criterion, each printing a single pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; tolerances are stated inline and are not negotiable downward by
the other tests.
"""

import io
import json
import math
import subprocess
import sys
import contextlib

import numpy as np

from andreief.biortho import (
    biorthogonality_residuals,
    biorthogonalize,
    partition_function,
)
from andreief.cli import main
from andreief.discrete import (
    DiscretePointSet,
    block_reclaims_cauchy_binet,
    cauchy_binet_lhs,
    cauchy_binet_rhs,
    discretized_andreief,
    minor_summation_lhs,
    minor_summation_rhs,
)
from andreief.ensembles import FunctionFamily, KernelFunction, build_ensemble, family_matrix
from andreief.identities import (
    VerifyConfig,
    andreief_lhs_mc,
    andreief_lhs_quadrature,
    andreief_rhs,
    chebyshev_gap,
    debruijn_lhs_quadrature,
    debruijn_rhs,
    gram_matrix,
    mc_agrees,
    verify_andreief,
)
from andreief.linalg import determinant, pfaffian, relative_gap
from andreief.quadrature import Domain
from grid_oracles import andreief_lhs_permutation_oracle


def report(number, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number:2d}: {label} ({detail})")
    assert ok, f"criterion {number}: {label} ({detail})"


def test_criterion_01_uniform_monomial_four_routes():
    spec = build_ensemble("uniform-monomial", 2)
    want = 1.0 / 6.0
    quad = andreief_lhs_quadrature(spec, 12)
    oracle = andreief_lhs_permutation_oracle(spec, 12)
    rhs = andreief_rhs(gram_matrix(spec, 40))
    gaps = [relative_gap(v, want) for v in (quad, oracle, rhs)]
    ok = max(gaps) <= 1e-12
    mc_ok = True
    worst_z = 0.0
    for seed in (1, 2, 3):
        estimate = andreief_lhs_mc(spec, 10**6, seed)
        mc_ok = mc_ok and mc_agrees(estimate, want)
        worst_z = max(worst_z, abs(estimate.mean - want) / estimate.std_error)
    report(
        1,
        "uniform monomial N=2, four routes equal 1/6",
        ok and mc_ok,
        f"max rel gap {max(gaps):.2e}, worst MC z {worst_z:.2f} over 3 seeds",
    )


def test_criterion_02_gaussian_chain():
    worst_value = 0.0
    worst_lhs = 0.0
    for n in (1, 2, 3):
        spec = build_ensemble("gue-monomial", n)
        want = math.factorial(n) * math.prod(
            math.sqrt(math.pi) * math.factorial(j) / 2.0**j for j in range(n)
        )
        rhs = andreief_rhs(gram_matrix(spec, 40))
        partition = partition_function(spec, 40)
        worst_value = max(
            worst_value, relative_gap(rhs, want), relative_gap(partition, want)
        )
        worst_lhs = max(worst_lhs, relative_gap(andreief_lhs_quadrature(spec, 12), want))
    ok = worst_value <= 1e-10 and worst_lhs <= 1e-9
    report(
        2,
        "gaussian chain: rhs = partition = N! prod sqrt(pi) j!/2^j, N in 1..3",
        ok,
        f"worst closed-form gap {worst_value:.2e}, worst LHS gap {worst_lhs:.2e}",
    )


def test_criterion_03_legendre_biorthogonalization():
    system = biorthogonalize(build_ensemble("legendre-monomial", 3))
    want = [2.0, 2.0 / 3.0, 8.0 / 45.0]
    h_gap = max(relative_gap(a, b) for a, b in zip(system.h, want))
    residuals = biorthogonality_residuals(system)
    off = np.abs(residuals - np.diag(np.diag(residuals))).max()
    ok = h_gap <= 1e-10 and off <= 1e-10
    report(
        3,
        "Legendre pairings h = 2, 2/3, 8/45 with diagonal residuals",
        ok,
        f"h gap {h_gap:.2e}, off-diagonal {off:.2e}",
    )


def test_criterion_04_debruijn_two():
    family = FunctionFamily(2, "monomial")
    kernel = KernelFunction.builtin("difference")
    domain = Domain.finite(0.0, 1.0)
    lhs = debruijn_lhs_quadrature(family, kernel, domain, 40, 2)
    rhs = debruijn_rhs(family, kernel, domain, 40, 2)
    want = -1.0 / 12.0
    gap = max(relative_gap(lhs, want), relative_gap(rhs, want))
    ok = gap <= 1e-11
    report(
        4,
        "Pfaffian identity 2n=2 equals -1/12 on both sides",
        ok,
        f"worst gap {gap:.2e}",
    )


def test_criterion_05_debruijn_four_both_kernels():
    family = FunctionFamily(4, "monomial")
    domain = Domain.finite(0.0, 1.0)
    worst = 0.0
    for kind in ("difference", "sign"):
        kernel = KernelFunction.builtin(kind)
        lhs = debruijn_lhs_quadrature(family, kernel, domain, 12, 4)
        rhs = debruijn_rhs(family, kernel, domain, 12, 4)
        worst = max(worst, relative_gap(lhs, rhs))
    ok = worst <= 1e-9
    report(
        5,
        "Pfaffian identity 2n=4, both kernels, 12^4 grid",
        ok,
        f"worst rel gap {worst:.2e}",
    )


def test_criterion_06_discrete_identities_exact():
    rng = np.random.default_rng(2026)
    checked = 0
    ok = True
    for rows, cols in ((2, 2), (3, 2), (4, 3), (5, 4)):
        for _ in range(50):
            x = rng.integers(-3, 4, size=(rows, cols))
            y = rng.integers(-3, 4, size=(rows, cols))
            lhs, rhs = cauchy_binet_lhs(x, y), cauchy_binet_rhs(x, y)
            ok = ok and isinstance(lhs, int) and lhs == rhs
            checked += 1
    for order, t_rows in ((2, 2), (4, 2), (4, 4), (6, 4)):
        for _ in range(50):
            raw = rng.integers(-3, 4, size=(order, order))
            a = raw - raw.T
            t = rng.integers(-3, 4, size=(t_rows, order))
            lhs, rhs = minor_summation_lhs(a, t), minor_summation_rhs(a, t)
            ok = ok and isinstance(lhs, int) and lhs == rhs
            checked += 1
    report(
        6,
        "Cauchy-Binet and minor summation, 200 exact instances each",
        ok and checked == 400,
        f"{checked} integer instances, all literal equalities",
    )


def test_criterion_07_discretization_bridge():
    spec = build_ensemble("uniform-monomial", 2)
    hand = discretized_andreief(spec, DiscretePointSet([0.0, 1.0, 2.0]))
    ok = hand.lhs == 6.0 and hand.rhs == 6.0
    rng = np.random.default_rng(404)
    names = ["uniform-monomial", "legendre-monomial", "gue-monomial", "muttalib-borodin"]
    for trial in range(100):
        name = names[trial % len(names)]
        size = 2 + trial % 3
        spec = build_ensemble(name, size)
        count = size + trial % 3
        if spec.domain.kind == "finite":
            pts = rng.uniform(spec.domain.a, spec.domain.b, size=count)
        elif spec.domain.kind == "half_line":
            pts = rng.exponential(1.0, size=count)
        else:
            pts = rng.standard_normal(count)
        res = discretized_andreief(spec, DiscretePointSet(np.sort(pts)))
        nodes = np.sort(pts)
        x = family_matrix(spec.left, nodes).T
        y = family_matrix(spec.right, nodes).T
        ok = ok and res.lhs == cauchy_binet_lhs(x, y) and res.rhs == cauchy_binet_rhs(x, y)
    report(
        7,
        "discretization bridge is Cauchy-Binet bit-for-bit, 100 instances",
        ok,
        "hand case 6 = 6 and bitwise reduction on every instance",
    )


def test_criterion_08_block_reclaims():
    rng = np.random.default_rng(512)
    ok = True
    for rows, cols in ((2, 1), (2, 2), (3, 2), (3, 3), (4, 3)):
        ratios = set()
        for _ in range(10):
            x = rng.integers(-3, 4, size=(rows, cols))
            y = rng.integers(-3, 4, size=(rows, cols))
            ms, cb = block_reclaims_cauchy_binet(x, y)
            ok = ok and abs(ms) == abs(cb)
            if cb != 0:
                ratios.add(ms // cb)
        ok = ok and len(ratios) == 1
    report(
        8,
        "block construction matches Cauchy-Binet, sign constant per shape",
        ok,
        "50 instances, |values| equal exactly, one sign ratio per shape",
    )


def test_criterion_09_chebyshev_suite():
    domain = Domain.finite(0.0, 1.0)
    rng = np.random.default_rng(99)
    worst_identity = 0.0
    for _ in range(20):
        coeffs_f = rng.uniform(-2.0, 2.0, size=4)
        coeffs_g = rng.uniform(-2.0, 2.0, size=4)
        f = lambda x, c=coeffs_f: c[0] + c[1] * x + c[2] * x**2 + c[3] * np.sin(x)
        g = lambda x, c=coeffs_g: c[0] + c[1] * x + c[2] * x**2 + c[3] * np.exp(x)
        direct, pair_form = chebyshev_gap(f, g, domain)
        worst_identity = max(worst_identity, relative_gap(direct, pair_form))
    monotone = [
        lambda x: x,
        lambda x: x**2,
        lambda x: x**3,
        np.exp,
        lambda x: x + x**2,
        lambda x: np.sin(x),
        lambda x: -np.cos(x),
        lambda x: 2.0 * x,
        lambda x: x**4,
        lambda x: np.expm1(x),
    ]
    lowest = math.inf
    for i, f in enumerate(monotone):
        g = monotone[(i + 3) % len(monotone)]
        gap, _ = chebyshev_gap(f, g, domain)
        lowest = min(lowest, gap)
    linear_gap, _ = chebyshev_gap(lambda x: x, lambda x: x, domain)
    ok = (
        worst_identity <= 1e-12
        and lowest >= -1e-13
        and relative_gap(linear_gap, 1.0 / 12.0) <= 1e-12
    )
    report(
        9,
        "covariance gap identity and co-monotone non-negativity",
        ok,
        f"identity gap {worst_identity:.2e}, lowest co-monotone gap {lowest:.2e}, "
        f"f=g=x gives {linear_gap:.12f}",
    )


def test_criterion_10_pfaffian_squares():
    rng = np.random.default_rng(31337)
    worst = 0.0
    count = 0
    orders = (2, 4, 6, 8, 10)
    while count < 500:
        order = orders[count % len(orders)]
        raw = rng.standard_normal((order, order))
        skew = (raw - raw.T) / 2.0
        worst = max(worst, relative_gap(pfaffian(skew) ** 2, determinant(skew)))
        count += 1
    ok = worst <= 1e-10
    report(
        10,
        "Pfaffian squared equals determinant, orders 2..10, 500 instances",
        ok,
        f"worst rel gap {worst:.2e}",
    )


def test_criterion_11_paper_ensembles_verify():
    worst = 0.0
    ok = True
    for name, kwargs in (
        ("muttalib-borodin", {"theta": 2.0, "c": 0.0}),
        ("laguerre-product", {"nu": 1}),
    ):
        spec = build_ensemble(name, 3, **kwargs)
        outcome = verify_andreief(spec, VerifyConfig(tolerance=1e-9))
        ok = ok and outcome.passed
        worst = max(worst, outcome.rel_gap)
    report(
        11,
        "Muttalib-Borodin and product-kernel ensembles verify at N=3",
        ok and worst <= 1e-9,
        f"worst rel gap {worst:.2e}",
    )


def test_criterion_12_cli_reproducibility_and_exit_codes():
    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        return code, out.getvalue(), err.getvalue()

    repro_ok = True
    for argv in (
        ["verify-andreief", "--n", "2", "--mc-samples", "20000", "--no-timestamp"],
        ["verify-discrete", "--format", "csv", "--no-timestamp"],
        ["biorthogonalize", "--ensemble", "legendre-monomial", "--n", "3", "--no-timestamp"],
    ):
        code_a, out_a, _ = run(argv)
        code_b, out_b, _ = run(argv)
        repro_ok = repro_ok and code_a == code_b == 0 and out_a == out_b
    golden = [
        (["partition", "--no-timestamp"], 0),
        (["verify-andreief", "--tolerance", "1e-30", "--no-timestamp"], 1),
        (["verify-andreief", "--ensemble", "nope"], 2),
        (["verify-discrete", "--rows", "2", "--cols", "3"], 2),
    ]
    codes_ok = all(run(argv)[0] == want for argv, want in golden)
    proc = subprocess.run(
        [sys.executable, "-m", "andreief.cli", "partition", "--no-timestamp"],
        capture_output=True,
        text=True,
    )
    in_process = run(["partition", "--no-timestamp"])[1]
    subprocess_ok = proc.returncode == 0 and proc.stdout == in_process
    ok = repro_ok and codes_ok and subprocess_ok
    report(
        12,
        "CLI reports byte-identical, exit codes 0/1/2 as contracted",
        ok,
        "3 commands byte-compared, 4 golden exit codes, module run matches",
    )
