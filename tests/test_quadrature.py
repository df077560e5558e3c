"""Tests for quadrature rules and the two multidimensional integrators."""

import inspect
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from andreief import identities, quadrature
from andreief.ensembles import build_ensemble
from andreief.identities import andreief_lhs_mc
from andreief.linalg import within_tolerance
from andreief.quadrature import (
    _EVAL_ROWS,
    _GRID_CHUNK,
    _MC_CHUNK,
    BudgetError,
    Domain,
    MCEstimate,
    QuadratureRule,
    gauss_rule,
    integrate_1d,
    integrate_nd,
    monte_carlo_nd,
)
from grid_oracles import point_integrand

UNIT = Domain.finite(0.0, 1.0)
SYM = Domain.finite(-1.0, 1.0)
HALF = Domain.half_line()
REAL = Domain.real_line()


def legendre_moment(k):
    # over [-1, 1]
    return 0.0 if k % 2 else 2.0 / (k + 1)


def laguerre_moment(k):
    return float(math.factorial(k))


def hermite_moment(k):
    return 0.0 if k % 2 else math.gamma((k + 1) / 2.0)


class TestDomain:
    def test_finite_orders_endpoints(self):
        with pytest.raises(ValueError, match="a < b"):
            Domain.finite(2.0, 1.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown domain kind"):
            Domain("circle")

    def test_infinite_take_no_endpoints(self):
        with pytest.raises(ValueError, match="no endpoints"):
            Domain("half_line", 0.0, 1.0)

    def test_contains(self):
        assert HALF.contains(np.array([0.5])).all()
        assert not HALF.contains(np.array([-0.5])).any()
        assert REAL.contains(np.array([-3.0, 3.0])).all()

    def test_str(self):
        assert str(UNIT) == "finite(0, 1)"
        assert str(REAL) == "real_line"


class TestGaussRule:
    def test_single_node_midpoint(self):
        rule = gauss_rule(UNIT, 1)
        assert rule.nodes[0] == pytest.approx(0.5, abs=1e-15)
        assert rule.weights[0] == pytest.approx(1.0, abs=1e-15)

    def test_hermite_two_nodes(self):
        rule = gauss_rule(REAL, 2)
        assert rule.nodes == pytest.approx([-1 / math.sqrt(2), 1 / math.sqrt(2)], abs=1e-14)
        assert rule.weights == pytest.approx([math.sqrt(math.pi) / 2] * 2, abs=1e-14)

    def test_degree_exactness_unit_interval(self):
        rule = gauss_rule(UNIT, 5)
        val = integrate_1d(rule, lambda x: x**8)
        assert val == pytest.approx(1.0 / 9.0, abs=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13])
    def test_legendre_moments(self, n):
        rule = gauss_rule(SYM, n)
        for k in range(2 * n):
            val = integrate_1d(rule, lambda x, k=k: x**k)
            assert within_tolerance(val, legendre_moment(k), 1e-13)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_laguerre_moments(self, n):
        rule = gauss_rule(HALF, n)
        for k in range(2 * n):
            val = integrate_1d(rule, lambda x, k=k: x**k)
            assert within_tolerance(val, laguerre_moment(k), 1e-13)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_hermite_moments(self, n):
        rule = gauss_rule(REAL, n)
        for k in range(2 * n):
            val = integrate_1d(rule, lambda x, k=k: x**k)
            # odd moments vanish by symmetry; measure the cancellation
            # residue against the scale of the neighboring even moment
            scale = hermite_moment(k if k % 2 == 0 else k + 1)
            assert abs(val - hermite_moment(k)) <= 1e-13 * max(1.0, scale)

    @pytest.mark.parametrize("domain", [UNIT, HALF, REAL])
    def test_default_scale_rules_construct(self, domain):
        rule = gauss_rule(domain, 40)
        assert rule.n_nodes == 40
        assert np.all(rule.weights > 0)
        assert np.all(np.diff(rule.nodes) > 0)

    def test_zero_nodes_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            gauss_rule(UNIT, 0)

    def test_embedded_weight_tagging(self):
        assert gauss_rule(UNIT, 3).embedded_weight is None
        w = gauss_rule(HALF, 3).embedded_weight
        assert w(np.array([1.0]))[0] == pytest.approx(math.exp(-1.0))
        w = gauss_rule(REAL, 3).embedded_weight
        assert w(np.array([2.0]))[0] == pytest.approx(math.exp(-4.0))


class TestGaussRuleMemo:
    def test_equal_keys_share_one_rule(self):
        rule = gauss_rule(Domain.finite(0.0, 1.0), 12)
        assert gauss_rule(Domain.finite(0.0, 1.0), 12) is rule
        assert not rule.nodes.flags.writeable and not rule.weights.flags.writeable

    def test_other_keys_build_other_rules(self):
        rule = gauss_rule(UNIT, 12)
        others = [gauss_rule(UNIT, 13), gauss_rule(Domain.finite(0.0, 2.0), 12),
                  gauss_rule(HALF, 12), gauss_rule(REAL, 12)]
        assert all(other is not rule for other in others)
        assert gauss_rule(UNIT, 13).n_nodes == 13
        assert gauss_rule(Domain.finite(0.0, 2.0), 12).nodes[-1] > 1.0

    def test_call_site_keeps_the_signature(self):
        # the benchmark's tracer binds gauss_rule's arguments by name
        assert identities.gauss_rule is gauss_rule
        assert list(inspect.signature(identities.gauss_rule).parameters) == ["domain", "n_nodes"]


class TestRuleValidation:
    def test_mismatched_lengths(self):
        with pytest.raises(ValueError, match="equal length"):
            QuadratureRule(UNIT, np.array([0.5]), np.array([0.5, 0.5]))

    def test_negative_weight(self):
        with pytest.raises(ValueError, match="positive"):
            QuadratureRule(UNIT, np.array([0.3, 0.6]), np.array([0.5, -0.5]))

    def test_unsorted_nodes(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            QuadratureRule(UNIT, np.array([0.6, 0.3]), np.array([0.5, 0.5]))

    def test_nodes_outside_domain(self):
        with pytest.raises(ValueError, match="lie in domain"):
            QuadratureRule(UNIT, np.array([0.5, 1.5]), np.array([0.5, 0.5]))


class TestIntegrate1D:
    def test_constant(self):
        rule = gauss_rule(UNIT, 4)
        assert integrate_1d(rule, lambda x: np.ones_like(x)) == pytest.approx(1.0)

    def test_scalar_return_broadcasts(self):
        rule = gauss_rule(UNIT, 4)
        assert integrate_1d(rule, lambda x: 1.0) == pytest.approx(1.0)

    def test_hermite_second_moment(self):
        rule = gauss_rule(REAL, 6)
        assert integrate_1d(rule, lambda x: x**2) == pytest.approx(
            math.sqrt(math.pi) / 2, rel=1e-14
        )

    def test_laguerre_first_moment(self):
        rule = gauss_rule(HALF, 6)
        assert integrate_1d(rule, lambda x: x) == pytest.approx(1.0, rel=1e-14)

    def test_non_finite_names_node(self):
        rule = gauss_rule(UNIT, 4)

        def f(x):
            return np.where(x < 0.5, 1.0, np.inf)

        with pytest.raises(ValueError, match="non-finite integrand value inf at node"):
            integrate_1d(rule, f)

    def test_bad_shape_rejected(self):
        rule = gauss_rule(UNIT, 4)
        with pytest.raises(ValueError, match="shape"):
            integrate_1d(rule, lambda x: np.ones(3))


class TestIntegrateND:
    def test_constant_square(self):
        rule = gauss_rule(UNIT, 4)
        assert integrate_nd(rule, 2, lambda i: np.ones(i.shape[0])) == pytest.approx(1.0)

    def test_squared_difference(self):
        rule = gauss_rule(UNIT, 4)
        val = integrate_nd(rule, 2, point_integrand(rule, lambda p: (p[:, 0] - p[:, 1]) ** 2))
        assert val == pytest.approx(1.0 / 6.0, abs=1e-14)

    def test_dim_one_matches_1d(self):
        rule = gauss_rule(UNIT, 7)
        nd = integrate_nd(rule, 1, point_integrand(rule, lambda p: p[:, 0] ** 3))
        one = integrate_1d(rule, lambda x: x**3)
        assert nd == pytest.approx(one, abs=1e-15)

    @pytest.mark.parametrize("domain", [UNIT, HALF, REAL])
    def test_product_integrand_factorizes(self, domain):
        rule = gauss_rule(domain, 10)
        f1 = integrate_1d(rule, lambda x: x**2)
        g1 = integrate_1d(rule, lambda x: x**3 + 1.0)
        val = integrate_nd(
            rule, 2, point_integrand(rule, lambda p: p[:, 0] ** 2 * (p[:, 1] ** 3 + 1.0))
        )
        assert within_tolerance(val, f1 * g1, 1e-13)

    def test_integrand_receives_row_major_node_indices(self):
        rule = gauss_rule(UNIT, 3)
        blocks = []

        def f(index):
            blocks.append(np.array(index))
            return np.ones(index.shape[0])

        integrate_nd(rule, 2, f)
        index = np.concatenate(blocks)
        assert index.dtype.kind == "i"
        assert index.tolist() == [[a, b] for a in range(3) for b in range(3)]

    def test_index_tables_match_point_evaluation(self):
        # the node-table form of an integrand sums to the same floats
        rule = gauss_rule(REAL, 9)
        g = lambda p: np.cos(p[:, 0]) * p[:, 1] ** 2 - p[:, 2]
        table = (np.cos(rule.nodes), rule.nodes**2, rule.nodes)
        by_table = integrate_nd(
            rule, 3, lambda i: table[0][i[:, 0]] * table[1][i[:, 1]] - table[2][i[:, 2]]
        )
        assert by_table == integrate_nd(rule, 3, point_integrand(rule, g))

    def test_budget_error_reports_counts(self):
        rule = gauss_rule(UNIT, 12)
        with pytest.raises(BudgetError, match="requires 5159780352 .* allowed 100000000"):
            integrate_nd(rule, 9, lambda p: np.ones(p.shape[0]))

    def test_custom_budget(self, monkeypatch):
        rule = gauss_rule(UNIT, 10)
        monkeypatch.setattr(quadrature, "DEFAULT_EVAL_BUDGET", 99)
        with pytest.raises(BudgetError):
            integrate_nd(rule, 2, lambda p: np.ones(p.shape[0]))

    def test_non_finite_rejected(self):
        rule = gauss_rule(UNIT, 4)

        def f(p):
            return np.where(p[:, 1] < 0.5, 1.0, np.nan)

        with pytest.raises(ValueError, match="non-finite integrand value nan"):
            integrate_nd(rule, 2, point_integrand(rule, f))

    def test_non_finite_names_point_coordinates(self):
        # the first bad point in grid order is (nodes[0], nodes[2])
        rule = gauss_rule(UNIT, 4)
        f = lambda i: np.where(i[:, 1] >= 2, np.inf, 1.0)
        with pytest.raises(ValueError, match="value inf at node") as info:
            integrate_nd(rule, 2, f)
        assert str(rule.nodes[[0, 2]]) in str(info.value)

    def test_chunked_matches_single_pass(self):
        n = 17
        assert n**4 > 2 * _GRID_CHUNK  # spans several chunks
        rule = gauss_rule(UNIT, n)
        val = integrate_nd(rule, 4, point_integrand(rule, lambda p: np.prod(p, axis=1)))
        assert within_tolerance(val, (0.5) ** 4, 1e-13)


class TestMonteCarlo:
    def test_constant_has_zero_error(self):
        est = monte_carlo_nd(UNIT, 3, lambda p: np.ones(p.shape[0]), 1000, seed=1)
        assert est.mean == pytest.approx(1.0)
        assert est.std_error == 0.0
        assert est.samples == 1000

    def test_squared_difference(self):
        est = monte_carlo_nd(
            UNIT, 2, lambda p: (p[:, 0] - p[:, 1]) ** 2, 10**6, seed=42
        )
        assert abs(est.mean - 1.0 / 6.0) <= 3 * est.std_error

    def test_determinism(self):
        f = lambda p: p[:, 0] * p[:, 1]
        a = monte_carlo_nd(UNIT, 2, f, 5000, seed=7)
        b = monte_carlo_nd(UNIT, 2, f, 5000, seed=7)
        assert a == b

    def test_chunked_path_deterministic(self):
        f = lambda p: p[:, 0] ** 2
        n = _MC_CHUNK + 1000
        a = monte_carlo_nd(UNIT, 1, f, n, seed=3)
        b = monte_carlo_nd(UNIT, 1, f, n, seed=3)
        assert a == b
        assert abs(a.mean - 1.0 / 3.0) <= 4 * a.std_error

    def test_chunked_std_error_with_large_mean(self):
        # Var(1e9 + U) = 1/12.  A raw sum of squares minus n * mean^2 at this
        # offset keeps none of it (std error 0.032 instead of 6.78e-4).
        n = _MC_CHUNK + 50_000
        est = monte_carlo_nd(UNIT, 1, lambda p: 1e9 + p[:, 0], n, seed=7)
        assert est.std_error == pytest.approx(1.0 / math.sqrt(12 * n), rel=0.01)

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_agrees_with_quadrature_finite(self, seed):
        rule = gauss_rule(UNIT, 10)
        quad = integrate_1d(rule, lambda x: x**3 - 2 * x)
        est = monte_carlo_nd(UNIT, 1, lambda p: p[:, 0] ** 3 - 2 * p[:, 0], 10**5, seed)
        assert abs(est.mean - quad) <= 4 * est.std_error

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_agrees_with_quadrature_half_line(self, seed):
        rule = gauss_rule(HALF, 10)
        quad = integrate_1d(rule, lambda x: x**2 + x)
        est = monte_carlo_nd(HALF, 1, lambda p: p[:, 0] ** 2 + p[:, 0], 10**5, seed)
        assert abs(est.mean - quad) <= 4 * est.std_error

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_agrees_with_quadrature_real_line(self, seed):
        rule = gauss_rule(REAL, 10)
        quad = integrate_1d(rule, lambda x: x**4)
        est = monte_carlo_nd(REAL, 1, lambda p: p[:, 0] ** 4, 10**5, seed)
        assert abs(est.mean - quad) <= 4 * est.std_error

    @pytest.mark.parametrize("samples", [1000, _MC_CHUNK + 1000], ids=["one-block", "chunked"])
    def test_non_finite_rejected(self, samples):
        def f(p):
            return np.where(p[:, 0] < 0.5, 1.0, np.inf)

        with pytest.raises(ValueError, match="non-finite integrand value inf"):
            monte_carlo_nd(UNIT, 2, f, samples, seed=5)

    def test_single_sample_has_zero_error(self):
        est = monte_carlo_nd(UNIT, 2, lambda p: p[:, 0] + 1.0, 1, seed=4)
        assert est.std_error == 0.0
        assert 1.0 <= est.mean <= 2.0

    def test_estimate_validation(self):
        with pytest.raises(ValueError, match="samples"):
            MCEstimate(mean=0.0, std_error=0.0, samples=0)
        with pytest.raises(ValueError, match="std_error"):
            MCEstimate(mean=0.0, std_error=-1.0, samples=10)


def _flat_grid(n):
    """Rule whose node k is (k + 1/2) / n, so a point names its grid index."""
    nodes = (np.arange(n) + 0.5) / n
    return QuadratureRule(UNIT, nodes, np.full(n, 1.0 / n))


class TestWorkers:
    """Blocks run on a pool of _WORKERS threads; results must not depend on it."""

    WORKER_COUNTS = (1, 2, 3)

    def _per_worker_count(self, monkeypatch, run):
        out = []
        for workers in self.WORKER_COUNTS:
            monkeypatch.setattr(quadrature, "_WORKERS", workers)
            out.append(run())
        return out

    def test_grid_identical_across_worker_counts(self, monkeypatch):
        rule = gauss_rule(UNIT, 13)
        assert rule.n_nodes**4 > 3 * _GRID_CHUNK
        f = point_integrand(
            rule, lambda p: np.exp(p[:, 0] * p[:, 1]) - p[:, 2] * np.sin(p[:, 3])
        )
        vals = self._per_worker_count(monkeypatch, lambda: integrate_nd(rule, 4, f))
        assert vals[1:] == vals[:-1]

    @pytest.mark.parametrize("domain", [UNIT, HALF, REAL], ids=str)
    def test_mc_identical_across_worker_counts(self, monkeypatch, domain):
        samples = 3 * _MC_CHUNK + 1234  # several blocks plus a remainder
        f = lambda p: p[:, 0] ** 2 + p[:, 1]
        ests = self._per_worker_count(
            monkeypatch, lambda: monte_carlo_nd(domain, 2, f, samples, seed=21)
        )
        assert ests[1:] == ests[:-1]

    def test_grid_first_failing_chunk_raises(self, monkeypatch):
        # non-finite values in chunks 2 and 4 (of 6); chunk 2 must be named
        n = math.isqrt(6 * _GRID_CHUNK)
        rule = _flat_grid(n)
        bad = {2 * _GRID_CHUNK + 5: np.nan, 4 * _GRID_CHUNK + 5: np.inf}

        def f(p):
            index = np.rint(p * n - 0.5).astype(int) @ np.array([n, 1])
            values = np.ones(p.shape[0])
            for i, value in bad.items():
                values[index == i] = value
            return values

        assert n * n > 5 * _GRID_CHUNK
        want = rule.nodes[np.array(divmod(2 * _GRID_CHUNK + 5, n))]
        for workers in self.WORKER_COUNTS:
            monkeypatch.setattr(quadrature, "_WORKERS", workers)
            with pytest.raises(ValueError, match="value nan at node") as info:
                integrate_nd(rule, 2, point_integrand(rule, f))
            assert str(want) in str(info.value)

    def test_mc_first_failing_block_raises(self, monkeypatch):
        # Blocks 2 and 4 (of 6) are recognised by their first sample, drawn
        # from the same generator in block order.
        samples = 5 * _MC_CHUNK + 100
        stream = np.random.default_rng(8).uniform(0.0, 1.0, size=(samples, 1))
        first = {stream[2 * _MC_CHUNK, 0]: np.nan, stream[4 * _MC_CHUNK, 0]: np.inf}

        def f(p):
            values = p[:, 0].copy()
            values[0] = first.get(p[0, 0], values[0])
            return values

        for workers in self.WORKER_COUNTS:
            monkeypatch.setattr(quadrature, "_WORKERS", workers)
            with pytest.raises(ValueError, match="value nan at node"):
                monte_carlo_nd(UNIT, 1, f, samples, seed=8)

    def test_no_thread_outlives_the_call(self, monkeypatch):
        rule = gauss_rule(UNIT, 11)
        baseline = threading.active_count()
        for workers in self.WORKER_COUNTS:
            monkeypatch.setattr(quadrature, "_WORKERS", workers)
            integrate_nd(rule, 4, point_integrand(rule, lambda p: p[:, 0]))
            monte_carlo_nd(UNIT, 1, lambda p: p[:, 0], 2 * _MC_CHUNK + 1, seed=1)
            assert threading.active_count() == baseline
            with pytest.raises(ValueError, match="non-finite"):
                integrate_nd(
                    rule, 4, point_integrand(rule, lambda p: np.where(p[:, 0] > 0.9, np.nan, 1.0))
                )
            with pytest.raises(ValueError, match="non-finite"):
                monte_carlo_nd(UNIT, 1, lambda p: np.where(p[:, 0] > 0.9, np.inf, 1.0),
                               2 * _MC_CHUNK + 1, seed=1)
            assert threading.active_count() == baseline

    def test_blocks_in_flight_bounded(self, monkeypatch):
        # More workers than cores, a short switch interval and sleeping
        # tasks: at most _WORKERS blocks are ever drawn but unfinished, and
        # results still come back in block order.
        monkeypatch.setattr(quadrature, "_WORKERS", 4)
        lock = threading.Lock()
        state = {"drawn": 0, "done": 0, "peak": 0}

        def blocks():
            for k in range(40):
                with lock:
                    state["drawn"] += 1
                    state["peak"] = max(state["peak"], state["drawn"] - state["done"])
                yield k

        def task(k):
            time.sleep(0.001 * (k % 3))
            with lock:
                state["done"] += 1
            return k

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert quadrature._run_blocks(task, blocks()) == list(range(40))
        finally:
            sys.setswitchinterval(interval)
        assert state["peak"] <= 4
        assert state["done"] == 40


class TestEvalSlices:
    """Monte Carlo integrands run on row slices of at most _EVAL_ROWS rows
    of each sample block; the estimate must equal whole-block calls."""

    # two full blocks, then a block of 5 full slices and a partial one
    SAMPLES = 2 * _MC_CHUNK + 5 * _EVAL_ROWS + 77

    def _sliced_and_whole(self, monkeypatch, run):
        out = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(quadrature, "_WORKERS", workers)
            for rows in (_EVAL_ROWS, _MC_CHUNK):
                monkeypatch.setattr(quadrature, "_EVAL_ROWS", rows)
                out.append(run())
        return out

    @pytest.mark.parametrize("domain", [UNIT, HALF, REAL], ids=str)
    def test_estimate_equals_whole_block_calls(self, monkeypatch, domain):
        assert (self.SAMPLES % _MC_CHUNK) % _EVAL_ROWS != 0
        f = lambda p: np.exp(-p[:, 0]) * p[:, 1] - np.prod(p, axis=1)
        ests = self._sliced_and_whole(
            monkeypatch, lambda: monte_carlo_nd(domain, 3, f, self.SAMPLES, seed=5)
        )
        assert ests[1:] == ests[:-1]

    @pytest.mark.parametrize(
        "name", ["uniform-monomial", "gue-monomial", "muttalib-borodin"]
    )
    def test_andreief_lhs_mc_equals_whole_block_calls(self, monkeypatch, name):
        spec = build_ensemble(name, 3)
        ests = self._sliced_and_whole(
            monkeypatch, lambda: andreief_lhs_mc(spec, self.SAMPLES, seed=9)
        )
        assert ests[1:] == ests[:-1]

    def test_integrand_sees_every_row_in_draw_order(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_WORKERS", 1)
        seen = []

        def f(p):
            seen.append(p.copy())
            return p[:, 0]

        monte_carlo_nd(UNIT, 2, f, self.SAMPLES, seed=4)
        assert max(len(rows) for rows in seen) == _EVAL_ROWS
        stream = np.random.default_rng(4).uniform(0.0, 1.0, size=(self.SAMPLES, 2))
        assert np.array_equal(np.concatenate(seen), stream)

    def test_non_finite_value_named_by_its_coordinates(self, monkeypatch):
        # bad rows in the third slice of block 2, a later slice of it and
        # the first slice of block 3; the first of them must be named
        samples = 4 * _MC_CHUNK + 100
        stream = np.random.default_rng(6).uniform(0.0, 1.0, size=(samples, 2))
        first = 2 * _MC_CHUNK + 2 * _EVAL_ROWS + 7
        later = (2 * _MC_CHUNK + 4 * _EVAL_ROWS, 3 * _MC_CHUNK + 3)
        bad = {stream[first, 0]: np.nan} | {stream[i, 0]: np.inf for i in later}

        def f(p):
            values = p[:, 1].copy()
            for x, value in bad.items():
                values[p[:, 0] == x] = value
            return values

        for workers in (1, 2, 3):
            monkeypatch.setattr(quadrature, "_WORKERS", workers)
            with pytest.raises(ValueError, match="value nan at node") as info:
                monte_carlo_nd(UNIT, 2, f, samples, seed=6)
            assert str(stream[first]) in str(info.value)

    def test_traced_peak_of_one_mc_check(self, monkeypatch):
        # Whole-block calls peak at 22 MB on this check: a dozen (2**17, 3)
        # sized temporaries per block.  Slices keep them in the low megabytes.
        monkeypatch.setattr(quadrature, "_WORKERS", 1)
        spec = build_ensemble("gue-monomial", 3)
        andreief_lhs_mc(spec, 10, seed=1)  # imports and caches off the trace
        tracemalloc.start()
        try:
            andreief_lhs_mc(spec, 2 * _MC_CHUNK + 5, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20
