"""Spans around the andreief layers, recorded from outside the package.

Each traced function is replaced, for the length of a traced run, at the
module attribute its caller looks it up by (``identities.integrate_nd``,
``biortho.gram_matrix``, ...).  The package source is not touched.  A span
is ``[name, start, end, parent, job]``; spans stay in memory and are
written out when the run ends.  A site whose function no longer exists is
skipped, so a renamed or removed layer function gives an absent metric.

The integrand that the engines hand to ``integrate_nd`` and
``monte_carlo_nd`` is wrapped as well, as ``identities.integrand``.  Its
self time is family and kernel evaluation; the batched det/Pf kernels are
its children.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import math
import types
from collections import Counter
from time import perf_counter

# (module, attribute the caller looks up, span name, counter hook)
SITES = (
    ("cli", "parse_config", "cli.parse_config", None),
    ("cli", "run", "cli.run", None),
    ("cli", "build_ensemble", "ensembles.build_ensemble", None),
    ("cli", "verify_andreief", "identities.verify_andreief", None),
    ("cli", "debruijn_rhs", "identities.debruijn_rhs", None),
    ("cli", "debruijn_lhs_quadrature", "identities.debruijn_lhs_quadrature", None),
    ("cli", "gram_matrix", "identities.gram_matrix", None),
    ("cli", "andreief_rhs", "identities.andreief_rhs", None),
    ("cli", "chebyshev_gap", "identities.chebyshev_gap", None),
    ("cli", "cauchy_binet_lhs", "discrete.cauchy_binet_lhs", None),
    ("cli", "cauchy_binet_rhs", "discrete.cauchy_binet_rhs", None),
    ("cli", "minor_summation_lhs", "discrete.minor_summation_lhs", None),
    ("cli", "minor_summation_rhs", "discrete.minor_summation_rhs", None),
    ("cli", "discretized_andreief", "discrete.discretized_andreief", None),
    ("cli", "block_reclaims_cauchy_binet", "discrete.block_reclaims_cauchy_binet", None),
    ("cli", "biorthogonalize", "biortho.biorthogonalize", None),
    ("cli", "biorthogonality_residuals", "biortho.biorthogonality_residuals", None),
    ("cli", "partition_function", "biortho.partition_function", None),
    ("identities", "gram_matrix", "identities.gram_matrix", None),
    ("identities", "andreief_rhs", "identities.andreief_rhs", None),
    ("identities", "andreief_lhs_quadrature", "identities.andreief_lhs_quadrature", None),
    ("identities", "andreief_lhs_mc", "identities.andreief_lhs_mc", None),
    ("identities", "weight_factorization", "ensembles.weight_factorization", None),
    ("identities", "gauss_rule", "quadrature.gauss_rule", "gauss_rule"),
    ("identities", "integrate_1d", "quadrature.integrate_1d", None),
    ("identities", "integrate_nd", "quadrature.integrate_nd", "integrate_nd"),
    ("identities", "monte_carlo_nd", "quadrature.monte_carlo_nd", "monte_carlo_nd"),
    ("identities", "determinant_batch", "linalg.determinant_batch", "determinant_batch"),
    ("identities", "pfaffian_batch", "linalg.pfaffian_batch", "pfaffian_batch"),
    ("identities", "determinant", "linalg.determinant", None),
    ("identities", "pfaffian", "linalg.pfaffian", None),
    ("biortho", "gram_matrix", "identities.gram_matrix", None),
    ("biortho", "gauss_rule", "quadrature.gauss_rule", "gauss_rule"),
    ("biortho", "biorthogonalize", "biortho.biorthogonalize", None),
    ("biortho", "family_matrix", "ensembles.family_matrix", None),
    ("biortho", "determinant", "linalg.determinant", None),
    ("discrete", "cauchy_binet_lhs", "discrete.cauchy_binet_lhs", None),
    ("discrete", "cauchy_binet_rhs", "discrete.cauchy_binet_rhs", None),
    ("discrete", "minor_summation_rhs", "discrete.minor_summation_rhs", None),
    ("discrete", "family_matrix", "ensembles.family_matrix", None),
    ("discrete", "subsets", "linalg.subsets", "subsets"),
    ("discrete", "determinant", "linalg.determinant", None),
    ("discrete", "pfaffian", "linalg.pfaffian", None),
    ("discrete", "pfaffian_by_expansion", "linalg.pfaffian_by_expansion", None),
    ("ensembles", "determinant", "linalg.determinant", None),
    ("linalg", "pfaffian", "linalg.pfaffian", None),
)

INTEGRAND = "identities.integrand"


def det_batch_flops(n: int) -> int:
    """Flops of one order-n partial-pivot elimination plus the pivot
    product: per step k, m = n-k-1 divisions and m^2 multiply-subtracts."""
    return sum(2 * m * m + m for m in range(n)) + n


class Tracer:
    """Span and counter store for one traced run."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None
        self.counts = Counter()
        self.counters = set()
        self.hook_errors = Counter()
        self.installed = set()
        self._saved = []
        self._rules_seen = set()

    # -- recording -------------------------------------------------------

    def wrap(self, fn, name, hook=None):
        spans, stack = self.spans, self.stack
        signature = None
        if hook is not None:
            try:
                signature = inspect.signature(fn)
            except (TypeError, ValueError):
                hook = None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    getattr(self, "_hook_" + hook)(bound.arguments)
                    args, kwargs = bound.args, bound.kwargs
                except (TypeError, ValueError, KeyError, AttributeError, IndexError):
                    self.hook_errors[hook] += 1
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()

        return traced

    def _hook_integrate_nd(self, a):
        n, dim = int(a["rule"].n_nodes), int(a["dim"])
        self.counts["grid_points"] += n**dim
        self.counts["subset_points"] += math.comb(n, dim)
        self.counts["distinct_points"] += math.perm(n, dim)
        a["f"] = self.wrap(a["f"], INTEGRAND)

    def _hook_monte_carlo_nd(self, a):
        self.counts["mc_samples"] += int(a["samples"])
        a["f"] = self.wrap(a["f"], INTEGRAND)

    def _hook_determinant_batch(self, a):
        p, n = _stack_shape(a["stack"])
        self.counts["det_batch_matrices"] += p
        self.counts["det_batch_flops"] += p * det_batch_flops(n)
        self.counts["det_batch_bytes"] += 8 * p * (n * n + 1)

    def _hook_pfaffian_batch(self, a):
        self.counts["pf_batch_matrices"] += _stack_shape(a["stack"])[0]

    def _hook_gauss_rule(self, a):
        key = (self.job, a["domain"], int(a["n_nodes"]))
        self.counts["gauss_rule_repeats"] += key in self._rules_seen
        self._rules_seen.add(key)

    def _hook_subsets(self, a):
        self.counts["subsets"] += math.comb(int(a["m"]), int(a["n"]))

    # -- installation ----------------------------------------------------

    def install(self, modules: dict, sites=SITES):
        """Wrap every site whose module and function exist."""
        for module_name, attr, name, hook in sites:
            module = modules.get(module_name)
            fn = getattr(module, attr, None) if module is not None else None
            if not callable(fn):
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(fn, name, hook))
            self.installed.add(name)
            if hook is not None:
                self.counters.add(hook)

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    # -- reduction -------------------------------------------------------

    def durations(self):
        """(inclusive, self) seconds per span name.  Inclusive time counts
        only the outermost span of a name, so recursion is not counted
        twice."""
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        inclusive, self_time = Counter(), Counter()
        for i, s in enumerate(spans):
            dur = s[2] - s[1]
            self_time[s[0]] += dur - child[i]
            parent = s[3]
            while parent >= 0 and spans[parent][0] != s[0]:
                parent = spans[parent][3]
            if parent < 0:
                inclusive[s[0]] += dur
        return inclusive, self_time

    def write(self, path: str):
        """Gzipped JSON lines: a header naming the fields, then one array
        per span; parent is the line index of the parent span, -1 for none."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(json.dumps(["name", "start", "end", "parent", "job"]) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _stack_shape(stack):
    shape = getattr(stack, "shape", None)
    if shape is None or len(shape) != 3:
        raise ValueError("not a (P, n, n) stack")
    return int(shape[0]), int(shape[1])


def layer_metrics(tracer: Tracer, passes: int, traced_wall: float, plain_wall: float) -> dict:
    """Per-layer metrics per pass.  A metric whose span or counter site
    was not installed is absent."""
    inclusive, self_time = tracer.durations()
    counts = Counter(s[0] for s in tracer.spans)
    has = tracer.installed.__contains__
    counter_ok = lambda hook: hook in tracer.counters and not tracer.hook_errors[hook]
    c = tracer.counts
    out = {}

    def put(name, unit, value, present=True):
        if present:
            out[name] = {"value": value / passes if unit != "ratio" else value, "unit": unit}

    put("quadrature.integrate_nd_self_s", "s", self_time["quadrature.integrate_nd"],
        has("quadrature.integrate_nd"))
    put("quadrature.grid_points", "count", c["grid_points"], counter_ok("integrate_nd"))
    if counter_ok("integrate_nd") and c["grid_points"]:
        put("quadrature.subset_ratio", "ratio", c["subset_points"] / c["grid_points"])
        put("quadrature.distinct_point_ratio", "ratio", c["distinct_points"] / c["grid_points"])
    put("identities.integrand_self_s", "s", self_time[INTEGRAND],
        has("quadrature.integrate_nd") or has("quadrature.monte_carlo_nd"))
    put("linalg.determinant_batch_s", "s", inclusive["linalg.determinant_batch"],
        has("linalg.determinant_batch"))
    put("linalg.det_batch_matrices", "count", c["det_batch_matrices"], counter_ok("determinant_batch"))
    put("linalg.det_batch_flops_computed", "flop", c["det_batch_flops"], counter_ok("determinant_batch"))
    put("linalg.det_batch_bytes_computed", "B", c["det_batch_bytes"], counter_ok("determinant_batch"))
    put("linalg.pfaffian_batch_s", "s", inclusive["linalg.pfaffian_batch"], has("linalg.pfaffian_batch"))
    put("linalg.pf_batch_matrices", "count", c["pf_batch_matrices"], counter_ok("pfaffian_batch"))
    put("quadrature.monte_carlo_nd_self_s", "s", self_time["quadrature.monte_carlo_nd"],
        has("quadrature.monte_carlo_nd"))
    put("quadrature.mc_samples", "count", c["mc_samples"], counter_ok("monte_carlo_nd"))
    put("quadrature.gauss_rule_s", "s", inclusive["quadrature.gauss_rule"], has("quadrature.gauss_rule"))
    put("quadrature.gauss_rule_calls", "count", counts["quadrature.gauss_rule"],
        has("quadrature.gauss_rule"))
    if counter_ok("gauss_rule") and counts["quadrature.gauss_rule"]:
        put("quadrature.gauss_rule_repeat_ratio", "ratio",
            c["gauss_rule_repeats"] / counts["quadrature.gauss_rule"])
    put("identities.gram_matrix_s", "s", inclusive["identities.gram_matrix"],
        has("identities.gram_matrix"))
    put("quadrature.integrate_1d_calls", "count", counts["quadrature.integrate_1d"],
        has("quadrature.integrate_1d"))
    for name, metric in (
        ("biortho.biorthogonalize", "biortho.biorthogonalize_s"),
        ("biortho.biorthogonality_residuals", "biortho.residuals_s"),
        ("biortho.partition_function", "biortho.partition_function_s"),
        ("discrete.cauchy_binet_lhs", "discrete.cauchy_binet_lhs_s"),
        ("discrete.cauchy_binet_rhs", "discrete.cauchy_binet_rhs_s"),
        ("discrete.minor_summation_lhs", "discrete.minor_summation_lhs_s"),
        ("discrete.minor_summation_rhs", "discrete.minor_summation_rhs_s"),
        ("discrete.discretized_andreief", "discrete.discretized_andreief_s"),
        ("discrete.block_reclaims_cauchy_binet", "discrete.block_reclaims_s"),
        ("cli.parse_config", "cli.parse_config_s"),
    ):
        put(metric, "s", inclusive[name], has(name))
    put("discrete.subsets", "count", c["subsets"], counter_ok("subsets"))
    put("linalg.determinant_calls", "count", counts["linalg.determinant"], has("linalg.determinant"))
    put("cli.self_s", "s", self_time["cli.run"], has("cli.run"))
    put("trace.overhead_s", "s", traced_wall - plain_wall)
    grid = ("quadrature.integrate_nd_self_s", "identities.integrand_self_s",
            "linalg.determinant_batch_s", "linalg.pfaffian_batch_s")
    if "quadrature.integrate_nd_self_s" in out:
        explained = sum(out[name]["value"] for name in grid if name in out)
        out["trace.accounted_share"] = {"value": explained / traced_wall, "unit": "ratio"}
        out["trace.remainder_s"] = {"value": traced_wall - explained, "unit": "s"}
    return out


def self_check() -> list:
    """A site whose function is missing is skipped and its metrics are
    absent; present sites still record.  Returns failure messages."""
    fake = types.ModuleType("fake")
    fake.integrate_nd = lambda rule, dim, f: f(dim)
    fake.determinant = lambda m: m
    tracer = Tracer()
    tracer.install({"identities": fake}, sites=(
        ("identities", "integrate_nd", "quadrature.integrate_nd", "integrate_nd"),
        ("identities", "determinant", "linalg.determinant", None),
        ("identities", "pfaffian_batch", "linalg.pfaffian_batch", "pfaffian_batch"),
        ("gone", "gauss_rule", "quadrature.gauss_rule", "gauss_rule"),
    ))
    tracer.job = "self-check"
    fake.determinant(2.0)
    rule = types.SimpleNamespace(n_nodes=3)
    fake.integrate_nd(rule, 2, lambda dim: dim)
    tracer.uninstall()
    metrics = layer_metrics(tracer, 1, 1.0, 1.0)
    bad = []
    for absent in ("linalg.pfaffian_batch_s", "linalg.pf_batch_matrices",
                   "quadrature.gauss_rule_s", "quadrature.gauss_rule_calls",
                   "quadrature.mc_samples"):
        if absent in metrics:
            bad.append(f"missing function still gave {absent}")
    if metrics.get("linalg.determinant_calls", {}).get("value") != 1:
        bad.append("wrapped determinant was not counted")
    if metrics.get("quadrature.grid_points", {}).get("value") != 9:
        bad.append("integrate_nd grid points not counted")
    if abs(metrics.get("quadrature.subset_ratio", {}).get("value", 0) - 3 / 9) > 1e-15:
        bad.append("subset ratio wrong")
    tree = [(s[0], s[3]) for s in tracer.spans]
    if tree != [("linalg.determinant", -1), ("quadrature.integrate_nd", -1), (INTEGRAND, 1)]:
        bad.append("span tree wrong")
    if fake.determinant(1.0) != 1.0 or len(tracer.spans) != 3:
        bad.append("uninstall left a wrapper in place")
    return bad
