"""Command-line verification frontend.

Resolves a run configuration from a flat JSON config file and/or command
line flags (flags win), executes the requested verification engine, and
emits a machine-readable report that embeds the fully resolved
configuration, so pass/fail decisions are recomputable from the report
alone: every check is an identities.Check, judged by identities.check, and
the report's overall verdict is their AND.  Exit status: 0 when every check
passed, 1 when an identity check failed, 2 on usage or engine errors
(running out of memory among them).
"""

from __future__ import annotations

import argparse
import io
import csv
import functools
import json
import math
import sys
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from typing import NamedTuple

import numpy as np

from .biortho import biorthogonality_residuals, biorthogonalize, partition_function
from .discrete import (
    _check_table_budget,
    _check_tuple_budget,
    block_reclaims_cauchy_binet,
    cauchy_binet_lhs,
    cauchy_binet_rhs,
    discretized_andreief,
    minor_summation_lhs,
    minor_summation_rhs,
    ordered_tuple_sum,
)
from .ensembles import EnsembleSpec, KernelFunction, NodeMeasure, build_ensemble
from .identities import (
    DEFAULT_SEED,
    DEFAULT_TOLERANCE,
    VerifyConfig,
    andreief_rhs,
    chebyshev_gap,
    check,
    debruijn_lhs_quadrature,
    debruijn_rhs,
    gram_matrix,
    verify_andreief,
)
from .quadrature import (
    DEFAULT_NODES_1D, DEFAULT_NODES_TENSOR, Domain, _check_subset_budget, _sample_block
)

__all__ = ["RunConfig", "main", "parse_config", "run"]

COMMANDS = (
    "verify-andreief",
    "verify-debruijn",
    "verify-discrete",
    "verify-chebyshev",
    "biorthogonalize",
    "partition",
)

# named integrands for the covariance-gap checks; kept tiny on purpose,
# arbitrary code in a config file is a non-goal
CHEBYSHEV_FUNCTIONS = {
    "x": lambda x: x,
    "-x": lambda x: -x,
    "x^2": lambda x: x**2,
    "-x^2": lambda x: -(x**2),
    "x^3": lambda x: x**3,
    "exp": np.exp,
    "-exp": lambda x: -np.exp(x),
    "cos": np.cos,
}


class Setting(NamedTuple):
    """One run setting: its flags, value type (bool for an on-switch),
    default, help text and allowed values.  Its name is its config-file
    key."""

    flags: tuple
    type: type
    default: object
    help: str
    choices: tuple | None = None


# every run setting, in --help order
SETTINGS = {
    "ensemble": Setting(("--ensemble",), str, "uniform-monomial", "built-in ensemble name"),
    "size": Setting(("--n", "--size"), int, 2, "number of functions N"),
    "theta": Setting(("--theta",), float, 2.0, "stretching exponent"),
    "c": Setting(("--c",), float, 0.0, "Laguerre weight exponent"),
    "nu": Setting(("--nu",), int, 1, "product-kernel offset"),
    "shifts": Setting(("--shifts",), str, None, "comma-separated shift list"),
    "kernel": Setting(("--kernel",), str, "sign", "antisymmetric kernel name (verify-debruijn)"),
    "rows": Setting(("--rows",), int, 4, "row count M (verify-discrete)"),
    "cols": Setting(("--cols",), int, 3, "column count N (verify-discrete)"),
    "instances": Setting(("--instances",), int, 25, "random instances (verify-discrete)"),
    "f": Setting(("--f",), str, "x", "first function name (verify-chebyshev)"),
    "g": Setting(("--g",), str, "x^2", "second function name (verify-chebyshev)"),
    "a": Setting(("--a",), float, 0.0, "interval start (verify-chebyshev)"),
    "b": Setting(("--b",), float, 1.0, "interval end (verify-chebyshev)"),
    "n_nodes": Setting(("--n-nodes",), int, DEFAULT_NODES_1D, "1-D quadrature nodes"),
    "mc_samples": Setting(("--mc-samples",), int, 0,
                          "Monte Carlo samples (0 disables, else at least 2)"),
    "seed": Setting(("--seed",), int, DEFAULT_SEED, "random seed"),
    "tolerance": Setting(("--tolerance",), float, DEFAULT_TOLERANCE, "relative pass tolerance"),
    "output_path": Setting(("--output",), str, None, "report file (default stdout)"),
    "format": Setting(("--format",), str, "json", "report format", ("json", "csv")),
    "no_timestamp": Setting(("--no-timestamp",), bool, False, "omit the timestamp field"),
}

# the command-specific settings each command reports as its extras
EXTRAS = {
    "verify-debruijn": ("kernel",),
    "verify-discrete": ("rows", "cols", "instances"),
    "verify-chebyshev": ("f", "g", "a", "b"),
}


class UsageError(ValueError):
    """Configuration input that cannot be resolved into a run."""


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run description.

    ensemble_params records the constructor arguments of the resolved
    ensemble and extras the command-specific settings; both go into the
    report verbatim.  timestamp=False drops the timestamp field so
    repeated runs byte-compare equal.
    """

    command: str
    ensemble: EnsembleSpec
    ensemble_params: dict
    n_nodes: int = SETTINGS["n_nodes"].default
    mc_samples: int = SETTINGS["mc_samples"].default
    seed: int = SETTINGS["seed"].default
    tolerance: float = SETTINGS["tolerance"].default
    output_path: str | None = SETTINGS["output_path"].default
    format: str = SETTINGS["format"].default
    extras: dict | None = None
    timestamp: bool = not SETTINGS["no_timestamp"].default

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise UsageError(
                f"unknown command {self.command!r}; choose from: " + ", ".join(COMMANDS)
            )
        if not 0 < self.tolerance < math.inf:
            raise UsageError("tolerance must be positive and finite")
        if self.mc_samples < 0:
            raise UsageError("mc_samples must be non-negative")
        if self.mc_samples == 1:
            raise UsageError(
                "mc_samples must be 0 (off) or at least 2: one sample has no standard error"
            )
        if self.seed < 0:
            raise UsageError("seed must be non-negative")
        if self.n_nodes < 1:
            raise UsageError("n_nodes must be at least 1")
        if self.format not in SETTINGS["format"].choices:
            raise UsageError(f"unknown format {self.format!r}; choose json or csv")
        if self.extras is None:
            object.__setattr__(self, "extras", {})


# ---------------------------------------------------------------------------
# configuration resolution


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parsing leaves it unchanged,
    so every call shares it."""
    parser = argparse.ArgumentParser(
        prog="andreief",
        description="Verify determinant/Pfaffian integration identities "
        "and their discrete analogues.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="JSON file with flat key-value settings")
    for name, setting in SETTINGS.items():
        # a switch defaults to None, not False, so that an absent one defers to the file
        kind = ({"action": "store_true", "default": None} if setting.type is bool
                else {"type": setting.type, "choices": setting.choices})
        parser.add_argument(*setting.flags, dest=name, help=setting.help, **kind)
    return parser


def _coerce(key: str, value):
    """A config-file value as its setting's type: a whole number for an
    int, a number for a float (neither takes true or false), a JSON string
    for a str (for shifts also a list, as _parse_shifts reads both) and
    true or false for a switch.  Anything else is a UsageError naming the
    key."""
    kind = SETTINGS[key].type if key in SETTINGS else None
    try:
        if kind in (int, float) and isinstance(value, bool):
            raise ValueError
        if kind is int:
            if not float(value) == int(value):
                raise ValueError
            return int(value)
        if kind is float:
            return float(value)
        if kind is str and not (
            isinstance(value, str) or key == "shifts" and isinstance(value, list)
        ):
            raise ValueError
        if kind is bool and not isinstance(value, bool):
            raise ValueError
    except (TypeError, ValueError):
        raise UsageError(f"invalid value for {key!r}: {value!r}") from None
    return value


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc}") from None
    return _load_config_text(text)


def _load_config_text(text: str) -> dict:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise UsageError("config must be a flat JSON object")
    unknown = sorted(set(raw) - set(SETTINGS) - {"command"})
    if unknown:
        raise UsageError("unknown config key(s): " + ", ".join(map(repr, unknown)))
    return {key: _coerce(key, value) for key, value in raw.items()}


def _parse_shifts(value) -> tuple | None:
    if value is None:
        return None
    if isinstance(value, str):
        parts = [p for p in value.split(",") if p.strip()]
    elif isinstance(value, (list, tuple)):
        parts = list(value)
    else:
        raise UsageError(f"invalid value for 'shifts': {value!r}")
    try:
        return tuple(float(p) for p in parts)
    except (TypeError, ValueError):
        raise UsageError(f"invalid value for 'shifts': {value!r}") from None


def _join_function_names(argv: list) -> list:
    """Join --f/--g with a following CHEBYSHEV_FUNCTIONS name into one
    --f=NAME token, since argparse reads a dash-led name such as -x as an
    option of its own."""
    joined = []
    for token in argv:
        if joined and joined[-1] in ("--f", "--g") and token in CHEBYSHEV_FUNCTIONS:
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def parse_config(source) -> RunConfig:
    """Resolve a RunConfig from CLI argv tokens or JSON config text.

    A list is parsed as flags (with --config merged underneath them); a
    string is parsed as the config text itself.  Every setting takes its
    flag, else its config value, else its SETTINGS default, so the result
    is fully resolved.  A config file may name the command only when it
    names the positional one.
    """
    if isinstance(source, str):
        file_values = _load_config_text(source)
        flags = {}
        command = file_values.get("command")
        if command is None:
            raise UsageError("config must name a command")
    else:
        parsed = build_parser().parse_args(_join_function_names(list(source)))
        file_values = _load_config_file(parsed.config) if parsed.config else {}
        command = parsed.command
        if file_values.get("command", command) != command:
            raise UsageError(
                f"config command {file_values['command']!r} differs from the "
                f"command {command!r}"
            )
        flags = vars(parsed)

    values = {
        name: flags[name] if flags.get(name) is not None else file_values.get(name, setting.default)
        for name, setting in SETTINGS.items()
    }

    values["shifts"] = _parse_shifts(values["shifts"])
    ensemble_params = {"name": values["ensemble"],
                       **{k: values[k] for k in ("size", "theta", "c", "shifts", "nu")}}
    ensemble = build_ensemble(**ensemble_params)
    if ensemble_params["shifts"] is not None:
        ensemble_params["shifts"] = list(ensemble_params["shifts"])

    extras = {key: values[key] for key in EXTRAS.get(command, ())}
    if extras.get("instances", 1) < 1:
        raise UsageError("instances must be at least 1")
    for key in ("f", "g"):
        if key in extras and extras[key] not in CHEBYSHEV_FUNCTIONS:
            raise UsageError(
                f"unknown function {extras[key]!r} for {key!r}; choose from: "
                + ", ".join(sorted(CHEBYSHEV_FUNCTIONS))
            )

    return RunConfig(
        command=command,
        ensemble=ensemble,
        ensemble_params=ensemble_params,
        **{key: values[key] for key in ("n_nodes", "mc_samples", "seed", "tolerance",
                                        "output_path", "format")},
        extras=extras,
        timestamp=not values["no_timestamp"],
    )


# ---------------------------------------------------------------------------
# command engines


def _run_verify_andreief(config: RunConfig):
    return verify_andreief(
        config.ensemble,
        VerifyConfig(
            n_nodes_1d=config.n_nodes,
            mc_samples=config.mc_samples,
            seed=config.seed,
            tolerance=config.tolerance,
        ),
    ), {}


def _run_verify_debruijn(config: RunConfig):
    spec = config.ensemble
    kernel = KernelFunction.builtin(config.extras["kernel"])
    # both sides share one 1-D rule: the identity then holds exactly over
    # the discrete node measure, even for the discontinuous sign kernel
    rhs = debruijn_rhs(spec.left, kernel, spec.domain, config.n_nodes)
    lhs = debruijn_lhs_quadrature(spec.left, kernel, spec.domain, config.n_nodes)
    return [check(f"debruijn-{kernel.kind}", lhs, rhs, config.tolerance)], {}


def _run_verify_discrete(config: RunConfig):
    rng = np.random.default_rng(config.seed)
    rows_m = config.extras["rows"]
    cols_n = config.extras["cols"]
    instances = config.extras["instances"]
    spec = config.ensemble
    tolerance = config.tolerance

    def draw(r, c):
        return rng.integers(-3, 4, size=(r, c))

    def skew(order):
        raw = rng.integers(-3, 4, size=(order, order))
        return raw - raw.T

    cb_checks, ms_checks, bridge_checks, block_checks = [], [], [], []
    block_ratios = set()
    # the bridge's subset sum against the ordered-tuple sum it reduces
    tuples_agree = True
    # minor summation needs an even row count; shrink odd requests by one
    ms_cols = cols_n - (cols_n % 2)
    n_points = max(rows_m, spec.size)
    if 0 <= cols_n <= rows_m:
        # every budget an instance can exceed, in loop order, before the first
        # builds a table; any other shape fails the first instance at once
        _check_subset_budget(rows_m, cols_n, "rows")
        _check_table_budget("cauchy_binet", rows_m, cols_n)
        # (minor summation's C(rows, ms_cols) subsets are fewer than those products)
        _check_table_budget("minor_summation", rows_m, ms_cols)
        _check_tuple_budget(n_points, spec.size)
        _check_table_budget("compression", 2 * cols_n, 2 * cols_n)
    for _ in range(instances):
        x, y = draw(rows_m, cols_n), draw(rows_m, cols_n)
        cb_checks.append(check("cauchy-binet", cauchy_binet_lhs(x, y), cauchy_binet_rhs(x, y),
                               tolerance, exact=True))

        a, t = skew(rows_m), draw(ms_cols, rows_m)
        ms_checks.append(check("minor-summation", minor_summation_lhs(a, t),
                               minor_summation_rhs(a, t), tolerance, exact=True))

        pts = np.sort(_sample_block(rng, spec.domain, (n_points,)))
        weights, (f, phi) = NodeMeasure.points(pts).tables((spec.left, spec.right))
        tuple_sum = ordered_tuple_sum(weights, f, phi)
        lhs, rhs = discretized_andreief(weights, f, phi)
        # relative to the subset sum itself: max(1, ...) passes values below 1 vacuously
        tuples_agree &= check("tuple-sum", tuple_sum, lhs, tolerance, scale=abs(lhs)).passed
        bridge_checks.append(check("discretization-bridge", lhs, rhs, tolerance))

        ms, cb = block_reclaims_cauchy_binet(x, y)
        if cb != 0:
            block_ratios.add(ms // cb)
        block_checks.append(check("block-reclaims", abs(ms), abs(cb), tolerance, exact=True))

    def summarize(instance_checks, extra_ok=True):
        # the instance with the largest gap stands for all of them
        worst = max(instance_checks, key=lambda c: c.rel_gap)
        return replace(worst, passed=extra_ok and all(c.passed for c in instance_checks))

    checks = [
        summarize(cb_checks),
        summarize(ms_checks),
        summarize(bridge_checks, extra_ok=tuples_agree),
        summarize(block_checks, extra_ok=len(block_ratios) <= 1),
    ]
    payload = {"instances": instances, "bridge_tuple_sum_agrees": tuples_agree}
    return checks, payload


def _run_verify_chebyshev(config: RunConfig):
    f = CHEBYSHEV_FUNCTIONS[config.extras["f"]]
    g = CHEBYSHEV_FUNCTIONS[config.extras["g"]]
    domain = Domain.finite(config.extras["a"], config.extras["b"])
    direct, pair_form = chebyshev_gap(f, g, domain, config.n_nodes)
    checks = [check("chebyshev-gap-identity", direct, pair_form, config.tolerance)]
    payload = {
        "gap": direct,
        "direction_reversed": bool(direct < -config.tolerance),
    }
    return checks, payload


def _run_biorthogonalize(config: RunConfig):
    system = biorthogonalize(config.ensemble, config.n_nodes)
    residuals = biorthogonality_residuals(system, config.n_nodes)
    checks = [
        check(f"pairing-{j}", float(residuals[j, j]), float(system.h[j]), config.tolerance)
        for j in range(system.size)
    ]
    off = residuals - np.diag(np.diag(residuals))
    # judged relative to the largest normalization, the scale of every entry
    scale = max(1.0, float(np.abs(system.h).max()))
    checks.append(check("off-diagonal-residual", float(np.abs(off).max()), 0.0,
                        config.tolerance, scale=scale))
    payload = {
        "coefficients": {
            "c": system.c.tolist(),
            "d": system.d.tolist(),
            "h": system.h.tolist(),
        }
    }
    return checks, payload


def _run_partition(config: RunConfig):
    value = partition_function(config.ensemble, config.n_nodes)
    reference = andreief_rhs(gram_matrix(config.ensemble, config.n_nodes))
    checks = [check("partition-vs-gram-determinant", value, reference, config.tolerance)]
    return checks, {"value": value}


_ENGINES = {
    "verify-andreief": _run_verify_andreief,
    "verify-debruijn": _run_verify_debruijn,
    "verify-discrete": _run_verify_discrete,
    "verify-chebyshev": _run_verify_chebyshev,
    "biorthogonalize": _run_biorthogonalize,
    "partition": _run_partition,
}


# ---------------------------------------------------------------------------
# report rendering


def _config_section(config: RunConfig) -> dict:
    return {
        "command": config.command,
        "ensemble": config.ensemble_params,
        "extras": config.extras,
        "format": config.format,
        "mc_samples": config.mc_samples,
        "n_nodes": config.n_nodes,
        "n_nodes_tensor": DEFAULT_NODES_TENSOR,
        "seed": config.seed,
        "tolerance": config.tolerance,
    }


def _render_json(checks, passed, payload, config, timestamp) -> str:
    report = {
        "checks": [
            {
                "abs_gap": c.abs_gap,
                "lhs": c.lhs,
                "name": c.name,
                "passed": c.passed,
                "rel_gap": c.rel_gap,
                "rhs": c.rhs,
                "sigma": c.sigma,
            }
            for c in checks
        ],
        "config": _config_section(config),
        "passed": passed,
    }
    report.update(payload)
    if timestamp is not None:
        report["timestamp"] = timestamp
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _flatten(prefix: str, value):
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _flatten(f"{prefix}.{key}" if prefix else key, value[key])
    else:
        yield prefix, json.dumps(value)


def _render_csv(checks, passed, payload, config, timestamp) -> str:
    buffer = io.StringIO()
    for key, rendered in _flatten("config", _config_section(config)):
        buffer.write(f"# {key}={rendered}\n")
    for key, rendered in _flatten("", {k: v for k, v in payload.items() if not isinstance(v, dict)}):
        buffer.write(f"# {key}={rendered}\n")
    buffer.write(f"# passed={json.dumps(passed)}\n")
    if timestamp is not None:
        buffer.write(f"# timestamp={timestamp}\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["name", "lhs", "rhs", "abs_gap", "rel_gap", "sigma", "passed"])
    for c in checks:
        writer.writerow(
            [
                c.name,
                repr(float(c.lhs)),
                repr(float(c.rhs)),
                repr(float(c.abs_gap)),
                repr(float(c.rel_gap)),
                "" if c.sigma is None else repr(float(c.sigma)),
                json.dumps(c.passed),
            ]
        )
    return buffer.getvalue()


def run(config: RunConfig) -> int:
    """Execute the configured command and write its report.

    Returns the process exit code; diagnostic text for failures goes to
    stderr, the report to the configured output path or stdout.
    """
    try:
        checks, payload = _ENGINES[config.command](config)
    except (ValueError, NotImplementedError, RuntimeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    passed = all(c.passed for c in checks)
    timestamp = datetime.now(timezone.utc).isoformat() if config.timestamp else None
    render = _render_json if config.format == "json" else _render_csv
    text = render(checks, passed, payload, config, timestamp)
    if config.output_path:
        try:
            with open(config.output_path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0 if passed else 1


def main(argv=None) -> int:
    try:
        config = parse_config(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        # argparse already printed its diagnostic
        return int(exc.code or 0)
    except (ValueError, NotImplementedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
