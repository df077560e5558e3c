"""The benchmark's tracer prints every per-layer metric it declares.

perfbench/tracing.py wraps functions at the module attributes their
callers look them up by, and a metric is absent when its attribute is
gone or no call reaches it.  These tests install the tracer, read-only,
on short job lists of each workload's commands and check that every
per_layer name in BENCHMARK.json comes out.
"""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from andreief import biortho, cli, discrete, ensembles, identities, linalg, quadrature

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

MODULES = {"cli": cli, "identities": identities, "quadrature": quadrature,
           "linalg": linalg, "ensembles": ensembles, "discrete": discrete,
           "biortho": biortho}

GRID_COMMANDS = [
    ["verify-andreief", "--ensemble", "gue-monomial", "--n", "3"],
    ["verify-debruijn", "--ensemble", "legendre-monomial", "--n", "2",
     "--kernel", "sign", "--n-nodes", "8"],
]

JOBS = {
    "tensor": GRID_COMMANDS,
    "montecarlo": GRID_COMMANDS + [
        ["verify-andreief", "--n", "2", "--mc-samples", "1000", "--seed", "31"],
        ["verify-discrete", "--rows", "5", "--cols", "2", "--instances", "2"],
        ["biorthogonalize", "--n", "3"],
        ["partition", "--ensemble", "laguerre-product", "--n", "3"],
        ["verify-chebyshev", "--f=exp", "--g=x"],
    ],
}


def declared_layer_names() -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [metric["name"] for metric in spec["per_layer"]]


@pytest.mark.parametrize("workload", sorted(JOBS))
def test_every_declared_layer_metric_is_printed(workload):
    tracer = tracing.Tracer()
    tracer.install(MODULES)
    try:
        for i, argv in enumerate(JOBS[workload]):
            tracer.job = f"0:{i}"
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv + ["--no-timestamp"]) == 0
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer, 1, 1.0, 1.0)
    missing = [name for name in declared_layer_names() if name not in metrics]
    assert not missing
    assert not tracer.hook_errors
