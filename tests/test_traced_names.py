"""The benchmark's tracer prints every per-layer metric it declares.

perfbench/tracing.py wraps functions at the module attributes their
callers look them up by, and a metric is absent when its attribute is
gone or no call reaches it.  These tests load perfbench/tracing.py and
perfbench/workloads.py read-only, run one pass of each workload's own job
list under the tracer and check that every per_layer name in
BENCHMARK.json comes out.
"""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from andreief import biortho, cli, discrete, ensembles, identities, linalg, quadrature

ROOT = Path(__file__).resolve().parent.parent
SEED = 31


def load_perfbench(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    # registered first: dataclasses look their module up while decorating
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


tracing = load_perfbench("tracing")
workloads = load_perfbench("workloads")

MODULES = {"cli": cli, "identities": identities, "quadrature": quadrature,
           "linalg": linalg, "ensembles": ensembles, "discrete": discrete,
           "biortho": biortho}


def declared_layer_names() -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [metric["name"] for metric in spec["per_layer"]]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_declared_layer_metric_is_printed(workload):
    tracer = tracing.Tracer()
    tracer.install(MODULES)
    try:
        for i, job in enumerate(workloads.jobs(workload, SEED)):
            tracer.job = f"0:{i}:{job.name}"
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(list(job.argv)) == 0, job.name
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer, 1, 1.0, 1.0)
    missing = [name for name in declared_layer_names() if name not in metrics]
    assert not missing
    assert not tracer.hook_errors
