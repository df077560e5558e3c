"""Exit code and report digest of every benchmark job and a few edge runs.

Usage:
    python3 tools/report_sweep.py > sweep.txt

Prints one line ``name exit sha256`` per run: the exit code of
``andreief.cli.main(argv)`` and the SHA-256 of the report it writes to
standard output.  The runs are the job lists of both benchmark workloads
(perfbench/workloads.py, loaded read-only) at seeds 1, 31, 42 and 2324,
each distinct argv once, then the edge runs of EDGE_RUNS.  Every argv has
--no-timestamp, so a report depends on the code alone.

The package is imported from src/ of the checkout the script sits in, with
BLAS/OpenMP pinned to one thread as the benchmark pins them.  To check that
a change keeps every report and verdict, run the script in both checkouts
and diff the outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[var] = "1"
os.environ.pop("ANDREIEF_THREADS", None)
sys.path.insert(0, str(ROOT / "src"))

from andreief import cli  # noqa: E402

SEEDS = (1, 31, 42, 2324)

# Sizes and settings the job lists leave out: N = 6 on the three
# real-line and half-line ensembles and N = 1, the fewest Monte Carlo
# samples that have a standard error, the size gate, de Bruijn at 2n = 6
# on 40 nodes (about 5 s), and discrete bridges whose ordered-tuple sums
# take each subset in more than two column orders (N = 4 and 6).
EDGE_RUNS = {
    "andreief-gue-monomial-6": ("verify-andreief", "--ensemble", "gue-monomial", "--n", "6"),
    "andreief-shifted-gue-6": ("verify-andreief", "--ensemble", "shifted-gue", "--n", "6"),
    "andreief-laguerre-product-6": (
        "verify-andreief", "--ensemble", "laguerre-product", "--n", "6"),
    "andreief-legendre-monomial-1": (
        "verify-andreief", "--ensemble", "legendre-monomial", "--n", "1"),
    "andreief-mc-2-samples": (
        "verify-andreief", "--ensemble", "uniform-monomial", "--n", "3", "--mc-samples", "2"),
    "andreief-size-gate-7": ("verify-andreief", "--ensemble", "uniform-monomial", "--n", "7"),
    "debruijn-sign-6-40": (
        "verify-debruijn", "--ensemble", "legendre-monomial", "--n", "6",
        "--kernel", "sign", "--n-nodes", "40"),
    "discrete-gue-monomial-4": (
        "verify-discrete", "--ensemble", "gue-monomial", "--n", "4", "--rows", "8"),
    "discrete-shifted-gue-6": (
        "verify-discrete", "--ensemble", "shifted-gue", "--n", "6", "--rows", "8"),
    "discrete-muttalib-borodin-6": (
        "verify-discrete", "--ensemble", "muttalib-borodin", "--n", "6"),
}


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    # registered first: dataclasses look their module up while decorating
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def runs():
    """(name, argv) of every run, each distinct argv once."""
    workloads = load_workloads()
    seen = set()
    for seed in SEEDS:
        for workload in workloads.WORKLOADS:
            for job in workloads.jobs(workload, seed):
                if job.argv not in seen:
                    seen.add(job.argv)
                    yield f"{workload}/{seed}/{job.name}", job.argv
    for name, argv in EDGE_RUNS.items():
        yield f"edge/{name}", argv + ("--no-timestamp",)


def digest(argv) -> tuple:
    """(exit code, SHA-256 of standard output) of one CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def main() -> None:
    for name, argv in runs():
        code, sha = digest(argv)
        print(name, code, sha, flush=True)


if __name__ == "__main__":
    main()
