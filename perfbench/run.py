"""Benchmark of the andreief command line, end to end and layer by layer.

Usage:
    python3 perfbench/run.py --workload tensor --seed 1 --seconds 15 --trace 0

Each workload is a closed loop from one process: one CLI call at a time,
through the public entry point ``andreief.cli.main(argv)``, in process and
with --no-timestamp.  The job list of the workload is run pass after pass
until --seconds have gone.  Every report is checked against an independent
50-digit reference (reference.py).

--trace 0 measures the end-to-end metrics with tracing off, after an
untimed warm-up of one call per command:
    setup_s      median over fresh interpreters of the import of andreief
                 plus the first, cold call of each command in the workload
    wall_s       median time of one pass over the job list
    peak_rss_mb  peak resident memory of this process
It also prints the median per-command latencies and the error rate.

--trace 1 alternates untraced and traced passes (tracing.py), and reports
the per-layer metrics per pass and the tracing overhead: the traced minus
the untraced median pass.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A full record goes to
perfbench/results/, and the spans of a traced run next to it.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def pin_environment() -> None:
    """One BLAS/OpenMP thread and the package's default worker count.
    Must run before numpy is imported; set-up probes inherit it."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("ANDREIEF_THREADS", None)


pin_environment()
sys.path.insert(0, SRC)

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 150
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


@dataclass
class JobResult:
    job: workloads.Job
    seconds: float
    code: object
    stdout: str


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "nproc": affinity or os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "ANDREIEF_THREADS": os.environ.get("ANDREIEF_THREADS", "unset"),
        "note": "ANDREIEF_THREADS is unset, so integrate_nd runs one worker "
                "and its thread pool is not exercised",
    }


# ---------------------------------------------------------------------------
# running jobs


def run_job(cli_main, job) -> JobResult:
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(list(job.argv))
    except Exception as exc:  # a crash is a failed job; the run goes on
        code = f"{type(exc).__name__}: {exc}"
    return JobResult(job, perf_counter() - start, code, out.getvalue())


def run_pass(cli_main, job_list, tracer=None, label=0) -> tuple:
    """(wall seconds, [JobResult]) of one pass over the job list."""
    results = []
    start = perf_counter()
    for i, job in enumerate(job_list):
        if tracer is not None:
            tracer.job = f"{label}:{i}:{job.name}"
        results.append(run_job(cli_main, job))
    return perf_counter() - start, results


def timed_passes(cli_main, job_list, seconds) -> list:
    """Passes over the job list until `seconds` have gone; at least one."""
    passes = []
    deadline = perf_counter() + seconds
    while not passes or perf_counter() < deadline:
        passes.append(run_pass(cli_main, job_list))
    return passes


def paired_passes(cli_main, job_list, seconds, tracer, modules) -> tuple:
    """Untraced and traced passes in turn until `seconds` have gone, so
    that both see the same machine; returns (untraced, traced)."""
    plain, traced = [], []
    deadline = perf_counter() + seconds
    while not traced or perf_counter() < deadline:
        plain.append(run_pass(cli_main, job_list))
        tracer.install(modules)
        try:
            traced.append(run_pass(cli_main, job_list, tracer, len(traced)))
        finally:
            tracer.uninstall()
    return plain, traced


def measure_setup(workload: str, seed: int) -> list:
    """Set-up seconds from SETUP_REPEATS fresh interpreters, one at a time."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "probe.py"), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


# ---------------------------------------------------------------------------
# statistics


def summary(values: list) -> dict:
    """Median, the highest percentile with at least ten samples beyond it,
    and the sample count."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n}
    for p in PERCENTILES:
        if n * (1 - p / 100) >= 10:
            out[f"p{p:g}"] = ordered[max(0, math.ceil(p / 100 * n) - 1)]
            break
    return out


def judge(results, refs) -> tuple:
    """Verdict per JobResult; identical outputs are judged once."""
    cache, verdicts = {}, []
    for r in results:
        key = (r.job.name, r.code, r.stdout)
        if key not in cache:
            cache[key] = reference.check(r.job, r.code, r.stdout, refs)
        verdicts.append(cache[key])
    return verdicts


def spec_metrics(kind: str) -> dict:
    """{name: unit} of the end_to_end or per_layer metrics in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec[kind]}


def metrics_match_spec(metrics: dict, kind: str, all_required: bool) -> list:
    """Every printed metric is declared with the same unit; with
    all_required every declared metric is printed."""
    declared = spec_metrics(kind)
    bad = [f"{name} [{m['unit']}] is not declared in {kind}" for name, m in metrics.items()
           if declared.get(name) != m["unit"]]
    if all_required:
        bad += [f"{name} is declared in {kind} but not measured" for name in declared
                if name not in metrics]
    return bad


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    problems = reference.self_check() + tracing.self_check()
    if problems:
        print("benchmark self-check failed: " + "; ".join(problems), file=sys.stderr)
        return 1
    try:
        from andreief import biortho, cli, discrete, ensembles, identities, linalg, quadrature
    except ImportError as exc:
        print(f"cannot import andreief from {SRC}: {exc}", file=sys.stderr)
        return 3
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"andreief was imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    modules = {"cli": cli, "identities": identities, "quadrature": quadrature,
               "linalg": linalg, "ensembles": ensembles, "discrete": discrete,
               "biortho": biortho}

    job_list = workloads.jobs(args.workload, args.seed)
    refs = reference.table(job_list)
    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env}

    setup = measure_setup(args.workload, args.seed) if args.trace == 0 else None
    for job in workloads.first_of_each_command(job_list):
        run_job(cli.main, job)  # warm-up, untimed

    tracer = None
    if args.trace == 0:
        passes = plain = timed_passes(cli.main, job_list, args.seconds)
    else:
        tracer = tracing.Tracer()
        plain, passes = paired_passes(cli.main, job_list, args.seconds, tracer, modules)

    results = [r for _, rs in plain + (passes if tracer else []) for r in rs]
    verdicts = judge(results, refs)
    attempted, failed = len(results), sum(v.failed for v in verdicts)
    correct = not any(v.wrong_value for v in verdicts)
    plain_wall = statistics.median(w for w, _ in plain)

    if tracer is None:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": plain_wall, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
        problems = metrics_match_spec(metrics, "end_to_end", all_required=True)
    else:
        traced_wall = statistics.median(w for w, _ in passes)
        metrics = tracing.layer_metrics(tracer, len(passes), traced_wall, plain_wall)
        problems = metrics_match_spec(metrics, "per_layer", all_required=False)
        record["untraced_wall_s"], record["traced_wall_s"] = plain_wall, traced_wall
    if problems:
        print("benchmark self-check failed: " + "; ".join(problems), file=sys.stderr)
        return 1

    latencies = {}
    for command in dict.fromkeys(job.command for job in job_list):
        values = [r.seconds for _, rs in plain for r in rs if r.job.command == command]
        latencies[command.replace("-", "_") + "_s"] = summary(values)

    # -- human-readable report ---------------------------------------------
    print(f"# environment: nproc {env['nproc']}, python {env['python']}, "
          f"numpy {env['numpy']}, BLAS/OpenMP threads 1; {env['note']}")
    print(f"# workload {args.workload}, seed {args.seed}: closed loop, one CLI call at a "
          f"time, {len(job_list)} jobs per pass, {len(plain)} untraced passes"
          + (f", {len(passes)} traced passes" if tracer else ""))
    if setup is not None:
        print(f"setup_s = {metrics['setup_s']['value']:.4f} s  (median of {len(setup)} fresh "
              f"interpreters: {', '.join(f'{s:.4f}' for s in setup)})")
    latencies = {"wall_s": summary([w for w, _ in plain]), **latencies}
    for name, s in latencies.items():
        tail = next(((k, v) for k, v in s.items() if k.startswith("p")), None)
        tail_text = f", {tail[0]} {tail[1]:.6f} s" if tail else ""
        print(f"{name} = {s['median']:.6f} s  (median{tail_text}; n = {s['n']})")
    print(f"error_rate = {failed / attempted:.4f}  ({failed} failed of {attempted} attempted jobs)")
    if tracer is None:
        print(f"peak_rss_mb = {metrics['peak_rss_mb']['value']:.2f} MB")
    else:
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")
    job_record = {}
    for r, v in zip(results, verdicts):
        entry = job_record.setdefault(r.job.name, {
            "argv": list(r.job.argv), "runs": 0, "failed_runs": 0,
            "reasons": [], "degenerate": v.degenerate})
        entry["runs"] += 1
        entry["failed_runs"] += v.failed
        entry["reasons"] = entry["reasons"] or v.reasons
    for name, entry in job_record.items():
        status = (f"FAILED in {entry['failed_runs']} of {entry['runs']} runs: "
                  + "; ".join(entry["reasons"])) if entry["failed_runs"] else f"ok in {entry['runs']} runs"
        if entry["degenerate"]:
            status += "  (degenerate: true value 0, checked absolutely against its term scale)"
        print(f"job {name}: {status}")

    record.update({"correct": correct, "attempted": attempted, "failed": failed,
                   "error_rate": failed / attempted, "metrics": metrics,
                   "setup_samples_s": setup, "latencies_s": latencies, "jobs": job_record,
                   "pass_walls_s": [w for w, _ in plain]})
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, default=str)
    if tracer is not None:
        tracer.write(stem + ".spans.jsonl.gz")

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
