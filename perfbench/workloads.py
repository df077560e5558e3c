"""Job lists of the benchmark workloads.

Every job is one call of the public CLI entry point
``andreief.cli.main(argv)``.  The parameters a reference needs are spelled
out in the argv, so the reference is computed from the very inputs the
program receives.  This module imports nothing outside the standard
library: the set-up probe loads it before it starts its clock.
"""

from __future__ import annotations

from dataclasses import dataclass

TOLERANCE = 1e-9

# Above one Monte Carlo block (2**20 samples), so the chunked path runs.
MC_SAMPLES = 2_000_000

DISCRETE_SHAPE = {"rows": 8, "cols": 4, "instances": 25}

CHEBYSHEV_CASES = (
    ("x", "x^2", 0.0, 1.0),
    ("exp", "x", 0.0, 1.0),
    ("cos", "x^3", -1.0, 2.0),
    ("x", "-exp", 0.0, 2.0),
)

# (ensemble, flags fixing every parameter the ensemble takes)
ENSEMBLE_PARAMS = {
    "uniform-monomial": (),
    "legendre-monomial": (),
    "gue-monomial": (),
    "muttalib-borodin": ("--theta", "2.0", "--c", "0.0"),
    "shifted-gue": ("--shifts", "0.1,0.2,0.3,0.4,0.5,0.6"),
    "laguerre-product": ("--nu", "1"),
}

# one ensemble per domain kind: finite, real line, half line
ANDREIEF_ENSEMBLES = ("uniform-monomial", "gue-monomial", "muttalib-borodin")

WORKLOADS = ("tensor", "montecarlo")

# The short commands ride in the montecarlo pass instead of forming a
# workload of their own.  They are interpreter-bound, and on a shared
# 2-vCPU host the pass time of such code spread by 0.34 of its median over
# ten 15-s runs, more than the 0.25 a timing's bound may be.  Between the
# Monte Carlo jobs they are about 5% of the pass, and their per-command
# latencies and layer metrics are still reported.
SMALL_REPEATS = 2


@dataclass(frozen=True)
class Job:
    """One CLI call and what its reference is computed from."""

    name: str
    argv: tuple
    ref: tuple

    @property
    def command(self) -> str:
        return self.argv[0]


def _ensemble_flags(name: str, size: int) -> tuple:
    return ("--ensemble", name, "--n", str(size)) + ENSEMBLE_PARAMS[name]


def _argv(*parts) -> tuple:
    return tuple(parts) + ("--tolerance", repr(TOLERANCE), "--no-timestamp")


def _small_commands(seed: int) -> list:
    """Short calls with no grid and no MC: discrete, biortho, Gram assembly,
    gauss_rule and the CLI's parse and render steps."""
    shape = DISCRETE_SHAPE
    out = [
        Job("discrete",
            _argv("verify-discrete", "--rows", str(shape["rows"]),
                  "--cols", str(shape["cols"]),
                  "--instances", str(shape["instances"]), "--seed", str(seed)),
            ("discrete", seed, shape["rows"], shape["cols"], shape["instances"]))
    ]
    for e in ENSEMBLE_PARAMS:
        for command in ("biorthogonalize", "partition"):
            out.append(Job(f"{command}-{e}-6",
                           _argv(command, *_ensemble_flags(e, 6)),
                           (command, e, 6)))
    for f, g, a, b in CHEBYSHEV_CASES:
        out.append(Job(f"chebyshev-{f}-{g}",
                       _argv("verify-chebyshev", f"--f={f}", f"--g={g}",
                             f"--a={a!r}", f"--b={b!r}"),
                       ("chebyshev", f, g, a, b)))
    return out


def jobs(workload: str, seed: int) -> list:
    """The job list of one pass over the workload."""
    if workload == "tensor":
        out = [
            Job(f"andreief-{e}-5", _argv("verify-andreief", *_ensemble_flags(e, 5)),
                ("andreief", e, 5))
            for e in ANDREIEF_ENSEMBLES
        ]
        out += [
            Job(f"debruijn-{k}-4",
                _argv("verify-debruijn", *_ensemble_flags("legendre-monomial", 4),
                      "--kernel", k, "--n-nodes", "24"),
                ("debruijn", k, 24, 4))
            for k in ("sign", "difference")
        ]
        return out
    if workload == "montecarlo":
        mc = [
            Job(f"andreief-mc-{e}-3",
                _argv("verify-andreief", *_ensemble_flags(e, 3),
                      "--mc-samples", str(MC_SAMPLES), "--seed", str(seed)),
                ("andreief", e, 3))
            for e in ANDREIEF_ENSEMBLES
        ]
        return mc + _small_commands(seed) * SMALL_REPEATS
    raise ValueError(f"unknown workload {workload!r}; choose from: " + ", ".join(WORKLOADS))


def first_of_each_command(job_list: list) -> list:
    """The first job of every command, in job-list order: the cold calls
    that set-up time covers."""
    seen, out = set(), []
    for job in job_list:
        if job.command not in seen:
            seen.add(job.command)
            out.append(job)
    return out
