"""Set-up probe: run in a fresh interpreter, it times the import of andreief
plus the first, cold call of every command in a workload, and prints the
seconds on its last line.

Usage: python3 perfbench/probe.py <workload> <seed>
"""

import contextlib
import io
import os
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402  (standard library only; loads before the clock)


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    cold = workloads.first_of_each_command(workloads.jobs(workload, seed))
    sink = io.StringIO()
    start = time.perf_counter()
    from andreief.cli import main as cli_main

    for job in cold:
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                cli_main(list(job.argv))
        except Exception:  # the main run judges the jobs; set-up time still counts
            traceback.print_exc()
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main())
