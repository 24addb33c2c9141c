"""Set-up probe: a fresh interpreter's time to its first job.

``python3 perfbench/setup_probe.py <workload> <seed> <scratch-dir>``
imports the program, builds the config registry, opens the result store
and starts the worker pool by running the workload's own entry point on
two tiny jobs.  It prints the seconds from the first line of this file
to the start of the earliest job (job start times come from the pool
workers on the same monotonic clock).
"""

import time

_START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main(argv) -> int:
    workload_name, seed, scratch = argv[1], int(argv[2]), Path(argv[3])
    root = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root / "src"), str(root)]
    from perfbench.workloads import WORKLOADS

    starts = []

    def progress(done, total, job_result) -> None:
        if job_result is not None:
            starts.append(job_result.t_start)

    WORKLOADS[workload_name].probe(seed, scratch, progress)
    if not starts:
        print("no job of the probe ran", file=sys.stderr)
        return 1
    print("%.6f" % (min(starts) - _START))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
