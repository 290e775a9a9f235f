"""Run the manifold-cs benchmark workloads, one child interpreter each.

    python3 bench/run.py --workload roll200 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1

Each workload runs in its own child process (``bench/worker.py``), one
after another, never two at once. The child gets the BLAS/OpenMP thread
count pinned in its environment before numpy is imported, and imports the
package from ``src`` through ``PYTHONPATH``, so nothing needs installing.
The child prints a metric table and, as its last line, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; this
script passes its output through and exits with its exit code.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("grid-roll3", "roll200", "cli-roll3")

# One BLAS thread: the workloads are dominated by small matrices and Python
# loops, and on a shared 2-core box a second thread only adds run-to-run
# spread (grid-roll3 took 2.16-2.28 s per sequence with one thread and
# 1.67-2.22 s with two).
BLAS_THREADS = 1
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def child_env():
    """This environment with threads pinned and ``src`` on the import path."""
    env = dict(os.environ)
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        env[var] = str(threads)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "manifold_cs")):
        print("bench: no package source at %s" % os.path.join(ROOT, "src", "manifold_cs"), file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    env = child_env()
    worker = os.path.join(ROOT, "bench", "worker.py")
    for name in names:
        cmd = [
            sys.executable, worker,
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", repr(args.seconds),
            "--trace", str(args.trace),
        ]
        if args.tiny:
            cmd.append("--tiny")
        rc = subprocess.run(cmd, env=env, cwd=ROOT).returncode
        if rc != 0:
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
