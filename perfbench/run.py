"""Benchmark command: one workload, one seed, one JSON result line.

Usage (from the repository root; nothing needs installing, the package is
imported from ``src/``)::

    python3 perfbench/run.py --workload {size-sweep,noise-sweep,compile} \\
        --seed N --seconds S --trace {0,1} [--smoke]

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` the per-layer
metrics of a traced job.  ``--smoke`` shrinks every workload to a few
seconds for the benchmark's own tests.  The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
the line before it is a report with the environment, failure reasons and
(traced) the self time per layer.  Files go to ``.perfbench_out/``.

Set-up time is measured here, in fresh processes: interpreter start,
package import and one tiny decomposition, median of five, host-normalised
as in worker.py.  The workload
itself runs in its own fresh worker process (worker.py), so the worker's
peak memory is the workload's.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from worker import host_reference_s, normalize
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 5
SETUP_CODE = (
    "import numpy as np; import multiport as mp; "
    "u = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))[0]; "
    "assert mp.verify(mp.decompose(u, 2), u).passed"
)
# Every run must end within 180 s; leave room for set-up and clean-up.
WORKER_TIMEOUT_S = 170.0


def child_env():
    """Environment for child processes: package from src/, at most 2 BLAS threads."""
    env = dict(os.environ)
    threads = str(min(2, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def measure_setup_s(env):
    """Median set-up time, host-normalised like the worker's request times."""
    times = []
    ref_before = host_reference_s()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            fail(f"set-up process failed:\n{proc.stderr.strip()}")
        ref_after = host_reference_s()
        times.append(normalize(elapsed, ref_before, ref_after))
        ref_before = ref_after
    return statistics.median(times)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    env = child_env()
    setup_s = None if args.trace else measure_setup_s(env)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        fail(f"worker exceeded {WORKER_TIMEOUT_S:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"worker exited with status {proc.returncode}")
    result = json.loads(lines[-1])
    if setup_s is not None:
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    for line in lines[:-1]:
        print(line)
    for name, metric in sorted(result["metrics"].items()):
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
