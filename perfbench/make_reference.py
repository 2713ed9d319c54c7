"""Regenerate the reference CSVs the sweep checks compare against.

    python3 perfbench/make_reference.py

Runs each sweep workload's CLI command once at a fixed seed with more
matrices per cell than a benchmark job, and writes perfbench/reference/<workload>.csv.  The
checks compare every cell of a benchmark run with these values within a
stated number of pooled standard errors, so the references only need
redoing if the meaning of a sweep changes, not when a change moves the
seeded random streams.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from multiport import cli  # noqa: E402

REFERENCE_SEED = 20230921
# Matrices per cell for the references: 4x the noise sweep of the README and
# 4x the benchmark's size sweep, so the references' own error is small.
REFERENCE_MATRICES = {"noise-sweep": 80, "size-sweep": 24}


def main():
    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    for name, argv in (("noise-sweep", workloads.NOISE_SWEEP_ARGS), ("size-sweep", workloads.SIZE_SWEEP_ARGS)):
        argv = list(argv)
        argv[argv.index("--matrices") + 1] = str(REFERENCE_MATRICES[name])
        out = os.path.join(workloads.REFERENCE_DIR, name + ".csv")
        code = cli.main(argv + ["--seed", str(REFERENCE_SEED), "--out", out])
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
