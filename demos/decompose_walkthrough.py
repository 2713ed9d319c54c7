"""Decompose one random unitary and inspect every piece of the result.

Draws a Haar-random n x n unitary, factors it into embedded m x m unitary
blocks plus final per-mode phases, prints the factor schedule, then checks
the reconstruction two independent ways: ``reconstruct``, which applies the
factors layer by layer in real arithmetic (the "fast composition" below),
and the literal product of full-size embeddings.

Usage:
    python3 demos/decompose_walkthrough.py [--n 8] [--m 3] [--seed 42]
"""

import argparse

import numpy as np

from multiport.decomposition import decompose, factor_count_bound, reconstruct, verify
from multiport.linalg import haar_random_unitary


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--n", type=int, default=8)
    parser.add_argument("--m", type=int, default=3)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    u = haar_random_unitary(args.n, args.seed)
    plan = decompose(u, args.m)
    bound = factor_count_bound(args.n, args.m)
    print(f"Haar {args.n}x{args.n} unitary, block size m = {args.m}")
    print(f"factors used: {len(plan.sizes)} (constructive bound {bound})")
    stamped = sum(s * (s - 1) // 2 for s in plan.sizes.tolist())
    print(f"below-diagonal zeros stamped: {stamped} of {args.n * (args.n - 1) // 2}")

    # each factor's 1-based modes: its slice of the concatenated columns
    modes = np.split(plan.columns, np.cumsum(plan.sizes)[:-1])
    print("\nschedule (rows swept bottom-up, columns are 1-based modes):")
    for i, (size, row, cols) in enumerate(zip(plan.sizes, plan.base_rows, modes), start=1):
        tag = "" if size == args.m else "  <- remainder block"
        print(f"  {i:3d}: size {size}  row {row:3d}  modes ({','.join(map(str, cols))}){tag}")

    print("\nfinal per-mode phases (degrees):")
    print("  " + "  ".join(f"{d:8.2f}" for d in np.degrees(plan.phases)))

    rebuilt = reconstruct(plan)
    print(f"\nfast composition error:     {np.max(np.abs(rebuilt - u)):.3e}")

    # each factor acts as its block on its modes and as the identity elsewhere
    explicit = np.diag(np.exp(1j * plan.phases))
    for cols, block in reversed(list(zip(modes, plan.factors))):
        embedded = np.eye(plan.n, dtype=complex)
        embedded[np.ix_(cols - 1, cols - 1)] = block
        explicit = explicit @ embedded.conj().T
    print(f"explicit embedding error:   {np.max(np.abs(explicit - u)):.3e}")

    report = verify(plan, u)
    print(f"verify(): max error {report.max_error:.3e}, "
          f"fidelity {report.fidelity:.15f}, passed = {report.passed}")


if __name__ == "__main__":
    main()
