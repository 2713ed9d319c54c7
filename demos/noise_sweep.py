"""Sweep noise strength for several block sizes and chart the fallout.

For each block size m the same Haar test matrices are decomposed once, then
every block of every plan is hit with independent complex Gaussian noise at
each sigma on the grid.  The CSV records the pooled block fidelity (F_Q) and
the whole-matrix fidelity (F_U) per (m, sigma) cell; the SVG plots F_U
against the pooled F_Q, one line per block size.  Reruns with the same seed
are byte-identical.

Usage:
    python3 demos/noise_sweep.py [--n 20] [--seed 7] [--out demo_out]
"""

import argparse
from pathlib import Path

from multiport.robustness import sweep_noise
from multiport.serialize import save_sweep_results
from multiport.svgchart import save_chart, sweep_chart

SIGMAS = (0.0, 0.02, 0.05, 0.1, 0.15, 0.2)
M_LIST = (2, 3, 5, 10)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--n", type=int, default=20)
    parser.add_argument("--matrices", type=int, default=20)
    parser.add_argument("--perturbations", type=int, default=5)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", type=Path, default=Path("demo_out"))
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    print(f"sweeping n = {args.n}, m in {M_LIST}, sigma in {SIGMAS}")
    results = sweep_noise(
        args.n, M_LIST, SIGMAS, args.matrices, args.perturbations, seed=args.seed
    )

    print(f"\n{'m':>3} {'sigma':>6} {'F_Q':>8} {'F_U':>8} {'+/-':>8}")
    for r in results:
        print(f"{r.m:3d} {r.sigma:6.2f} {r.fq.mean:8.4f} "
              f"{r.fu.mean:8.4f} {r.fu.std_error:8.4f}")

    config = {
        "n": args.n,
        "matrices": args.matrices,
        "perturbations": args.perturbations,
        "seed": args.seed,
    }
    csv_path = args.out / "noise_sweep.csv"
    save_sweep_results(csv_path, results, config)

    svg = sweep_chart(
        results, lambda r: r.fq.mean, "mean block fidelity F_Q",
        f"noise robustness at n = {args.n}",
    )
    svg_path = args.out / "noise_sweep.svg"
    save_chart(svg_path, svg)
    print(f"\nwrote {csv_path} and {svg_path}")


if __name__ == "__main__":
    main()
