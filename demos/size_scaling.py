"""How matrix fidelity scales with size when block quality is held fixed.

Calibrates the noise strength per block size so a single noisy m x m block
averages the target fidelity, then reuses that sigma across a grid of
matrix sizes.  Bigger blocks need fewer factors, so at equal block quality
the reconstructed matrix degrades more slowly with n.

Usage:
    python3 demos/size_scaling.py [--target-fq 0.95] [--seed 21] [--out demo_out]
"""

import argparse
from pathlib import Path

from multiport.robustness import sweep_size
from multiport.serialize import save_sweep_results
from multiport.svgchart import save_chart, sweep_chart

M_LIST = (2, 3, 5, 10)
N_GRID = (2, 3, 5, 10, 15, 20, 25, 30)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--target-fq", type=float, default=0.95)
    parser.add_argument("--fq-tol", type=float, default=0.0005)
    parser.add_argument("--matrices", type=int, default=20)
    parser.add_argument("--perturbations", type=int, default=5)
    parser.add_argument("--seed", type=int, default=21)
    parser.add_argument("--out", type=Path, default=Path("demo_out"))
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    print(f"calibrating each m in {M_LIST} to block fidelity "
          f"{args.target_fq} +/- {args.fq_tol}, then sweeping n in {N_GRID}")
    results = sweep_size(
        M_LIST, N_GRID, args.target_fq, args.fq_tol,
        args.matrices, args.perturbations, seed=args.seed,
    )

    config = {
        "target_fq": args.target_fq,
        "matrices": args.matrices,
        "perturbations": args.perturbations,
        "seed": args.seed,
    }
    sigma_by_m = {}
    for r in results:
        sigma_by_m.setdefault(r.m, r.sigma)
    for m, sigma in sigma_by_m.items():
        config[f"calibrated_sigma_m{m}"] = sigma
        print(f"  m = {m:2d}: sigma = {sigma:.6f}")

    print(f"\n{'m':>3} {'n':>3} {'F_U':>8} {'+/-':>8}")
    for r in results:
        print(f"{r.m:3d} {r.n:3d} {r.fu.mean:8.4f} {r.fu.std_error:8.4f}")

    csv_path = args.out / "size_scaling.csv"
    save_sweep_results(csv_path, results, config)

    svg = sweep_chart(
        results, lambda r: r.n, "matrix size n",
        f"scaling at fixed block fidelity {args.target_fq}",
    )
    svg_path = args.out / "size_scaling.svg"
    save_chart(svg_path, svg)
    print(f"\nwrote {csv_path} and {svg_path}")


if __name__ == "__main__":
    main()
