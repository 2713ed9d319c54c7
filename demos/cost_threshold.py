"""When is building from m x m devices cheaper than a pairwise cascade?

A pairwise cascade always needs n(n-1)/2 two-mode devices.  The block
decomposition needs at most floor(n(n-1)/(m(m-1))) + n - 1 devices of size
m, so for large n the blocks win exactly when one m x m device costs less
than m(m-1)/2 pairwise devices.  This script tabulates the crossover and
shows how the finite-n overhead (the + n - 1 term) shifts it.

Usage:
    python3 demos/cost_threshold.py [--m 5] [--c2 1.0]
"""

import argparse

from multiport.decomposition import cost_compare, factor_count_bound


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--m", type=int, default=5)
    parser.add_argument("--c2", type=float, default=1.0)
    args = parser.parse_args()
    m = args.m

    asymptotic = 0.5 * m * (m - 1) * args.c2
    print(f"m = {m}: large-n break-even block cost = {asymptotic:g} "
          f"(= m(m-1)/2 pairwise devices)")

    print(f"\n{'n':>6} {'blocks':>8} {'pairs':>10} {'break-even c_m':>15}")
    for n in (20, 50, 100, 200, 500, 1000, 5000):
        if n < m:
            continue
        blocks = factor_count_bound(n, m)
        pairs = n * (n - 1) // 2
        even = pairs * args.c2 / blocks
        print(f"{n:6d} {blocks:8d} {pairs:10d} {even:15.3f}")
    print("(break-even rises toward the asymptote as the +n-1 overhead fades)")

    n = 200
    finite = (n * (n - 1) // 2) * args.c2 / factor_count_bound(n, m)
    print(f"\nverdicts at n = {n}, 5% either side of the finite-n break-even:")
    for cm in (0.95 * finite, 1.05 * finite):
        comp = cost_compare(n, m, cm, args.c2)
        print(f"  c_m = {cm:8.3f}: cost_m = {comp.cost_m:12.1f} "
              f"vs cost_2 = {comp.cost_2:10.1f} -> "
              f"advantageous = {comp.advantageous}")


if __name__ == "__main__":
    main()
