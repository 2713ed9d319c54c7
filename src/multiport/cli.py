"""Command-line interface.

Subcommands:

* ``decompose``    factor a matrix file into a plan file
* ``reconstruct``  multiply a plan file back into a matrix file
* ``verify``       check a plan file against a matrix file
* ``random``       write a seeded Haar-random unitary
* ``sweep-noise``  fidelity vs noise strength across block sizes (CSV/SVG)
* ``sweep-size``   fidelity vs matrix size at calibrated noise (CSV/SVG)
* ``cost``         compare mesh cost against the all-2x2 baseline

Results go to the requested output files; a short summary is printed to
stdout.  Exit status is 0 only when the command's checks pass; errors are
reported on stderr with a non-zero status.
"""

from __future__ import annotations

import argparse
import sys

from .decomposition import (
    DecompositionError,
    cost_compare,
    decompose,
    reconstruct,
    verify,
)
from .linalg import haar_random_unitary
from .robustness import sweep_noise, sweep_size
from .serialize import (
    load_matrix,
    load_plan,
    save_matrix,
    save_plan,
    save_sweep_results,
)
from .svgchart import save_chart, sweep_chart

__all__ = ["main"]


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _cmd_decompose(args) -> int:
    u = load_matrix(args.infile)
    plan = decompose(u, args.m)
    report = verify(plan, u)
    save_plan(args.out, plan)
    print(f"input = {args.infile}")
    print(f"n = {plan.n}")
    print(f"m = {plan.m}")
    print(f"factors = {report.factor_count}")
    print(f"bound = {report.factor_bound}")
    print(f"max_error = {report.max_error:.3e}")
    print(f"fidelity = {report.fidelity:.12f}")
    print(f"zeros_cleared = {plan.diagnostics.total_zeros}")
    print(f"refill_events = {plan.diagnostics.refill_events}")
    print(f"plan written to {args.out}")
    if not report.passed:
        print(
            f"error: reconstruction error {report.max_error:.3e} exceeds "
            f"tolerance {report.tol:.3e}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_reconstruct(args) -> int:
    plan = load_plan(args.infile)
    save_matrix(args.out, reconstruct(plan))
    print(f"n = {plan.n}")
    print(f"m = {plan.m}")
    print(f"factors = {len(plan.sizes)}")
    print(f"matrix written to {args.out}")
    return 0


def _cmd_verify(args) -> int:
    plan = load_plan(args.plan)
    u = load_matrix(args.matrix)
    report = verify(plan, u, args.tol)
    print(f"n = {plan.n}")
    print(f"m = {plan.m}")
    print(f"factors = {report.factor_count}")
    print(f"bound = {report.factor_bound}")
    print(f"max_error = {report.max_error:.3e}")
    print(f"tolerance = {report.tol:.3e}")
    print(f"fidelity = {report.fidelity:.12f}")
    print(f"passed = {report.passed}")
    if not report.passed:
        print("error: plan does not reproduce the matrix", file=sys.stderr)
        return 1
    return 0


def _cmd_random(args) -> int:
    u = haar_random_unitary(args.n, args.seed)
    save_matrix(args.out, u)
    print(f"n = {args.n}")
    print(f"seed = {args.seed}")
    print(f"matrix written to {args.out}")
    return 0


def _cmd_sweep_noise(args) -> int:
    results = sweep_noise(
        n=args.n,
        m_list=args.m_list,
        sigma_grid=args.sigmas,
        n_matrices=args.matrices,
        n_perturbations=args.perturbations,
        seed=args.seed,
    )
    config = {
        "command": "sweep-noise",
        "n": args.n,
        "m_list": ",".join(str(m) for m in args.m_list),
        "sigmas": ",".join(format(s, ".12g") for s in args.sigmas),
        "matrices": args.matrices,
        "perturbations": args.perturbations,
        "seed": args.seed,
        "fq_pooling": "all factor blocks per draw",
    }
    save_sweep_results(args.out, results, config)
    print(f"rows = {len(results)}")
    print(f"csv written to {args.out}")
    if args.svg:
        chart = sweep_chart(
            results, lambda r: r.fq.mean, "mean block fidelity",
            "Matrix fidelity vs block fidelity",
        )
        save_chart(args.svg, chart)
        print(f"svg written to {args.svg}")
    return 0


def _cmd_sweep_size(args) -> int:
    results = sweep_size(
        m_list=args.m_list,
        n_grid=args.n_list,
        target_fq=args.target_fq,
        fq_tolerance=args.fq_tol,
        n_matrices=args.matrices,
        n_perturbations=args.perturbations,
        seed=args.seed,
    )
    config = {
        "command": "sweep-size",
        "m_list": ",".join(str(m) for m in args.m_list),
        "n_list": ",".join(str(n) for n in args.n_list),
        "target_fq": format(args.target_fq, ".12g"),
        "fq_tol": format(args.fq_tol, ".12g"),
        "matrices": args.matrices,
        "perturbations": args.perturbations,
        "seed": args.seed,
        "fq_pooling": "all factor blocks per draw",
    }
    calibrated = {}
    for r in results:
        calibrated.setdefault(r.m, r.sigma)
    for m in sorted(calibrated):
        config[f"calibrated_sigma_m{m}"] = format(calibrated[m], ".12g")
    save_sweep_results(args.out, results, config)
    for m in sorted(calibrated):
        print(f"calibrated sigma for m={m}: {calibrated[m]:.6g}")
    print(f"rows = {len(results)}")
    print(f"csv written to {args.out}")
    if args.svg:
        chart = sweep_chart(
            results, lambda r: r.n, "matrix dimension n",
            "Matrix fidelity vs size at calibrated block fidelity",
        )
        save_chart(args.svg, chart)
        print(f"svg written to {args.svg}")
    return 0


def _cmd_cost(args) -> int:
    comp = cost_compare(args.n, args.m, args.cm, args.c2)
    threshold = args.m * (args.m - 1) / 2 * args.c2
    print(f"n = {comp.n}")
    print(f"m = {comp.m}")
    print(f"m-block count (bound) = {comp.count_m}")
    print(f"2x2 count = {comp.n * (comp.n - 1) // 2}")
    print(f"cost_m = {comp.cost_m:.6g}")
    print(f"cost_2 = {comp.cost_2:.6g}")
    print(f"large-n break-even c_m = {threshold:.6g}")
    print(f"advantageous = {comp.advantageous}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multiport",
        description="Block decomposition of unitaries and noise-robustness sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="factor a matrix file into a plan file")
    p.add_argument("--in", dest="infile", required=True, metavar="MATRIX_JSON")
    p.add_argument("--m", type=int, required=True, help="maximum block size")
    p.add_argument("--out", required=True, metavar="PLAN_JSON")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("reconstruct", help="multiply a plan file back into a matrix")
    p.add_argument("--in", dest="infile", required=True, metavar="PLAN_JSON")
    p.add_argument("--out", required=True, metavar="MATRIX_JSON")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("verify", help="check a plan file against a matrix file")
    p.add_argument("--plan", required=True, metavar="PLAN_JSON")
    p.add_argument("--matrix", required=True, metavar="MATRIX_JSON")
    p.add_argument("--tol", type=float, default=None, help="max-error tolerance")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("random", help="write a seeded Haar-random unitary")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, metavar="MATRIX_JSON")
    p.set_defaults(func=_cmd_random)

    p = sub.add_parser("sweep-noise", help="fidelity vs noise strength (CSV/SVG)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m-list", type=_int_list, required=True)
    p.add_argument("--sigmas", type=_float_list, required=True)
    p.add_argument("--matrices", type=int, required=True)
    p.add_argument("--perturbations", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, metavar="CSV")
    p.add_argument("--svg", default=None, metavar="SVG")
    p.set_defaults(func=_cmd_sweep_noise)

    p = sub.add_parser("sweep-size", help="fidelity vs size at calibrated noise")
    p.add_argument("--m-list", type=_int_list, required=True)
    p.add_argument("--n-list", type=_int_list, required=True)
    p.add_argument("--target-fq", type=float, required=True)
    p.add_argument("--fq-tol", type=float, required=True)
    p.add_argument("--matrices", type=int, required=True)
    p.add_argument("--perturbations", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, metavar="CSV")
    p.add_argument("--svg", default=None, metavar="SVG")
    p.set_defaults(func=_cmd_sweep_size)

    p = sub.add_parser("cost", help="mesh cost vs the all-2x2 baseline")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--cm", type=float, required=True, help="cost of one m-block")
    p.add_argument("--c2", type=float, required=True, help="cost of one 2x2 block")
    p.set_defaults(func=_cmd_cost)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, TypeError, OSError, DecompositionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
