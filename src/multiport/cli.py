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

The commands are registered from one table, ``_COMMANDS``: name, help,
argument adder and handler.  ``main`` builds only the subparser of the
command its first argument names, since the sweeps call it once per job
and all seven cost about a millisecond to build; help, usage and error
texts read the same as with all seven (see ``_build_parser``).
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


def _list_of(kind, name):
    """An argparse type for a comma-separated list of ``kind`` values."""
    def parse(text: str) -> list:
        try:
            return [kind(part) for part in text.split(",") if part.strip() != ""]
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {name}, got {text!r}")
    return parse


def _echo(args) -> dict:
    """A sweep's CSV header: its parsed arguments in the parser's order,
    without the output paths, then how block fidelities are pooled.  A
    float prints as ``.12g`` of ``v + 0.0``, so -0 echoes as 0, as the rows
    print it; a list prints comma-joined."""
    config = {}
    for key, value in vars(args).items():
        if key not in ("out", "svg", "func"):
            items = value if isinstance(value, list) else [value]
            config[key] = ",".join(
                format(v + 0.0, ".12g") if isinstance(v, float) else str(v) for v in items
            )
    config["fq_pooling"] = "all factor blocks per draw"
    return config


def _save_sweep(args, results, config, x_of, x_label, title) -> int:
    """Write a sweep's CSV and, if asked, its chart; print where they went."""
    save_sweep_results(args.out, results, config)
    print(f"rows = {len(results)}")
    print(f"csv written to {args.out}")
    if args.svg:
        save_chart(args.svg, sweep_chart(results, x_of, x_label, title))
        print(f"svg written to {args.svg}")
    return 0


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
    print(f"zeros_cleared = {sum(s * (s - 1) // 2 for s in plan.sizes.tolist())}")
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
    return _save_sweep(
        args, results, _echo(args), lambda r: r.fq.mean, "mean block fidelity",
        "Matrix fidelity vs block fidelity",
    )


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
    config = _echo(args)
    calibrated = {}
    for r in results:
        calibrated.setdefault(r.m, r.sigma)
    for m in sorted(calibrated):
        config[f"calibrated_sigma_m{m}"] = format(calibrated[m], ".12g")
        print(f"calibrated sigma for m={m}: {calibrated[m]:.6g}")
    return _save_sweep(
        args, results, config, lambda r: r.n, "matrix dimension n",
        "Matrix fidelity vs size at calibrated block fidelity",
    )


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


def _decompose_args(p) -> None:
    p.add_argument("--in", dest="infile", required=True, metavar="MATRIX_JSON")
    p.add_argument("--m", type=int, required=True, help="maximum block size")
    p.add_argument("--out", required=True, metavar="PLAN_JSON")


def _reconstruct_args(p) -> None:
    p.add_argument("--in", dest="infile", required=True, metavar="PLAN_JSON")
    p.add_argument("--out", required=True, metavar="MATRIX_JSON")


def _verify_args(p) -> None:
    p.add_argument("--plan", required=True, metavar="PLAN_JSON")
    p.add_argument("--matrix", required=True, metavar="MATRIX_JSON")
    p.add_argument("--tol", type=float, default=None, help="max-error tolerance")


def _random_args(p) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, metavar="MATRIX_JSON")


def _sweep_tail_args(p) -> None:
    """The arguments both sweeps end with, in the order their help lists them."""
    p.add_argument("--matrices", type=int, required=True)
    p.add_argument("--perturbations", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, metavar="CSV")
    p.add_argument("--svg", default=None, metavar="SVG")


def _sweep_noise_args(p) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m-list", type=_list_of(int, "integers"), required=True)
    p.add_argument("--sigmas", type=_list_of(float, "numbers"), required=True)
    _sweep_tail_args(p)


def _sweep_size_args(p) -> None:
    p.add_argument("--m-list", type=_list_of(int, "integers"), required=True)
    p.add_argument("--n-list", type=_list_of(int, "integers"), required=True)
    p.add_argument("--target-fq", type=float, required=True)
    p.add_argument("--fq-tol", type=float, required=True)
    _sweep_tail_args(p)


def _cost_args(p) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--cm", type=float, required=True, help="cost of one m-block")
    p.add_argument("--c2", type=float, required=True, help="cost of one 2x2 block")


# name -> (help, argument adder, handler), in the order help lists them
_COMMANDS = {
    "decompose": ("factor a matrix file into a plan file", _decompose_args, _cmd_decompose),
    "reconstruct": ("multiply a plan file back into a matrix", _reconstruct_args, _cmd_reconstruct),
    "verify": ("check a plan file against a matrix file", _verify_args, _cmd_verify),
    "random": ("write a seeded Haar-random unitary", _random_args, _cmd_random),
    "sweep-noise": ("fidelity vs noise strength (CSV/SVG)", _sweep_noise_args, _cmd_sweep_noise),
    "sweep-size": ("fidelity vs size at calibrated noise", _sweep_size_args, _cmd_sweep_size),
    "cost": ("mesh cost vs the all-2x2 baseline", _cost_args, _cmd_cost),
}


def _build_parser(names=_COMMANDS) -> argparse.ArgumentParser:
    """The parser with the subparsers of ``names``, all commands by default.

    A parser with fewer subparsers gets the full ``{decompose,...,cost}``
    as its metavar, so its usage line, which its "unrecognized arguments"
    error prints, reads as the full parser's.  The full parser keeps
    argparse's own, as its errors name the subparsers ``command``.
    """
    parser = argparse.ArgumentParser(
        prog="multiport",
        description="Block decomposition of unitaries and noise-robustness sweeps.",
    )
    every = len(names) == len(_COMMANDS)
    sub = parser.add_subparsers(
        dest="command", required=True, metavar=None if every else "{" + ",".join(_COMMANDS) + "}"
    )
    for name in names:
        help_text, add_arguments, handler = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    """Run the command ``argv`` names (``sys.argv[1:]`` by default).

    Only that command's subparser is built; with no command, ``-h`` or an
    unknown name the parser has all seven, so help and errors list them.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    named = argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS
    args = _build_parser(named).parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, TypeError, OSError, DecompositionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
