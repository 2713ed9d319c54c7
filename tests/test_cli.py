import csv
import dataclasses
import json
import os
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from multiport import cli
from multiport.cli import main
from multiport.linalg import haar_random_unitary
from multiport.serialize import (
    CSV_HEADER,
    json_to_plan,
    load_matrix,
    load_plan,
    plan_to_json,
    save_matrix,
)


SRC = Path(__file__).resolve().parent.parent / "src"


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRandom:
    def test_writes_unitary(self, tmp_path, capsys):
        out = tmp_path / "u.json"
        code, _, _ = run(["random", "--n", "6", "--seed", "3", "--out", str(out)], capsys)
        assert code == 0
        u = load_matrix(out)
        assert np.abs(u.conj().T @ u - np.eye(6)).max() <= 1e-10

    def test_repeat_seed_identical_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["random", "--n", "5", "--seed", "7", "--out", str(a)], capsys)
        run(["random", "--n", "5", "--seed", "7", "--out", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_n_one(self, tmp_path, capsys):
        out = tmp_path / "u1.json"
        code, _, _ = run(["random", "--n", "1", "--seed", "0", "--out", str(out)], capsys)
        assert code == 0
        u = load_matrix(out)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12


class TestDecomposeReconstructVerify:
    @pytest.fixture()
    def matrix_file(self, tmp_path):
        path = tmp_path / "u.json"
        save_matrix(path, haar_random_unitary(8, 15))
        return path

    def test_full_pipeline(self, tmp_path, capsys, matrix_file):
        plan = tmp_path / "plan.json"
        rebuilt = tmp_path / "rebuilt.json"

        code, out, _ = run(
            ["decompose", "--in", str(matrix_file), "--m", "3", "--out", str(plan)],
            capsys,
        )
        assert code == 0
        assert "factors = 12" in out
        assert "bound = 16" in out
        assert "max_error" in out

        code, out, _ = run(
            ["verify", "--plan", str(plan), "--matrix", str(matrix_file)], capsys
        )
        assert code == 0
        assert "passed = True" in out

        code, _, _ = run(
            ["reconstruct", "--in", str(plan), "--out", str(rebuilt)], capsys
        )
        assert code == 0
        u = load_matrix(matrix_file)
        assert np.abs(load_matrix(rebuilt) - u).max() <= 1e-9 * 8

    def test_plan_files_read_and_written_again_are_fixed_points(self, tmp_path, capsys):
        # A plan holds its file's arrays: reading a plan and writing it again
        # gives its text, and plan.columns is the file's columns list.  At
        # m = 2 every layer group is a run of adjacent columns, at m = 3 most
        # are gathered.
        u = tmp_path / "u.json"
        assert run(["random", "--n", "6", "--seed", "1", "--out", str(u)], capsys)[0] == 0
        for m, name in ((3, "plan.json"), (2, "plan-m2.json")):
            path = tmp_path / name
            code, _, _ = run(
                ["decompose", "--in", str(u), "--m", str(m), "--out", str(path)], capsys
            )
            assert code == 0
            text = path.read_text()
            assert plan_to_json(json_to_plan(text)) == text
            assert json.loads(text)["columns"] == load_plan(path).columns.tolist()

    def test_identity_reports_zero_factors(self, tmp_path, capsys):
        ufile = tmp_path / "eye.json"
        save_matrix(ufile, np.eye(5, dtype=complex))
        plan = tmp_path / "plan.json"
        code, out, _ = run(
            ["decompose", "--in", str(ufile), "--m", "3", "--out", str(plan)], capsys
        )
        assert code == 0
        assert "factors = 0" in out

    def test_haar_m2_reports_ten_factors(self, tmp_path, capsys):
        ufile = tmp_path / "u5.json"
        save_matrix(ufile, haar_random_unitary(5, 77))
        plan = tmp_path / "plan.json"
        code, out, _ = run(
            ["decompose", "--in", str(ufile), "--m", "2", "--out", str(plan)], capsys
        )
        assert code == 0
        assert "factors = 10" in out

    def test_verify_mismatch_fails(self, tmp_path, capsys, matrix_file):
        plan = tmp_path / "plan.json"
        run(["decompose", "--in", str(matrix_file), "--m", "3", "--out", str(plan)], capsys)
        other = tmp_path / "other.json"
        save_matrix(other, haar_random_unitary(8, 16))
        code, out, err = run(
            ["verify", "--plan", str(plan), "--matrix", str(other)], capsys
        )
        assert code == 1
        assert "passed = False" in out
        assert "error" in err

    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
    def test_verify_rejects_tolerance_not_positive_and_finite(
        self, tmp_path, capsys, matrix_file, tol
    ):
        # At --tol inf the plan of a different matrix would pass.
        plan = tmp_path / "plan.json"
        run(["decompose", "--in", str(matrix_file), "--m", "3", "--out", str(plan)], capsys)
        other = tmp_path / "other.json"
        save_matrix(other, haar_random_unitary(8, 16))
        code, out, err = run(
            ["verify", "--plan", str(plan), "--matrix", str(other), f"--tol={tol}"], capsys
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: tol must be positive and finite")

    def test_non_unitary_input_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        save_matrix(bad, np.diag([1.0, 2.0]))
        code, _, err = run(
            ["decompose", "--in", str(bad), "--m", "2", "--out", str(tmp_path / "p.json")],
            capsys,
        )
        assert code == 1
        assert "unitary" in err

    @pytest.mark.parametrize(
        "scale,n,message",
        [
            (1e300, 3, "entry modulus 7.707e+299 exceeds 2"),
            (1.7e308, 8, "entry modulus"),
            (1e-300, 3, "swept row residual 1.000e+00 exceeds 2.700e-09"),
            (0.0, 8, "swept row residual 1.000e+00 exceeds 7.200e-09"),
            (1 + 1e-8, 8, "swept row residual"),
        ],
    )
    def test_rejected_input_writes_no_plan(self, tmp_path, capsys, scale, n, message):
        ufile = tmp_path / "u.json"
        save_matrix(ufile, scale * haar_random_unitary(n, 1))
        plan = tmp_path / "plan.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                ["decompose", "--in", str(ufile), "--m", "3", "--out", str(plan)], capsys
            )
        assert (code, out) == (1, "")
        assert err.startswith(f"error: input is not unitary: {message}")
        assert not plan.exists()

    @pytest.mark.parametrize("scale", [2.0, 1e300])
    def test_verify_fidelity_ignores_the_scale_of_the_matrix(self, tmp_path, capsys, scale):
        u = haar_random_unitary(3, 1)
        ufile, scaled, plan = (tmp_path / name for name in ("u.json", "s.json", "p.json"))
        save_matrix(ufile, u)
        save_matrix(scaled, scale * u)
        run(["decompose", "--in", str(ufile), "--m", "2", "--out", str(plan)], capsys)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run(["verify", "--plan", str(plan), "--matrix", str(scaled)], capsys)
        assert code == 1
        assert "fidelity = 1.000000000000\n" in out
        assert "passed = False" in out

    def test_parse_failure_fails(self, tmp_path, capsys):
        mangled = tmp_path / "mangled.json"
        mangled.write_text('{"rows": 2, "cols": 2, "entries": [[1,0]]}')
        code, _, err = run(
            ["decompose", "--in", str(mangled), "--m", "2", "--out", str(tmp_path / "p.json")],
            capsys,
        )
        assert code == 1
        assert "error" in err

    def test_corrupted_plan_fails_reconstruct(self, tmp_path, capsys, matrix_file):
        plan = tmp_path / "plan.json"
        run(["decompose", "--in", str(matrix_file), "--m", "3", "--out", str(plan)], capsys)
        # break a block: replace the first block's top-left real part
        import json as _json

        obj = _json.loads(plan.read_text())
        obj["blocks"][0] = 99.0
        plan.write_text(_json.dumps(obj))
        code, _, err = run(
            ["reconstruct", "--in", str(plan), "--out", str(tmp_path / "o.json")], capsys
        )
        assert code == 1
        assert "unitary" in err

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("base_rows", [10**30], f"base_rows: a value is out of range for {np.dtype(np.intp)}"),
            ("columns", [2, 1], "factors[0]: columns must be strictly ascending, got (2, 1)"),
        ],
    )
    def test_invalid_plan_fails_with_one_wording(self, tmp_path, capsys, key, value, message):
        plan = tmp_path / "plan.json"
        obj = {"format": 2, "n": 2, "m": 2, "sizes": [2], "base_rows": [2], "columns": [1, 2],
               "blocks": [0, 0, 1, 0, 1, 0, 0, 0], "phases": [0, 0], key: value}
        plan.write_text(json.dumps(obj))
        code, _, err = run(
            ["reconstruct", "--in", str(plan), "--out", str(tmp_path / "o.json")], capsys
        )
        assert code == 1
        assert err == f"error: invalid plan: {message}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["decompose", "--in", "DEEP", "--m", "3", "--out", "OUT"],
            ["reconstruct", "--in", "DEEP", "--out", "OUT"],
            ["verify", "--plan", "DEEP", "--matrix", "MATRIX"],
            ["verify", "--plan", "PLAN", "--matrix", "DEEP"],
        ],
        ids=["decompose", "reconstruct", "verify-plan", "verify-matrix"],
    )
    def test_deeply_nested_json_fails_cleanly(self, tmp_path, capsys, matrix_file, argv):
        plan = tmp_path / "plan.json"
        run(["decompose", "--in", str(matrix_file), "--m", "3", "--out", str(plan)], capsys)
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        paths = {"DEEP": deep, "OUT": tmp_path / "out.json", "MATRIX": matrix_file, "PLAN": plan}
        code, out, err = run([str(paths.get(arg, arg)) for arg in argv], capsys)
        assert (code, out, err) == (1, "", "error: JSON nests too deeply\n")
        assert not paths["OUT"].exists()

    def test_format_1_plan_fails_with_advice(self, tmp_path, capsys):
        plan = tmp_path / "old.json"
        plan.write_text('{"n": 2, "m": 2, "factors": [], "phases": [0, 0]}')
        code, _, err = run(
            ["reconstruct", "--in", str(plan), "--out", str(tmp_path / "o.json")], capsys
        )
        assert code == 1
        assert "format-1" in err and "re-run `multiport decompose`" in err

    @pytest.mark.parametrize("command", ["decompose", "reconstruct"])
    def test_integer_too_large_for_a_float_fails_cleanly(self, tmp_path, command):
        huge = "1" + "0" * 400
        if command == "decompose":
            text = '{"rows": 1, "cols": 1, "entries": [[%s, 0]]}' % huge
            args = ["--m", "2"]
        else:
            text = (
                '{"format": 2, "n": 2, "m": 2, "sizes": [], "base_rows": [], "columns": [], '
                '"blocks": [], "phases": [0, %s]}' % huge
            )
            args = []
        infile = tmp_path / "in.json"
        infile.write_text(text)
        proc = subprocess.run(
            [sys.executable, "-m", "multiport.cli", command, "--in", str(infile), *args,
             "--out", str(tmp_path / "out.json")],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and "must be finite" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_missing_file_fails(self, tmp_path, capsys):
        code, _, err = run(
            ["decompose", "--in", str(tmp_path / "nope.json"), "--m", "2",
             "--out", str(tmp_path / "p.json")],
            capsys,
        )
        assert code == 1
        assert "error" in err

    def test_failed_sweep_is_reported(self, tmp_path, capsys, matrix_file, monkeypatch):
        message = "input is not unitary: swept row residual 1.000e+00 exceeds 7.200e-09"

        def fail(u, m):
            raise ValueError(message)

        monkeypatch.setattr(cli, "decompose", fail)
        plan = tmp_path / "plan.json"
        code, out, err = run(
            ["decompose", "--in", str(matrix_file), "--m", "2", "--out", str(plan)], capsys
        )
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert not plan.exists()

    def test_failed_self_check_is_reported_after_the_summary(
        self, tmp_path, capsys, matrix_file, monkeypatch
    ):
        real_verify = cli.verify

        def failing(plan, u, tol=None):
            report = real_verify(plan, u, tol)
            return dataclasses.replace(report, max_error=3e-8, tol=8e-9, passed=False)

        monkeypatch.setattr(cli, "verify", failing)
        plan = tmp_path / "plan.json"
        code, out, err = run(
            ["decompose", "--in", str(matrix_file), "--m", "3", "--out", str(plan)], capsys
        )
        assert code == 1
        assert err == "error: reconstruction error 3.000e-08 exceeds tolerance 8.000e-09\n"
        lines = out.splitlines()
        assert lines[0] == f"input = {matrix_file}"
        assert "factors = 12" in lines and "max_error = 3.000e-08" in lines
        assert lines[-1] == f"plan written to {plan}"


class TestCost:
    def test_worked_example(self, capsys):
        code, out, _ = run(["cost", "--n", "50", "--m", "3", "--cm", "2", "--c2", "1"], capsys)
        assert code == 0
        assert "cost_m = 914" in out
        assert "cost_2 = 1225" in out
        assert "advantageous = True" in out

    def test_equal_cost_m2(self, capsys):
        code, out, _ = run(["cost", "--n", "10", "--m", "2", "--cm", "1", "--c2", "1"], capsys)
        assert code == 0
        assert "cost_m = 45" in out
        assert "cost_2 = 45" in out
        assert "advantageous = False" in out

    def test_break_even_not_advantageous(self, capsys):
        code, out, _ = run(["cost", "--n", "200", "--m", "3", "--cm", "3", "--c2", "1"], capsys)
        assert code == 0
        assert "advantageous = False" in out

    def test_invalid_cost_fails(self, capsys):
        code, _, err = run(["cost", "--n", "10", "--m", "3", "--cm", "0", "--c2", "1"], capsys)
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize(
        "cm,c2,message",
        [
            ("1e308", "1e308", "mesh costs for n=10, c_m=1e+308, c_2=1e+308 exceed the float range"),
            ("inf", "1", "costs must be positive and finite, got c_m=inf, c_2=1.0"),
        ],
    )
    def test_infinite_costs_fail(self, capsys, cm, c2, message):
        code, out, err = run(["cost", "--n", "10", "--m", "3", "--cm", cm, "--c2", c2], capsys)
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"

    def test_counts_beyond_float_range_fail(self, capsys):
        n = str(10**155)
        code, out, err = run(["cost", "--n", n, "--m", "3", "--cm", "2", "--c2", "1"], capsys)
        assert code == 1
        assert out == ""
        assert err == f"error: factor counts for n={n} exceed the float range\n"


class TestSweepNoiseCommand:
    def test_writes_csv_and_svg(self, tmp_path, capsys):
        csv = tmp_path / "sweep.csv"
        svg = tmp_path / "sweep.svg"
        code, out, _ = run(
            ["sweep-noise", "--n", "6", "--m-list", "2,3", "--sigmas", "0,0.05",
             "--matrices", "2", "--perturbations", "2", "--seed", "9",
             "--out", str(csv), "--svg", str(svg)],
            capsys,
        )
        assert code == 0
        lines = csv.read_text().splitlines()
        header_at = lines.index(CSV_HEADER)
        assert lines[:header_at] == [
            "# command = sweep-noise",
            "# n = 6",
            "# m_list = 2,3",
            "# sigmas = 0,0.05",
            "# matrices = 2",
            "# perturbations = 2",
            "# seed = 9",
            "# fq_pooling = all factor blocks per draw",
        ]
        assert len(lines) == header_at + 1 + 4
        assert svg.read_text().startswith("<svg")

    def test_sigma_zero_rows_are_flat_ones(self, tmp_path, capsys):
        csv = tmp_path / "flat.csv"
        run(
            ["sweep-noise", "--n", "4", "--m-list", "2", "--sigmas", "0",
             "--matrices", "2", "--perturbations", "2", "--seed", "4",
             "--out", str(csv)],
            capsys,
        )
        row = csv.read_text().splitlines()[-1].split(",")
        assert row[3] == "1" and row[5] == "1"

    def test_negative_zero_sigma_prints_as_zero(self, tmp_path, capsys):
        args = ["sweep-noise", "--n", "4", "--m-list", "2", "--matrices", "2",
                "--perturbations", "2", "--seed", "4"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--sigmas=-0.0,0.1", "--out", str(a)], capsys)[0] == 0
        assert run(args + ["--sigmas=0,0.1", "--out", str(b)], capsys)[0] == 0
        lines = a.read_text().splitlines()
        assert "# sigmas = 0,0.1" in lines
        assert lines[-2].startswith("4,2,0,")
        assert a.read_bytes() == b.read_bytes()

    def test_rerun_identical(self, tmp_path, capsys):
        args = ["sweep-noise", "--n", "5", "--m-list", "2", "--sigmas", "0.02,0.08",
                "--matrices", "2", "--perturbations", "2", "--seed", "31"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(args + ["--out", str(a)], capsys)
        run(args + ["--out", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_chart_of_fidelities_equal_within_an_ulp(self, tmp_path):
        # both cells' fq and fu means are 1 within 1e-16, below the step a
        # tick loop can add to 1.0; a stalled loop grows its tick list until
        # memory runs out, so the command runs in a child process with a timeout
        csv, svg = tmp_path / "a.csv", tmp_path / "a.svg"
        proc = subprocess.run(
            [sys.executable, "-m", "multiport.cli", "sweep-noise", "--n", "4",
             "--m-list", "2", "--sigmas", "0,1e-8", "--matrices", "2",
             "--perturbations", "3", "--seed", "1", "--out", str(csv), "--svg", str(svg)],
            capture_output=True,
            text=True,
            timeout=10,
        )
        assert proc.returncode == 0, proc.stderr
        assert ET.parse(svg).getroot().tag == "{http://www.w3.org/2000/svg}svg"

    def test_bad_m_list_fails(self, tmp_path, capsys):
        code, _, err = run(
            ["sweep-noise", "--n", "4", "--m-list", "2,9", "--sigmas", "0.1",
             "--matrices", "1", "--perturbations", "1", "--seed", "0",
             "--out", str(tmp_path / "x.csv")],
            capsys,
        )
        assert code == 1
        assert "error" in err


class TestSweepSizeCommand:
    def test_writes_csv_with_calibration_echo(self, tmp_path, capsys):
        csv = tmp_path / "size.csv"
        svg = tmp_path / "size.svg"
        code, out, _ = run(
            ["sweep-size", "--m-list", "2", "--n-list", "3,5",
             "--target-fq", "0.97", "--fq-tol", "0.005",
             "--matrices", "2", "--perturbations", "2", "--seed", "12",
             "--out", str(csv), "--svg", str(svg)],
            capsys,
        )
        assert code == 0
        lines = csv.read_text().splitlines()
        header_at = lines.index(CSV_HEADER)
        assert lines[:header_at] == [
            "# command = sweep-size",
            "# m_list = 2",
            "# n_list = 3,5",
            "# target_fq = 0.97",
            "# fq_tol = 0.005",
            "# matrices = 2",
            "# perturbations = 2",
            "# seed = 12",
            "# fq_pooling = all factor blocks per draw",
            "# calibrated_sigma_m2 = 0.101550640161",
        ]
        assert "calibrated sigma for m=2: 0.101551" in out
        assert len(lines) == header_at + 1 + 2
        assert ET.parse(svg).getroot().tag == "{http://www.w3.org/2000/svg}svg"

    def test_m_above_every_n_fails_up_front(self, tmp_path, capsys):
        csv = tmp_path / "size.csv"
        code, _, err = run(
            ["sweep-size", "--m-list", "3", "--n-list", "2",
             "--target-fq", "0.95", "--fq-tol", "0.005",
             "--matrices", "1", "--perturbations", "1", "--seed", "0",
             "--out", str(csv)],
            capsys,
        )
        assert code == 1
        assert "m=3" in err
        assert not csv.exists()


# One valid argument list per command, and the value each bad-value case
# gives its flag (a flag given no value, where no argument is typed) with
# the message argparse prints for it.
VALID = {
    "decompose": ["--in", "u.json", "--m", "2", "--out", "p.json"],
    "reconstruct": ["--in", "p.json", "--out", "r.json"],
    "verify": ["--plan", "p.json", "--matrix", "u.json", "--tol", "1e-9"],
    "random": ["--n", "4", "--seed", "1", "--out", "u.json"],
    "sweep-noise": ["--n", "4", "--m-list", "2", "--sigmas", "0.1", "--matrices", "1",
                    "--perturbations", "1", "--seed", "1", "--out", "s.csv", "--svg", "s.svg"],
    "sweep-size": ["--m-list", "2", "--n-list", "3", "--target-fq", "0.9", "--fq-tol", "0.01",
                   "--matrices", "1", "--perturbations", "1", "--seed", "1", "--out", "s.csv"],
    "cost": ["--n", "4", "--m", "2", "--cm", "1", "--c2", "1"],
}
BAD = {
    "decompose": ("--m", "two", "invalid int value: 'two'"),
    "reconstruct": ("--out", None, "expected one argument"),
    "verify": ("--tol", "tight", "invalid float value: 'tight'"),
    "random": ("--n", "4.5", "invalid int value: '4.5'"),
    "sweep-noise": ("--sigmas", "0.1,x", "expected comma-separated numbers, got '0.1,x'"),
    "sweep-size": ("--n-list", "3;5", "expected comma-separated integers, got '3;5'"),
    "cost": ("--cm", "cheap", "invalid float value: 'cheap'"),
}


def _with_bad_value(name):
    flag, value, _ = BAD[name]
    args = list(VALID[name])
    at = args.index(flag)
    if value is None:
        return args[:at] + args[at + 2:] + [flag]
    args[at + 1] = value
    return args


def _exit(parse, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


class TestParsing:
    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_every_command_has_parity_cases(self):
        assert set(VALID) == set(BAD) == set(cli._COMMANDS)

    @pytest.mark.parametrize("name", list(VALID))
    @pytest.mark.parametrize("case", ["help", "missing", "bad-value", "extra"])
    def test_help_and_parse_errors_of_every_command(self, capsys, name, case):
        argv = [name] + {
            "help": ["--help"],
            "missing": VALID[name][2:],
            "bad-value": _with_bad_value(name),
            "extra": VALID[name] + ["extra"],
        }[case]
        code, out, err = _exit(main, argv, capsys)
        if case == "help":
            assert (code, err) == (0, "")
            assert out.startswith(f"usage: multiport {name} [-h] ")
            return
        assert code == 2
        assert out == ""
        if case == "extra":
            # the top-level parser rejects it, with its usage line
            assert err.endswith("multiport: error: unrecognized arguments: extra\n")
            assert "{" + ",".join(VALID) + "}" in err.replace("\n", "").replace(" ", "")
            return
        assert err.startswith(f"usage: multiport {name} [-h] ")
        if case == "missing":
            message = f"the following arguments are required: {VALID[name][0]}"
        else:
            flag, _, invalid = BAD[name]
            message = f"argument {flag}: {invalid}"
        assert err.endswith(f"multiport {name}: error: {message}\n")

    def test_the_parser_is_built_once_and_keeps_no_state(self, tmp_path, capsys):
        # One parser serves every call of a process, so no parse may leave
        # anything behind for the next: each call gives its own result.
        assert cli._build_parser() is cli._build_parser()
        cost = ["cost", "--n", "10", "--m", "2", "--cm", "1", "--c2", "1"]
        first = run(cost, capsys)
        assert first[0] == 0
        assert "2x2 count = 45\n" in first[1]
        code, out, err = _exit(main, ["cost", "--n", "10", "--m", "2", "--cm", "x"], capsys)
        assert (code, out) == (2, "")
        assert err.endswith("multiport cost: error: argument --cm: invalid float value: 'x'\n")
        expected = tmp_path / "expected.json"
        save_matrix(expected, haar_random_unitary(4, 1))
        u = tmp_path / "u.json"
        code, out, err = run(["random", "--n", "4", "--seed", "1", "--out", str(u)], capsys)
        assert (code, out, err) == (0, f"n = 4\nseed = 1\nmatrix written to {u}\n", "")
        assert u.read_bytes() == expected.read_bytes()
        plan = tmp_path / "p.json"
        assert run(["decompose", "--in", str(u), "--m", "2", "--out", str(plan)], capsys)[0] == 0
        code, out, err = run(["verify", "--plan", str(plan), "--matrix", str(u)], capsys)
        assert (code, err) == (0, "")
        assert out.startswith("n = 4\nm = 2\nfactors = 6\n")
        assert out.endswith("passed = True\n")
        assert run(cost, capsys) == first

    @pytest.mark.parametrize("argv", [[], ["--help"], ["-h"], ["bogus"]])
    def test_without_a_command_every_command_is_named(self, capsys, argv):
        code, out, err = _exit(main, argv, capsys)
        assert code == (0 if argv and argv[0].startswith("-") else 2)
        listed = "{" + ",".join(VALID) + "}"
        assert listed in (out + err).replace("\n", "").replace(" ", "")
        if argv == ["--help"]:
            for name, (help_text, _, _) in cli._COMMANDS.items():
                assert help_text in out

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "multiport.cli", "cost", "--n", "10", "--m", "2",
             "--cm", "1", "--c2", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "advantageous" in proc.stdout


# Runs each command of argv[2] (a JSON list of argument lists) through
# cli.main in the working directory, after a "$ command" line, and exits
# non-zero at the first command that fails.  With argv[1] == "no-scipy"
# every import of scipy raises ImportError.
DRIVER = """
import json, sys
if sys.argv[1] == "no-scipy":
    sys.modules["scipy"] = None
from multiport import cli
from multiport.cli import main
for args in json.loads(sys.argv[2]):
    print("$", *args, flush=True)
    code = main(args)
    if code:
        sys.exit(f"{args}: exit {code}")
"""
SWEEP = ["--m-list", "2,3", "--matrices", "2", "--perturbations", "2"]
NOISE = ["sweep-noise", "--n", "6", "--sigmas", "0.0,0.1", *SWEEP]
COMMANDS = [
    ["random", "--n", "6", "--seed", "1", "--out", "u.json"],
    # 1 + 2**64: seeds wrap modulo 2**64
    ["random", "--n", "6", "--seed", str(1 + 2**64), "--out", "u-wrapped.json"],
    # at m = 2 every layer group is a run of adjacent columns, at m = 3 most are gathered
    ["decompose", "--in", "u.json", "--m", "3", "--out", "plan.json"],
    ["decompose", "--in", "u.json", "--m", "2", "--out", "plan-m2.json"],
    ["reconstruct", "--in", "plan.json", "--out", "rebuilt.json"],
    ["reconstruct", "--in", "plan-m2.json", "--out", "rebuilt-m2.json"],
    ["verify", "--plan", "plan.json", "--matrix", "u.json"],
    ["verify", "--plan", "plan-m2.json", "--matrix", "u.json"],
    [*NOISE, "--seed", "1", "--out", "noise.csv", "--svg", "noise.svg"],
    ["sweep-size", "--n-list", "3,5", "--target-fq", "0.95", "--fq-tol", "0.01", *SWEEP,
     "--seed", "1", "--out", "size.csv", "--svg", "size.svg"],
    # 7 + 2**32: a seed past 32 bits
    [*NOISE, "--seed", str(7 + 2**32), "--out", "high.csv"],
]


def test_files_are_identical_across_fresh_interpreters(tmp_path):
    # What only a new process shows: a stream or a cache that depends on the
    # hash seed or on what an earlier call left behind, or a path that
    # changes when scipy is missing, writes different bytes in the second
    # interpreter.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    files = {}
    for mode, hash_seed in (("default", "1"), ("no-scipy", "2")):
        cwd = tmp_path / mode
        cwd.mkdir()
        proc = subprocess.run(
            [sys.executable, "-c", DRIVER, mode, json.dumps(COMMANDS)],
            cwd=cwd,
            env={**env, "PYTHONHASHSEED": hash_seed},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        # a dense 6 x 6 input: n(n-1)/2 = 15 below-diagonal zeros
        decompose_m3 = proc.stdout.split("$ ")[3]
        assert decompose_m3.startswith("decompose --in u.json --m 3 ")
        assert "zeros_cleared = 15" in decompose_m3.splitlines()
        files[mode] = {path.name: path.read_bytes() for path in cwd.iterdir()}
    first, second = files["default"], files["no-scipy"]
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], name
    assert first["u-wrapped.json"] == first["u.json"]
    # every row pools 2 matrices x 2 perturbations; the sigma = 0 rows, one
    # per m, are exact
    lines = first["noise.csv"].decode().splitlines()
    rows = list(csv.DictReader(line for line in lines if not line.startswith("#")))
    assert len(rows) == 4 and all(row["samples"] == "4" for row in rows)
    exact = [row for row in rows if row["sigma"] == "0"]
    assert len(exact) == 2
    assert all(row["fq_mean"] == "1" and row["fu_mean"] == "1" for row in exact)
