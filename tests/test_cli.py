import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from multiport.cli import main
from multiport.linalg import haar_random_unitary, unitarity
from multiport.serialize import CSV_HEADER, load_matrix, save_matrix


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRandom:
    def test_writes_unitary(self, tmp_path, capsys):
        out = tmp_path / "u.json"
        code, _, _ = run(["random", "--n", "6", "--seed", "3", "--out", str(out)], capsys)
        assert code == 0
        assert unitarity(load_matrix(out), tol=1e-10).is_unitary

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

    def test_non_unitary_input_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        save_matrix(bad, np.diag([1.0, 2.0]))
        code, _, err = run(
            ["decompose", "--in", str(bad), "--m", "2", "--out", str(tmp_path / "p.json")],
            capsys,
        )
        assert code == 1
        assert "unitary" in err

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
        text = plan.read_text().replace('"size": 3', '"size": 3', 1)
        # break a block: replace the first block's top-left real part
        import json as _json

        obj = _json.loads(text)
        obj["factors"][0]["block"]["entries"][0][0] = 99.0
        plan.write_text(_json.dumps(obj))
        code, _, err = run(
            ["reconstruct", "--in", str(plan), "--out", str(tmp_path / "o.json")], capsys
        )
        assert code == 1
        assert "unitary" in err

    def test_missing_file_fails(self, tmp_path, capsys):
        code, _, err = run(
            ["decompose", "--in", str(tmp_path / "nope.json"), "--m", "2",
             "--out", str(tmp_path / "p.json")],
            capsys,
        )
        assert code == 1
        assert "error" in err


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
        assert all(line.startswith("# ") for line in lines[:header_at])
        assert "# seed = 9" in lines
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
        text = csv.read_text()
        assert any(line.startswith("# calibrated_sigma_m2 = ") for line in text.splitlines())
        assert "calibrated sigma for m=2" in out
        assert len([l for l in text.splitlines() if not l.startswith("#")]) == 3
        assert svg.read_text().startswith("<svg")

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


class TestParsing:
    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "multiport.cli", "cost", "--n", "10", "--m", "2",
             "--cm", "1", "--c2", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "advantageous" in proc.stdout
