import numpy as np
import pytest
import scipy.linalg

from multiport.decomposition import decompose, reconstruct
from multiport.linalg import haar_random_unitary
from multiport.robustness import FidelityStats, SweepResult, sweep_noise
from multiport.serialize import (
    CSV_HEADER,
    _all_factor_fields,
    _check_factor,
    json_to_matrix,
    json_to_plan,
    load_matrix,
    load_plan,
    matrix_to_json,
    plan_to_json,
    save_matrix,
    save_plan,
    save_sweep_results,
    sweep_results_to_csv,
)

# A JSON integer too large for a float: float() and numpy raise OverflowError.
HUGE = "1" + "0" * 400

AWKWARD = np.array(
    [
        [1 / 3 + 1j * np.pi, -0.0 + 0j],
        [1e-300 - 1e17j, np.nextafter(1.0, 2.0) + 0.1j],
    ]
)


class TestMatrixJson:
    def test_canonical_single_entry(self):
        text = matrix_to_json(np.array([[1.0 + 2.0j]]))
        assert text == (
            "{\n"
            '  "rows": 1,\n'
            '  "cols": 1,\n'
            '  "entries": [\n'
            "    [1, 2]\n"
            "  ]\n"
            "}\n"
        )

    def test_round_trip_exact(self):
        for mat in (haar_random_unitary(6, 1), AWKWARD, np.zeros((3, 5))):
            again = json_to_matrix(matrix_to_json(mat))
            np.testing.assert_array_equal(again, mat)

    def test_deterministic_text(self):
        u = haar_random_unitary(4, 2)
        assert matrix_to_json(u) == matrix_to_json(u.copy())

    def test_row_major_order(self):
        mat = np.array([[1.0, 2.0], [3.0, 4.0]])
        obj_entries = [
            [1.0, 0.0],
            [2.0, 0.0],
            [3.0, 0.0],
            [4.0, 0.0],
        ]
        parsed = json_to_matrix(matrix_to_json(mat))
        np.testing.assert_array_equal(parsed, mat)
        import json

        assert json.loads(matrix_to_json(mat))["entries"] == obj_entries

    def test_file_round_trip(self, tmp_path):
        u = haar_random_unitary(5, 3)
        path = tmp_path / "u.json"
        save_matrix(path, u)
        np.testing.assert_array_equal(load_matrix(path), u)

    @pytest.mark.parametrize(
        "bad",
        [
            '{"rows": 2, "cols": 2}',
            '{"rows": 2, "cols": 2, "entries": [[1,0]]}',
            '{"rows": 1, "cols": 1, "entries": [[1]]}',
            '{"rows": 1, "cols": 1, "entries": [["x", 0]]}',
            '{"rows": 1, "cols": 1, "entries": [[NaN, 0]]}',
            '{"rows": 1, "cols": 1, "entries": [[Infinity, 0]]}',
            '{"rows": 0, "cols": 1, "entries": []}',
            '{"rows": 1.5, "cols": 1, "entries": [[1,0]]}',
            "[1, 2]",
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            json_to_matrix(bad)

    def test_rejects_nonfinite_on_write(self):
        with pytest.raises(ValueError):
            matrix_to_json(np.array([[np.nan]]))

    def test_rejects_integer_too_large_for_a_float(self):
        text = '{"rows": 1, "cols": 2, "entries": [[1, 0], [0, -%s]]}' % HUGE
        with pytest.raises(ValueError, match=r"^matrix JSON entry 1 must be finite$"):
            json_to_matrix(text)

    def test_negative_zero_written_as_zero(self):
        # json.loads reads "-0" as the integer 0, so "-0" would not survive a rewrite
        mat = np.array([[complex(-0.0, -0.0), complex(-0.0, 1.0)], [1.0, complex(0.5, -0.0)]])
        text = matrix_to_json(mat)
        assert "-0," not in text and "-0]" not in text
        assert matrix_to_json(json_to_matrix(text)) == text
        np.testing.assert_array_equal(json_to_matrix(text), mat)


@pytest.fixture(scope="module")
def plan():
    return decompose(haar_random_unitary(7, 21), 3)


def _one_factor_plan(entries, block=None):
    """Plan text with one 2 x 2 factor on modes 1, 2 and the given block entries."""
    if block is None:
        block = '{"rows": 2, "cols": 2, "entries": %s}' % entries
    return (
        '{"n": 2, "m": 2, "factors": [{"size": 2, "base_row": 2, "columns": [1, 2], '
        '"block": %s}], "phases": [0, 0]}' % block
    )


# one 2 x 2 swap factor; fill in its columns and base row
_SWAP = (
    '{"size": 2, "columns": %s, "base_row": %d, "block": {"rows": 2, "cols": 2, '
    '"entries": [[0, 0], [1, 0], [1, 0], [0, 0]]}}'
)


class TestPlanJson:
    def test_round_trip_exact(self, plan):
        again = json_to_plan(plan_to_json(plan))
        assert (again.n, again.m) == (plan.n, plan.m)
        assert len(again.factors) == len(plan.factors)
        np.testing.assert_array_equal(again.phases, plan.phases)
        for a, b in zip(again.factors, plan.factors):
            assert (a.size, a.base_row, a.columns) == (b.size, b.base_row, b.columns)
            np.testing.assert_array_equal(a.block, b.block)
        np.testing.assert_array_equal(reconstruct(again), reconstruct(plan))

    def test_deterministic_text(self, plan):
        assert plan_to_json(plan) == plan_to_json(plan)

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("kind", ["haar", "permutation", "permuted block-diagonal"])
    def test_read_then_write_gives_the_same_text(self, kind, m):
        n = 12
        rng = np.random.default_rng(m)
        if kind == "haar":
            u = haar_random_unitary(n, m)
        elif kind == "permutation":
            u = np.eye(n, dtype=complex)[:, rng.permutation(n)]
        else:
            blocks = [haar_random_unitary(k, m + k) for k in (5, 4, 3)]
            u = scipy.linalg.block_diag(*blocks)[:, rng.permutation(n)]
        text = plan_to_json(decompose(u, m))
        assert plan_to_json(json_to_plan(text)) == text

    def test_empty_plan(self):
        empty = decompose(np.eye(3, dtype=complex), 2)
        again = json_to_plan(plan_to_json(empty))
        assert len(again.factors) == 0
        np.testing.assert_array_equal(reconstruct(again), np.eye(3))

    def test_file_round_trip(self, tmp_path, plan):
        path = tmp_path / "plan.json"
        save_plan(path, plan)
        again = load_plan(path)
        np.testing.assert_array_equal(reconstruct(again), reconstruct(plan))

    def test_rejects_non_unitary_block(self, plan):
        text = plan_to_json(plan)
        # corrupt one block entry hard enough to break unitarity
        first = plan.factors[0].block[0, 0]
        needle = format(first.real, ".17g")
        corrupted = text.replace(needle, format(first.real + 0.5, ".17g"), 1)
        assert corrupted != text
        with pytest.raises(ValueError, match="factors\\[0\\]"):
            json_to_plan(corrupted)

    def test_rejects_phase_out_of_range(self):
        text = (
            '{"n": 2, "m": 2, "factors": [], "phases": [0.0, 7.0]}'
        )
        with pytest.raises(ValueError, match="invalid plan"):
            json_to_plan(text)

    @pytest.mark.parametrize(
        "bad",
        [
            '{"n": 2, "m": 2, "factors": []}',
            '{"n": 2, "m": 2, "phases": [0, 0]}',
            '{"n": 2, "m": 2, "factors": {}, "phases": [0, 0]}',
            '{"n": 2, "m": 2, "factors": [{"size": 2}], "phases": [0, 0]}',
            # one swap factor whose block entries are malformed
            _one_factor_plan('[[0, 0], [1, 0], [1, 0], ["1", 0]]'),
            _one_factor_plan("[[0, 0], [1, 0], [1, 0], [0, true]]"),
            _one_factor_plan("[[0, 0], [1, 0], [1, 0], [NaN, 0]]"),
            _one_factor_plan("[[0, 0], [1, 0], [1], [0, 0]]"),
            _one_factor_plan("[[0, 0], [1, 0], [1, 0]]"),
            _one_factor_plan("[[0, 0], [1, 0], [1, 0], [0, 0]]", block='"swap"'),
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError, match="factors|plan JSON"):
            json_to_plan(bad)

    @pytest.mark.parametrize(
        "factor,message",
        [
            ('{"size": 1, "base_row": 1, "columns": [1], "block": {"rows": 1, "cols": 1, '
             '"entries": [[1, 0]]}}', "factors[0]: block size must be at least 2, got 1"),
            (_SWAP % ("[2, 1]", 2), "factors[0]: columns must be strictly ascending, got (2, 1)"),
            (_SWAP % ("[0, 1]", 2), "factors[0]: column indices are 1-based, got (0, 1)"),
            (_SWAP % ("[1, 2]", 1), "factors[0]: base row 1 lies above the last column 2"),
            (_SWAP % ("[1, 2]", 3), "invalid plan: factors[0] base row 3 exceeds n = 2"),
            (_SWAP % ("[1, 2.0]", 2), "factors[0]: columns must be a list of integers"),
            (_SWAP.replace("[0, 0]]}", "[2, 0]]}") % ("[1, 2]", 2),
             "factors[0]: factor block is not unitary (defect 4.000e+00)"),
            (_SWAP.replace('"size": 2', '"size": 3') % ("[1, 2]", 2),
             "factors[0]: block shape (2, 2) does not match size 3"),
            (_SWAP % ("[1]", 2), "factors[0]: expected 2 columns, got 1"),
        ],
    )
    def test_factor_messages(self, factor, message):
        text = '{"n": 2, "m": 2, "factors": [%s], "phases": [0, 0]}' % factor
        with pytest.raises(ValueError) as exc:
            json_to_plan(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("columns,base_row", [("[1, 2]", 10**30), ("[1, 10000000000000000000000]", 2)])
    def test_rejects_index_beyond_machine_integers(self, columns, base_row):
        text = '{"n": 2, "m": 2, "factors": [%s], "phases": [0, 0]}' % (_SWAP % (columns, base_row))
        with pytest.raises(ValueError, match="invalid plan"):
            json_to_plan(text)

    @pytest.mark.parametrize("n,m", [(2, 10**12), (10**12, 10**12), (2, -(10**12))])
    def test_rejects_huge_block_size_without_sizing_by_it(self, n, m):
        text = '{"n": %d, "m": %d, "factors": [%s], "phases": [0, 0]}' % (n, m, _SWAP % ("[1, 2]", 2))
        with pytest.raises(ValueError, match="invalid plan"):
            json_to_plan(text)

    def test_rejects_block_entry_too_large_for_a_float(self):
        text = _one_factor_plan("[[0, 0], [1, 0], [%s, 0], [0, 0]]" % HUGE)
        with pytest.raises(ValueError, match=r"^factors\[0\]: block entry 2 must be finite$"):
            json_to_plan(text)

    def test_rejects_phase_too_large_for_a_float(self):
        text = '{"n": 2, "m": 2, "factors": [], "phases": [0, %s]}' % HUGE
        with pytest.raises(ValueError, match=r"^phases\[1\] must be finite$"):
            json_to_plan(text)

    def test_one_factor_template_is_valid(self):
        plan = json_to_plan(_one_factor_plan("[[0, 0], [1, 0], [1, 0], [0, 0]]"))
        np.testing.assert_array_equal(plan.factors[0].block, [[0, 1], [1, 0]])


def _swap_factor(**changes):
    """A parsed 2 x 2 swap factor with some fields replaced (``None`` drops one)."""
    block = {"rows": 2, "cols": 2, "entries": [[0, 0], [1, 0], [1, 0], [0, 0]]}
    factor = {"size": 2, "base_row": 2, "columns": [1, 2], "block": block}
    for key, value in changes.items():
        target = block if key in block else factor
        if value is None:
            del target[key]
        else:
            target[key] = value
    return factor


class TestWholeListFactorChecks:
    """The whole-list pass accepts exactly the factors ``_check_factor`` accepts."""

    @pytest.mark.parametrize(
        "factor",
        [
            _swap_factor(),
            _swap_factor(extra="ignored"),
            _swap_factor(columns=[1, "2"]),  # item types are checked over all factors
            _swap_factor(entries=[[0, 0], [1, 0], [1, 0], ["x"]]),  # so are entries
            _swap_factor(base_row=-7),
            "swap",
            [1, 2],
            None,
            _swap_factor(size=None),
            _swap_factor(base_row=None),
            _swap_factor(columns=None),
            _swap_factor(block=None),
            _swap_factor(size=True),
            _swap_factor(size=2.0),
            _swap_factor(base_row=2.0),
            _swap_factor(base_row=False),
            _swap_factor(columns="12"),
            _swap_factor(columns={"1": 2}),
            _swap_factor(columns=[1]),
            _swap_factor(block="swap"),
            _swap_factor(block=[[0, 1], [1, 0]]),
            _swap_factor(rows=None),
            _swap_factor(cols=None),
            _swap_factor(entries=None),
            _swap_factor(rows=True),
            _swap_factor(cols=2.0),
            _swap_factor(rows=3),
            _swap_factor(cols=1),
            _swap_factor(entries="x"),
            _swap_factor(entries=[[0, 0], [1, 0], [1, 0]]),
            _swap_factor(size=0, rows=0, cols=0, columns=[], entries=[]),
            _swap_factor(size=-1, rows=-1, cols=-1, columns=[1], entries=[[1, 0]]),
            _swap_factor(size=1, rows=1, cols=1, columns=[1], entries=[[1, 0]]),
        ],
    )
    def test_agrees_with_the_per_factor_check(self, factor):
        try:
            _check_factor(factor)
            valid = True
        except ValueError:
            valid = False
        for factors in ([factor], [_swap_factor(), factor], [factor, _swap_factor()]):
            assert (_all_factor_fields(factors) is not None) == valid

    def test_fields_concatenate_in_factor_order(self):
        first = _swap_factor()
        second = _swap_factor(base_row=3, columns=[2, 3])
        sizes, base_rows, columns, entries = _all_factor_fields([first, second])
        assert (sizes, base_rows, columns) == ([2, 2], [2, 3], [1, 2, 2, 3])
        assert entries == first["block"]["entries"] + second["block"]["entries"]
        assert _all_factor_fields([]) == ([], [], [], [])


class TestSweepCsv:
    def test_exact_text(self):
        results = [
            SweepResult(
                n=4,
                m=2,
                sigma=0.05,
                fq=FidelityStats(mean=0.998, std_error=0.0001, samples=240),
                fu=FidelityStats(mean=0.97, std_error=0.002, samples=40),
            )
        ]
        text = sweep_results_to_csv(results, config={"seed": 7})
        assert text == (
            "# seed = 7\n"
            "n,m,sigma,fq_mean,fq_stderr,fu_mean,fu_stderr,samples\n"
            "4,2,0.05,0.998,0.0001,0.97,0.002,40\n"
        )

    def test_header_constant(self):
        assert CSV_HEADER == "n,m,sigma,fq_mean,fq_stderr,fu_mean,fu_stderr,samples"

    def test_no_config_starts_with_header(self):
        results = sweep_noise(4, [2], [0.0], 1, 1, seed=5)
        text = sweep_results_to_csv(results)
        assert text.startswith(CSV_HEADER + "\n")

    def test_twelve_digit_rendering(self):
        results = [
            SweepResult(
                n=3,
                m=2,
                sigma=1.0 / 3.0,
                fq=FidelityStats(mean=2.0 / 3.0, std_error=0.0, samples=1),
                fu=FidelityStats(mean=1.0 / 7.0, std_error=0.0, samples=1),
            )
        ]
        line = sweep_results_to_csv(results).splitlines()[1]
        assert line == "3,2,0.333333333333,0.666666666667,0,0.142857142857,0,1"

    def test_rerun_byte_identical(self, tmp_path):
        args = dict(n=5, m_list=[2, 3], sigma_grid=[0.0, 0.04], n_matrices=2,
                    n_perturbations=2, seed=90)
        a = sweep_results_to_csv(sweep_noise(**args), config={"seed": 90})
        b = sweep_results_to_csv(sweep_noise(**args), config={"seed": 90})
        assert a == b

    def test_save(self, tmp_path):
        results = sweep_noise(4, [2], [0.0, 0.1], 1, 2, seed=6)
        path = tmp_path / "out.csv"
        save_sweep_results(path, results, config={"command": "sweep-noise"})
        text = path.read_text()
        assert text.splitlines()[0] == "# command = sweep-noise"
        assert text.splitlines()[1] == CSV_HEADER
        assert len(text.splitlines()) == 4

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sweep_results_to_csv([])

    def test_rejects_wrong_type(self):
        with pytest.raises(TypeError):
            sweep_results_to_csv([("not", "a", "row")])
