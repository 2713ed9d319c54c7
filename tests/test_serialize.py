import dataclasses
import gc
import json
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multiport.decomposition import DecompositionPlan, decompose, reconstruct
from multiport.linalg import haar_random_unitary
from multiport.robustness import FidelityStats, SweepResult, sweep_noise
from multiport import serialize
from multiport.serialize import (
    _CHUNK,
    _COMMA,
    CSV_HEADER,
    _finite_floats,
    _floats,
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
            # deeper than the decoder recurses
            pytest.param("[" * 100_000 + "]" * 100_000, id="deep-nesting"),
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


# A plan of one 2 x 2 swap factor on modes 1, 2, as parsed plan JSON.
_SWAP = {
    "format": 2,
    "n": 2,
    "m": 2,
    "sizes": [2],
    "base_rows": [2],
    "columns": [1, 2],
    "blocks": [0, 0, 1, 0, 1, 0, 0, 0],
    "phases": [0, 0],
}


def _plan_text(**changes):
    """The swap plan's text with some top-level values replaced (``None`` drops one).

    A value given as a ``str`` is pasted into the text as it is.
    """
    obj = {key: value for key, value in {**_SWAP, **changes}.items() if value is not None}
    return "{%s}" % ", ".join(
        f"{json.dumps(key)}: {value if isinstance(value, str) else json.dumps(value)}"
        for key, value in obj.items()
    )


def _bits(plan):
    """The bytes of a plan's arrays, negative zeros read as 0."""
    return [
        (np.asarray(getattr(plan, name)) + 0).tobytes()
        for name in ("sizes", "base_rows", "columns", "blocks", "phases")
    ]


_FORMAT_1 = (
    'plan JSON is not in plan format 2 ("format": 2); format-1 plans, with a '
    '"factors" list, are no longer read: re-run `multiport decompose` to write '
    "the plan again"
)


class TestPlanJson:
    def test_canonical_single_factor(self):
        plan = DecompositionPlan(
            n=2, m=2, sizes=[2], base_rows=[2], columns=[1, 2],
            blocks=[0, 1, 1j, 0], phases=[0, 0.5],
        )
        assert plan_to_json(plan) == (
            "{\n"
            '  "format": 2,\n'
            '  "n": 2,\n'
            '  "m": 2,\n'
            '  "sizes": [2],\n'
            '  "base_rows": [2],\n'
            '  "columns": [\n'
            "    1, 2\n"
            "  ],\n"
            '  "blocks": [\n'
            "    0, 0, 1, 0, 0, 1, 0, 0\n"
            "  ],\n"
            '  "phases": [0, 0.5]\n'
            "}\n"
        )

    def test_round_trip_exact(self, plan):
        again = json_to_plan(plan_to_json(plan))
        assert (again.n, again.m) == (plan.n, plan.m)
        for name in ("sizes", "base_rows", "columns", "blocks", "phases"):
            np.testing.assert_array_equal(getattr(again, name), getattr(plan, name))
        assert len(again.factors) == len(plan.factors)
        for a, b in zip(again.factors, plan.factors):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(reconstruct(again), reconstruct(plan))

    def test_deterministic_text(self, plan):
        assert plan_to_json(plan) == plan_to_json(plan)

    @pytest.mark.parametrize("kind", ["dense", "block-diagonal", "phase-only"])
    def test_decomposed_plan_equals_its_round_trip_in_every_field(self, kind):
        n = 9
        if kind == "dense":
            u = haar_random_unitary(n, 8)
        elif kind == "block-diagonal":
            u = scipy.linalg.block_diag(haar_random_unitary(5, 1), haar_random_unitary(4, 2))
        else:
            u = np.diag(np.exp(1j * np.arange(n)))
        plan = decompose(u, 3)
        again = json_to_plan(plan_to_json(plan))
        for f in dataclasses.fields(plan):
            if f.init:
                a, b = getattr(plan, f.name), getattr(again, f.name)
                assert np.asarray(a).dtype == np.asarray(b).dtype, f.name
                np.testing.assert_array_equal(a, b, err_msg=f.name)

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("kind", ["haar", "permutation", "permuted block-diagonal"])
    def test_read_then_write_gives_the_same_text_and_bits(self, kind, m):
        n = 12
        rng = np.random.default_rng(m)
        if kind == "haar":
            u = haar_random_unitary(n, m)
        elif kind == "permutation":
            u = np.eye(n, dtype=complex)[:, rng.permutation(n)]
        else:
            blocks = [haar_random_unitary(k, m + k) for k in (5, 4, 3)]
            u = scipy.linalg.block_diag(*blocks)[:, rng.permutation(n)]
        plan = decompose(u, m)
        text = plan_to_json(plan)
        again = json_to_plan(text)
        assert _bits(again) == _bits(plan)
        assert plan_to_json(again) == text

    @pytest.mark.parametrize("kind", ["haar", "permutation", "permuted block-diagonal", "phase-only"])
    def test_plan_holds_the_arrays_of_its_file(self, kind):
        for n in (2, 3, 7, 16, 40):
            rng = np.random.default_rng(n)
            if kind == "haar":
                u = haar_random_unitary(n, n)
            elif kind == "permutation":
                u = np.eye(n, dtype=complex)[:, rng.permutation(n)]
            elif kind == "phase-only":
                u = np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, n)))
            else:
                cuts = np.sort(rng.choice(np.arange(1, n), n // 3, replace=False))
                sizes = np.diff(cuts, prepend=0, append=n)
                u = scipy.linalg.block_diag(*(haar_random_unitary(k, n + k) for k in sizes))
                u = u[:, rng.permutation(n)]
            for m in range(2, min(n, 6) + 1):
                plan = decompose(u, m)
                obj = json.loads(plan_to_json(plan))
                for name in ("sizes", "base_rows", "columns", "phases"):
                    assert obj[name] == getattr(plan, name).tolist(), (kind, n, m, name)
                assert obj["blocks"] == (plan.blocks.view(np.float64) + 0.0).tolist()
                # the factors' blocks, in order, are the file's blocks
                assert [b.shape for b in plan.factors] == [(s, s) for s in obj["sizes"]]
                flat = [np.zeros(0, complex), *(b.ravel() for b in plan.factors)]
                np.testing.assert_array_equal(np.concatenate(flat), plan.blocks)

    def test_negative_zero_written_as_zero(self):
        plan = DecompositionPlan(
            n=2, m=2, sizes=[2], base_rows=[2], columns=[1, 2],
            blocks=[complex(-0.0, -0.0), 1, 1, complex(-0.0, 0)], phases=[-0.0, 0],
        )
        text = plan_to_json(plan)
        assert "-0," not in text and "-0]" not in text and "-0\n" not in text
        assert plan_to_json(json_to_plan(text)) == text

    def test_empty_plan(self):
        empty = decompose(np.eye(3, dtype=complex), 2)
        text = plan_to_json(empty)
        assert text == (
            '{\n  "format": 2,\n  "n": 3,\n  "m": 2,\n  "sizes": [],\n  "base_rows": [],\n'
            '  "columns": [],\n  "blocks": [],\n  "phases": [0, 0, 0]\n}\n'
        )
        again = json_to_plan(text)
        assert len(again.sizes) == 0 and again.factors == ()
        np.testing.assert_array_equal(reconstruct(again), np.eye(3))

    def test_file_round_trip(self, tmp_path, plan):
        path = tmp_path / "plan.json"
        save_plan(path, plan)
        again = load_plan(path)
        np.testing.assert_array_equal(reconstruct(again), reconstruct(plan))

    def test_rejects_non_unitary_block(self, plan):
        text = plan_to_json(plan)
        # corrupt one block entry hard enough to break unitarity
        first = plan.factors[0][0, 0]
        needle = format(first.real, ".17g")
        corrupted = text.replace(needle, format(first.real + 0.5, ".17g"), 1)
        assert corrupted != text
        with pytest.raises(ValueError, match="factors\\[0\\]"):
            json_to_plan(corrupted)

    def test_rejects_phase_out_of_range(self):
        text = _plan_text(sizes=[], base_rows=[], columns=[], blocks=[], phases=[0.0, 7.0])
        with pytest.raises(ValueError, match="invalid plan"):
            json_to_plan(text)

    @pytest.mark.parametrize(
        "text",
        [
            '{"n": 2, "m": 2, "factors": [], "phases": [0, 0]}',
            _plan_text(factors=[]),
            _plan_text(format=None),
            _plan_text(format=1),
            _plan_text(format=3),
            _plan_text(format=2.0),
            _plan_text(format='"2"'),
            _plan_text(format=True),
        ],
    )
    def test_rejects_format_1(self, text):
        with pytest.raises(ValueError) as exc:
            json_to_plan(text)
        assert str(exc.value) == _FORMAT_1

    @pytest.mark.parametrize(
        "text,message",
        [
            ("[1, 2]", "plan JSON must be an object"),
            pytest.param("[" * 100_000, "JSON nests too deeply", id="deep-nesting"),
            (_plan_text(phases=None), "plan JSON is missing key 'phases'"),
            (_plan_text(columns=None), "plan JSON is missing key 'columns'"),
            (_plan_text(n=2.0), "n must be an integer"),
            (_plan_text(m=True), "m must be an integer"),
            (_plan_text(sizes={}), "sizes must be a list of integers"),
            (_plan_text(base_rows="[2.0]"), "base_rows must be a list of integers"),
            (_plan_text(columns="[1, 2.0]"), "columns must be a list of integers"),
            (_plan_text(blocks='"swap"'), "blocks must be a list of numbers"),
            (_plan_text(blocks=[0, 0, 1, 0, 1, 0, "1", 0]), "blocks must be a list of numbers"),
            (_plan_text(blocks=[0, 0, 1, 0, 1, 0, 0, True]), "blocks must be a list of numbers"),
            (_plan_text(blocks=[0, 0, 1, 0, 1, 0, [0], 0]), "blocks must be a list of numbers"),
            (_plan_text(phases=[0, None]), "phases must be a list of numbers"),
            (_plan_text(columns=[1]),
             "invalid plan: columns must be 1-D of length sum(sizes) = 2, got shape (1,)"),
            (_plan_text(sizes=[3]), "blocks must hold 2 * sum(sizes**2) = 18 numbers, got 8"),
            (_plan_text(blocks=[0, 0, 1, 0, 1, 0, 0]),
             "blocks must hold 2 * sum(sizes**2) = 8 numbers, got 7"),
            (_plan_text(blocks="[0, 0, 1, 0, 1, 0, NaN, 0]"),
             "factors[0]: block entry 3 must be finite"),
            (_plan_text(phases="[0, -Infinity]"), "phases[1] must be finite"),
        ],
    )
    def test_list_messages(self, text, message):
        with pytest.raises(ValueError) as exc:
            json_to_plan(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "changes,message",
        [
            (dict(sizes=[1], base_rows=[1], columns=[1], blocks=[1, 0]),
             "factors[0]: block size must be at least 2, got 1"),
            (dict(sizes=[0], columns=[], blocks=[]),
             "factors[0]: block size must be at least 2, got 0"),
            # sizes that must not split the columns: the plan rejects them first
            (dict(n=3, sizes=[3, 0], base_rows=[3, 3], columns=[1, 2, 3], blocks=[0] * 18,
                  phases=[0, 0, 0]),
             "factors[0]: block size 3 exceeds m = 2"),
            (dict(n=3, sizes=[1, -1, 2], base_rows=[1, 1, 2],
                  blocks=[1, 0, 0, 0, *_SWAP["blocks"]], phases=[0, 0, 0]),
             "factors[0]: block size must be at least 2, got 1"),
            # a negative size makes sum(sizes) no count of columns: the size is named
            (dict(n=3, sizes=[-2], base_rows=[3], columns=[], phases=[0, 0, 0]),
             "factors[0]: block size must be at least 2, got -2"),
            (dict(n=3, sizes=[2, -3], base_rows=[3, 3], blocks=[0] * 26, phases=[0, 0, 0]),
             "factors[1]: block size must be at least 2, got -3"),
            (dict(columns=[2, 1]), "factors[0]: columns must be strictly ascending, got (2, 1)"),
            (dict(n=3, sizes=[2, 2], base_rows=[3, 2], columns=[2, 3, 2, 1],
                  blocks=_SWAP["blocks"] * 2, phases=[0, 0, 0]),
             "factors[1]: columns must be strictly ascending, got (2, 1)"),
            (dict(columns=[0, 1]), "factors[0]: column indices are 1-based, got (0, 1)"),
            (dict(base_rows=[1]), "factors[0]: base row 1 lies above the last column 2"),
            (dict(base_rows=[3]), "factors[0]: base row 3 exceeds n = 2"),
            (dict(blocks=[0, 0, 1, 0, 1, 0, 2, 0]),
             "factors[0]: factor block is not unitary (defect 4.000e+00)"),
            (dict(columns=[1, 2, 3]),
             "columns must be 1-D of length sum(sizes) = 2, got shape (3,)"),
            (dict(base_rows=[10**30]), f"base_rows: a value is out of range for {np.dtype(np.intp)}"),
            (dict(columns=[1, 10**22]), f"columns: a value is out of range for {np.dtype(np.intp)}"),
        ],
    )
    def test_constructor_faults_read_alike_both_ways_in(self, changes, message):
        fields = {key: value for key, value in {**_SWAP, **changes}.items() if key != "format"}
        fields["blocks"] = np.array(fields["blocks"], dtype=np.float64).view(np.complex128)
        with pytest.raises(ValueError) as direct:
            DecompositionPlan(**fields)
        assert type(direct.value) is ValueError
        assert str(direct.value) == message
        with pytest.raises(ValueError) as read:
            json_to_plan(_plan_text(**changes))
        assert type(read.value) is ValueError
        assert str(read.value) == f"invalid plan: {message}"

    @pytest.mark.parametrize(
        "changes,field,dtype",
        [
            (dict(phases=[0, 10**400]), "phases", np.float64),
            (dict(blocks=[0, 1, 10**400, 0]), "blocks", np.complex128),
            (dict(base_rows=[1e30]), "base_rows", np.intp),
            (dict(columns=[1, float("inf")]), "columns", np.intp),
        ],
    )
    def test_constructor_names_a_value_out_of_range(self, changes, field, dtype):
        # Called directly only: a file's non-finite block entry or phase is
        # named by its index first (see the ``must be finite`` tests).
        fields = dict(n=2, m=2, sizes=[2], base_rows=[2], columns=[1, 2],
                      blocks=[0, 1, 1, 0], phases=[0, 0])
        with pytest.raises(ValueError) as exc:
            DecompositionPlan(**{**fields, **changes})
        assert type(exc.value) is ValueError
        assert str(exc.value) == f"{field}: a value is out of range for {np.dtype(dtype)}"

    @pytest.mark.parametrize(
        "changes",
        [
            dict(sizes=[0], columns=[], blocks=[]),
            dict(sizes=[-1], columns=[], blocks=[0, 0]),
            dict(sizes=[-1]),
            dict(sizes=[10**12]),
            dict(sizes=[10**12, 2 - 10**12]),
            dict(sizes=[3, -1], blocks=[0] * 20),
            dict(sizes=[2, 0], base_rows=[2, 1]),
            dict(sizes=[2, 2], base_rows=[2, 2]),
            dict(columns=[1, 2, 3]),
            dict(blocks=[0, 0, 1, 0, 1, 0, 0, 0, 0]),
        ]
        + [
            {key: [*_SWAP[key][:-1], bad]}
            for key in ("sizes", "base_rows", "columns", "blocks", "phases")
            for bad in (True, "1")
        ],
    )
    def test_rejects_bad_lengths_and_types_with_value_error(self, changes):
        # never an IndexError or TypeError from splitting the columns
        with pytest.raises(ValueError):
            json_to_plan(_plan_text(**changes))

    @pytest.mark.parametrize("n,m", [(2, 10**12), (10**12, 10**12), (2, -(10**12))])
    def test_rejects_huge_block_size_without_sizing_by_it(self, n, m):
        with pytest.raises(ValueError, match="invalid plan"):
            json_to_plan(_plan_text(n=n, m=m))

    def test_rejects_block_entry_too_large_for_a_float(self):
        text = _plan_text(blocks="[0, 0, 1, 0, %s, 0, 0, 0]" % HUGE)
        with pytest.raises(ValueError, match=r"^factors\[0\]: block entry 2 must be finite$"):
            json_to_plan(text)

    def test_block_entry_is_named_in_its_factor(self):
        text = plan_to_json(decompose(haar_random_unitary(5, 3), 2))
        obj = json.loads(text)
        obj["blocks"][2 * (4 + 4 + 3)] = 1e400  # float("inf"); factor 2, entry 3
        with pytest.raises(ValueError, match=r"^factors\[2\]: block entry 3 must be finite$"):
            json_to_plan(json.dumps(obj))

    def test_rejects_phase_too_large_for_a_float(self):
        text = _plan_text(sizes=[], base_rows=[], columns=[], blocks=[], phases="[0, %s]" % HUGE)
        with pytest.raises(ValueError, match=r"^phases\[1\] must be finite$"):
            json_to_plan(text)

    def test_swap_plan_is_valid(self):
        plan = json_to_plan(_plan_text())
        np.testing.assert_array_equal(plan.factors[0], [[0, 1], [1, 0]])


def _rendered(values) -> list[str]:
    """Each of ``values`` as the writers' float pieces render it."""
    values = np.asarray(values, dtype=np.float64)
    return _floats(values, np.full(values.shape, _COMMA)).split(", ")[:-1]


# Any finite double, drawn by value and as a raw 64-bit pattern.
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_BIT_PATTERNS = (
    st.integers(0, 2**64 - 1)
    .map(lambda bits: float(np.uint64(bits).view(np.float64)))
    .filter(np.isfinite)
)


class TestFloatPieces:
    @settings(derandomize=True, database=None, max_examples=500, deadline=None)
    @given(_FINITE)
    @example(1.0)
    @example(0.9999999999999999)
    @example(0.1)
    @example(0.09999999999999999)
    @example(0.01)
    @example(0.009999999999999998)
    @example(0.001)
    @example(0.0009999999999999998)
    @example(0.0001)
    @example(9.999999999999999e-05)
    @example(0.00010000000000000002)
    @example(1e-05)
    @example(9.999999999999999e-06)
    @example(0.5)
    @example(-0.5)
    @example(0.0)
    @example(-0.0)
    @example(5e-324)
    @example(1.0000000000000002)
    def test_renders_every_finite_double_as_percent_17g(self, v):
        assert _rendered([v]) == ["%.17g" % (v + 0.0)]  # -0.0 as 0

    @settings(derandomize=True, database=None, max_examples=500, deadline=None)
    @given(_BIT_PATTERNS)
    def test_renders_every_bit_pattern_as_percent_17g(self, v):
        assert _rendered([v]) == ["%.17g" % (v + 0.0)]

    def test_renders_a_mixed_array_in_one_call(self):
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2**64, size=20_000, dtype=np.uint64).view(np.float64)
        # Every power of ten near the %d range, and 40 doubles either side.
        near = []
        for k in range(7):
            for direction in (0.0, 1.0):
                x = 10.0**-k
                for _ in range(41):
                    near.append(x)
                    x = np.nextafter(x, direction)
        # Exact ties at the 18th digit (m / 2**18, m odd), and one-digit values.
        ties = np.arange(26215, 2**18, 2) / 2**18
        short = [d * 10.0**-k for d in range(1, 100) for k in range(1, 6)]
        values = np.concatenate(
            [
                bits,
                rng.uniform(-1, 1, 20_000),
                10 ** rng.uniform(-6, 1, 20_000) * rng.choice([-1, 1], 20_000),
                near,
                ties[::8],
                short,
                [np.inf, -np.inf, np.nan, -0.0, 0.0],
            ]
        )
        assert _rendered(values) == ["%.17g" % (v + 0.0) for v in values.tolist()]


def _matrix_text_17g(a) -> str:
    """A matrix file as one template of ``%.17g`` slots writes it: the oracle
    the float pieces must match byte for byte."""
    mat = np.asarray(a, dtype=np.complex128) + 0.0
    rows, cols = mat.shape
    row = "    " + ", ".join(["[%.17g, %.17g]"] * cols)
    template = (
        "{\n"
        f'  "rows": {rows},\n'
        f'  "cols": {cols},\n'
        '  "entries": [\n' + ",\n".join([row] * rows) + "\n  ]\n"
        "}"
    )
    return template % tuple(mat.ravel().view(np.float64).tolist()) + "\n"


def _plan_text_17g(plan) -> str:
    """A plan file as one template of ``%.17g`` slots writes it: the oracle
    the float pieces must match byte for byte."""

    def one_per_line(rows):
        return "[\n    " + ",\n    ".join(rows) + "\n  ]" if rows else "[]"

    sizes = plan.sizes.tolist()
    pieces = {
        s: (", ".join(["%d"] * s), ", ".join(["%.17g"] * (2 * s * s))) for s in set(sizes)
    }
    template = (
        "{\n"
        '  "format": 2,\n'
        f'  "n": {plan.n},\n'
        f'  "m": {plan.m},\n'
        f'  "sizes": {sizes},\n'
        f'  "base_rows": {plan.base_rows.tolist()},\n'
        '  "columns": ' + one_per_line([pieces[s][0] for s in sizes]) + ",\n"
        '  "blocks": ' + one_per_line([pieces[s][1] for s in sizes]) + ",\n"
        '  "phases": [' + ", ".join(["%.17g"] * plan.n) + "]\n"
        "}\n"
    )
    parts = (plan.blocks.view(np.float64) + 0.0).tolist()
    phases = (plan.phases + 0.0).tolist()
    return template % tuple(plan.columns.tolist() + parts + phases)


def _family(kind: str, n: int, eps: float) -> np.ndarray:
    rng = np.random.default_rng(n)
    if kind == "haar":
        return haar_random_unitary(n, n)
    if kind == "phase-only":
        return np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, n)))
    u = np.eye(n, dtype=complex)[:, rng.permutation(n)]
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return u @ scipy.linalg.expm(0.5j * eps * (h + h.conj().T))


class TestFilesMatchThePercent17gWriter:
    @pytest.mark.parametrize(
        "kind,n,eps",
        [
            ("haar", 12, None),
            ("haar", 100, None),
            ("permutation", 12, 0.0),
            ("near-permutation", 12, 1e-10),
            ("near-permutation", 12, 1e-300),
            ("phase-only", 12, None),
        ],
    )
    def test_plan_and_matrix_text(self, kind, n, eps):
        u = _family(kind, n, eps)
        assert matrix_to_json(u) == _matrix_text_17g(u)
        for m in (2, 3, 4):
            plan = decompose(u, m)
            assert (len(plan.sizes) == 0) == (kind == "phase-only")
            assert plan_to_json(plan) == _plan_text_17g(plan), m
            rebuilt = reconstruct(plan)
            assert matrix_to_json(rebuilt) == _matrix_text_17g(rebuilt), m

    def test_negative_zeros_and_tiny_entries(self):
        plan = DecompositionPlan(
            n=2, m=2, sizes=[2], base_rows=[2], columns=[1, 2],
            blocks=[complex(-0.0, 5e-324), 1, 1, complex(-0.0, -1e-300)], phases=[-0.0, 1e-5],
        )
        assert plan_to_json(plan) == _plan_text_17g(plan)
        assert matrix_to_json(AWKWARD) == _matrix_text_17g(AWKWARD)


def _adjacent_pairs(n: int, count: int) -> DecompositionPlan:
    """A plan of ``count`` 2 x 2 rotations on modes ``(c, c + 1)``, ``c`` odd.

    Every third block is the identity, written with -0.0 parts, and every
    fifth phase is -0.0.
    """
    rng = np.random.default_rng(count)
    theta = np.where(np.arange(count) % 3 == 0, 0.0, rng.uniform(0, np.pi, count))
    phase = np.exp(1j * rng.uniform(-np.pi, np.pi, count))
    c, s = np.cos(theta), np.sin(theta)
    blocks = np.stack([c, -s * phase.conj(), s * phase, c + 0j], axis=1)
    first = 2 * np.arange(count) % (n - 1) + 1
    phases = rng.uniform(-np.pi, np.pi, n)
    phases[::5] = -0.0
    return DecompositionPlan(
        n=n, m=2, sizes=np.full(count, 2), base_rows=first + 1,
        columns=np.stack([first, first + 1], axis=1).ravel(), blocks=blocks.ravel(),
        phases=phases,
    )


def _awkward_matrix(rows: int, cols: int) -> np.ndarray:
    """Random entries, with -0.0 parts, zeros and subnormals among them."""
    rng = np.random.default_rng(rows * cols)
    mat = rng.standard_normal((rows, cols)) + 1j * rng.uniform(-1, 1, (rows, cols))
    mat.ravel()[::7] = complex(-0.0, 0.5)
    mat.ravel()[3::11] = complex(1e-310, -0.0)
    return mat


def _assert_writers_match_the_oracle(tmp_path, plan=None, mat=None):
    """Text and files equal the plain ``%.17g`` writer's text byte for byte."""
    if plan is not None:
        text = plan_to_json(plan)
        assert text == _plan_text_17g(plan)
        save_plan(tmp_path / "plan.json", plan)
        assert (tmp_path / "plan.json").read_bytes() == text.encode("ascii")
    if mat is not None:
        text = matrix_to_json(mat)
        assert text == _matrix_text_17g(mat)
        save_matrix(tmp_path / "matrix.json", mat)
        assert (tmp_path / "matrix.json").read_bytes() == text.encode("ascii")


class TestPiecesNeverChangeAByte:
    """Lists are written in pieces of ``_CHUNK`` numbers; the bytes are the
    ``%.17g`` writer's at every list length around and across pieces."""

    @pytest.mark.parametrize(
        "n,count",
        [
            # sizes, base_rows and phases of _CHUNK - 1, _CHUNK and _CHUNK + 1
            # numbers; columns and blocks of several pieces and a remainder
            (_CHUNK - 1, _CHUNK - 1),
            (_CHUNK, _CHUNK),
            (_CHUNK + 1, _CHUNK + 1),
            # blocks of _CHUNK - 8, _CHUNK and _CHUNK + 8 numbers (8 a factor)
            (64, _CHUNK // 8 - 1),
            (64, _CHUNK // 8),
            (64, _CHUNK // 8 + 1),
            (5, 0),  # the empty plan
        ],
    )
    def test_plan_lists_around_a_piece(self, tmp_path, n, count):
        _assert_writers_match_the_oracle(tmp_path, plan=_adjacent_pairs(n, count))

    @pytest.mark.parametrize(
        "rows,cols",
        [
            # one row of _CHUNK - 2, _CHUNK and _CHUNK + 2 numbers (2 an entry)
            (1, _CHUNK // 2 - 1),
            (1, _CHUNK // 2),
            (1, _CHUNK // 2 + 1),
            (7, 3),
            # rows that cross the ends of several pieces, and a remainder
            (100, 99),
        ],
    )
    def test_matrix_entries_around_a_piece(self, tmp_path, rows, cols):
        _assert_writers_match_the_oracle(tmp_path, mat=_awkward_matrix(rows, cols))

    @pytest.mark.parametrize("chunk", [2, 4, 6, 10, 34])  # even: a piece starts at a real part
    def test_any_piece_size_writes_the_same_bytes(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(serialize, "_CHUNK", chunk)
        u = haar_random_unitary(12, 4)
        for m in (2, 3, 5):  # block lines of 8, 18 and 50 numbers
            _assert_writers_match_the_oracle(tmp_path, plan=decompose(u, m))
        for n, count in ((2 * chunk + 1, 2 * chunk + 1), (4, 0)):
            _assert_writers_match_the_oracle(tmp_path, plan=_adjacent_pairs(n, count))
        for mat in (AWKWARD, _awkward_matrix(1, 1), _awkward_matrix(5, 7)):
            _assert_writers_match_the_oracle(tmp_path, mat=mat)

    def test_an_unwritable_matrix_makes_no_file(self, tmp_path):
        path = tmp_path / "matrix.json"
        with pytest.raises(ValueError):
            save_matrix(path, np.array([[1.0, np.nan]]))
        assert not path.exists()


class TestReadersConvertInPieces:
    """Parsed lists become arrays ``_CHUNK`` numbers at a time, from the end."""

    @pytest.mark.parametrize("count", [0, 1, _CHUNK, 2 * _CHUNK + 3])
    def test_a_converted_list_is_emptied(self, count):
        values = np.random.default_rng(count).standard_normal(count).tolist()
        expected = np.array(values, dtype=np.float64)
        out = _finite_floats(values, str)
        assert values == []
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, expected)

    def test_faults_past_the_first_piece_are_named(self):
        plan = _adjacent_pairs(_CHUNK + 1, _CHUNK + 1)  # 8 floats per factor
        np.testing.assert_array_equal(json_to_plan(plan_to_json(plan)).blocks, plan.blocks)
        k = _CHUNK - 2
        obj = json.loads(plan_to_json(plan))
        obj["blocks"][8 * k + 5] = 1e400  # float("inf"); factor k, entry 2
        with pytest.raises(ValueError, match=rf"^factors\[{k}\]: block entry 2 must be finite$"):
            json_to_plan(json.dumps(obj))
        obj = json.loads(plan_to_json(plan))
        obj["phases"][_CHUNK] = 10**400  # too large for a float, in the second piece
        with pytest.raises(ValueError, match=rf"^phases\[{_CHUNK}\] must be finite$"):
            json_to_plan(json.dumps(obj))


@pytest.fixture(scope="module")
def plan_200():
    return decompose(haar_random_unitary(200, 200), 2)


def _traced_peak(func, *args) -> int:
    """The peak bytes ``tracemalloc`` sees while ``func(*args)`` runs."""
    gc.collect()
    tracemalloc.start()
    try:
        func(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWriterAndReaderMemory:
    """Traced peaks at n = 200, m = 2, whose plan file is 3.5 MB of text.
    Measured with numpy 2.4.6; whole-text writers peaked at 5.9x the plan
    text, and the reader, which converted whole lists and checked every
    block at once, at 4.2x."""

    def test_save_plan_holds_one_piece_at_a_time(self, tmp_path, plan_200):
        # 0.59 MB, as at n = 64 and n = 600; a whole-text writer took 20.6 MB
        assert _traced_peak(save_plan, tmp_path / "plan.json", plan_200) < 2e6

    def test_save_matrix_holds_one_piece_at_a_time(self, tmp_path):
        u = haar_random_unitary(200, 200)
        # 0.60 MB; a whole-text writer took 10.1 MB for this 1.9 MB file
        assert _traced_peak(save_matrix, tmp_path / "u.json", u) < 2e6

    def test_plan_to_json_holds_its_pieces_and_their_join(self, plan_200):
        size = len(plan_to_json(plan_200))
        assert _traced_peak(plan_to_json, plan_200) < 2.5 * size  # 2.0x

    def test_json_to_plan_holds_little_beyond_the_parsed_json(self, plan_200):
        text = plan_to_json(plan_200)
        json_to_plan(text)  # the plan's layout is cached from here on
        # 1.6x, of which json.loads alone takes 1.5x
        assert _traced_peak(json_to_plan, text) < 2.4 * len(text)


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

    def test_config_values_print_like_row_numbers(self):
        # A float prints to 12 significant digits, -0 as 0, as in the rows; a
        # list is comma-joined item by item; anything else prints with str.
        results = [
            SweepResult(n=2, m=2, sigma=0.0, fq=FidelityStats(1.0, 0.0, 1),
                        fu=FidelityStats(1.0, 0.0, 1))
        ]
        config = {"sigma": 0.1, "zero": -0.0, "sigmas": [-0.0, 0.05], "m_list": [2, 3],
                  "seed": 7, "fq_pooling": "all factor blocks per draw",
                  "third": 1.0 / 3.0}
        header = sweep_results_to_csv(results, config).splitlines()[: len(config)]
        assert header == [
            "# sigma = 0.1",
            "# zero = 0",
            "# sigmas = 0,0.05",
            "# m_list = 2,3",
            "# seed = 7",
            "# fq_pooling = all factor blocks per draw",
            "# third = 0.333333333333",
        ]

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
