import dataclasses
import gc
import itertools
import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, target
from hypothesis import strategies as st

from multiport import decomposition, linalg
from multiport.decomposition import (
    DecompositionPlan,
    _compose,
    _decompose_stack,
    _schedule,
    _zero_pattern,
    cost_compare,
    decompose,
    factor_count_bound,
    reconstruct,
    verify,
)
from multiport.linalg import _fidelities, _rotations, haar_random_unitary
from multiport.serialize import json_to_plan, plan_to_json

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def plan_from_factors(n, m, factors, phases):
    """The plan holding ``factors``, ``(size, base_row, columns, block)``
    tuples with 1-based columns, in order, and ``phases``."""
    return DecompositionPlan(
        n=n,
        m=m,
        sizes=[size for size, _, _, _ in factors],
        base_rows=[row for _, row, _, _ in factors],
        columns=[c for _, _, columns, _ in factors for c in columns],
        blocks=np.concatenate([np.zeros(0, complex)] + [np.ravel(b) for *_, b in factors]),
        phases=phases,
    )


def factors_of(plan):
    """A plan's factors read back from its flat arrays, in order, as
    ``(size, base_row, columns, block)`` tuples with 1-based columns."""
    columns, ends = plan.columns.tolist(), np.cumsum(plan.sizes).tolist()
    return [
        (s, row, tuple(columns[end - s : end]), block)
        for s, row, end, block in zip(plan.sizes.tolist(), plan.base_rows.tolist(), ends,
                                      plan.factors)
    ]


def unitarity_defect(a):
    """``max|A^dag A - I|`` of a square matrix."""
    return np.abs(a.conj().T @ a - np.eye(len(a))).max()


def embed(columns, block, n):
    """A factor's full ``n x n`` action: its block on its 1-based columns,
    identity elsewhere."""
    out = np.eye(n, dtype=complex)
    modes = np.asarray(columns) - 1
    out[np.ix_(modes, modes)] = block
    return out


def zero_based_columns(steps, k, s):
    """The 0-based columns of the factors ``k`` of a plan or layout, all of
    size ``s``, as a ``(len(k), s)`` array."""
    starts = np.cumsum(steps.sizes) - steps.sizes
    return steps.columns[starts[k, np.newaxis] + np.arange(s)] - 1


def stamp_counts(n, steps):
    """How many factors of a plan or layout stamp each entry of an n x n matrix.

    A factor of size ``s`` with base row ``b`` on 0-based columns ``c`` stamps
    the entries ``(b - s + i, c[j])``, ``j < i < s``, of its block's lower
    triangle.
    """
    counts = np.zeros((n, n), dtype=int)
    for s in set(steps.sizes.tolist()):
        k = steps.sizes == s
        i, j = np.tril_indices(s, -1)
        cols = zero_based_columns(steps, k, s)
        np.add.at(counts, (steps.base_rows[k, np.newaxis] - s + i, cols[:, j]), 1)
    return counts


def assert_stamps_disjoint_below_diagonal(n, steps, dense):
    """Each entry is stamped at most once and lies below the diagonal; a dense
    pattern's stamps tile the strict lower triangle."""
    counts = stamp_counts(n, steps)
    assert counts.max(initial=0) <= 1
    assert not np.triu(counts).any()
    if dense:
        np.testing.assert_array_equal(counts, np.tri(n, k=-1, dtype=int))


def random_permutation_unitary(n, seed):
    rng = np.random.default_rng(seed)
    return np.eye(n, dtype=complex)[:, rng.permutation(n)]


class TestFactorCountBound:
    # hand-evaluated instances of floor(n(n-1)/(m(m-1))) + n - 1
    @pytest.mark.parametrize(
        "n,m,expected",
        [
            (5, 2, 10),
            (13, 4, 25),
            (8, 3, 16),
            (2, 2, 1),
            (5, 3, 7),
            (30, 7, 49),
            (20, 10, 23),
        ],
    )
    def test_values(self, n, m, expected):
        assert factor_count_bound(n, m) == expected

    @pytest.mark.parametrize("n", [2, 3, 9])
    def test_single_block_case(self, n):
        assert 1 <= factor_count_bound(n, n)

    @pytest.mark.parametrize("n,m", [(4, 1), (4, 5), (1, 2), (0, 2)])
    def test_out_of_range(self, n, m):
        with pytest.raises(ValueError):
            factor_count_bound(n, m)

    @pytest.mark.parametrize("n,m", [(5.9, 2), (6, 2.0), (6.0, 3)])
    def test_rejects_non_integer_sizes(self, n, m):
        with pytest.raises(TypeError):
            factor_count_bound(n, m)

    def test_accepts_numpy_integers(self):
        assert factor_count_bound(np.int64(13), np.int64(4)) == 25


def one_factor_plan(n, m, size, base_row, columns, block):
    """The plan holding one hand-built factor, and zero phases."""
    return plan_from_factors(n, m, [(size, base_row, columns, block)], np.zeros(n))


class TestFactor:
    """The plan checks each factor once; ``plan.factors`` reads its blocks
    back as views."""

    def test_valid_factor(self):
        plan = one_factor_plan(n=3, m=2, size=2, base_row=3, columns=(1, 3), block=SWAP)
        assert (plan.sizes.tolist(), plan.base_rows.tolist(), plan.columns.tolist()) == (
            [2], [3], [1, 3],
        )
        (block,) = plan.factors
        assert type(block) is np.ndarray and block.shape == (2, 2)
        np.testing.assert_array_equal(block, SWAP)

    def test_block_is_write_protected_copy(self):
        blocks = np.concatenate([SWAP.ravel(), haar_random_unitary(2, 4).ravel()])
        sizes, base_rows = np.array([2, 2]), np.array([3, 3])
        columns = np.array([1, 3, 2, 3])
        plan = DecompositionPlan(
            n=3, m=2, sizes=sizes, base_rows=base_rows, columns=columns,
            blocks=blocks, phases=np.zeros(3),
        )
        expected = blocks.copy()
        factors = plan.factors
        assert type(factors) is tuple and len(factors) == len(plan.sizes)
        for k, block in enumerate(factors):
            assert np.shares_memory(block, plan.blocks)
            np.testing.assert_array_equal(block, expected[4 * k : 4 * k + 4].reshape(2, 2))
            with pytest.raises(ValueError, match="read-only"):
                block[0, 0] = 9.0
        blocks[:] = 9.0
        sizes[:], base_rows[:], columns[:] = 3, 1, 0
        np.testing.assert_array_equal(plan.blocks, expected)
        assert [(s, row, cols) for s, row, cols, _ in factors_of(plan)] == [
            (2, 3, (1, 3)), (2, 3, (2, 3)),
        ]
        for listing in (factors, plan.factors):
            np.testing.assert_array_equal(
                np.concatenate([block.ravel() for block in listing]), expected
            )

    @staticmethod
    def rejects(message, **factor):
        with pytest.raises(ValueError) as excinfo:
            one_factor_plan(**factor)
        assert str(excinfo.value) == message

    def test_rejects_non_unitary_block(self):
        self.rejects(
            "factors[0]: factor block is not unitary (defect 3.000e+00)",
            n=2, m=2, size=2, base_row=2, columns=(1, 2), block=np.diag([1.0, 2.0]),
        )

    def test_rejects_size_one(self):
        self.rejects(
            "factors[0]: block size must be at least 2, got 1",
            n=2, m=2, size=1, base_row=1, columns=(1,), block=np.eye(1),
        )

    def test_rejects_shape_mismatch(self):
        self.rejects(
            "expected 9 block entries, got shape (4,)",
            n=3, m=3, size=3, base_row=3, columns=(1, 2, 3), block=SWAP,
        )

    def test_rejects_descending_columns(self):
        self.rejects(
            "factors[0]: columns must be strictly ascending, got (3, 1)",
            n=3, m=2, size=2, base_row=3, columns=(3, 1), block=SWAP,
        )

    def test_rejects_column_above_base_row(self):
        self.rejects(
            "factors[0]: base row 2 lies above the last column 3",
            n=3, m=2, size=2, base_row=2, columns=(1, 3), block=SWAP,
        )

    def test_rejects_zero_column(self):
        self.rejects(
            "factors[0]: column indices are 1-based, got (0, 1)",
            n=2, m=2, size=2, base_row=2, columns=(0, 1), block=SWAP,
        )


@pytest.fixture(scope="module")
def haar_cases():
    cases = []
    for k, (n, m) in enumerate(
        [(2, 2), (3, 2), (5, 2), (5, 3), (8, 3), (13, 4), (9, 9), (12, 5), (20, 10)]
    ):
        u = haar_random_unitary(n, 300 + k)
        cases.append((n, m, u, decompose(u, m)))
    return cases


class TestDecompose:
    def test_round_trip(self, haar_cases):
        for n, m, u, plan in haar_cases:
            report = verify(plan, u)
            assert report.passed
            assert report.max_error <= 1e-9 * n
            assert report.fidelity >= 1 - 1e-10

    def test_factor_count_within_bound(self, haar_cases):
        for n, m, _, plan in haar_cases:
            assert len(plan.sizes) <= factor_count_bound(n, m)

    def test_m2_count_exact_on_haar(self):
        for n in (2, 5, 9, 14):
            plan = decompose(haar_random_unitary(n, n), 2)
            assert len(plan.sizes) == n * (n - 1) // 2

    def test_single_block_when_m_equals_n(self):
        plan = decompose(haar_random_unitary(6, 4), 6)
        assert plan.sizes.tolist() == [6]
        assert plan.columns.tolist() == list(range(1, 7))

    def test_identity_gives_empty_plan(self):
        for m in (2, 3, 4):
            plan = decompose(np.eye(4, dtype=complex), m)
            assert len(plan.sizes) == 0
            np.testing.assert_array_equal(plan.phases, np.zeros(4))

    def test_diagonal_phase_matrix(self):
        angles = np.array([0.3, -1.2, np.pi, 0.0, 2.5])
        plan = decompose(np.diag(np.exp(1j * angles)), 3)
        assert len(plan.sizes) == 0
        np.testing.assert_allclose(plan.phases, angles, atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_permutation_inputs(self, m, seed):
        u = random_permutation_unitary(5, seed)
        plan = decompose(u, m)
        assert verify(plan, u).passed
        # at most one two-mode swap per row
        assert len(plan.sizes) <= 4
        assert (plan.sizes == 2).all()

    def test_swap_matrix(self):
        plan = decompose(SWAP, 2)
        assert verify(plan, SWAP).passed

    def test_phases_in_range(self, haar_cases):
        for _, _, _, plan in haar_cases:
            assert np.all(plan.phases > -np.pi)
            assert np.all(plan.phases <= np.pi)

    def test_factor_structure(self, haar_cases):
        for n, m, _, plan in haar_cases:
            base_rows = plan.base_rows.tolist()
            assert base_rows == sorted(base_rows, reverse=True)
            for size, base_row, columns, _ in factors_of(plan):
                assert 2 <= size <= m
                assert columns[-1] <= base_row <= n

    def test_total_zeros_accounting(self, haar_cases):
        # every sweep stamps exactly the n(n-1)/2 below-diagonal entries once
        for n, _, _, plan in haar_cases:
            assert_stamps_disjoint_below_diagonal(n, plan, dense=True)

    def test_reconstruction_is_unitary(self, haar_cases):
        for _, _, _, plan in haar_cases:
            assert unitarity_defect(reconstruct(plan)) <= 1e-9

    def test_rejects_non_unitary_input(self):
        with pytest.raises(ValueError, match="unitary"):
            decompose(np.diag([1.0, 2.0]), 2)

    @pytest.mark.parametrize("scale", [1e150, 1e300, 1.7e308, 1e-300, 0.0])
    @pytest.mark.parametrize("n,m", [(3, 2), (3, 3), (8, 2), (8, 3)])
    def test_huge_tiny_and_zero_inputs_raise_without_warnings(self, n, m, scale):
        # a huge entry is refused before the sweep, whose arithmetic it
        # could overflow; a tiny or zero input sweeps to a zero triangle
        u = scale * haar_random_unitary(n, 1)
        message = "entry modulus" if scale > 2 else "swept row residual 1.000e+00"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^input is not unitary: {re.escape(message)}"):
                decompose(u, m)

    @pytest.mark.parametrize("m", [1, 7])
    def test_rejects_bad_block_size(self, m):
        with pytest.raises(ValueError, match="block size"):
            decompose(np.eye(6, dtype=complex), m)

    @pytest.mark.parametrize("m", [2.7, 3.0])
    def test_rejects_non_integer_block_size(self, m):
        with pytest.raises(TypeError):
            decompose(haar_random_unitary(5, 1), m)

    def test_accepts_numpy_integer_block_size(self):
        u = haar_random_unitary(5, 1)
        a, b = decompose(u, np.int64(3)), decompose(u, 3)
        assert a.m == 3 and type(a.m) is int
        np.testing.assert_array_equal(a.blocks, b.blocks)

    def test_swept_matrix_off_the_diagonal_is_an_error(self):
        # Each row of the swept triangle R (a column of the transposed w)
        # may lie within 0.9e-9 n of its phase in 2-norm.  A row at the
        # bound passes; two entries of 0.8 times it pass in two rows but
        # not in one.
        n = 4
        bound = 0.9 * decomposition._TOL_PER_MODE * n
        w = np.eye(n, dtype=complex)[np.newaxis]
        w[0, 3, 1] = bound
        np.testing.assert_array_equal(decomposition._phases(w), np.zeros((1, n)))
        w[0, 3, 1] = w[0, 3, 2] = 0.8 * bound
        np.testing.assert_array_equal(decomposition._phases(w), np.zeros((1, n)))
        w[0, 3, 2] = 0.0
        w[0, 2, 1] = 0.8 * bound
        message = "input is not unitary: swept row residual 4.073e-09 exceeds 3.600e-09"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            decomposition._phases(w)

    def test_swept_diagonal_off_the_unit_circle_is_an_error(self):
        w = np.eye(3, dtype=complex)[np.newaxis]
        w[0, 2, 2] = 1.0 - 2e-9
        np.testing.assert_array_equal(decomposition._phases(w), np.zeros((1, 3)))
        w[0, 2, 2] = 2.0
        message = "input is not unitary: swept row residual 1.000e+00 exceeds 2.700e-09"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            decomposition._phases(w)


def _same_as_one_at_a_time(us, m):
    """Each member's blocks and phases in the stack are bit for bit its own plan's."""
    layout, blocks, phases = _decompose_stack(us, m)
    assert blocks.shape == (len(us), layout.offsets[-1])
    assert phases.shape == us.shape[:2]
    assert not (blocks.flags.writeable or phases.flags.writeable)
    for u, member_blocks, member_phases in zip(us, blocks, phases):
        plan = decompose(u, m)
        for name in ("sizes", "base_rows", "columns"):
            assert getattr(plan, name).tobytes() == getattr(layout, name).tobytes(), name
        assert member_blocks.tobytes() == plan.blocks.tobytes()
        assert member_phases.tobytes() == plan.phases.tobytes()


class TestDecomposeStack:
    """A stack of inputs crosses the layers together, each member as if alone."""

    @pytest.mark.parametrize("n,m", [(2, 2), (5, 2), (9, 3), (16, 4), (12, 12)])
    def test_dense_stack_matches_one_at_a_time(self, n, m):
        us = np.stack([haar_random_unitary(n, 40 + t) for t in range(7)])
        _same_as_one_at_a_time(us, m)

    @pytest.mark.parametrize("m", [2, 3, 5])
    @pytest.mark.parametrize(
        "kind", ["dense", "permutation", "permuted-block-diagonal", "phase-diagonal", "one-zero"]
    )
    def test_one_pattern_stacks_match_one_at_a_time(self, kind, m):
        n = 12
        phases = [np.exp(1j * np.linspace(-3, 3, n) * (t + 1)) for t in range(4)]
        if kind == "dense":
            members = [haar_random_unitary(n, 5 + t) for t in range(4)]
        elif kind == "permutation":
            members = [random_permutation_unitary(n, 1) * d for d in phases]
        elif kind == "permuted-block-diagonal":
            cols = np.random.default_rng(3).permutation(n)
            sizes = block_diagonal(n, 2)[1]
            members = [
                scipy.linalg.block_diag(*[haar_random_unitary(k, 10 * t + k) for k in sizes])[:, cols]
                for t in range(4)
            ]
        elif kind == "phase-diagonal":
            members = [np.diag(d) for d in phases]
        else:
            members = [one_exact_zero(n, 6 + t) for t in range(4)]
        _same_as_one_at_a_time(np.stack(members), m)

    def test_rejects_mixed_zero_patterns(self):
        us = np.stack([haar_random_unitary(6, 1), random_permutation_unitary(6, 2)])
        with pytest.raises(ValueError, match="zero pattern"):
            _decompose_stack(us, 2)

    def test_rejects_a_non_unitary_member(self):
        # both dense, so one zero pattern: the sweep judges the second
        us = np.stack([haar_random_unitary(4, 1), (1 + 1e-8) * haar_random_unitary(4, 2)])
        with pytest.raises(ValueError, match="^input is not unitary: swept row residual"):
            _decompose_stack(us, 2)

    @pytest.mark.parametrize("member", [0, 2])
    def test_rejects_a_non_unitary_swept_block_with_the_plan_message(self, monkeypatch, member):
        us = np.stack([haar_random_unitary(6, 70 + t) for t in range(3)])
        sweep = decomposition._sweep
        k = 3

        def corrupting(w, layout):
            blocks = sweep(w, layout)
            blocks[member, layout.offsets[k]] *= 1.5
            return blocks

        monkeypatch.setattr(decomposition, "_sweep", corrupting)
        with pytest.raises(ValueError, match=rf"^factors\[{k}\]: factor block is not unitary \(defect"):
            _decompose_stack(us, 3)


def near_permutation(n, eps, seed):
    """A permutation times expm(i eps H): dense, but most entries are tiny."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (a + a.conj().T) / 2.0
    return np.eye(n)[rng.permutation(n)] @ scipy.linalg.expm(1j * eps * h)


def one_exact_zero(n, seed):
    """A Haar unitary rotated in columns 2 and 3 so that entry (4, 2) is exactly zero."""
    u = haar_random_unitary(n, seed)
    x, y = u[3, 1], u[3, 2]
    r = np.hypot(abs(x), abs(y))
    u[:, 1], u[:, 2] = (y * u[:, 1] - x * u[:, 2]) / r, (np.conj(x) * u[:, 1] + np.conj(y) * u[:, 2]) / r
    u[3, 1] = 0.0  # the rotation leaves it within rounding of zero
    return u


def block_diagonal(n, seed):
    """Haar blocks of 1 to 8 modes on the diagonal, and their sizes."""
    rng = np.random.default_rng(seed)
    sizes = []
    while sum(sizes) < n:
        sizes.append(min(int(rng.integers(1, 9)), n - sum(sizes)))
    blocks = [haar_random_unitary(k, seed + k) for k in sizes]
    return scipy.linalg.block_diag(*blocks).astype(complex), sizes


class TestNearDegenerate:
    """Inputs with tiny or exactly zero entries round-trip to machine precision."""

    @pytest.mark.parametrize("n", [12, 32])
    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize(
        "kind", ["perm-expm-1e-6", "perm-expm-1e-8", "perm-expm-1e-10", "block-diagonal", "phase-only"]
    )
    def test_round_trip_at_machine_precision(self, kind, n, m):
        seed = 1000 * n + m
        if kind.startswith("perm-expm-"):
            u = near_permutation(n, float(kind[len("perm-expm-"):]), seed)
        elif kind == "block-diagonal":
            u, _ = block_diagonal(n, seed)
        else:
            angles = np.random.default_rng(seed).uniform(-np.pi, np.pi, n)
            u = np.diag(np.exp(1j * angles))
        plan = decompose(u, m)
        err = np.abs(reconstruct(plan) - u).max()
        assert err <= 4 * n * np.finfo(float).eps, err
        assert verify(plan, u).passed
        assert len(plan.sizes) <= factor_count_bound(n, m)
        if kind == "phase-only":
            assert plan.factors == ()

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("modes", [(15, 7, 3), (9, 8, 0)])
    def test_rotation_by_a_subnormal_angle(self, monkeypatch, m, modes):
        # Rotating modes i, j by 1e-320 and then j, k by 0.5 (k < j < i)
        # leaves row i two subnormal entries left of its diagonal.  At m = 2
        # the first step on that row takes just those two columns, so its
        # bottom row has a subnormal norm, where dividing by the norm
        # overflows unless the RQ kernel rescales; at m = 3 the Householder
        # RQ takes them.  A single rotation leaves every row a unit-size
        # entry in each of its steps' columns.
        n = 17
        i, j, k = modes
        u = np.eye(n, dtype=complex)
        for a, b, theta in ((i, j, 1e-320), (j, k, 0.5)):
            g = np.eye(n, dtype=complex)
            c, s = np.cos(theta), np.sin(theta)
            g[np.ix_([a, b], [a, b])] = [[c, -s], [s, c]]
            u = u @ g
        assert 0 < np.abs(u[u != 0]).min() < np.finfo(float).tiny
        norms = []

        def spy(bottom, q):  # the sweep's 2 x 2 kernel, given bottom rows only
            norms.extend(np.hypot(np.abs(bottom[..., 0]), np.abs(bottom[..., 1])).ravel())
            return _rotations(bottom, q)

        monkeypatch.setattr(decomposition, "_rotations", spy)
        plan = decompose(u, m)
        assert np.abs(reconstruct(plan) - u).max() <= 4 * n * np.finfo(float).eps
        if m == 2:
            assert any(0 < rho < np.finfo(float).tiny for rho in norms)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_block_diagonal_factors_stay_inside_blocks(self, m):
        u, sizes = block_diagonal(32, 7)
        block_of = np.repeat(np.arange(len(sizes)), sizes)
        plan = decompose(u, m)
        for _, _, columns, _ in factors_of(plan):
            assert len({block_of[c - 1] for c in columns}) == 1
        assert len(plan.sizes) <= sum(k * (k - 1) // 2 for k in sizes)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_permuted_block_diagonal_keeps_short_pairwise_plan(self, seed):
        # each block needs its own pairwise mesh and the column permutation
        # at most one swap per row; a swap must not fill the rows above it
        n = 32
        u, sizes = block_diagonal(n, seed)
        u = u[:, np.random.default_rng(seed).permutation(n)]
        plan = decompose(u, 2)
        assert np.abs(reconstruct(plan) - u).max() <= 4 * n * np.finfo(float).eps
        assert len(plan.sizes) <= sum(k * (k - 1) // 2 for k in sizes) + n - 1

    def test_dense_inputs_share_one_schedule(self):
        n, m = 12, 3

        def sequence(u):
            return [(row, columns) for _, row, columns, _ in factors_of(decompose(u, m))]

        expected = sequence(haar_random_unitary(n, 1))
        assert sequence(haar_random_unitary(n, 2)) == expected
        assert sequence(near_permutation(n, 1e-10, 3)) == expected

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_qr_fallback_gives_the_same_plans(self, monkeypatch, m):
        # Should a numpy rename its private LAPACK gufuncs, the RQ kernel
        # calls ``np.linalg.qr``; the plans keep every bit.
        n = 13
        inputs = [haar_random_unitary(n, 50 + m), near_permutation(n, 1e-8, m)]
        plans = [decompose(u, m) for u in inputs]
        monkeypatch.setattr(linalg, "_QR_GUFUNCS", None)
        for u, plan in zip(inputs, plans):
            fallback = decompose(u, m)
            assert set(plan.sizes.tolist()) - {2}
            assert fallback.blocks.tobytes() == plan.blocks.tobytes()
            assert fallback.phases.tobytes() == plan.phases.tobytes()


class TestSchedule:
    # (base_row, columns) of Haar inputs, recorded from the magnitude-threshold
    # sweep this schedule replaced
    @pytest.mark.parametrize(
        "n,m,expected",
        [
            (4, 2, [(4, (1, 2)), (4, (2, 3)), (4, (3, 4)), (3, (1, 2)), (3, (2, 3)), (2, (1, 2))]),
            (5, 3, [(5, (1, 2, 3)), (5, (3, 4, 5)), (4, (2, 4)), (3, (1, 2, 3))]),
            (6, 3, [(6, (1, 2, 3)), (6, (3, 4, 5)), (6, (5, 6)), (5, (2, 4, 5)),
                    (4, (1, 3, 4)), (3, (2, 3)), (2, (1, 2))]),
            (6, 4, [(6, (1, 2, 3, 4)), (6, (4, 5, 6)), (5, (3, 5)), (4, (2, 3, 4)),
                    (3, (1, 3)), (2, (1, 2))]),
            (7, 3, [(7, (1, 2, 3)), (7, (3, 4, 5)), (7, (5, 6, 7)), (6, (2, 4, 6)),
                    (5, (1, 3, 4)), (5, (4, 5)), (4, (2, 3, 4)), (3, (1, 3)), (2, (1, 2))]),
        ],
    )
    def test_haar_sequence_pinned(self, n, m, expected):
        plan = decompose(haar_random_unitary(n, 1), m)
        assert [(row, columns) for _, row, columns, _ in factors_of(plan)] == expected

    def test_dense_schedule_gates_for_every_size(self):
        for n in range(2, 65):
            pattern = _zero_pattern(np.ones((n, n)))
            for m in range(2, n + 1):
                steps = _schedule(n, m, pattern)
                assert len(steps) <= factor_count_bound(n, m), (n, m)
                if m == 2:
                    assert len(steps) == n * (n - 1) // 2, n
                zeros = sum(s * (s - 1) // 2 for s in steps.sizes.tolist())
                assert zeros == n * (n - 1) // 2, (n, m)

    def test_stamps_are_disjoint_and_below_the_diagonal(self):
        # Every zero a step stamps stays zero, which is why the schedule
        # keeps no zero counts: sum(s(s-1)/2) entries in all.
        for n in range(2, 41):
            pattern = _zero_pattern(np.ones((n, n)))
            for m in range(2, n + 1):
                assert_stamps_disjoint_below_diagonal(n, _schedule(n, m, pattern), dense=True)
        rng = np.random.default_rng(20261019)
        for k in range(3000):
            n = int(rng.integers(2, 17))
            m = int(rng.integers(2, n + 1))
            if k < 2000:  # random density
                nonzero = rng.random((n, n)) < rng.random()
            elif k % 2:  # a permutation with sparse noise
                nonzero = np.eye(n, dtype=bool)[:, rng.permutation(n)]
                nonzero |= rng.random((n, n)) < rng.random() / n
            else:  # a block diagonal with permuted columns
                cuts = np.sort(rng.choice(np.arange(1, n), int(rng.integers(0, n)), replace=False))
                labels = np.repeat(np.arange(len(cuts) + 1), np.diff(cuts, prepend=0, append=n))
                nonzero = (labels[:, np.newaxis] == labels)[:, rng.permutation(n)]
            steps = _schedule(n, m, _zero_pattern(nonzero))
            assert len(steps) <= factor_count_bound(n, m), (n, m, k)
            assert_stamps_disjoint_below_diagonal(n, steps, dense=nonzero.all())

    def test_overlong_schedule_fails_the_plan_check(self, monkeypatch):
        # No schedule exceeds the bound (see the test above); were one to,
        # the plan check would reject it, for a stack as for one matrix.
        n, m = 12, 3
        bound = factor_count_bound(n, m)
        simulate = decomposition._simulate

        def overlong(n, m, pattern):
            sizes, base_rows, columns = simulate(n, m, pattern)
            extra = bound + 1 - len(base_rows)
            return sizes + [2] * extra, base_rows + [2] * extra, columns + [1, 2] * extra

        us = np.stack([haar_random_unitary(n, seed) for seed in (1, 2)])
        _schedule.cache_clear()
        monkeypatch.setattr(decomposition, "_simulate", overlong)
        try:
            with pytest.raises(ValueError, match=f"{bound + 1} factors exceed the bound {bound}"):
                decompose(us[0], m)
            with pytest.raises(ValueError, match=f"{bound + 1} factors exceed the bound {bound}"):
                _decompose_stack(us, m)
        finally:
            monkeypatch.undo()
            _schedule.cache_clear()


class TestReconstruct:
    def test_empty_plan_is_identity(self):
        plan = plan_from_factors(n=3, m=2, factors=(), phases=np.zeros(3))
        np.testing.assert_array_equal(reconstruct(plan), np.eye(3))

    def test_single_factor_definition(self):
        q = haar_random_unitary(2, 6)
        plan = plan_from_factors(n=3, m=2, factors=[(2, 3, (1, 3), q)], phases=np.zeros(3))
        np.testing.assert_allclose(
            reconstruct(plan), embed((1, 3), q, 3).conj().T, atol=1e-15
        )

    def test_matches_explicit_embedded_product(self):
        # independent route: D times the daggered full-size embeddings
        u = haar_random_unitary(6, 9)
        plan = decompose(u, 3)
        expected = np.diag(np.exp(1j * plan.phases))
        for _, _, columns, block in reversed(factors_of(plan)):
            expected = expected @ embed(columns, block, plan.n).conj().T
        np.testing.assert_allclose(reconstruct(plan), expected, atol=1e-13)

    def test_phases_only(self):
        angles = np.array([0.1, -0.5, 2.0, 3.1])
        plan = plan_from_factors(n=4, m=2, factors=(), phases=angles)
        np.testing.assert_allclose(
            reconstruct(plan), np.diag(np.exp(1j * angles)), atol=0
        )


class TestLayers:
    """Plans are composed one wavefront layer at a time."""

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("kind", ["dense", "block-diagonal", "permuted block-diagonal"])
    def test_reconstruct_matches_explicit_embedded_product(self, kind, m):
        n = 24
        if kind == "dense":
            u = haar_random_unitary(n, 40 + m)
        else:
            u, _ = block_diagonal(n, m)
            if kind.startswith("permuted"):
                u = u[:, np.random.default_rng(m).permutation(n)]
        plan = decompose(u, m)
        expected = np.diag(np.exp(1j * plan.phases))
        for _, _, columns, block in reversed(factors_of(plan)):
            expected = expected @ embed(columns, block, n).conj().T
        assert np.abs(reconstruct(plan) - expected).max() <= n * np.finfo(float).eps

    @staticmethod
    def explicit_product(layout, blocks, phases, n):
        """``diag(exp(1j*phases))`` times the daggered full-size embeddings of
        a layout's factors, holding ``blocks``, one complex product at a time."""
        expected = np.diag(np.exp(1j * phases))
        for s, end, start in reversed(list(zip(
            layout.sizes.tolist(), np.cumsum(layout.sizes).tolist(), layout.offsets.tolist(),
        ))):
            block = blocks[start : start + s * s].reshape(s, s)
            expected = expected @ embed(layout.columns[end - s : end], block, n).conj().T
        return expected

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    @pytest.mark.parametrize("kind", ["dense", "permuted block-diagonal"])
    def test_perturbed_stacks_match_explicit_embedded_product(self, kind, m):
        # Blocks far from unitary, as in a sweep at sigma = 0.3, through the
        # real kernel's runs, gathered groups and, at m >= 3, mixed sizes.
        n = 13
        if kind == "dense":
            u = haar_random_unitary(n, 30 + m)
        else:
            u, _ = block_diagonal(n, m)
            u = u[:, np.random.default_rng(m).permutation(n)]
        plan = decompose(u, m)
        layout = plan._layout
        groups = [group[4] is None for group in layout.layers]
        if m > 2:
            assert any(groups)
            if kind == "dense":
                assert len(set(layout.sizes.tolist())) > 1
        noise = np.random.default_rng(m).standard_normal((2, 3, plan.blocks.size, 2))
        blocks = plan.blocks + 0.3 * noise.view(complex)[..., 0]
        stack = _compose(layout, blocks, plan.phases)
        for c, p in itertools.product(range(2), range(3)):
            expected = self.explicit_product(layout, blocks[c, p], plan.phases, n)
            error = np.abs(stack[c, p] - expected).max()
            assert error <= n * np.finfo(float).eps * np.abs(expected).max()

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("kind", ["permutation", "swap mesh", "phase-only"])
    def test_exact_plans_reconstruct_exactly(self, kind, m):
        # Every entry of these products is one phase times entries 0 and
        # +-1, so any order of arithmetic gives it exactly, zeros included.
        n = 11
        for seed in range(4):
            rng = np.random.default_rng(seed)
            if kind == "permutation":
                plan = decompose(random_permutation_unitary(n, seed), m)
            elif kind == "phase-only":
                plan = decompose(np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, n))), m)
                assert len(plan.sizes) == 0
            else:
                factors = []
                for _ in range(factor_count_bound(n, m)):
                    s = int(rng.integers(2, m + 1))
                    cols = np.sort(rng.choice(n, s, replace=False)) + 1
                    block = np.eye(s, dtype=complex)[rng.permutation(s)]
                    factors.append((s, n, cols, block))
                plan = plan_from_factors(n, m, factors, rng.uniform(-np.pi, np.pi, n))
            expected = self.explicit_product(plan._layout, plan.blocks, plan.phases, n)
            rebuilt = reconstruct(plan)
            np.testing.assert_array_equal(rebuilt, expected)
            assert np.count_nonzero(rebuilt) == n

    @pytest.mark.parametrize("n", [3, 8, 21])
    def test_pairwise_mesh_layers_are_its_antidiagonals(self, n):
        layout = _schedule(n, 2, _zero_pattern(np.ones((n, n))))
        assert len(layout.layers) == 2 * n - 3
        # the steps of one layer act on disjoint columns
        for _, _, cols, _, run, _ in layout.layers:
            assert len(set(cols.ravel().tolist())) == cols.size
            # the Reck anti-diagonals: adjacent pairs stepping by 2, one run
            assert run is not None

    @staticmethod
    def assert_groups_index_factor_blocks(layout, n):
        """Each group's ``span`` slices its factors out of its size's
        ``applied`` listing, which lists the groups of that size in the
        order of the layers, and the rows of the listing's ``entries`` are those factors' blocks
        in the flat factor-order block array; the groups cover every factor
        once.  ``index`` is the ``(k, s, s)`` flat index of the blocks in a
        transposed ``n x n`` matrix read as ``n*n`` entries, the factors
        sorted by first column, ``run`` is the slice of exactly the
        group's columns when they tile one, else ``None``, and ``lower``
        holds the flat index of the blocks' strictly lower entries."""
        listed = {s: (factors, entries) for s, factors, entries in layout.applied}
        assert list(listed) == sorted(set(layout.sizes.tolist()))
        flat, factors = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
        for s, index, cols, span, run, lower in layout.layers:
            k, entries = (listing[span] for listing in listed[s])  # the group's factors
            np.testing.assert_array_equal(entries, layout.offsets[k, np.newaxis] + np.arange(s * s))
            np.testing.assert_array_equal(layout.sizes[k], s)
            np.testing.assert_array_equal(cols, zero_based_columns(layout, k, s))
            assert index.shape == (len(k), s, s)
            tops = layout.base_rows[k] - s
            np.testing.assert_array_equal(
                index,
                cols[:, np.newaxis, :] * n + tops[:, np.newaxis, np.newaxis]
                + np.arange(s)[:, np.newaxis],
            )
            below = np.flatnonzero(np.tri(s, k=-1, dtype=bool))
            np.testing.assert_array_equal(lower, index.reshape(len(k), s * s)[:, below])
            assert (np.diff(cols[:, 0]) > 0).all()
            c0 = cols[0, 0]
            tiled = np.array_equal(cols.ravel(), np.arange(c0, c0 + cols.size))
            if run is None:
                assert not tiled
            else:
                assert run.step is None
                np.testing.assert_array_equal(np.arange(run.start, run.stop), cols.ravel())
            flat.append(entries.ravel())
            factors.append(k)
        np.testing.assert_array_equal(np.sort(np.concatenate(flat)), np.arange(layout.offsets[-1]))
        np.testing.assert_array_equal(np.sort(np.concatenate(factors)), np.arange(len(layout)))
        for s, applied, entries in layout.applied:
            spans = [span for size, _, _, span, _, _ in layout.layers if size == s]
            assert [span.start for span in spans] == [0] + [span.stop for span in spans[:-1]]
            assert spans[-1].stop == len(applied) == np.count_nonzero(layout.sizes == s)
            assert entries.shape == (len(applied), s * s)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_dense_groups_index_factor_order_blocks(self, n):
        for m in range(2, n + 1):
            self.assert_groups_index_factor_blocks(
                _schedule(n, m, _zero_pattern(np.ones((n, n)))), n
            )

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("kind", ["phase-only", "permutation", "permuted block-diagonal"])
    def test_structured_groups_index_factor_order_blocks(self, kind, m):
        for n, seed in itertools.product([5, 9, 12], range(3)):
            if kind == "phase-only":
                u = np.diag(np.exp(1j * np.arange(n)))
            elif kind == "permutation":
                u = random_permutation_unitary(n, seed)
            else:
                u, _ = block_diagonal(n, seed)
                u = u[:, np.random.default_rng(seed).permutation(n)]
            plan = decompose(u, m)
            self.assert_groups_index_factor_blocks(plan._layout, n)
            if kind != "phase-only":
                assert len(plan.sizes) > 0

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_stacks_compose_contiguous_slices_equal_to_each_alone(self, m):
        n = 14
        us = np.stack([haar_random_unitary(n, 70 + 10 * m + c) for c in range(2)])
        plans = [decompose(u, m) for u in us]
        layout = plans[0]._layout
        if m > 2:
            # some layers hold blocks of two sizes, so they run as two groups
            depth = [0] * n
            ends = np.cumsum(layout.sizes).tolist()
            for s, end in zip(layout.sizes.tolist(), ends):
                cols = (layout.columns[end - s : end] - 1).tolist()
                d = 1 + max(depth[c] for c in cols)
                depth = [d if c in cols else x for c, x in enumerate(depth)]
            assert len(layout.layers) > max(depth)
        assert reconstruct(plans[0]).flags.c_contiguous
        rng = np.random.default_rng(m)
        noise = rng.standard_normal((2, 3, plans[0].blocks.size, 2)).view(complex)[..., 0]
        blocks = np.stack([plan.blocks for plan in plans])[:, np.newaxis] + 0.1 * noise
        phases = np.stack([plan.phases for plan in plans])[:, np.newaxis]
        stack = _compose(layout, blocks, phases)
        assert stack.shape == (2, 3, n, n) and stack.flags.c_contiguous
        # As in the sweeps: the fidelities against the C-contiguous inputs,
        # whose reduction sums in an order set by both operands' layouts.
        fids = _fidelities(us[:, np.newaxis], stack)
        for c, p in itertools.product(range(2), range(3)):
            alone = _compose(layout, blocks[c, p], phases[c, 0])
            assert alone.flags.c_contiguous
            assert alone.tobytes() == stack[c, p].tobytes()
            assert _fidelities(us[c], alone).tobytes() == fids[c, p].tobytes()

    @staticmethod
    def one_pattern_stack(kind, n, seed, t):
        """``t`` unitaries of one exact zero pattern: Haar draws, or one
        structured matrix with ``t`` sets of column phases."""
        if kind == "dense":
            return np.stack([haar_random_unitary(n, seed + c) for c in range(t)])
        rng = np.random.default_rng(seed)
        if kind == "permutation":
            u = random_permutation_unitary(n, seed)
        elif kind == "phase-only":
            u = np.eye(n, dtype=complex)
        else:
            u, _ = block_diagonal(n, seed)
            u = u[:, rng.permutation(n)]
        return u * np.exp(1j * rng.uniform(-np.pi, np.pi, (t, 1, n)))

    @pytest.mark.parametrize("t", [1, 3])
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    @pytest.mark.parametrize(
        "kind", ["dense", "permutation", "phase-only", "permuted block-diagonal"]
    )
    def test_runs_match_the_gather_path_bit_for_bit(self, kind, m, t):
        n = 13
        us = self.one_pattern_stack(kind, n, 60 + m, t)
        layout = _schedule(n, m, _zero_pattern(us[0]))
        # the same layout with every group gathered and scattered by index
        gathered = dataclasses.replace(
            layout, layers=tuple(group[:4] + (None,) + group[5:] for group in layout.layers)
        )
        if kind == "dense":
            runs = [group[4] is not None for group in layout.layers]
            assert all(runs) if m == 2 else any(runs)
        w = us.swapaxes(-1, -2).copy()
        w_gathered = w.copy()
        blocks = decomposition._sweep(w, layout)
        assert blocks.tobytes() == decomposition._sweep(w_gathered, gathered).tobytes()
        assert w.tobytes() == w_gathered.tobytes()
        phases = decomposition._phases(w)
        noise = np.random.default_rng(m).standard_normal((t, 2, blocks.shape[1], 2))
        perturbed = blocks[:, np.newaxis] + 0.1 * noise.view(complex)[..., 0]
        for b, p in [(blocks[0], phases[0]), (perturbed, phases[:, np.newaxis])]:
            assert _compose(layout, b, p).tobytes() == _compose(gathered, b, p).tobytes()
        assert np.abs(_compose(layout, blocks, phases) - us).max() <= n * np.finfo(float).eps

    @pytest.mark.parametrize("t", [1, 3])
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    @pytest.mark.parametrize("kind", ["dense", "permutation", "permuted block-diagonal"])
    def test_stamped_entries_end_exactly_zero(self, kind, m, t):
        # The sweep keeps only each RQ's q and stamps the zeros below each
        # block's diagonal; every entry a factor stamps ends exactly 0.
        n = 13
        us = self.one_pattern_stack(kind, n, 80 + m, t)
        layout = _schedule(n, m, _zero_pattern(us[0]))
        stamped = stamp_counts(n, layout) > 0
        assert stamped.any()
        w = us.swapaxes(-1, -2).copy()
        decomposition._sweep(w, layout)
        swept = w.swapaxes(-1, -2)
        assert (swept[:, stamped] == 0).all()

    @pytest.mark.parametrize("t", [1, 3])
    @pytest.mark.parametrize(
        "kind", ["dense", "permutation", "phase-only", "permuted block-diagonal"]
    )
    def test_flat_index_moves_the_blocks_of_the_broadcast_index(self, kind, t):
        # ``_sweep`` reads each group's blocks, and stamps their zeros,
        # through the flat index; the reference is the two broadcast index arrays of the
        # blocks' columns and rows.
        for n in range(2, 14):
            us = self.one_pattern_stack(kind, n, 90 + n, t)
            for m in range(2, min(n, 5) + 1):
                layout = _schedule(n, m, _zero_pattern(us[0]))
                w = us.swapaxes(-1, -2).copy()
                cells = w.reshape(t, n * n)
                listed = {s: factors for s, factors, _ in layout.applied}
                for s, index, cols, span, _, _ in layout.layers:
                    tops = layout.base_rows[listed[s][span]] - s
                    rows = tops[:, np.newaxis, np.newaxis] + np.arange(s)[:, np.newaxis]
                    block = (slice(None), cols[:, np.newaxis, :], rows)
                    gathered = np.take(cells, index, axis=1)
                    assert gathered.tobytes() == w[block].tobytes()
                    r = np.random.default_rng(s).standard_normal(gathered.shape) + 0j
                    expected = w.copy()
                    expected[block] = r
                    cells[:, index] = r
                    assert w.tobytes() == expected.tobytes()

    def test_factor_order_is_schedule_order(self):
        plan = decompose(haar_random_unitary(9, 3), 3)
        layout = _schedule(9, 3, _zero_pattern(np.ones((9, 9))))
        np.testing.assert_array_equal(plan.base_rows, layout.base_rows)
        np.testing.assert_array_equal(plan.columns, layout.columns)


class TestPlanValidation:
    def test_rejects_phase_out_of_range(self):
        with pytest.raises(ValueError, match="pi"):
            plan_from_factors(n=2, m=2, factors=(), phases=np.array([0.0, 4.0]))

    def test_rejects_non_finite_phase(self):
        with pytest.raises(ValueError, match="^phases contain non-finite values$"):
            plan_from_factors(n=2, m=2, factors=(), phases=[np.nan, 0.0])

    def test_rejects_wrong_phase_count(self):
        with pytest.raises(ValueError):
            plan_from_factors(n=3, m=2, factors=(), phases=np.zeros(2))

    def test_rejects_oversized_factor(self):
        f = (3, 3, (1, 2, 3), haar_random_unitary(3, 1))
        with pytest.raises(ValueError, match="size"):
            plan_from_factors(n=3, m=2, factors=[f], phases=np.zeros(3))

    def test_rejects_base_row_beyond_n(self):
        f = (2, 5, (1, 5), SWAP)
        with pytest.raises(ValueError, match="base row"):
            plan_from_factors(n=3, m=2, factors=[f], phases=np.zeros(3))

    def test_rejects_count_beyond_bound(self):
        f = (2, 2, (1, 2), SWAP)
        with pytest.raises(ValueError, match="bound"):
            plan_from_factors(n=2, m=2, factors=[f, f], phases=np.zeros(2))

    def test_rejects_m_out_of_range(self):
        with pytest.raises(ValueError):
            plan_from_factors(n=2, m=3, factors=(), phases=np.zeros(2))

    @pytest.mark.parametrize(
        "changes,message",
        [
            (dict(sizes=[2.5]), "sizes: 2.5 is not an integer"),
            (dict(columns=[1.2, 2.7]), "columns: 1.2 is not an integer"),
            (dict(columns=[1, 2.7]), "columns: 2.7 is not an integer"),
            (dict(base_rows=[2.9]), "base_rows: 2.9 is not an integer"),
            (dict(base_rows=np.array([2**64 - 1], dtype=np.uint64)),
             "base_rows: 18446744073709551615 is not an integer"),
            (dict(base_rows=np.array([np.nan])), "base_rows: nan is not an integer"),
            (dict(sizes=["2"]), "sizes: '2' is not an integer"),
        ],
    )
    def test_rejects_integer_field_values_the_cast_would_change(self, changes, message):
        fields = dict(n=2, m=2, sizes=[2], base_rows=[2], columns=[1, 2],
                      blocks=[0, 1, 1, 0], phases=[0, 0])
        with pytest.raises(ValueError) as excinfo:
            DecompositionPlan(**{**fields, **changes})
        assert type(excinfo.value) is ValueError
        assert str(excinfo.value) == f"{message} in the range of {np.dtype(np.intp)}"

    @pytest.mark.parametrize(
        "changes,message",
        [
            (dict(base_rows=[float("nan")]), "base_rows: cannot convert float NaN to integer"),
            (dict(phases=[0, "x"]), "phases: could not convert string to float: 'x'"),
        ],
    )
    def test_names_the_field_of_a_failed_cast(self, changes, message):
        fields = dict(n=2, m=2, sizes=[2], base_rows=[2], columns=[1, 2],
                      blocks=[0, 1, 1, 0], phases=[0, 0])
        with pytest.raises(ValueError) as excinfo:
            DecompositionPlan(**{**fields, **changes})
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "changes,name",
        [
            (dict(phases=[1j, 0]), "phases"),
            (dict(columns=[None, 2]), "columns"),
            (dict(blocks=[object(), 1, 1, 0]), "blocks"),
            (dict(n=2.0), "n"),
            (dict(m="2"), "m"),
        ],
    )
    def test_a_value_of_the_wrong_type_is_a_value_error_naming_the_field(self, changes, name):
        # The cast raises TypeError here; its wording varies across CPython
        # versions, so only the field prefix is pinned.
        fields = dict(n=2, m=2, sizes=[2], base_rows=[2], columns=[1, 2],
                      blocks=[0, 1, 1, 0], phases=[0, 0])
        with pytest.raises(ValueError, match=f"^{name}: ") as excinfo:
            DecompositionPlan(**{**fields, **changes})
        assert type(excinfo.value) is ValueError

    @pytest.mark.parametrize(
        "changes",
        [
            dict(sizes=[2.0], base_rows=[2.0], columns=[1.0, 2.0]),
            dict(base_rows=np.array([2], dtype=np.uint64), columns=np.array([1, 2], dtype=np.int8)),
            dict(sizes=np.array([2.0]), columns=[np.int32(1), 2]),
        ],
    )
    def test_accepts_integral_values_of_other_types(self, changes):
        fields = dict(n=2, m=2, sizes=[2], base_rows=[2], columns=[1, 2],
                      blocks=[0, 1, 1, 0], phases=[0, 0])
        plan = DecompositionPlan(**{**fields, **changes})
        for name, expected in [("sizes", [2]), ("base_rows", [2]), ("columns", [1, 2])]:
            value = getattr(plan, name)
            assert value.dtype == np.intp and value.tolist() == expected

    @pytest.mark.parametrize(
        "columns,shape",
        [([1], "(1,)"), ([1, 2, 3], "(3,)"), ([[1, 2]], "(1, 2)"), ([[1], [2]], "(2, 1)")],
    )
    def test_rejects_columns_not_of_length_sum_of_sizes(self, columns, shape):
        with pytest.raises(ValueError) as excinfo:
            DecompositionPlan(
                n=3, m=3, sizes=[2], base_rows=[2], columns=columns,
                blocks=SWAP.ravel(), phases=np.zeros(3),
            )
        assert str(excinfo.value) == (
            f"columns must be 1-D of length sum(sizes) = 2, got shape {shape}"
        )


class TestUnitarityCheck:
    """Both kernels of ``_unitarity_defects`` give each block's
    ``max|B^dag B - I|``, and a plan names its first faulty factor."""

    @pytest.mark.parametrize("stack", [(), (3,)])
    @pytest.mark.parametrize("s", range(2, 9))
    def test_matches_a_per_block_reference(self, s, stack):
        count = int(np.prod(stack, dtype=int))
        draws = [haar_random_unitary(s, 100 * s + j) for j in range(5 * count)]
        blocks = np.array(draws).reshape(stack + (5, s, s))
        blocks[..., 1, :, :] *= 1.5
        blocks[..., 3, 1, 0] = np.nan
        reference = np.array(
            [unitarity_defect(b) for b in blocks.reshape(-1, s, s)]
        ).reshape(stack + (5,))
        got = decomposition._unitarity_defects(np.moveaxis(blocks, -3, -1))
        eps = np.finfo(float).eps
        np.testing.assert_allclose(got, reference, rtol=4 * eps, atol=4 * s * eps)
        assert np.isnan(got[..., 3]).all()
        assert (got[..., [0, 2, 4]] <= decomposition._BLOCK_UNITARY_TOL).all()
        assert not (got[..., [1, 3]] <= decomposition._BLOCK_UNITARY_TOL).any()

    @pytest.mark.parametrize("s", [2, 6])
    def test_rejects_a_nan_entry(self, s):
        block = haar_random_unitary(s, 8)
        block[0, 1] = np.nan
        with pytest.raises(ValueError) as excinfo:
            one_factor_plan(n=s, m=s, size=s, base_row=s, columns=tuple(range(1, s + 1)),
                            block=block)
        assert str(excinfo.value) == "factors[0]: factor block is not unitary (defect nan)"

    @pytest.mark.parametrize("check_entries", [decomposition._CHECK_ENTRIES, 36])
    @pytest.mark.parametrize("order", ["large first", "small first"])
    @pytest.mark.parametrize("stack", [(), (3,)])
    def test_names_the_lower_of_faults_in_two_size_groups(
        self, monkeypatch, order, stack, check_entries
    ):
        # n = 16, m = 6 mixes both kernels: factors of 6 modes (stacked
        # product) around remainder blocks of 2 to 5 (elementwise).  Pieces
        # of 36 entries check one 6 x 6 block or a few smaller ones at a time.
        monkeypatch.setattr(decomposition, "_CHECK_ENTRIES", check_entries)
        plan = decompose(haar_random_unitary(16, 21), 6)
        big = np.flatnonzero(plan.sizes >= 6)
        small = np.flatnonzero(plan.sizes <= 5)
        assert big[0] < small[0] < big[-1]
        lower, upper = (big[0], small[0]) if order == "large first" else (small[0], big[-1])
        assert (plan.sizes[lower] <= 5) != (plan.sizes[upper] <= 5)
        blocks = np.array(np.broadcast_to(plan.blocks, stack + plan.blocks.shape))
        member = blocks if not stack else blocks[1]
        # The upper factor gets the larger defect, so the first fault in plan
        # order is named, not the worst.
        member[plan._layout.offsets[lower] : plan._layout.offsets[lower + 1]] *= 1.5
        member[plan._layout.offsets[upper] : plan._layout.offsets[upper + 1]] *= 2.0
        phases = np.broadcast_to(plan.phases, stack + plan.phases.shape)
        with pytest.raises(ValueError) as excinfo:
            decomposition._validated(plan.n, plan.m, plan.sizes, plan.base_rows, plan.columns,
                                     blocks, phases, stack)
        assert str(excinfo.value) == (
            f"factors[{lower}]: factor block is not unitary (defect 1.250e+00)"
        )

    def test_names_a_fault_past_the_first_piece(self):
        plan = decompose(haar_random_unitary(100, 3), 2)  # 4950 2 x 2 blocks
        k = 4321
        assert 4 * k > decomposition._CHECK_ENTRIES
        blocks = plan.blocks.copy()
        blocks[plan._layout.offsets[k]] *= 1.5
        with pytest.raises(ValueError, match=rf"^factors\[{k}\]: factor block is not unitary"):
            DecompositionPlan(n=100, m=2, sizes=plan.sizes, base_rows=plan.base_rows,
                              columns=plan.columns, blocks=blocks, phases=plan.phases)

    def test_checks_blocks_in_bounded_pieces(self):
        # Traced peak of the constructor at n = 200, m = 2 (19900 blocks of
        # 64 bytes): 2.6x the blocks, most of it the read-only copies it
        # keeps; checking every block at once took 6.3x.
        plan = decompose(haar_random_unitary(200, 4), 2)
        fields = dict(n=200, m=2, sizes=plan.sizes, base_rows=plan.base_rows,
                      columns=plan.columns, blocks=plan.blocks, phases=plan.phases)
        gc.collect()
        tracemalloc.start()
        try:
            DecompositionPlan(**fields)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * plan.blocks.nbytes

    def test_a_large_block_passes_and_its_scaled_copy_fails(self):
        n = 64
        fields = dict(n=n, m=n, sizes=[n], base_rows=[n], columns=np.arange(1, n + 1),
                      blocks=haar_random_unitary(n, 5).ravel(), phases=np.zeros(n))
        plan = DecompositionPlan(**fields)
        loaded = json_to_plan(plan_to_json(plan))
        np.testing.assert_array_equal(loaded.blocks, plan.blocks)
        message = "factors[0]: factor block is not unitary (defect 1.250e+00)"
        scaled = dict(fields, blocks=1.5 * fields["blocks"])
        with pytest.raises(ValueError) as excinfo:
            DecompositionPlan(**scaled)
        assert str(excinfo.value) == message
        obj = json.loads(plan_to_json(plan))
        obj["blocks"] = [1.5 * v for v in obj["blocks"]]
        with pytest.raises(ValueError) as excinfo:
            json_to_plan(json.dumps(obj))
        assert str(excinfo.value) == f"invalid plan: {message}"


class TestVerify:
    def test_identity_plan_error_zero(self):
        plan = decompose(np.eye(4, dtype=complex), 2)
        report = verify(plan, np.eye(4))
        assert report.max_error == 0.0
        assert report.fidelity == pytest.approx(1.0, abs=1e-12)
        assert report.passed

    def test_detects_tampered_factor(self):
        u = haar_random_unitary(5, 13)
        plan = decompose(u, 3)
        (size, base_row, columns, _), *rest = factors_of(plan)
        tampered = [(size, base_row, columns, np.eye(size)), *rest]
        bad = plan_from_factors(n=plan.n, m=plan.m, factors=tampered, phases=plan.phases)
        report = verify(bad, u)
        assert not report.passed
        assert report.fidelity < 1 - 1e-6

    @pytest.mark.parametrize("scale", [2.0, 1e300, 1.7e308, 1e-300])
    def test_fidelity_is_at_most_one_and_ignores_scale(self, scale):
        # the rebuilt matrix is unitary, so it bounds the overlap
        u = haar_random_unitary(3, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = verify(decompose(u, 2), scale * u)
        assert report.fidelity == pytest.approx(1.0, abs=4 * np.finfo(float).eps)
        assert not report.passed

    def test_fidelity_against_a_zero_matrix_is_zero(self):
        report = verify(decompose(haar_random_unitary(3, 1), 2), np.zeros((3, 3)))
        assert (report.fidelity, report.passed) == (0.0, False)

    def test_dimension_mismatch(self):
        plan = decompose(np.eye(3, dtype=complex), 2)
        with pytest.raises(ValueError, match="dimension"):
            verify(plan, np.eye(4))

    @pytest.mark.parametrize("tol", [float("inf"), float("nan"), 0.0, -1.0])
    def test_rejects_tolerance_not_positive_and_finite(self, tol):
        # An infinite tolerance would pass the plan of a different matrix.
        plan = decompose(haar_random_unitary(5, 1), 2)
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            verify(plan, haar_random_unitary(5, 2), tol=tol)


class TestCostCompare:
    def test_worked_example(self):
        # m=3, c_m=2, c_2=1, n=50: bound = floor(2450/6) + 49 = 457,
        # cost_m = 914, cost_2 = 50*49/2 = 1225
        comp = cost_compare(50, 3, 2.0, 1.0)
        assert comp.count_m == 457
        assert comp.cost_m == 914.0
        assert comp.cost_2 == 1225.0
        assert comp.advantageous

    def test_equal_costs_not_advantageous(self):
        n = 10
        comp = cost_compare(n, 2, 1.0, 1.0)
        assert comp.cost_m == comp.cost_2
        assert not comp.advantageous

    def test_threshold_equality_loses_to_overhead(self):
        # at c_m exactly (1/2)m(m-1)c_2 the +n-1 remainder overhead makes the
        # block mesh strictly more expensive, even at large n
        n = 5000
        comp = cost_compare(n, 3, 3.0, 1.0)
        assert not comp.advantageous

    def test_large_n_threshold_both_sides_m10(self):
        # break-even c_m = (1/2)*10*9 = 45; 5% to either side at n=5000
        n = 5000
        cheap = cost_compare(n, 10, 0.95 * 45.0, 1.0)
        dear = cost_compare(n, 10, 1.05 * 45.0, 1.0)
        assert cheap.count_m == 282721  # floor(5000*4999/90) + 4999, by hand
        assert cheap.advantageous
        assert not dear.advantageous

    def test_rejects_nonpositive_cost(self):
        with pytest.raises(ValueError):
            cost_compare(4, 2, 0.0, 1.0)
        with pytest.raises(ValueError):
            cost_compare(4, 2, 1.0, -1.0)

    @pytest.mark.parametrize(
        "c_m,c_2", [(np.inf, 1.0), (1.0, np.inf), (np.inf, np.inf), (np.nan, 1.0), (1.0, np.nan)]
    )
    def test_rejects_non_finite_cost(self, c_m, c_2):
        with pytest.raises(ValueError, match="costs must be positive and finite"):
            cost_compare(10, 3, c_m, c_2)

    def test_costs_beyond_float_range_name_n(self):
        # 24 blocks of 3 x 3 and 45 of 2 x 2 at n = 10: either product can overflow
        for c_m, c_2 in [(1e308, 1e308), (1e308, 1.0), (1.0, 1e308)]:
            with pytest.raises(ValueError, match=r"mesh costs for n=10, .* exceed the float range"):
                cost_compare(10, 3, c_m, c_2)
        # just inside the range both totals stay finite
        comp = cost_compare(10, 3, 1e306, 1e306)
        assert (comp.cost_m, comp.cost_2) == (24e306, 45e306)

    def test_counts_beyond_float_range_name_n(self):
        # 10**154 gives counts below the largest float; 10**155 gives more
        assert cost_compare(10**154, 3, 2.0, 1.0).cost_2 == 5e307
        with pytest.raises(ValueError, match=f"n={10**155} exceed the float range"):
            cost_compare(10**155, 3, 2.0, 1.0)
        with pytest.raises(ValueError, match="float range"):
            cost_compare(10**200, 10**200, 2.0, 1.0)


@st.composite
def rotated_permutations(draw):
    """A permutation times a few 2x2 rotations on either side, and a block size."""
    n = draw(st.integers(2, 24))
    m = draw(st.integers(2, min(4, n)))
    u = np.eye(n, dtype=complex)[:, draw(st.permutations(range(n)))]
    for _ in range(draw(st.integers(0, 10))):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        theta = draw(st.floats(0.0, np.pi / 2))
        phase = np.exp(1j * draw(st.floats(-np.pi, np.pi)))
        g = np.eye(n, dtype=complex)
        g[np.ix_([i, j], [i, j])] = [
            [np.cos(theta), -np.conj(phase) * np.sin(theta)],
            [phase * np.sin(theta), np.cos(theta)],
        ]
        u = g @ u if draw(st.booleans()) else u @ g
    return u, m


class TestSparseScheduleProperties:
    """Sparse zero patterns keep within the factor bound and round-trip exactly."""

    @settings(derandomize=True, database=None, max_examples=500, deadline=None)
    @given(rotated_permutations())
    def test_near_permutations(self, case):
        u, m = case
        n = u.shape[0]
        steps = _schedule(n, m, _zero_pattern(u))
        bound = factor_count_bound(n, m)
        target(len(steps) - bound, label=f"m={m}")  # steer the search toward the bound
        assert len(steps) <= bound
        plan = decompose(u, m)
        assert np.abs(reconstruct(plan) - u).max() <= 4 * n * np.finfo(float).eps


@st.composite
def block_diagonal_inputs(draw):
    """Haar blocks on a random partition of n, columns optionally permuted, and a block size."""
    n = draw(st.integers(2, 24))
    m = draw(st.integers(2, min(4, n)))
    sizes = []
    while sum(sizes) < n:
        sizes.append(draw(st.integers(1, n - sum(sizes))))
    seed = draw(st.integers(0, 2**32 - 1))
    u = scipy.linalg.block_diag(*(haar_random_unitary(k, seed + k) for k in sizes))
    if draw(st.booleans()):
        u = u[:, draw(st.permutations(range(n)))]
    return u.astype(complex), m


class TestBlockDiagonalProperties:
    """Block-diagonal zero patterns keep within the factor bound and round-trip exactly."""

    @settings(derandomize=True, database=None, max_examples=600, deadline=None)
    @given(block_diagonal_inputs())
    def test_block_diagonal(self, case):
        u, m = case
        n = u.shape[0]
        steps = _schedule(n, m, _zero_pattern(u))
        bound = factor_count_bound(n, m)
        target(len(steps) - bound, label=f"m={m}")  # steer the search toward the bound
        assert len(steps) <= bound
        plan = decompose(u, m)
        assert np.abs(reconstruct(plan) - u).max() <= 4 * n * np.finfo(float).eps


@st.composite
def phase_diagonals(draw):
    """A diagonal of unit-modulus phases and a block size."""
    n = draw(st.integers(2, 24))
    m = draw(st.integers(2, min(4, n)))
    angles = draw(st.lists(st.floats(-np.pi, np.pi), min_size=n, max_size=n))
    return np.diag(np.exp(1j * np.array(angles))), m


class TestPhaseDiagonalProperties:
    """A phase diagonal needs no factor and round-trips exactly."""

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(phase_diagonals())
    def test_phase_diagonal(self, case):
        u, m = case
        n = u.shape[0]
        plan = decompose(u, m)
        assert len(plan.sizes) == 0 and plan.factors == ()
        assert np.abs(reconstruct(plan) - u).max() <= 4 * n * np.finfo(float).eps


@st.composite
def noisy_unitaries(draw):
    """A Haar, near-permutation or permuted block-diagonal unitary of n <= 16
    plus complex noise whose largest row has 2-norm up to twice the
    acceptance bound, spread over every entry or kept to the input's
    nonzeros, and a block size m <= n."""
    n = draw(st.integers(2, 16))
    m = draw(st.integers(2, n))
    seed = draw(st.integers(0, 2**32 - 1))
    kind = draw(st.sampled_from(["haar", "near-permutation", "block-diagonal"]))
    if kind == "haar":
        u = haar_random_unitary(n, seed)
    elif kind == "near-permutation":
        u = near_permutation(n, 10.0 ** draw(st.floats(-12, -2)), seed)
    else:
        u = block_diagonal(n, seed)[0][:, np.random.default_rng(seed).permutation(n)]
    rng = np.random.default_rng(seed + 1)
    noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if draw(st.booleans()):
        noise *= u != 0
    bound = 0.9 * decomposition._TOL_PER_MODE * n
    noise *= bound * 2.0 ** draw(st.floats(-12, 1)) / np.linalg.norm(noise, axis=1).max()
    return u + noise, m


class TestInputJudgeProperties:
    """Every input ``decompose`` accepts passes ``verify`` at its default tolerance."""

    @settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @given(noisy_unitaries())
    def test_accepted_inputs_pass_verify(self, case):
        u, m = case
        try:
            plan = decompose(u, m)
        except ValueError as exc:
            assert str(exc).startswith("input is not unitary: swept row residual")
            return
        report = verify(plan, u)
        target(report.max_error / report.tol)  # steer the search toward the tolerance
        assert report.passed
