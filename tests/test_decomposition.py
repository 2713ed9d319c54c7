import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, target
from hypothesis import strategies as st

from multiport.decomposition import (
    DecompositionPlan,
    Factor,
    _schedule,
    _zero_pattern,
    cost_compare,
    decompose,
    embed_factor,
    factor_count_bound,
    reconstruct,
    verify,
)
from multiport.linalg import haar_random_unitary, unitarity

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def plan_from_factors(n, m, factors, phases):
    """The plan holding ``factors``, in order, and ``phases``."""
    width = max([m] + [f.size for f in factors])
    columns = np.full((len(factors), width), -1)
    for k, f in enumerate(factors):
        columns[k, : f.size] = np.array(f.columns) - 1
    return DecompositionPlan(
        n=n,
        m=m,
        sizes=[f.size for f in factors],
        base_rows=[f.base_row for f in factors],
        columns=columns,
        blocks=np.concatenate([np.zeros(0, complex)] + [f.block.ravel() for f in factors]),
        phases=phases,
    )


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


def one_factor_plan(n, m, size, base_row, columns, block):
    """The plan holding one hand-built ``Factor`` record, and zero phases."""
    return plan_from_factors(n, m, (Factor(size, base_row, columns, block),), np.zeros(n))


class TestFactor:
    """The plan checks each factor once; ``plan.factors`` reads it back as views."""

    def test_valid_factor(self):
        plan = one_factor_plan(n=3, m=2, size=2, base_row=3, columns=(1, 3), block=SWAP)
        (f,) = plan.factors
        assert (f.size, f.base_row, f.columns) == (2, 3, (1, 3))
        assert type(f.size) is int and type(f.base_row) is int
        assert all(type(c) is int for c in f.columns)
        np.testing.assert_array_equal(f.block, SWAP)

    def test_block_is_write_protected_copy(self):
        blocks = np.concatenate([SWAP.ravel(), haar_random_unitary(2, 4).ravel()])
        sizes, base_rows = np.array([2, 2]), np.array([3, 3])
        columns = np.array([[0, 2], [1, 2]])
        plan = DecompositionPlan(
            n=3, m=2, sizes=sizes, base_rows=base_rows, columns=columns,
            blocks=blocks, phases=np.zeros(3),
        )
        expected = blocks.copy()
        factors = plan.factors
        for k, f in enumerate(factors):
            assert np.shares_memory(f.block, plan.blocks)
            np.testing.assert_array_equal(f.block, expected[4 * k : 4 * k + 4].reshape(2, 2))
            with pytest.raises(ValueError, match="read-only"):
                f.block[0, 0] = 9.0
        blocks[:] = 9.0
        sizes[:], base_rows[:], columns[:] = 3, 1, 0
        np.testing.assert_array_equal(plan.blocks, expected)
        for listing in (factors, plan.factors):
            assert [(f.size, f.base_row, f.columns) for f in listing] == [
                (2, 3, (1, 3)), (2, 3, (2, 3)),
            ]
            np.testing.assert_array_equal(
                np.concatenate([f.block.ravel() for f in listing]), expected
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


class TestEmbedFactor:
    def test_identity_block(self):
        f = Factor(size=2, base_row=2, columns=(1, 2), block=np.eye(2))
        np.testing.assert_array_equal(embed_factor(f, 3), np.eye(3))

    def test_swap_on_modes_one_three(self):
        f = Factor(size=2, base_row=3, columns=(1, 3), block=SWAP)
        expected = np.eye(3, dtype=complex)[:, [2, 1, 0]]
        np.testing.assert_array_equal(embed_factor(f, 3), expected)

    def test_untouched_modes_fixed(self):
        q = haar_random_unitary(3, 8)
        f = Factor(size=3, base_row=6, columns=(2, 3, 6), block=q)
        full = embed_factor(f, 7)
        v = np.zeros(7, dtype=complex)
        v[[0, 3, 4, 6]] = [1.0, 2.0, -1j, 0.5]
        np.testing.assert_array_equal(full @ v, v)

    def test_embedding_is_unitary(self):
        f = Factor(size=3, base_row=5, columns=(1, 4, 5), block=haar_random_unitary(3, 2))
        assert unitarity(embed_factor(f, 6), tol=1e-10).is_unitary

    def test_rejects_small_dimension(self):
        f = Factor(size=2, base_row=4, columns=(2, 4), block=SWAP)
        with pytest.raises(ValueError, match="does not embed in n = 3"):
            embed_factor(f, 3)

    @pytest.mark.parametrize("columns", [(0, 1), (2, 2)])
    def test_rejects_zero_or_repeated_column(self, columns):
        # column 0 would wrap to the last mode; a repeated column would
        # write one block entry over another
        f = Factor(size=2, base_row=2, columns=columns, block=SWAP)
        with pytest.raises(ValueError, match="does not embed"):
            embed_factor(f, 3)

    @pytest.mark.parametrize(
        "columns,block",
        [((1, 2, 3), SWAP), ((1, 2), np.ones((2, 3))), ((2,), SWAP)],
    )
    def test_rejects_block_not_matching_columns(self, columns, block):
        f = Factor(size=len(columns), base_row=3, columns=columns, block=block)
        with pytest.raises(ValueError, match="does not embed"):
            embed_factor(f, 3)


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
            assert len(plan.factors) <= factor_count_bound(n, m)

    def test_m2_count_exact_on_haar(self):
        for n in (2, 5, 9, 14):
            plan = decompose(haar_random_unitary(n, n), 2)
            assert len(plan.factors) == n * (n - 1) // 2

    def test_single_block_when_m_equals_n(self):
        plan = decompose(haar_random_unitary(6, 4), 6)
        assert len(plan.factors) == 1
        assert plan.factors[0].columns == tuple(range(1, 7))

    def test_identity_gives_empty_plan(self):
        for m in (2, 3, 4):
            plan = decompose(np.eye(4, dtype=complex), m)
            assert len(plan.factors) == 0
            np.testing.assert_array_equal(plan.phases, np.zeros(4))

    def test_diagonal_phase_matrix(self):
        angles = np.array([0.3, -1.2, np.pi, 0.0, 2.5])
        plan = decompose(np.diag(np.exp(1j * angles)), 3)
        assert len(plan.factors) == 0
        np.testing.assert_allclose(plan.phases, angles, atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_permutation_inputs(self, m, seed):
        u = random_permutation_unitary(5, seed)
        plan = decompose(u, m)
        assert verify(plan, u).passed
        # at most one two-mode swap per row
        assert len(plan.factors) <= 4
        assert all(f.size == 2 for f in plan.factors)

    def test_swap_matrix(self):
        plan = decompose(SWAP, 2)
        assert verify(plan, SWAP).passed

    def test_phases_in_range(self, haar_cases):
        for _, _, _, plan in haar_cases:
            assert np.all(plan.phases > -np.pi)
            assert np.all(plan.phases <= np.pi)

    def test_factor_structure(self, haar_cases):
        for n, m, _, plan in haar_cases:
            base_rows = [f.base_row for f in plan.factors]
            assert base_rows == sorted(base_rows, reverse=True)
            for f in plan.factors:
                assert 2 <= f.size <= m
                assert f.columns[-1] <= f.base_row <= n

    def test_total_zeros_accounting(self, haar_cases):
        # every sweep stamps exactly the n(n-1)/2 below-diagonal entries once
        for n, _, _, plan in haar_cases:
            diag = plan.diagnostics
            assert diag is not None
            assert diag.total_zeros == n * (n - 1) // 2
            assert diag.refill_events == 0

    def test_full_blocks_create_triangle_counts(self):
        # a full m-sized factor stamps m(m-1)/2 fresh zeros
        plan = decompose(haar_random_unitary(12, 6), 3)
        full = [
            c
            for f, c in zip(plan.factors, plan.diagnostics.new_zeros_per_factor)
            if f.size == 3
        ]
        assert full and all(c == 3 for c in full)

    def test_reconstruction_is_unitary(self, haar_cases):
        for _, _, _, plan in haar_cases:
            assert unitarity(reconstruct(plan), tol=1e-9).is_unitary

    def test_rejects_non_unitary_input(self):
        with pytest.raises(ValueError, match="unitary"):
            decompose(np.diag([1.0, 2.0]), 2)

    @pytest.mark.parametrize("m", [1, 7])
    def test_rejects_bad_block_size(self, m):
        with pytest.raises(ValueError, match="block size"):
            decompose(np.eye(6, dtype=complex), m)


def near_permutation(n, eps, seed):
    """A permutation times expm(i eps H): dense, but most entries are tiny."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (a + a.conj().T) / 2.0
    return np.eye(n)[rng.permutation(n)] @ scipy.linalg.expm(1j * eps * h)


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
        assert len(plan.factors) <= factor_count_bound(n, m)
        if kind == "phase-only":
            assert plan.factors == ()

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_block_diagonal_factors_stay_inside_blocks(self, m):
        u, sizes = block_diagonal(32, 7)
        block_of = np.repeat(np.arange(len(sizes)), sizes)
        plan = decompose(u, m)
        for f in plan.factors:
            assert len({block_of[c - 1] for c in f.columns}) == 1
        assert len(plan.factors) <= sum(k * (k - 1) // 2 for k in sizes)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_permuted_block_diagonal_keeps_short_pairwise_plan(self, seed):
        # each block needs its own pairwise mesh and the column permutation
        # at most one swap per row; a swap must not fill the rows above it
        n = 32
        u, sizes = block_diagonal(n, seed)
        u = u[:, np.random.default_rng(seed).permutation(n)]
        plan = decompose(u, 2)
        assert np.abs(reconstruct(plan) - u).max() <= 4 * n * np.finfo(float).eps
        assert len(plan.factors) <= sum(k * (k - 1) // 2 for k in sizes) + n - 1

    def test_dense_inputs_share_one_schedule(self):
        n, m = 12, 3

        def sequence(u):
            return [(f.base_row, f.columns) for f in decompose(u, m).factors]

        expected = sequence(haar_random_unitary(n, 1))
        assert sequence(haar_random_unitary(n, 2)) == expected
        assert sequence(near_permutation(n, 1e-10, 3)) == expected


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
        assert [(f.base_row, f.columns) for f in plan.factors] == expected

    def test_dense_schedule_gates_for_every_size(self):
        for n in range(2, 65):
            pattern = _zero_pattern(np.ones((n, n)))
            for m in range(2, n + 1):
                steps, new_zeros, refills = _schedule(n, m, pattern)
                assert len(steps) <= factor_count_bound(n, m), (n, m)
                if m == 2:
                    assert len(steps) == n * (n - 1) // 2, n
                assert sum(new_zeros) == n * (n - 1) // 2, (n, m)
                assert refills == 0, (n, m)


class TestReconstruct:
    def test_empty_plan_is_identity(self):
        plan = plan_from_factors(n=3, m=2, factors=(), phases=np.zeros(3))
        np.testing.assert_array_equal(reconstruct(plan), np.eye(3))

    def test_single_factor_definition(self):
        q = haar_random_unitary(2, 6)
        f = Factor(size=2, base_row=3, columns=(1, 3), block=q)
        plan = plan_from_factors(n=3, m=2, factors=(f,), phases=np.zeros(3))
        np.testing.assert_allclose(
            reconstruct(plan), embed_factor(f, 3).conj().T, atol=1e-15
        )

    def test_matches_explicit_embedded_product(self):
        # independent route: D times the daggered full-size embeddings
        u = haar_random_unitary(6, 9)
        plan = decompose(u, 3)
        expected = np.diag(np.exp(1j * plan.phases))
        for f in reversed(plan.factors):
            expected = expected @ embed_factor(f, plan.n).conj().T
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
        for f in reversed(plan.factors):
            expected = expected @ embed_factor(f, n).conj().T
        assert np.abs(reconstruct(plan) - expected).max() <= n * np.finfo(float).eps

    @pytest.mark.parametrize("n", [3, 8, 21])
    def test_pairwise_mesh_layers_are_its_antidiagonals(self, n):
        layout, _, _ = _schedule(n, 2, _zero_pattern(np.ones((n, n))))
        assert len(layout.layers) == 2 * n - 3
        # the steps of one layer act on disjoint columns
        for _, _, cols, _ in layout.layers:
            assert len(set(cols.ravel().tolist())) == cols.size

    def test_factor_order_is_schedule_order(self):
        plan = decompose(haar_random_unitary(9, 3), 3)
        layout, _, _ = _schedule(9, 3, _zero_pattern(np.ones((9, 9))))
        np.testing.assert_array_equal(plan.base_rows, layout.base_rows)
        np.testing.assert_array_equal(plan.columns, layout.columns)


class TestPlanValidation:
    def test_rejects_phase_out_of_range(self):
        with pytest.raises(ValueError, match="pi"):
            plan_from_factors(n=2, m=2, factors=(), phases=np.array([0.0, 4.0]))

    def test_rejects_wrong_phase_count(self):
        with pytest.raises(ValueError):
            plan_from_factors(n=3, m=2, factors=(), phases=np.zeros(2))

    def test_rejects_oversized_factor(self):
        f = Factor(size=3, base_row=3, columns=(1, 2, 3), block=haar_random_unitary(3, 1))
        with pytest.raises(ValueError, match="size"):
            plan_from_factors(n=3, m=2, factors=(f,), phases=np.zeros(3))

    def test_rejects_base_row_beyond_n(self):
        f = Factor(size=2, base_row=5, columns=(1, 5), block=SWAP)
        with pytest.raises(ValueError, match="base row"):
            plan_from_factors(n=3, m=2, factors=(f,), phases=np.zeros(3))

    def test_rejects_count_beyond_bound(self):
        f = Factor(size=2, base_row=2, columns=(1, 2), block=SWAP)
        with pytest.raises(ValueError, match="bound"):
            plan_from_factors(n=2, m=2, factors=(f, f), phases=np.zeros(2))

    def test_rejects_m_out_of_range(self):
        with pytest.raises(ValueError):
            plan_from_factors(n=2, m=3, factors=(), phases=np.zeros(2))

    @pytest.mark.parametrize(
        "columns,message",
        [
            ([[0, 1]], r"columns must be a \(1, 3\) array"),
            ([[0, 1, 2]], "padded with -1"),
        ],
    )
    def test_rejects_columns_not_padded_to_m(self, columns, message):
        with pytest.raises(ValueError, match=message):
            DecompositionPlan(
                n=3, m=3, sizes=[2], base_rows=[2], columns=columns,
                blocks=SWAP.ravel(), phases=np.zeros(3),
            )


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
        f0 = plan.factors[0]
        tampered = (
            Factor(
                size=f0.size,
                base_row=f0.base_row,
                columns=f0.columns,
                block=np.eye(f0.size),
            ),
        ) + plan.factors[1:]
        bad = plan_from_factors(n=plan.n, m=plan.m, factors=tampered, phases=plan.phases)
        report = verify(bad, u)
        assert not report.passed
        assert report.fidelity < 1 - 1e-6

    def test_dimension_mismatch(self):
        plan = decompose(np.eye(3, dtype=complex), 2)
        with pytest.raises(ValueError, match="dimension"):
            verify(plan, np.eye(4))


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
        steps, _, _ = _schedule(n, m, _zero_pattern(u))
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
        steps, _, _ = _schedule(n, m, _zero_pattern(u))
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
