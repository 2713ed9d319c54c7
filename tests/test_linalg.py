import numpy as np
import pytest

import multiport as mp
from multiport import linalg
from multiport.decomposition import cost_compare
from multiport.linalg import (
    _fidelities,
    _generator,
    _haar,
    _haar_stack,
    _rotations,
    _rq_unitaries,
    _segment_fidelities,
    _to_float,
    as_matrix,
    haar_random_unitary,
)

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def rotation(a):
    """The sweep's 2 x 2 kernel on a ``(..., 2, 2)`` stack: ``_rotations`` of its bottom rows."""
    q = np.empty(a.shape, dtype=complex)
    _rotations(a[..., 1, :], q)
    return q


def unitarity_defect(a):
    """``max|A^dag A - I|`` of a square matrix."""
    return np.abs(a.conj().T @ a - np.eye(len(a))).max()


class TestToFloat:
    """A number past the float range reads as the infinity of its sign."""

    @pytest.mark.parametrize("value, expected", [
        (10**400, np.inf), (-10**400, -np.inf), (3, 3.0), (-0.0, -0.0), (np.int64(-2), -2.0),
    ])
    def test_values(self, value, expected):
        assert repr(_to_float(value)) == repr(expected)

    @pytest.mark.parametrize("big", [10**400, -10**400], ids=["huge", "-huge"])
    @pytest.mark.parametrize("call", [
        lambda x: mp.sweep_noise(4, [2], [x], 1, 1, seed=0),
        lambda x: mp.component_fidelity_estimate(2, x, 4, 0),
        lambda x: mp.calibrate_sigma(2, x, 1e-3),
        lambda x: mp.calibrate_sigma(2, 0.9, x),
        lambda x: mp.verify(mp.decompose(np.eye(2), 2), np.eye(2), tol=x),
        lambda x: cost_compare(4, 3, x, 1.0),
    ], ids=["sweep-sigma", "estimate-sigma", "target", "tolerance", "verify-tol", "cost"])
    def test_range_checks_report_huge_integers(self, call, big):
        with pytest.raises(ValueError):
            call(big)


class TestAsMatrix:
    def test_passthrough_complex(self):
        a = np.eye(3, dtype=np.complex128)
        assert as_matrix(a) is a

    def test_casts_real(self):
        out = as_matrix(np.eye(2))
        assert out.dtype == np.complex128

    @pytest.mark.parametrize("bad", [np.zeros(3), np.zeros((2, 2, 2)), 1.0])
    def test_rejects_wrong_ndim(self, bad):
        with pytest.raises(ValueError):
            as_matrix(bad)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            as_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            as_matrix(np.array([[np.inf + 0j, 0.0], [0.0, 1.0]]))

    def test_rejects_nonsquare_when_required(self):
        with pytest.raises(ValueError):
            as_matrix(np.zeros((2, 3)), square=True)


class TestHaarRandomUnitary:
    def test_single_phase_for_n_one(self):
        u = haar_random_unitary(1, 5)
        assert u.shape == (1, 1)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    def test_determinism(self):
        np.testing.assert_array_equal(
            haar_random_unitary(7, 123), haar_random_unitary(7, 123)
        )

    def test_seeds_differ(self):
        assert not np.array_equal(
            haar_random_unitary(7, 123), haar_random_unitary(7, 124)
        )

    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_samples_are_unitary(self, n):
        assert unitarity_defect(haar_random_unitary(n, n)) < 1e-12

    def test_rejects_zero_dimension(self):
        with pytest.raises(ValueError):
            haar_random_unitary(0, 1)

    def test_corner_entry_moment(self):
        # Haar columns are uniform on the sphere: E|u11|^2 = 1/n.
        n, trials = 16, 10_000
        vals = np.empty(trials)
        for s in range(trials):
            vals[s] = abs(haar_random_unitary(n, s)[0, 0]) ** 2
        se = vals.std(ddof=1) / np.sqrt(trials)
        assert abs(vals.mean() - 1.0 / n) <= 3 * se

    def test_trace_second_moment(self):
        # E |tr U|^2 = 1 for Haar on U(n); a naive QR sampler without the
        # phase correction fails this badly.
        rng = np.random.default_rng(9)
        q = _haar(rng.standard_normal((20_000, 3, 3, 2)))
        vals = np.abs(np.trace(q, axis1=-2, axis2=-1)) ** 2
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(vals.mean() - 1.0) <= 4 * se

    def test_batched_matches_distribution_contract(self):
        rng = np.random.default_rng(4)
        batch = _haar(rng.standard_normal((10, 4, 4, 2)))
        assert batch.shape == (10, 4, 4)
        for k in range(10):
            assert unitarity_defect(batch[k]) < 1e-12

    def test_rejects_non_integer_sizes(self):
        with pytest.raises(TypeError):
            haar_random_unitary(4.0, 1)

    @pytest.mark.parametrize("seed", [1.9, 1.0])
    def test_rejects_non_integer_seed(self, seed):
        with pytest.raises(TypeError):
            haar_random_unitary(4, seed)

    def test_accepts_numpy_integer_sizes(self):
        np.testing.assert_array_equal(haar_random_unitary(np.int64(4), 1), haar_random_unitary(4, 1))
        np.testing.assert_array_equal(haar_random_unitary(4, np.int64(1)), haar_random_unitary(4, 1))


class TestGenerator:
    """Every stream is numpy's spawn-key child of the seed modulo 2**64."""

    SEEDS = [0, 1, 2**32 + 7, 2**64 + 5, -1]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_empty_key_is_the_plain_seeded_generator(self, seed):
        expected = np.random.default_rng(seed % 2**64).standard_normal(16)
        assert _generator(seed).standard_normal(16).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_key_is_the_spawn_key(self, seed):
        expected = np.random.default_rng(np.random.SeedSequence(seed % 2**64, spawn_key=(4, 1)))
        assert _generator(seed, 4, 1).random(8).tobytes() == expected.random(8).tobytes()

    @pytest.mark.parametrize(
        "a, b",
        [
            # trailing zero words of a key still name another stream
            ((7, 1, 0, 0), (7, 1)),
            # a seed's high word does not spill into the key
            ((2**32 + 7, 1, 0, 0), (7, 1, 1, 0, 0)),
        ],
    )
    def test_distinct_keys_give_distinct_streams(self, a, b):
        assert _generator(*a).random(4).tobytes() != _generator(*b).random(4).tobytes()


class TestHaarStack:
    """One stacked QR for Haar draws, each matrix from its own generator."""

    def test_equals_one_matrix_at_a_time(self):
        for n in range(2, 65):
            for count in range(1, 6):
                seeds = [n * 1000 + 7 * t - 3 for t in range(count)]
                stack = _haar_stack(n, [_generator(seed) for seed in seeds])
                assert stack.shape == (count, n, n)
                for matrix, seed in zip(stack, seeds):
                    # the construction ``_haar`` documents, one matrix at a time
                    rng = np.random.default_rng(np.random.SeedSequence(seed))
                    alone = _haar(rng.standard_normal((n, n, 2)))
                    assert matrix.tobytes() == alone.tobytes(), (n, count)
                    assert matrix.tobytes() == haar_random_unitary(n, seed).tobytes()

    def test_seeds_wrap_like_haar_random_unitary(self):
        stack = _haar_stack(3, [_generator(seed) for seed in [-1, 2**64 + 5, np.int64(4)]])
        for matrix, seed in zip(stack, [2**64 - 1, 5, 4]):
            np.testing.assert_array_equal(matrix, haar_random_unitary(3, seed))

    def test_rejects_zero_dimension(self):
        with pytest.raises(ValueError):
            _haar_stack(0, [_generator(1)])


class TestFlatFidelities:
    """Overlaps and powers are segment sums: no value depends on its neighbours."""

    @staticmethod
    def _pair(shape, seed):
        rng = np.random.default_rng(seed)
        return tuple(rng.standard_normal(shape + (2,)).view(complex)[..., 0] for _ in range(2))

    def test_matrix_sums_do_not_depend_on_the_stack(self):
        # 100 x 100 matrices hold more entries than numpy's iterator buffer
        a, b = self._pair((7, 100, 100), 3)
        fids = _fidelities(a, b)
        for t in range(7):
            assert fids[t].tobytes() == _fidelities(a[t : t + 1], b[t : t + 1])[0].tobytes()

    def test_segments_score_like_their_matrices_alone(self):
        sizes = np.array([3, 1, 2, 4, 2])
        starts = np.cumsum(sizes**2) - sizes**2
        q, p = self._pair((5, int(sizes @ sizes)), 8)
        fids = _segment_fidelities(q, p, starts, sizes)
        assert fids.shape == (5, len(sizes))
        for row in range(5):
            for k, (start, s) in enumerate(zip(starts.tolist(), sizes.tolist())):
                alone = _fidelities(
                    q[row, start : start + s * s].reshape(s, s),
                    p[row, start : start + s * s].reshape(s, s),
                )
                assert fids[row, k].tobytes() == alone.tobytes()

    def test_broadcasts_the_ideal_rows(self):
        q, p = self._pair((4, 9), 5)
        np.testing.assert_array_equal(
            _segment_fidelities(q[0], p, [0], 3),
            _segment_fidelities(np.tile(q[0], (4, 1)), p, [0], 3),
        )

    def test_no_segments(self):
        empty = np.zeros((3, 0), dtype=complex)
        assert _segment_fidelities(empty, empty, [], []).shape == (3, 0)

    def test_zero_power_segment_rejected(self):
        q, p = self._pair((2, 5), 1)
        p[1, 4] = 0.0
        with pytest.raises(ValueError, match="perturbed matrix is identically zero"):
            _segment_fidelities(q, p, [0, 4], [2, 1])

    def test_rescaled_segments_leave_their_neighbours_bits(self):
        # Segments whose squares underflow or overflow are scored at an
        # exact power-of-two scale, as the unscaled segment scores; the
        # other segments of their rows keep the bits they have alone.
        sizes = np.array([3, 1, 2, 4, 2])
        starts = np.cumsum(sizes**2) - sizes**2
        q, p = self._pair((3, int(sizes @ sizes)), 12)
        base = _segment_fidelities(q, p, starts, sizes)
        scaled = p.copy()
        for row, k, exponent in [(0, 1, 600), (1, 3, -600), (2, 0, 700), (2, 4, -700)]:
            scaled[row, starts[k] : starts[k] + sizes[k] ** 2] *= 2.0**exponent
        assert _segment_fidelities(q, scaled, starts, sizes).tobytes() == base.tobytes()

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0, np.inf)])
    def test_non_finite_segment_rejected(self, bad):
        q, p = self._pair((2, 5), 1)
        p[1, 1] = bad
        with pytest.raises(ValueError, match="perturbed matrix is not finite"):
            _segment_fidelities(q, p, [0, 4], [2, 1])


class TestRQDecompose:
    """``_rq_unitaries(a)`` is a unitary ``q`` with ``a @ q`` upper triangular,
    and so is ``rotation(a)`` for the 2 x 2 blocks the sweep hands to ``_rotations``."""

    def test_identity(self):
        a = np.eye(4, dtype=complex)
        q = _rq_unitaries(a)
        assert unitarity_defect(q) <= 1e-12
        assert np.abs(np.tril(a @ q, -1)).max() <= 1e-14

    def test_already_upper_triangular(self):
        a = np.array([[1.0, 2.0, 3.0], [0.0, 4.0, 5.0], [0.0, 0.0, 6.0]], dtype=complex)
        q = _rq_unitaries(a)
        assert unitarity_defect(q) <= 1e-12
        assert np.abs(np.tril(a @ q, -1)).max() <= 1e-12

    def test_random_unitary(self):
        a = haar_random_unitary(3, 17)
        q = _rq_unitaries(a)
        prod = a @ q
        assert np.abs(np.tril(prod, -1)).max() < 1e-12
        assert unitarity_defect(q) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_contract_on_general_matrices(self, n):
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q = (rotation if n == 2 else _rq_unitaries)(a)
        scale = np.abs(a).max()
        assert unitarity_defect(q) <= 1e-12 * max(n, 1)
        assert np.abs(np.tril(a @ q, -1)).max(initial=0.0) <= 1e-12 * scale

    def test_two_by_two_maps_bottom_row_onto_diagonal(self):
        # the closed-form rotation sends (x, y) to (0, |(x, y)|)
        a = np.array([[0.5, 2.0 - 1j], [3.0 + 4.0j, 0.0]])
        prod = a @ rotation(a)
        assert abs(prod[1, 0]) <= 1e-15
        assert prod[1, 1] == pytest.approx(5.0, abs=1e-15)

    def test_two_by_two_single_entry_bottom_row_gives_exact_swap(self):
        a = np.array([[0.3, 0.0], [0.6 - 0.8j, 0.0]])
        q = rotation(a)
        assert q[0, 0] == 0.0 and q[1, 1] == 0.0
        assert abs(q[0, 1]) == pytest.approx(1.0, abs=1e-15)
        prod = a @ q
        assert prod[0, 1] != 0.0 and prod[0, 0] == 0.0

    @pytest.mark.parametrize("top", [[0.0, 0.0], [1.0, -2.0j]])
    def test_two_by_two_zero_bottom_row_gives_identity(self, top):
        a = np.array([top, [0.0, 0.0]], dtype=complex)
        q = rotation(a)
        np.testing.assert_array_equal(q, np.eye(2))
        np.testing.assert_array_equal(a @ q, a)

    @pytest.mark.parametrize("bottom", [[3e-310, 4e-310j], [5e-324, 0.0], [0.0, -1e-320]])
    def test_two_by_two_subnormal_bottom_row(self, bottom):
        # 1/rho overflows for a subnormal rho; the row is rescaled instead
        a = np.array([[1.0, 2.0 - 1j], bottom], dtype=complex)
        q = rotation(np.stack([a, SWAP]))
        assert unitarity_defect(q[0]) <= 1e-15
        prod = a @ q[0]
        assert abs(prod[1, 0]) <= 1e-15 and abs(prod[1, 1]) == np.hypot(*np.abs(bottom))
        # a normal row of the same stack gets the rotation it gets alone
        np.testing.assert_array_equal(q[1], rotation(SWAP))

    def test_two_by_two_subnormal_row_beside_a_huge_one(self):
        # Only the subnormal row is rescaled, so the other row's 1e300 entry
        # is never scaled by 2**600 (an overflow warning, an error here).
        a = np.array([[[1, 2], [1e-320, 0]], [[1, 2], [1e300, 3]]], dtype=complex)
        q = rotation(a)
        for k in range(2):
            assert q[k].tobytes() == rotation(a[k]).tobytes()
            assert unitarity_defect(q[k]) <= 1e-15
        assert (a[1] @ q[1])[1, 1] == np.hypot(1e300, 3)

    @pytest.mark.parametrize(
        "bottom",
        [[1.0, -0.0], [-0.0, 1.0], [1 - 0j, complex(-0.0, -0.0)],
         [complex(-0.0, -0.0), complex(-0.0, -0.0)], [0.6 - 0j, 0.8 - 0j]],
    )
    def test_two_by_two_signed_zeros(self, bottom):
        # q[0, 0] = y never holds a -0 part, and q[1, 1] is exactly its
        # conjugate, so only its imaginary part can be -0.
        a = np.array([[1.0, 2.0], bottom], dtype=complex)
        q = rotation(a)
        parts = np.array([q[0, 0].real, q[0, 0].imag, q[1, 1].real])
        assert not np.signbit(parts[parts == 0.0]).any()
        assert q[1, 1].tobytes() == np.conj(q[0, 0]).tobytes()

    def test_rotations_written_in_place_match_the_returned_q(self):
        # The sweep hands the kernel only the bottom rows of a layer group,
        # taken from its working matrices, and a strided slice of its block
        # listing to write into; that must hold the bytes a fresh array gets
        # for the whole blocks, and nothing else may change.
        nz = complex(-0.0, -0.0)
        rows = [
            [0.0, 0.0], [nz, nz], [nz, 0.0],  # zero rows: q = I
            [3e-310, 4e-310j], [5e-324, 0.0], [0.0, -1e-320], [1e-320 - 2e-320j, 0.5],
            [0.6 - 0.8j, 0.0], [-2.0, nz], [complex(0.0, -0.0), 1.0],  # (x, 0) and (0, y)
            [1.0, -0.0], [-0.0, 1.0], [1 - 0j, nz], [0.6 - 0j, 0.8 - 0j], [1e300, 3.0],
        ]
        rng = np.random.default_rng(5)
        bottoms = np.array(rows + list(rng.standard_normal((5, 2, 2)).view(complex)[..., 0]))
        bottoms = bottoms.reshape(2, -1, 2)  # two stacks of bottom rows
        k_max = bottoms.shape[1]
        expected = np.empty((2, k_max, 2, 2), dtype=complex)
        _rotations(bottoms, expected)
        listing = np.full((2, k_max + 3, 2, 2), np.nan, dtype=complex)
        kept = bottoms.copy()
        _rotations(bottoms, listing[:, 1:-2])
        assert listing[:, 1:-2].tobytes() == expected.tobytes()
        assert np.isnan(listing[:, [0, -2, -1]]).all()
        assert bottoms.tobytes() == kept.tobytes()
        for k in range(k_max):  # each matrix as it would be alone
            alone = np.empty((2, 2), dtype=complex)
            _rotations(bottoms[1, k], alone)
            assert alone.tobytes() == expected[1, k].tobytes()

    @pytest.mark.parametrize("s", [1, 3, 4, 5, 8])
    def test_qr_fallback_gives_the_same_q(self, monkeypatch, s):
        # Should a numpy rename its private LAPACK gufuncs, the kernel
        # calls ``np.linalg.qr``, which runs the same LAPACK calls.
        rng = np.random.default_rng(s)
        stacks = [rng.standard_normal((k, s, s, 2)).view(complex)[..., 0] for k in (1, 7, 40)]
        stacks.append(haar_random_unitary(s, s))
        direct = [_rq_unitaries(a) for a in stacks]
        monkeypatch.setattr(linalg, "_QR_GUFUNCS", None)
        for a, q in zip(stacks, direct):
            assert _rq_unitaries(a).tobytes() == q.tobytes()

    def test_kernel_leaves_its_input_alone(self):
        a = haar_random_unitary(4, 3)[np.newaxis]
        kept = a.copy()
        _rq_unitaries(a)
        assert a.tobytes() == kept.tobytes()
