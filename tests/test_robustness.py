import math
import statistics
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.linalg
from scipy.special import hyp1f1

from multiport import robustness
from multiport.decomposition import _compose, decompose, reconstruct
from multiport.linalg import (
    _fidelities,
    _generator,
    _haar,
    _haar_stack,
    _segment_fidelities,
    haar_random_unitary,
)
from multiport.robustness import (
    _ESTIMATE_STREAM,
    _MATRIX_STREAM,
    _NOISE_STREAM,
    FidelityStats,
    _mean_block_fidelity,
    _offsets,
    _perturb,
    _perturbed_stack,
    _row_stats,
    _stats,
    calibrate_sigma,
    component_fidelity_estimate,
    fidelity,
    sweep_noise,
    sweep_size,
)


class TestFidelity:
    def test_self_fidelity_is_one(self):
        for n, seed in [(2, 0), (5, 1), (9, 2)]:
            q = haar_random_unitary(n, seed)
            assert fidelity(q, q) == pytest.approx(1.0, abs=1e-14)

    def test_global_phase_invariance(self):
        q = haar_random_unitary(4, 7)
        for theta in (0.3, -2.0, np.pi / 2):
            assert fidelity(q, np.exp(1j * theta) * q) == pytest.approx(1.0, abs=1e-12)
            assert fidelity(np.exp(1j * theta) * q, q) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_traces(self):
        assert fidelity(np.eye(2), np.diag([1.0, -1.0])) == pytest.approx(0.0, abs=1e-14)

    def test_half_overlap(self):
        # |(1+i)/2|^2 / 1 = 1/2, worked by hand
        assert fidelity(np.eye(2), np.diag([1.0, 1j])) == pytest.approx(0.5, abs=1e-14)

    def test_left_multiplication_invariance(self):
        rng = np.random.default_rng(3)
        for seed in range(5):
            q = haar_random_unitary(4, 10 + seed)
            p = q + 0.1 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
            v = haar_random_unitary(4, 20 + seed)
            assert fidelity(v @ q, v @ p) == pytest.approx(fidelity(q, p), abs=1e-12)

    def test_scaling_perturbed_argument_invariant(self):
        q = haar_random_unitary(3, 5)
        p = q + 0.05
        assert fidelity(q, 3.7 * p) == pytest.approx(fidelity(q, p), abs=1e-12)

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(
        st.integers(1, 8),
        st.integers(0, 2**32 - 1),
        st.floats(0.0, 1.0),
        st.floats(1e-3, 1e3),
        st.floats(-np.pi, np.pi),
        st.floats(-np.pi, np.pi),
    )
    def test_global_phase_and_scale_of_perturbed_argument(self, d, seed, noise, c, theta, phi):
        # scaling q is not an invariance (F scales by c**2), so only p is scaled
        q = haar_random_unitary(d, seed)
        rng = np.random.default_rng(seed)
        p = q + noise * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        base = fidelity(q, p)
        assert fidelity(q, c * np.exp(1j * theta) * p) == pytest.approx(base, abs=1e-12)
        assert fidelity(np.exp(1j * phi) * q, p) == pytest.approx(base, abs=1e-12)

    @pytest.mark.parametrize("exponent", [600, -600])
    def test_scaling_by_powers_of_two_is_exact_across_the_float_range(self, exponent):
        # the squares of p underflow to 0 or overflow to inf at these scales
        q = haar_random_unitary(3, 1)
        p = q + 0.1 * haar_random_unitary(3, 2)
        assert fidelity(q, 2.0**exponent * p) == fidelity(q, p)

    @pytest.mark.parametrize("scale", [1e200, 1e-200, 1e155, 1e-158, 1e-160, 1e-170])
    def test_scaling_invariant_across_the_float_range(self, scale):
        q = haar_random_unitary(3, 1)
        p = q + 0.1 * haar_random_unitary(3, 2)
        assert fidelity(q, scale * p) == pytest.approx(fidelity(q, p), rel=0, abs=1e-12)
        assert fidelity(q, scale * q) == pytest.approx(1.0, rel=0, abs=1e-12)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            fidelity(np.eye(2), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="perturbed matrix is identically zero"):
            fidelity(haar_random_unitary(3, 1), np.zeros((3, 3)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            fidelity(np.eye(2), np.eye(3))


class TestBatchedFidelity:
    @staticmethod
    def _stack(count=6, d=4, seed=9):
        rng = np.random.default_rng(seed)
        q = np.stack([haar_random_unitary(d, seed + k) for k in range(count)])
        noise = rng.standard_normal(q.shape) + 1j * rng.standard_normal(q.shape)
        return q, q + 0.2 * noise

    def test_equals_scalar_fidelity_on_a_stack(self):
        q, p = self._stack()
        batched = _fidelities(q, p)
        assert batched.shape == (len(q),)
        for k in range(len(q)):
            assert batched[k] == pytest.approx(fidelity(q[k], p[k]), abs=1e-14)

    def test_broadcasts_one_ideal_over_a_stack(self):
        q, p = self._stack()
        batched = _fidelities(q[0], p)
        for k in range(len(p)):
            assert batched[k] == pytest.approx(fidelity(q[0], p[k]), abs=1e-14)

    def test_global_phase_and_scale_invariance(self):
        q, p = self._stack()
        base = _fidelities(q, p)
        phases = np.exp(1j * np.linspace(-3.0, 3.0, len(q)))[:, None, None]
        scales = np.linspace(0.1, 7.0, len(q))[:, None, None]
        np.testing.assert_allclose(_fidelities(q, phases * scales * p), base, rtol=0, atol=1e-12)
        np.testing.assert_allclose(_fidelities(phases * q, p), base, rtol=0, atol=1e-12)

    def test_zero_slice_rejected(self):
        q, p = self._stack()
        p[2] = 0.0
        with pytest.raises(ValueError, match="zero"):
            _fidelities(q, p)


class TestStats:
    """``_stats`` against exact references: correctly rounded sums and exact variances."""

    @staticmethod
    def _reference(values):
        values = values.tolist()
        return statistics.fmean(values), statistics.stdev(values) / math.sqrt(len(values))

    def test_matches_exact_reference_near_one(self):
        # values packed at 1 - 1e-8 with spread 1e-10: a plain sum of
        # squares cancels to a standard error of 0 here
        rng = np.random.default_rng(0)
        values = 1.0 - 1e-8 + 1e-10 * rng.standard_normal(100_000)
        stats = _stats(values)
        mean, se = self._reference(values)
        assert stats.samples == values.size
        assert abs(stats.mean - mean) <= 4 * 2.0**-53
        assert stats.std_error == pytest.approx(se, rel=1e-9, abs=0)
        assert stats.std_error == pytest.approx(3.2e-13, rel=0.05, abs=0)

    def test_matches_exact_reference_on_a_spread(self):
        rng = np.random.default_rng(1)
        values = rng.uniform(0.2, 0.9, 5000)
        stats = _stats(values)
        mean, se = self._reference(values)
        assert stats.mean == pytest.approx(mean, rel=1e-15, abs=0)
        assert stats.std_error == pytest.approx(se, rel=1e-12, abs=0)

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 64), min_size=2, max_size=400))
    def test_matches_exact_reference_a_few_ulps_below_one(self, ulps):
        # values 1 - k * 2**-53 differ from each other by whole ulps, the
        # resolution at which any two-pass statistic can resolve them
        ulp = 2.0**-53
        values = 1.0 - np.array(ulps) * ulp
        stats = _stats(values)
        mean, se = self._reference(values)
        root_n = np.sqrt(values.size)
        assert stats.samples == values.size
        assert abs(stats.mean - mean) <= 8 * ulp
        assert abs(stats.std_error - se) * root_n <= 2 * ulp

    def test_single_sample(self):
        assert _stats(np.array([0.5])) == FidelityStats(mean=0.5, std_error=0.0, samples=1)

    @staticmethod
    def _one_row(values):
        """The two-pass statistic of one sample, one scalar reduction at a time."""
        mean = float(values.mean())
        count = values.size
        std_error = 0.0
        if count > 1:
            std_error = math.sqrt(float(np.square(values - mean).sum()) / (count - 1) / count)
        return FidelityStats(mean=mean, std_error=std_error, samples=count)

    @pytest.mark.parametrize("shape", [(1, 1), (3, 1), (4, 7), (2, 1000), (3, 12345)])
    def test_rows_equal_one_row_at_a_time(self, shape):
        rng = np.random.default_rng(shape[-1])
        for rows in [rng.uniform(0.2, 0.9, shape), 1.0 - 1e-12 * rng.random(shape)]:
            assert _row_stats(rows) == [self._one_row(row) for row in rows]
            assert _row_stats(rows) == [_stats(row) for row in rows]


@pytest.fixture(scope="module")
def sample_plan():
    u = haar_random_unitary(8, 77)
    return u, decompose(u, 3)


def _noise(seed, draws, size, key=()):
    """The ``(draws, size)`` offsets that stream ``key`` of ``seed`` draws for one matrix."""
    return _offsets(_generator(seed, *key), (draws, size))


def _drawn(blocks, sigma, seed, draws):
    """``draws`` joint perturbations of a flat block array: ``(draws, size)``."""
    return _perturb(blocks, sigma, _noise(seed, draws, blocks.size))


def _plan_stack(plan, sigma, seed, draws, key=()):
    """``_perturbed_stack`` on the arrays of one plan: one set of blocks, ``draws``
    draws, with its slices and block fidelities placed as ``(1, draws, ...)``."""
    rebuilt, block_fids, _, slices = _perturbed_stack(
        plan._layout, plan.blocks[np.newaxis], plan.phases[np.newaxis], [sigma],
        [_noise(seed, draws, plan.blocks.size, key)], draws,
    )
    return rebuilt[slices], block_fids[slices]


class TestPerturbBlocks:
    """The batched draw: one generator for all the joint perturbations of a mesh."""

    def test_sigma_zero_is_one_slice_of_ideal_blocks(self, sample_plan):
        _, plan = sample_plan
        rebuilt, block_fids, owner, slices = _perturbed_stack(
            plan._layout, plan.blocks[np.newaxis], plan.phases[np.newaxis], [0.0], [None], 3
        )
        assert rebuilt.shape == (1, 8, 8) and owner.tolist() == [0]
        assert slices.tolist() == [[0, 0, 0]]
        np.testing.assert_array_equal(rebuilt[0], reconstruct(plan))

    def test_deterministic_per_draw(self, sample_plan):
        _, plan = sample_plan
        blocks = plan.blocks
        a = _drawn(blocks, 0.2, 31, 2)
        b = _drawn(blocks, 0.2, 31, 2)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a[0], a[1])

    def test_seed_changes_draw(self, sample_plan):
        _, plan = sample_plan
        blocks = plan.blocks
        a = _drawn(blocks, 0.2, 31, 1)
        b = _drawn(blocks, 0.2, 32, 1)
        assert not np.array_equal(a, b)

    def test_slab_p_is_the_generators_draw_p(self, sample_plan):
        _, plan = sample_plan
        blocks = plan.blocks
        flat = _drawn(blocks, 0.2, 31, 4)
        rng = _generator(31)
        for p in range(4):
            pairs = rng.standard_normal((blocks.size, 2))
            np.testing.assert_array_equal(flat[p], blocks + 0.2 * (pairs[:, 0] + 1j * pairs[:, 1]))
        # a shorter run is a prefix of a longer one
        np.testing.assert_array_equal(_drawn(blocks, 0.2, 31, 2), flat[:2])

    def test_one_draw_serves_every_sigma(self, sample_plan):
        _, plan = sample_plan
        noise = _noise(31, 3, plan.blocks.size)
        for sigma in [1e-3, 0.2]:
            np.testing.assert_array_equal(
                _perturb(plan.blocks, sigma, noise), plan.blocks + sigma * noise
            )
            out = np.empty_like(noise)
            assert _perturb(plan.blocks, sigma, noise, out=out) is out
            np.testing.assert_array_equal(out, plan.blocks + sigma * noise)

    def test_first_slab_is_the_one_draw_stack(self, sample_plan):
        _, plan = sample_plan
        rebuilt, block_fids = _plan_stack(plan, 0.1, 40, 3)
        one, one_fids = _plan_stack(plan, 0.1, 40, 1)
        np.testing.assert_array_equal(rebuilt[:, :1], one)
        np.testing.assert_array_equal(block_fids[:, :1], one_fids)

    def test_offset_variance(self):
        # E ||block' - block||_F^2 = 2 m^2 sigma^2 = 0.18 for m=3, sigma=0.1
        q = haar_random_unitary(3, 12).ravel()
        draws = 10_000
        flat = _drawn(q, 0.1, 0, draws)
        sq = np.sum(np.abs(flat - q) ** 2, axis=1)
        se = sq.std(ddof=1) / np.sqrt(draws)
        assert abs(sq.mean() - 0.18) <= 3 * se

    def test_result_allows_non_unitary_block(self, sample_plan):
        _, plan = sample_plan
        rebuilt, block_fids = _plan_stack(plan, 0.3, 1, 2)
        assert rebuilt.shape == (1, 2, 8, 8)
        assert block_fids.shape == (1, 2, len(plan.sizes))
        assert np.isfinite(block_fids).all() and (block_fids < 1).all()

    @pytest.mark.parametrize("sigma", [-0.1, float("inf"), float("nan")])
    def test_rejects_bad_sigma(self, sigma):
        with pytest.raises(ValueError, match="sigma must be finite"):
            component_fidelity_estimate(2, sigma, 10, 0)
        with pytest.raises(ValueError, match="sigma must be finite"):
            sweep_noise(4, [2], [sigma], 1, 1, seed=0)

    def test_stack_slices_equal_single_reconstructions(self, sample_plan):
        _, plan = sample_plan
        rebuilt, _ = _plan_stack(plan, 0.1, 40, 3)
        flat = _drawn(plan.blocks, 0.1, 40, 3)
        for p in range(3):
            np.testing.assert_array_equal(rebuilt[0, p], _compose(plan._layout, flat[p], plan.phases))

    def test_block_fidelities_match_scalar_fidelity(self, sample_plan):
        _, plan = sample_plan
        flat = _drawn(plan.blocks, 0.2, 3, 2)
        (block_fids,) = _plan_stack(plan, 0.2, 3, 2)[1]
        starts = np.cumsum([0] + [s**2 for s in plan.sizes.tolist()])
        for p in range(2):
            # block fidelities come in factor order
            expected = [
                fidelity(block, flat[p, start : start + block.size].reshape(block.shape))
                for start, block in zip(starts, plan.factors)
            ]
            np.testing.assert_allclose(block_fids[p], expected, rtol=0, atol=1e-14)

    def test_zero_power_block_rejected(self, sample_plan):
        _, plan = sample_plan
        zeroed = plan.blocks.copy()
        zeroed[: plan.sizes[0] ** 2] = 0.0
        # a plan only holds unitary blocks, but the stack takes any blocks:
        # zero the first one, and its noise, so its draw is zero
        noise = _noise(0, 1, zeroed.size)
        noise[0, : plan.sizes[0] ** 2] = 0.0
        for sigma, offsets in [(0.0, None), (0.1, noise)]:
            with pytest.raises(ValueError, match="perturbed matrix is identically zero"):
                _perturbed_stack(
                    plan._layout, zeroed[np.newaxis], plan.phases[np.newaxis],
                    [sigma], [offsets], 1,
                )


def _block_diagonal(n, m, seed):
    """Haar blocks of 1 to m modes on the diagonal, its columns permuted."""
    rng = np.random.default_rng(seed)
    sizes = []
    while sum(sizes) < n:
        sizes.append(min(int(rng.integers(1, m + 1)), n - sum(sizes)))
    u = scipy.linalg.block_diag(*[haar_random_unitary(k, seed + k) for k in sizes])
    return u.astype(complex)[:, rng.permutation(n)]


class TestBlockScores:
    """A stack's block fidelities: one flat segment per factor, in factor order."""

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    @pytest.mark.parametrize("kind", ["haar", "permuted block-diagonal"])
    def test_match_scalar_fidelity_in_factor_order(self, kind, m):
        n = 13
        u = haar_random_unitary(n, 60 + m) if kind == "haar" else _block_diagonal(n, m, m)
        plan = decompose(u, m)
        if kind == "haar" and m > 2:
            assert len(set(plan.sizes.tolist())) > 1
        flat = _drawn(plan.blocks, 0.2, m, 3)
        (block_fids,) = _plan_stack(plan, 0.2, m, 3)[1]
        assert block_fids.shape == (3, len(plan.sizes))
        offsets = plan._layout.offsets.tolist()
        for p in range(3):
            for k, block in enumerate(plan.factors):
                perturbed = flat[p, offsets[k] : offsets[k + 1]].reshape(block.shape)
                assert abs(block_fids[p, k] - fidelity(block, perturbed)) <= 1e-14

    def test_plan_without_factors(self):
        plan = decompose(np.diag(np.exp(1j * np.arange(5.0))), 3)
        assert len(plan.sizes) == 0
        rebuilt, block_fids = _plan_stack(plan, 0.1, 4, 2)
        assert block_fids.shape == (1, 2, 0)
        np.testing.assert_array_equal(rebuilt[0, 1], reconstruct(plan))


class TestPerturbedStack:
    """One joint perturbation of a whole mesh: a one-draw stack of one plan."""

    def test_sigma_zero_bit_identical(self, sample_plan):
        _, plan = sample_plan
        rebuilt, _ = _plan_stack(plan, 0.0, 99, 1)
        np.testing.assert_array_equal(rebuilt[0, 0], reconstruct(plan))

    def test_deterministic(self, sample_plan):
        _, plan = sample_plan
        np.testing.assert_array_equal(
            _plan_stack(plan, 0.05, 123, 1)[0], _plan_stack(plan, 0.05, 123, 1)[0]
        )

    def test_tiny_noise_high_fidelity(self):
        u = haar_random_unitary(30, 41)
        rebuilt, _ = _plan_stack(decompose(u, 5), 1e-6, 7, 1)
        assert fidelity(u, rebuilt[0, 0]) > 0.999

    def test_large_noise_degrades(self, sample_plan):
        u, plan = sample_plan
        rebuilt, _ = _plan_stack(plan, 1.0, 7, 1)
        assert fidelity(u, rebuilt[0, 0]) < 0.5


class TestComponentFidelityEstimate:
    def test_sigma_zero(self):
        stats = component_fidelity_estimate(3, 0.0, 500, 1)
        assert stats.mean == pytest.approx(1.0, abs=1e-12)
        assert stats.std_error <= 1e-12
        assert stats.samples == 500

    def test_deterministic(self):
        a = component_fidelity_estimate(2, 0.1, 2000, 17)
        b = component_fidelity_estimate(2, 0.1, 2000, 17)
        assert a == b

    def test_chunking_invariant(self, monkeypatch):
        monkeypatch.setattr(robustness, "_ESTIMATE_CHUNK", 512)
        a = component_fidelity_estimate(2, 0.1, 5000, 3)
        monkeypatch.setattr(robustness, "_ESTIMATE_CHUNK", 5000)
        b = component_fidelity_estimate(2, 0.1, 5000, 3)
        assert a.mean == pytest.approx(b.mean, abs=1e-12)

    @pytest.mark.parametrize("m,sigma", [(2, 0.1), (3, 0.05), (5, 1e-8), (10, 0.3)])
    def test_draws_through_the_one_noise_path(self, m, sigma):
        # rebuilt from the documented streams, the two children numpy spawns
        # from the seed keyed by the estimate's stream tag: Haar draws on the
        # first, noise through ``_perturb`` on the second, in one chunk for
        # this many trials
        trials, seed = 1000, 23
        root = np.random.SeedSequence(seed, spawn_key=(_ESTIMATE_STREAM,))
        haar_rng, noise_rng = (np.random.default_rng(s) for s in root.spawn(2))
        q = _haar(haar_rng.standard_normal((trials, m, m, 2)))
        p = _perturb(q, sigma, _offsets(noise_rng, (trials, m, m)))
        assert component_fidelity_estimate(m, sigma, trials, seed) == _stats(_fidelities(q, p))

    def test_matches_independent_loop(self):
        # second route: a plain per-sample loop with its own stream
        m, sigma, trials = 3, 0.05, 20_000
        stats = component_fidelity_estimate(m, sigma, trials, 29)
        rng = np.random.default_rng(1729)
        vals = np.empty(trials)
        for k in range(trials):
            q = _haar(rng.standard_normal((m, m, 2)))
            p = q + sigma * (
                rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            )
            vals[k] = fidelity(q, p)
        se = np.hypot(stats.std_error, vals.std(ddof=1) / np.sqrt(trials))
        assert abs(stats.mean - vals.mean()) <= 3 * se

    def test_mean_non_increasing_in_sigma(self):
        ladder = [0.0, 0.02, 0.05, 0.1, 0.2]
        stats = [component_fidelity_estimate(3, s, 30_000, 8) for s in ladder]
        for a, b in zip(stats, stats[1:]):
            slack = 3 * np.hypot(a.std_error, b.std_error)
            assert b.mean <= a.mean + slack

    def test_single_sample_has_zero_stderr(self):
        stats = component_fidelity_estimate(2, 0.3, 1, 0)
        assert stats.samples == 1
        assert stats.std_error == 0.0

    def test_overflowing_block_is_reported_as_not_finite(self):
        with pytest.raises(ValueError, match="perturbed matrix is not finite"):
            component_fidelity_estimate(2, 1e308, 10, 1)

    def test_rejects_bad_trials(self):
        with pytest.raises(ValueError):
            component_fidelity_estimate(2, 0.1, 0, 0)

    @pytest.mark.parametrize("m", [0, -1])
    def test_rejects_bad_dimension(self, m):
        with pytest.raises(ValueError, match=f"dimension must be at least 1, got {m}"):
            component_fidelity_estimate(m, 0.1, 10, 0)


class TestMeanBlockFidelity:
    @pytest.mark.parametrize("m", [2, 3, 10])
    @pytest.mark.parametrize("sigma", [0.05, 0.15, 0.3])
    def test_matches_monte_carlo(self, m, sigma):
        stats = component_fidelity_estimate(m, sigma, 20_000, 100 * m + int(100 * sigma))
        assert abs(_mean_block_fidelity(m, sigma) - stats.mean) <= 3 * stats.std_error

    @pytest.mark.parametrize("m", [2, 3, 5, 10, 40])
    def test_limits(self, m):
        assert _mean_block_fidelity(m, 0.0) == 1.0
        assert _mean_block_fidelity(m, 1e6) == pytest.approx(1.0 / m**2, abs=1e-10)
        sigma = 1e-4
        small = 2 * (m * m - 1) * sigma**2 / m
        assert (1.0 - _mean_block_fidelity(m, sigma)) / small == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("m", [2, 3, 5, 7, 10])
    def test_strictly_decreasing(self, m):
        f = [_mean_block_fidelity(m, s) for s in np.geomspace(1e-7, 1e3, 200)]
        assert all(b < a for a, b in zip(f, f[1:]))

    @pytest.mark.parametrize("m", [2, 3, 5, 7, 10])
    def test_tail_sum_matches_hyp1f1(self, m):
        # small sigma takes the finite tail sum instead of the Poisson
        # mixture; up to c = 1e6 it agrees with scipy's 1F1 to scipy's
        # accuracy (the sum is the closer one to a 40-digit reference there)
        k = m * m
        for c in np.geomspace(2 * k + 41, 1e6, 25):
            sigma = np.sqrt(m / (2 * c))
            expected = 1.0 - (1.0 - 1.0 / k) * hyp1f1(1.0, k + 1.0, -c)
            assert _mean_block_fidelity(m, sigma) == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("m", [2, 3, 5, 7, 10, 20, 40])
    def test_poisson_mixture_matches_hyp1f1(self, m):
        # c <= 2k + 40 takes the Poisson mixture; scipy's 1F1 is the reference
        k = m * m
        bound = 1e-13 if m <= 10 else 2e-12
        for c in np.geomspace(1e-9, 2 * k + 40, 200):
            sigma = np.sqrt(m / (2 * c))
            c = m / (2.0 * sigma**2)  # the c the closed form sees
            expected = 1.0 - (1.0 - 1.0 / k) * hyp1f1(1.0, k + 1.0, -c)
            assert abs(_mean_block_fidelity(m, sigma) - expected) <= bound

    def test_finite_where_hyp1f1_fails(self):
        # scipy's 1F1(1; 26; -c) is NaN near c = 1e11
        m, c = 5, 1e11
        k = m * m
        one_minus = (1.0 - 1.0 / k) * (k / c) * (1.0 - (k - 1) / c)
        assert 1.0 - _mean_block_fidelity(m, np.sqrt(m / (2 * c))) == pytest.approx(
            one_minus, rel=1e-6, abs=0
        )


class TestCalibrateSigma:
    def test_target_one_gives_zero_sigma(self):
        result = calibrate_sigma(3, 1.0, 0.001)
        assert result.sigma == 0.0
        assert result.achieved == 1.0

    def test_hits_target(self):
        result = calibrate_sigma(2, 0.97, 0.002)
        assert result.achieved == _mean_block_fidelity(2, result.sigma)
        assert abs(result.achieved - 0.97) <= 1e-12
        assert 1 <= result.probes <= 30
        # fresh-seed Monte-Carlo re-estimate agrees with the calibrated point
        check = component_fidelity_estimate(2, result.sigma, 40_000, 9999)
        assert abs(check.mean - 0.97) <= 0.004

    @pytest.mark.parametrize("m", [2, 3, 5, 7, 10, 40])
    @pytest.mark.parametrize("offset", [1e-9, 1e-3, 0.5, -1e-3, -1e-9])
    def test_whole_range(self, m, offset):
        # offsets > 0 sit above the 1/m^2 floor, offsets < 0 below 1
        floor = 1.0 / m**2
        target = floor + offset if offset > 0 else 1.0 + offset
        result = calibrate_sigma(m, target, 1e-12)
        assert abs(result.achieved - target) <= 1e-12
        assert result.achieved == _mean_block_fidelity(m, result.sigma)
        assert result.probes <= 60

    def test_sigma_monotone_in_target(self):
        hard = calibrate_sigma(3, 0.90, 0.003)
        easy = calibrate_sigma(3, 0.95, 0.003)
        assert hard.sigma > easy.sigma

    def test_deterministic(self):
        assert calibrate_sigma(2, 0.95, 0.003) == calibrate_sigma(2, 0.95, 0.003)

    @pytest.mark.parametrize("target", [0.05, 0.25])
    def test_target_at_or_below_floor_raises(self, target):
        # for m=2 the mean fidelity falls toward 1/m^2 = 0.25 but never reaches it
        with pytest.raises(ValueError, match=r"1/m\^2"):
            calibrate_sigma(2, target, 0.001)

    @pytest.mark.parametrize("m,target", [(40, (1 + 1e-12) / 1600), (10, (1 + 1e-14) / 100)])
    def test_target_within_float_resolution_of_floor_raises(self, m, target):
        # F(sigma) - target is rounding noise there, so a root-find on it can
        # see equal signs at the bracket's ends or settle on any large sigma
        with pytest.raises(ValueError, match=r"float resolution of the 1/m\^2 floor"):
            calibrate_sigma(m, target, 1e-3)

    def test_tolerance_below_float_resolution_raises(self):
        with pytest.raises(ValueError, match="^tolerance 5e-324 is finer than the closed form"):
            calibrate_sigma(2, 0.9, 5e-324)

    def test_tolerance_is_a_postcondition(self):
        # a tolerance finer than float resolution either holds exactly or raises
        for target in np.linspace(0.3, 0.99, 24):
            try:
                result = calibrate_sigma(2, target, 1e-300)
            except ValueError as exc:
                assert "finer than the closed form resolves" in str(exc)
            else:
                assert result.achieved == target

    @pytest.mark.parametrize("target", [0.0, -0.5, 1.5, float("nan")])
    def test_rejects_bad_target(self, target):
        with pytest.raises(ValueError):
            calibrate_sigma(2, target, 0.001)

    @pytest.mark.parametrize("tolerance", [0.0, 1.0, float("nan")])
    def test_rejects_bad_tolerance(self, tolerance):
        with pytest.raises(ValueError):
            calibrate_sigma(2, 0.95, tolerance)

    def test_rejects_small_block(self):
        with pytest.raises(ValueError, match="block size"):
            calibrate_sigma(1, 0.95, 0.001)


def test_import_leaves_scipy_out(tmp_path):
    code = "import sys, multiport; assert 'scipy' not in sys.modules, sorted(sys.modules)"
    subprocess.run([sys.executable, "-c", code], check=True)
    # calibrated sweeps need no scipy either: with it blocked, every import
    # of it raises ImportError
    code = f"""
import sys
sys.modules["scipy"] = None
from multiport import calibrate_sigma, cli, sweep_size
for m in (2, 3, 5, 10, 40):
    assert abs(calibrate_sigma(m, 0.95, 1e-9).achieved - 0.95) <= 1e-9
assert len(sweep_size([2, 3], [3, 4], 0.9, 1e-3, 2, 2, 1)) == 4
assert cli.main([
    "sweep-size", "--m-list", "2,3", "--n-list", "3,5", "--target-fq", "0.95",
    "--fq-tol", "0.01", "--matrices", "2", "--perturbations", "2", "--seed", "1",
    "--out", {str(tmp_path / "size.csv")!r}, "--svg", {str(tmp_path / "size.svg")!r},
]) == 0
"""
    subprocess.run([sys.executable, "-c", code], check=True)
    assert (tmp_path / "size.svg").read_text().startswith("<svg")


class TestSweepNoise:
    def test_shape_and_order(self):
        res = sweep_noise(6, [3, 2], [0.05, 0.0], 2, 2, seed=50)
        assert [(r.m, r.sigma) for r in res] == [(3, 0.05), (3, 0.0), (2, 0.05), (2, 0.0)]
        for r in res:
            assert r.n == 6
            assert r.fu.samples == 4
            assert r.fq.samples >= r.fu.samples

    def test_sigma_zero_is_exact(self):
        res = sweep_noise(5, [2], [0.0], 3, 2, seed=3)
        (row,) = res
        assert row.fu.mean == pytest.approx(1.0, abs=1e-12)
        assert row.fu.std_error <= 1e-12
        assert row.fq.mean == pytest.approx(1.0, abs=1e-12)

    def test_deterministic(self):
        a = sweep_noise(6, [2, 3], [0.0, 0.1], 2, 3, seed=1234)
        b = sweep_noise(6, [2, 3], [0.0, 0.1], 2, 3, seed=1234)
        assert a == b

    def test_seed_matters(self):
        a = sweep_noise(6, [2], [0.1], 2, 3, seed=1)
        b = sweep_noise(6, [2], [0.1], 2, 3, seed=2)
        assert a != b

    def test_fq_pools_every_factor_draw(self):
        res = sweep_noise(5, [3], [0.1], 2, 3, seed=8)
        (row,) = res
        # every perturbation draw contributes one fidelity sample per factor
        expected = sum(
            3 * len(decompose(_haar_stack(5, [_generator(8, _MATRIX_STREAM, 0, t)])[0], 3).sizes)
            for t in range(2)
        )
        assert row.fq.samples == expected
        assert row.fu.samples == 2 * 3

    def test_validation(self):
        with pytest.raises(ValueError):
            sweep_noise(4, [], [0.1], 1, 1, seed=0)
        with pytest.raises(ValueError):
            sweep_noise(4, [2], [], 1, 1, seed=0)
        with pytest.raises(ValueError):
            sweep_noise(4, [5], [0.1], 1, 1, seed=0)
        with pytest.raises(ValueError):
            sweep_noise(4, [2], [-0.1], 1, 1, seed=0)
        with pytest.raises(ValueError):
            sweep_noise(4, [2], [0.1], 0, 1, seed=0)
        with pytest.raises(ValueError, match="^n_perturbations must be positive, got 0$"):
            sweep_noise(4, [2], [0.1], 1, 0, seed=0)

    @pytest.mark.parametrize("sigma", [1e100, 1e308])
    def test_overflowing_mesh_is_reported_as_not_finite(self, sigma):
        # at sigma = 1e100 the composed products overflow, at 1e308 the
        # perturbed blocks already do; the sweep names that, with no numpy
        # overflow warning and no failure later on non-finite statistics
        with pytest.raises(ValueError, match="perturbed matrix is not finite"):
            sweep_noise(5, [2], [sigma], 2, 2, 1)


class TestSweepSize:
    def test_skips_n_below_m(self):
        res = sweep_size([3], [2, 3, 5], 0.97, 0.005, 2, 2, seed=60)
        assert [r.n for r in res] == [3, 5]

    def test_n_equals_m_matches_block_statistic(self):
        res = sweep_size([3], [3], 0.95, 0.005, 4, 4, seed=61)
        (row,) = res
        # single-factor plans: the matrix fidelity IS the block fidelity
        assert row.fu.mean == pytest.approx(row.fq.mean, abs=1e-12)
        assert row.fu.samples == row.fq.samples

    def test_shared_sigma_across_sizes(self):
        res = sweep_size([2], [4, 6], 0.96, 0.005, 2, 2, seed=62)
        assert res[0].sigma == res[1].sigma > 0

    def test_deterministic(self):
        a = sweep_size([2], [4], 0.95, 0.005, 2, 2, seed=63)
        b = sweep_size([2], [4], 0.95, 0.005, 2, 2, seed=63)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            sweep_size([], [4], 0.95, 0.005, 1, 1, seed=0)
        with pytest.raises(ValueError):
            sweep_size([2], [], 0.95, 0.005, 1, 1, seed=0)
        with pytest.raises(ValueError):
            sweep_size([2], [4], 0.95, 0.005, 0, 1, seed=0)
        with pytest.raises(ValueError, match="target fidelity"):
            sweep_size([2], [4], 0.2, 0.005, 1, 1, seed=0)
        with pytest.raises(ValueError, match="^dimension must be at least 2, got 1$"):
            sweep_size([2], [1, 3], 0.95, 0.005, 1, 1, seed=0)

    @pytest.mark.parametrize(
        "m_list,n_grid,bad", [([3], [2], 3), ([2, 5], [2, 4], 5), ([1], [2, 4], 1)]
    )
    def test_rejects_m_without_some_n_at_least_m(self, m_list, n_grid, bad):
        with pytest.raises(ValueError, match=f"m={bad}"):
            sweep_size(m_list, n_grid, 0.95, 0.005, 1, 1, seed=0)


def _pooled(values):
    """Mean and standard error of the mean of a sample, as the sweeps report them."""
    values = np.asarray(values)
    return values.mean(), values.std(ddof=1) / np.sqrt(values.size), values.size


def _spawned(seed, *key):
    """numpy's generator for the seed sequence of ``seed`` with spawn key ``key``."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _documented_cell(n, m, sigma, n_matrices, n_perturbations, seed, key):
    """One sweep cell rebuilt from public per-matrix pieces and its documented streams.

    Matrix ``t`` is the Haar unitary ``_haar`` makes of the first draw of
    ``_spawned(seed, _MATRIX_STREAM, *key, t)``.  Its noise all comes from
    ``_spawned(seed, _NOISE_STREAM, *key, t)``, which draws ``(re, im)``
    offsets for ``plan.blocks`` in order, one perturbation after another;
    the first is the one-draw stack of the plan on that stream.
    """
    fq, fu = [], []
    for t in range(n_matrices):
        u = _haar(_spawned(seed, _MATRIX_STREAM, *key, t).standard_normal((n, n, 2)))
        plan = decompose(u, m)
        rng = _spawned(seed, _NOISE_STREAM, *key, t)
        for p in range(n_perturbations):
            offsets = rng.standard_normal((plan.blocks.size, 2))
            perturbed = plan.blocks + sigma * (offsets[:, 0] + 1j * offsets[:, 1])
            start = 0
            for block in plan.factors:
                stop = start + block.size
                fq.append(fidelity(block, perturbed[start:stop].reshape(block.shape)))
                start = stop
            rebuilt = _compose(plan._layout, perturbed, plan.phases)
            if p == 0:
                first, _ = _plan_stack(plan, sigma, seed, 1, (_NOISE_STREAM, *key, t))
                np.testing.assert_array_equal(rebuilt, first[0, 0])
            fu.append(fidelity(u, rebuilt))
    return _pooled(fq), _pooled(fu)


class TestSweepSeeding:
    """Sweeps match their documented streams, rebuilt one matrix and draw at a time."""

    @staticmethod
    def _check(result, expected):
        for stats, (mean, se, count) in zip((result.fq, result.fu), expected):
            assert stats.samples == count
            assert stats.mean == pytest.approx(mean, rel=0, abs=1e-14)
            assert stats.std_error == pytest.approx(se, rel=0, abs=1e-14)

    def test_sweep_noise(self):
        m_list, sigmas = [2, 3], [0.0, 0.1]
        results = sweep_noise(6, m_list, sigmas, 2, 3, seed=5)
        cells = [(mi, m, s) for mi, m in enumerate(m_list) for s in sigmas]
        assert len(results) == len(cells)
        for result, (mi, m, sigma) in zip(results, cells):
            assert (result.m, result.sigma) == (m, sigma)
            # every sigma of one m perturbs with the same draws
            self._check(result, _documented_cell(6, m, sigma, 2, 3, 5, (mi,)))

    def test_sweep_size(self):
        results = sweep_size([2], [3, 5], 0.95, 0.005, 2, 3, seed=4)
        sigma = calibrate_sigma(2, 0.95, 0.005).sigma
        assert [r.n for r in results] == [3, 5]
        for ni, result in enumerate(results):
            assert result.sigma == sigma
            self._check(result, _documented_cell(result.n, 2, sigma, 2, 3, 4, (0, ni)))


class TestStreams:
    """Distinct loops of the sweeps never share a stream, whatever the seed."""

    def test_a_high_seed_word_does_not_alias_a_key(self):
        # The first trial matrix of a noise sweep at seed 2**32 + 7 (key
        # (0,)) and of a size sweep at seed 7 (key (1, 0)): the seed's high
        # word must not read as the first index of a key.
        noise_first = _haar(_spawned(7 + 2**32, _MATRIX_STREAM, 0, 0).standard_normal((5, 5, 2)))
        size_first = _haar(_spawned(7, _MATRIX_STREAM, 1, 0, 0).standard_normal((5, 5, 2)))
        assert not np.array_equal(noise_first, size_first)


class TestSweepStacks:
    """The (sigma, matrix) pairs of a sweep are composed as bounded stacks."""

    @staticmethod
    def _sweeps():
        return (
            sweep_noise(7, [2, 3], [0.0, 0.05, 0.2], 3, 4, seed=11),
            sweep_size([2, 3], [3, 6], 0.9, 0.01, 3, 2, seed=12),
        )

    @staticmethod
    def _stack_sizes(monkeypatch):
        """The number of pairs in each stack composed from now on, as a live list."""
        stacked = []

        def spy(layout, blocks, phases, sigmas, offsets, draws):
            stacked.append(len(blocks))
            return _perturbed_stack(layout, blocks, phases, sigmas, offsets, draws)

        monkeypatch.setattr(robustness, "_perturbed_stack", spy)
        return stacked

    # A pair of the noise sweep holds 4 * (7 * 7 + 84) = 532 entries at m = 2
    # and 460 at m = 3; the size sweep's pairs hold 42, 192, 36 and 168.
    @pytest.mark.parametrize(
        "ceiling,pairs_per_stack",
        [
            (1, [1] * 30),
            (2**62, [9, 9, 3, 3, 3, 3]),  # every pair of one m (noise) or one cell (size)
            (2 * 532, [2, 2, 2, 2, 1] * 2 + [3] * 4),  # exactly two m = 2 pairs fit
            (2 * 532 - 1, [1] * 9 + [2, 2, 2, 2, 1] + [3] * 4),
            (532 - 1, [1] * 18 + [3, 2, 1, 3, 3]),
        ],
    )
    def test_results_do_not_depend_on_the_ceiling(self, monkeypatch, ceiling, pairs_per_stack):
        default = self._sweeps()
        monkeypatch.setattr(robustness, "_STACK_ENTRIES", ceiling)
        stacked = self._stack_sizes(monkeypatch)
        assert self._sweeps() == default
        assert stacked == pairs_per_stack

    def test_default_ceiling_stacks_small_sweeps_whole(self, monkeypatch):
        stacked = self._stack_sizes(monkeypatch)
        sweep_noise(20, [2, 3, 5, 10], [0.0, 0.05, 0.1, 0.2], 2, 5, seed=1)
        assert stacked == [8, 8, 8, 8]

    @staticmethod
    def _reference_sweep(n, m_list, sigmas, n_matrices, draws, seed):
        """``sweep_noise`` with every draw composed and scored alone, the P
        equal draws of a sigma = 0 pair included, pooled in the sweep's
        order; each matrix's noise is drawn once and serves every sigma."""
        results = []
        for mi, m in enumerate(m_list):
            us = [
                _haar_stack(n, [_generator(seed, _MATRIX_STREAM, mi, t)])[0]
                for t in range(n_matrices)
            ]
            plans = [decompose(u, m) for u in us]
            noises = [
                _noise(seed, draws, plan.blocks.size, (_NOISE_STREAM, mi, t))
                for t, plan in enumerate(plans)
            ]
            for sigma in sigmas:
                fq, fu = [], []
                for u, plan, noise in zip(us, plans, noises):
                    layout = plan._layout
                    drawn = _perturb(plan.blocks, sigma, noise) if sigma else [plan.blocks] * draws
                    for blocks in drawn:
                        rebuilt = _compose(layout, blocks, plan.phases)
                        fu.append(_fidelities(u, rebuilt))
                        fq.append(_segment_fidelities(
                            plan.blocks, blocks, layout.offsets[:-1], layout.sizes
                        ))
                results.append(robustness.SweepResult(
                    n=n, m=m, sigma=sigma,
                    fq=_stats(np.concatenate(fq)), fu=_stats(np.array(fu)),
                ))
        return results

    @pytest.mark.parametrize("ceiling", [None, 1])
    @pytest.mark.parametrize(
        "sigmas", [[0.0], [0.0, 0.1], [0.1, 0.0, 0.2], [0.05, 0.0]]
    )
    def test_sigma_zero_pairs_compose_once(self, monkeypatch, sigmas, ceiling):
        n, m_list, n_matrices, draws, seed = 7, [2, 3], 3, 4, 17
        expected = self._reference_sweep(n, m_list, sigmas, n_matrices, draws, seed)
        if ceiling is not None:
            monkeypatch.setattr(robustness, "_STACK_ENTRIES", ceiling)
        composed = []

        def spy(layout, blocks, phases):
            composed.append(math.prod(blocks.shape[:-1]))
            return _compose(layout, blocks, phases)

        monkeypatch.setattr(robustness, "_compose", spy)
        results = sweep_noise(n, m_list, sigmas, n_matrices, draws, seed)
        assert results == expected
        # a sigma = 0 pair is one slice of the composed stack, any other P
        assert sum(composed) == len(m_list) * n_matrices * sum(
            draws if sigma else 1 for sigma in sigmas
        )
        assert all(r.fu.samples == n_matrices * draws for r in results)


class TestSharedNoise:
    """One noise draw per trial matrix serves the whole sigma grid."""

    @pytest.mark.parametrize("ceiling", [None, 1, 2 * 532])
    def test_one_draw_per_block_size_and_matrix(self, monkeypatch, ceiling):
        if ceiling is not None:
            monkeypatch.setattr(robustness, "_STACK_ENTRIES", ceiling)
        shapes = []

        def spy(rng, shape):
            shapes.append(shape)
            return _offsets(rng, shape)

        monkeypatch.setattr(robustness, "_offsets", spy)
        # a sigma = 0 cell between two noisy ones: at the smallest ceiling a
        # matrix's noisy pairs sit in stacks that are not adjacent
        sweep_noise(7, [2, 3], [0.05, 0.0, 0.2, 0.1], 3, 4, seed=2)
        entries = [4 * len(decompose(haar_random_unitary(7, 1), 2).sizes)]
        assert len(shapes) == 2 * 3
        assert [shape[0] for shape in shapes] == [4] * 6
        assert [shape[1] for shape in shapes[:3]] == entries * 3

    def test_no_draw_at_sigma_zero(self, monkeypatch):
        monkeypatch.setattr(robustness, "_offsets", None)  # any draw fails
        results = sweep_noise(6, [2, 3], [0.0, 0.0], 2, 3, seed=1)
        assert [r.fu.samples for r in results] == [6] * 4
        assert results[0] == results[1] and results[2] == results[3]

    def test_sigma_listed_twice_gives_equal_cells(self):
        a, zero, b = sweep_noise(7, [3], [0.1, 0.0, 0.1], 2, 3, seed=9)
        assert a == b and zero != a
        assert sweep_noise(7, [3], [0.1, 0.1], 2, 3, seed=9) == [a, a]

    def test_results_do_not_depend_on_the_ceiling_at_n_100(self, monkeypatch):
        # 100 x 100 matrices hold more entries than numpy's iterator buffer;
        # the two ceilings stack one and two (sigma, matrix) pairs
        results = []
        for ceiling in (2**16, 2**18):
            monkeypatch.setattr(robustness, "_STACK_ENTRIES", ceiling)
            results.append(sweep_noise(100, [2, 3], [0, 1e-3], 2, 3, 1))
        assert results[0] == results[1]


class TestIntegerSizes:
    """Sizes, counts and seeds must be integers; numpy integers are accepted."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: calibrate_sigma(2.9, 0.9, 0.01),
            lambda: component_fidelity_estimate(2.0, 0.1, 10, 0),
            lambda: component_fidelity_estimate(2, 0.1, 10.0, 0),
            lambda: sweep_noise(5.0, [2], [0.1], 1, 1, seed=0),
            lambda: sweep_noise(5, [2.5], [0.1], 1, 1, seed=0),
            lambda: sweep_noise(5, [2], [0.1], 1.0, 1, seed=0),
            lambda: sweep_noise(5, [2], [0.1], 1, 1.5, seed=0),
            lambda: sweep_size([2.0], [4], 0.95, 0.005, 1, 1, seed=0),
            lambda: sweep_size([2], [4.0], 0.95, 0.005, 1, 1, seed=0),
            lambda: sweep_noise(4, [2], [0.1], 1, 1, seed=7.9),
            lambda: sweep_size([2], [4], 0.95, 0.005, 1, 1, seed=7.0),
            lambda: component_fidelity_estimate(2, 0.1, 10, 3.5),
        ],
    )
    def test_rejects_floats(self, call):
        with pytest.raises(TypeError):
            call()

    def test_accepts_numpy_integers(self):
        i = np.int64
        assert calibrate_sigma(i(3), 0.9, 0.01) == calibrate_sigma(3, 0.9, 0.01)
        assert component_fidelity_estimate(i(2), 0.1, i(50), 0) == component_fidelity_estimate(
            2, 0.1, 50, 0
        )
        assert sweep_noise(i(5), [i(2)], [0.1], i(2), i(2), seed=0) == sweep_noise(
            5, [2], [0.1], 2, 2, seed=0
        )
        assert sweep_size([i(2)], [i(4)], 0.95, 0.005, i(2), i(2), seed=0) == sweep_size(
            [2], [4], 0.95, 0.005, 2, 2, seed=0
        )

    def test_accepts_numpy_integer_seeds(self):
        i = np.int64
        assert sweep_noise(4, [2], [0.1], 1, 1, seed=i(7)) == sweep_noise(4, [2], [0.1], 1, 1, seed=7)
        assert component_fidelity_estimate(2, 0.1, 50, i(3)) == component_fidelity_estimate(
            2, 0.1, 50, 3
        )


class TestFidelityStats:
    def test_rejects_nonpositive_samples(self):
        with pytest.raises(ValueError):
            FidelityStats(mean=1.0, std_error=0.0, samples=0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            FidelityStats(mean=np.nan, std_error=0.0, samples=3)
