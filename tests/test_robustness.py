import itertools
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import hyp1f1

from multiport import robustness
from multiport.decomposition import decompose, reconstruct
from multiport.linalg import haar_random_unitary, sample_haar
from multiport.robustness import (
    FidelityStats,
    NoiseModel,
    _fidelities,
    _mean_block_fidelity,
    _perturb_blocks,
    _perturbed_stack,
    _RunningMean,
    calibrate_sigma,
    component_fidelity_estimate,
    fidelity,
    reconstruct_perturbed,
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

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            fidelity(np.eye(2), np.zeros((2, 2)))

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


class TestRunningMean:
    @staticmethod
    def _reference(values):
        return values.mean(), values.std(ddof=1) / np.sqrt(values.size)

    @pytest.mark.parametrize("chunk", [1, 7, 4096, 100_000])
    def test_matches_numpy_near_one(self, chunk):
        # values packed at 1 - 1e-8 with spread 1e-10: a plain sum of
        # squares cancels to a standard error of 0 here
        rng = np.random.default_rng(0)
        values = 1.0 - 1e-8 + 1e-10 * rng.standard_normal(100_000)
        acc = _RunningMean()
        for start in range(0, values.size, chunk):
            acc.add(values[start : start + chunk])
        mean, se = self._reference(values)
        stats = acc.stats()
        assert stats.samples == values.size
        # one-at-a-time updates round the mean by a few ulps per step, far
        # below its standard error
        assert abs(stats.mean - mean) <= 0.05 * se
        assert stats.std_error == pytest.approx(se, rel=1e-6)
        assert stats.std_error == pytest.approx(3.2e-13, rel=0.05)

    def test_uneven_chunks_match_numpy(self):
        rng = np.random.default_rng(1)
        values = rng.uniform(0.2, 0.9, 5000)
        acc = _RunningMean()
        for part in np.split(values, [1, 2, 50, 51, 3000]):
            acc.add(part)
        acc.add([])
        mean, se = self._reference(values)
        assert acc.stats().mean == pytest.approx(mean, rel=1e-14)
        assert acc.stats().std_error == pytest.approx(se, rel=1e-12)

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(0, 64), min_size=2, max_size=400),
        st.lists(st.integers(1, 60), min_size=1, max_size=20),
    )
    def test_matches_numpy_a_few_ulps_below_one(self, ulps, chunks):
        # values 1 - k * 2**-53 differ from each other by whole ulps, the
        # resolution at which any two-pass statistic can resolve them
        ulp = 2.0**-53
        values = 1.0 - np.array(ulps) * ulp
        acc = _RunningMean()
        start = 0
        for size in itertools.cycle(chunks):
            if start >= values.size:
                break
            acc.add(values[start : start + size])
            start += size
        stats = acc.stats()
        mean, se = self._reference(values)
        root_n = np.sqrt(values.size)
        assert stats.samples == values.size
        assert abs(stats.mean - mean) <= 8 * ulp
        assert abs(stats.std_error - se) * root_n <= 2 * ulp

    def test_single_sample_and_empty(self):
        acc = _RunningMean()
        with pytest.raises(ValueError):
            acc.stats()
        acc.add(0.5)
        assert acc.stats() == FidelityStats(mean=0.5, std_error=0.0, samples=1)


@pytest.fixture(scope="module")
def sample_plan():
    u = haar_random_unitary(8, 77)
    return u, decompose(u, 3)


class TestPerturbFactor:
    """The batched draw: one generator per joint perturbation of a mesh."""

    def test_sigma_zero_is_identity(self, sample_plan):
        _, plan = sample_plan
        flat = _perturb_blocks(plan.blocks, 0.0, [5, 6])
        np.testing.assert_array_equal(flat, np.stack([plan.blocks] * 2))

    def test_deterministic_per_draw(self, sample_plan):
        _, plan = sample_plan
        blocks = plan.blocks
        a = _perturb_blocks(blocks, 0.2, [31, 32])
        b = _perturb_blocks(blocks, 0.2, [31, 32])
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a[0], a[1])

    def test_seed_changes_draw(self, sample_plan):
        _, plan = sample_plan
        blocks = plan.blocks
        a = _perturb_blocks(blocks, 0.2, [31])
        b = _perturb_blocks(blocks, 0.2, [32])
        assert not np.array_equal(a, b)

    def test_offset_variance(self):
        # E ||block' - block||_F^2 = 2 m^2 sigma^2 = 0.18 for m=3, sigma=0.1
        q = haar_random_unitary(3, 12).ravel()
        draws = 10_000
        flat = _perturb_blocks(q, 0.1, range(draws))
        sq = np.sum(np.abs(flat - q) ** 2, axis=1)
        se = sq.std(ddof=1) / np.sqrt(draws)
        assert abs(sq.mean() - 0.18) <= 3 * se

    def test_result_allows_non_unitary_block(self, sample_plan):
        _, plan = sample_plan
        rebuilt, block_fids = _perturbed_stack(plan, 0.3, [1, 2])
        assert rebuilt.shape == (2, 8, 8)
        assert block_fids.shape == (2, len(plan.factors))
        assert np.isfinite(block_fids).all() and (block_fids < 1).all()

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            NoiseModel(-0.1, 0)

    def test_stack_slices_equal_single_reconstructions(self, sample_plan):
        _, plan = sample_plan
        seeds = [40, 41, 42]
        rebuilt, _ = _perturbed_stack(plan, 0.1, seeds)
        for p, seed in enumerate(seeds):
            np.testing.assert_array_equal(
                rebuilt[p], reconstruct_perturbed(plan, NoiseModel(0.1, seed))
            )

    def test_block_fidelities_match_scalar_fidelity(self, sample_plan):
        _, plan = sample_plan
        flat = _perturb_blocks(plan.blocks, 0.2, [3, 4])
        _, block_fids = _perturbed_stack(plan, 0.2, [3, 4])
        starts = np.cumsum([0] + [f.size**2 for f in plan.factors])
        for p in range(2):
            expected = []
            for start, f in zip(starts, plan.factors):
                s = f.size
                entries = slice(start, start + s * s)
                expected.append((s, fidelity(f.block, flat[p, entries].reshape(s, s))))
            # block fidelities come grouped by block size, factor order within
            expected = [fid for _, fid in sorted(expected, key=lambda e: e[0])]
            np.testing.assert_allclose(block_fids[p], expected, rtol=0, atol=1e-14)

    def test_zero_power_block_rejected(self, sample_plan, monkeypatch):
        _, plan = sample_plan
        zeroed = plan.blocks.copy()
        zeroed[: plan.sizes[0] ** 2] = 0.0
        # a plan only holds unitary blocks, so zero the first one as it is drawn
        monkeypatch.setattr(robustness, "_perturb_blocks", lambda blocks, sigma, seeds: zeroed[None])
        with pytest.raises(ValueError, match="zero"):
            _perturbed_stack(plan, 0.0, [0])


class TestReconstructPerturbed:
    def test_sigma_zero_bit_identical(self, sample_plan):
        _, plan = sample_plan
        np.testing.assert_array_equal(
            reconstruct_perturbed(plan, NoiseModel(0.0, 99)), reconstruct(plan)
        )

    def test_deterministic(self, sample_plan):
        _, plan = sample_plan
        noise = NoiseModel(0.05, 123)
        np.testing.assert_array_equal(
            reconstruct_perturbed(plan, noise), reconstruct_perturbed(plan, noise)
        )

    def test_tiny_noise_high_fidelity(self):
        u = haar_random_unitary(30, 41)
        plan = decompose(u, 5)
        pert = reconstruct_perturbed(plan, NoiseModel(1e-6, 7))
        assert fidelity(u, pert) > 0.999

    def test_large_noise_degrades(self, sample_plan):
        u, plan = sample_plan
        pert = reconstruct_perturbed(plan, NoiseModel(1.0, 7))
        assert fidelity(u, pert) < 0.5


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

    def test_matches_independent_loop(self):
        # second route: a plain per-sample loop with its own stream
        m, sigma, trials = 3, 0.05, 20_000
        stats = component_fidelity_estimate(m, sigma, trials, 29)
        rng = np.random.default_rng(1729)
        vals = np.empty(trials)
        for k in range(trials):
            q = sample_haar(rng, m)
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

    def test_rejects_bad_trials(self):
        with pytest.raises(ValueError):
            component_fidelity_estimate(2, 0.1, 0, 0)


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
        # small sigma takes the finite tail sum instead of scipy's 1F1; up to
        # c = 1e6 they agree to scipy's accuracy (the sum is the closer one to
        # a 40-digit reference there)
        k = m * m
        for c in np.geomspace(2 * k + 41, 1e6, 25):
            sigma = np.sqrt(m / (2 * c))
            expected = 1.0 - (1.0 - 1.0 / k) * hyp1f1(1.0, k + 1.0, -c)
            assert _mean_block_fidelity(m, sigma) == pytest.approx(expected, abs=1e-14)

    def test_finite_where_hyp1f1_fails(self):
        # scipy's 1F1(1; 26; -c) is NaN near c = 1e11
        m, c = 5, 1e11
        k = m * m
        one_minus = (1.0 - 1.0 / k) * (k / c) * (1.0 - (k - 1) / c)
        assert 1.0 - _mean_block_fidelity(m, np.sqrt(m / (2 * c))) == pytest.approx(
            one_minus, rel=1e-6
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


def test_import_leaves_scipy_out():
    # scipy is imported only when a calibration first runs
    code = "import sys, multiport; assert 'scipy' not in sys.modules, sorted(sys.modules)"
    subprocess.run([sys.executable, "-c", code], check=True)


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
        from multiport.robustness import _MATRIX_STREAM, _child_seed

        res = sweep_noise(5, [3], [0.1], 2, 3, seed=8)
        (row,) = res
        # every perturbation draw contributes one fidelity sample per factor
        expected = sum(
            3 * len(decompose(haar_random_unitary(5, _child_seed(8, _MATRIX_STREAM, 0, t)), 3).factors)
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

    @pytest.mark.parametrize(
        "m_list,n_grid,bad", [([3], [2], 3), ([2, 5], [2, 4], 5), ([1], [2, 4], 1)]
    )
    def test_rejects_m_without_some_n_at_least_m(self, m_list, n_grid, bad):
        with pytest.raises(ValueError, match=f"m={bad}"):
            sweep_size(m_list, n_grid, 0.95, 0.005, 1, 1, seed=0)


class TestFidelityStats:
    def test_rejects_nonpositive_samples(self):
        with pytest.raises(ValueError):
            FidelityStats(mean=1.0, std_error=0.0, samples=0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            FidelityStats(mean=np.nan, std_error=0.0, samples=3)
