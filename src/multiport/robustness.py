"""Robustness of block-decomposed unitaries under Gaussian noise.

The noise model perturbs every entry of every factor block independently:
real and imaginary parts each receive an N(0, sigma^2) offset.  Output
phases are left exact.  Fidelity between an ideal matrix and its perturbed
counterpart is the phase-insensitive overlap

    F = |tr(q^dag p) / d|^2 / (tr(p^dag p) / d)

which is 1 exactly when ``p`` equals ``q`` up to a global phase.

The mean fidelity of one noisy m x m block has a closed form (see
``_mean_block_fidelity``), so ``calibrate_sigma`` is a deterministic
root-find; ``component_fidelity_estimate`` stays as its independent
Monte-Carlo cross-check.  The sweeps are Monte Carlo.

All sampling is driven by ``numpy`` seed sequences derived from a single
master seed plus fixed stream tags, so every sweep is reproducible and
distinct loops never share a stream.  One joint perturbation of a mesh is
one generator, seeded from ``NoiseModel.seed``: it draws the offsets of
every block as one flat array of ``(re, im)`` pairs laid out like the
plan's own ``blocks`` array (factor order, each block row-major).  A sweep
stacks the perturbations of one matrix and composes them together, one
wavefront layer of the plan at a time; each slice of the stack depends only
on its own seed, so it equals the same perturbation composed alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decomposition import DecompositionPlan, _check_block_size, _compose, decompose
from .linalg import _U64_MASK, as_matrix, haar_random_unitary, sample_haar

__all__ = [
    "SweepResult",
    "fidelity",
    "component_fidelity_estimate",
    "calibrate_sigma",
    "sweep_noise",
    "sweep_size",
]

# Trials per vectorized batch of ``component_fidelity_estimate``; the result
# does not depend on it.
_ESTIMATE_CHUNK = 32768

# Stream tags keep the independent sampling loops (matrix draws, noise draws,
# component estimates) on disjoint substreams of one seed.
_MATRIX_STREAM = 1
_NOISE_STREAM = 2
_ESTIMATE_STREAM = 4


def _child_seed(*parts: int) -> int:
    """Collapse a tuple of integers into one derived 64-bit seed."""
    entropy = tuple(int(p) & _U64_MASK for p in parts)
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def _rng(*parts: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(_child_seed(*parts)))


def _check_sigma(sigma) -> float:
    """``sigma`` as a float; raises ``ValueError`` unless it is finite and >= 0."""
    sigma = float(sigma)
    if not (math.isfinite(sigma) and sigma >= 0.0):
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    return sigma


@dataclass(frozen=True)
class NoiseModel:
    """Additive complex Gaussian entry noise of strength ``sigma``.

    One model is one joint perturbation of a whole mesh: ``seed`` seeds the
    single generator that draws the offsets of every block, so the same
    ``(seed, plan)`` always produces the same perturbed matrix.
    """

    sigma: float
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma", _check_sigma(self.sigma))
        object.__setattr__(self, "seed", int(self.seed))


@dataclass(frozen=True)
class FidelityStats:
    """Sample mean, standard error of the mean, and sample count."""

    mean: float
    std_error: float
    samples: int

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise ValueError(f"samples must be positive, got {self.samples}")
        if not (math.isfinite(self.mean) and math.isfinite(self.std_error)):
            raise ValueError("fidelity statistics must be finite")


@dataclass(frozen=True)
class SweepResult:
    """Pooled fidelities for one ``(n, m, sigma)`` cell of a sweep.

    ``fq`` pools the per-factor block fidelities over every factor of every
    perturbation draw (undersized remainder blocks included); ``fu`` pools
    the matrix-level fidelity of the reassembled unitaries.
    """

    n: int
    m: int
    sigma: float
    fq: FidelityStats
    fu: FidelityStats


@dataclass(frozen=True)
class CalibrationResult:
    """Noise strength found for a target block fidelity.

    ``achieved`` is the exact mean block fidelity at ``sigma``; ``probes``
    counts the closed-form evaluations the root-find spent.
    """

    sigma: float
    achieved: float
    target: float
    probes: int


def _fidelities(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Phase-insensitive fidelity over the last two axes, broadcasting the rest.

    ``(..., d, d) x (..., d, d) -> (...)``; raises ``ValueError`` if any
    perturbed matrix is identically zero.
    """
    d = q.shape[-1]
    power = np.einsum("...ij,...ij->...", np.conj(p), p).real / d
    if not power.all():
        raise ValueError("perturbed matrix is identically zero")
    overlap = np.einsum("...ij,...ij->...", np.conj(q), p) / d
    return np.abs(overlap) ** 2 / power


def fidelity(q, q_pert) -> float:
    """Phase-insensitive fidelity between a matrix and its perturbed version."""
    q = as_matrix(q, square=True)
    p = as_matrix(q_pert, square=True)
    if q.shape != p.shape:
        raise ValueError(f"shape mismatch: {q.shape} vs {p.shape}")
    return float(_fidelities(q, p))


def _perturb_blocks(blocks: np.ndarray, sigma: float, seeds) -> np.ndarray:
    """One joint perturbation of a flat block array per seed: ``(P, size)``.

    Slice ``p`` is a pure function of ``(seeds[p], sigma, blocks)``: its
    generator draws one ``(size, 2)`` standard-normal array of ``(re, im)``
    offsets, scaled by ``sigma``.  With ``sigma == 0`` every slice is
    ``blocks`` itself and nothing is drawn.
    """
    if sigma == 0.0:
        return np.broadcast_to(blocks, (len(seeds), blocks.size))
    pairs = np.empty((len(seeds), blocks.size, 2))
    for p, seed in enumerate(seeds):
        _rng(seed, _NOISE_STREAM).standard_normal(out=pairs[p])
    return blocks + sigma * pairs.view(np.complex128)[..., 0]


def _perturbed_stack(plan: DecompositionPlan, sigma: float, seeds):
    """Compose one perturbation of the plan per seed, as one stack.

    Returns the ``(P, n, n)`` perturbed matrices and the ``(P, K)`` block
    fidelities, with the factors of each slice ordered by block size.
    """
    flat = _perturb_blocks(plan.blocks, sigma, seeds)
    stack = (len(seeds),)
    block_fids = [np.zeros(stack + (0,))]  # a plan without factors has no groups
    for s, _, entries in plan._layout.by_size():
        ideal = plan.blocks[entries].reshape(-1, s, s)
        perturbed = flat[:, entries].reshape(stack + ideal.shape)
        block_fids.append(_fidelities(ideal, perturbed))
    return _compose(plan, flat), np.concatenate(block_fids, axis=-1)


def reconstruct_perturbed(plan: DecompositionPlan, noise: NoiseModel) -> np.ndarray:
    """Reassemble a plan with every factor independently perturbed.

    With ``noise.sigma == 0`` this reproduces ``reconstruct(plan)`` bit for
    bit (same composition code path, identical blocks).
    """
    matrices, _ = _perturbed_stack(plan, noise.sigma, [noise.seed])
    return matrices[0]


class _RunningMean:
    """Streaming mean / standard-error accumulator.

    Each ``add`` folds a whole batch in: the batch's own mean and sum of
    squared deviations, merged into the running pair by the Chan-Golub-LeVeque
    update.  Deviations are taken from means, never from zero, so values
    packed close to 1 keep their spread.
    """

    __slots__ = ("count", "mean", "m2")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0

    def add(self, values) -> None:
        arr = np.asarray(values, dtype=np.float64).ravel()
        if arr.size == 0:
            return
        batch_mean = float(arr.mean())
        batch_m2 = float(np.square(arr - batch_mean).sum())
        weight = arr.size / (self.count + arr.size)
        delta = batch_mean - self.mean
        self.mean += delta * weight
        self.m2 += batch_m2 + delta * delta * self.count * weight
        self.count += arr.size

    def stats(self) -> FidelityStats:
        if self.count == 0:
            raise ValueError("no samples accumulated")
        if self.count > 1:
            std_error = math.sqrt(self.m2 / (self.count - 1) / self.count)
        else:
            std_error = 0.0
        return FidelityStats(mean=self.mean, std_error=std_error, samples=self.count)


def component_fidelity_estimate(
    m: int,
    sigma: float,
    trials: int,
    seed: int,
) -> FidelityStats:
    """Monte-Carlo mean fidelity of a single noisy m x m Haar block.

    Each trial draws a fresh Haar unitary, perturbs it with entry noise of
    strength ``sigma``, and records the fidelity.  Fully vectorized in
    chunks; deterministic for fixed ``(m, sigma, trials, seed)``.
    """
    m = int(m)
    trials = int(trials)
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    sigma = _check_sigma(sigma)
    # Haar draws and noise draws ride separate substreams, so the result is
    # independent of the internal chunk size and two estimates at different
    # sigma share the exact same Haar samples (common random numbers).
    root = np.random.SeedSequence(_child_seed(seed, _ESTIMATE_STREAM))
    haar_rng, noise_rng = (np.random.default_rng(s) for s in root.spawn(2))
    acc = _RunningMean()
    remaining = trials
    while remaining:
        b = min(_ESTIMATE_CHUNK, remaining)
        remaining -= b
        q = sample_haar(haar_rng, m, count=b)
        if sigma == 0.0:
            p = q
        else:
            pairs = noise_rng.normal(0.0, sigma, size=(b, m, m, 2))
            p = q + pairs[..., 0] + 1j * pairs[..., 1]
        acc.add(_fidelities(q, p))
    return acc.stats()


def _mean_block_fidelity(m: int, sigma: float) -> float:
    """Exact mean fidelity of any m x m unitary block under entry noise ``sigma``.

    Complex Gaussian noise ``E`` is unitarily invariant, so the block drops
    out and the fidelity is ``X / (X + Y)`` with ``X = |1 + tr(E)/m|^2`` and
    ``Y`` an independent ``(sigma^2/m) chi^2`` on ``2(m^2 - 1)`` degrees of
    freedom.  Its mean, after one integration by parts, is

        F(sigma) = 1 - (1 - 1/m^2) 1F1(1; m^2 + 1; -m / (2 sigma^2))

    which falls strictly from ``F(0) = 1`` toward ``1/m^2`` as ``sigma``
    grows, with ``F ~ 1 - 2(m^2 - 1) sigma^2 / m`` near zero.
    """
    if sigma == 0.0:
        return 1.0
    k = m * m
    c = m / (2.0 * sigma**2)
    if c > 2 * k + 40:
        # Far out scipy's 1F1 loses accuracy (m = 5 gives NaN near c = 1e11).
        # There 1F1(1; k+1; -c) = (k/c) sum_j (-1)^j (k-1)...(k-j) / c^j up to
        # a relative e^-c, and each term is at most half the one before.
        s = 1.0
        for i in range(min(k - 1, 60), 0, -1):
            s = 1.0 - (k - i) / c * s
        tail = k / c * s
    else:
        from scipy.special import hyp1f1  # late, so ``import multiport`` stays scipy-free

        tail = float(hyp1f1(1.0, k + 1.0, -c))
    return 1.0 - (1.0 - 1.0 / k) * tail


def calibrate_sigma(m: int, target_fq: float, tolerance: float) -> CalibrationResult:
    """Find the noise strength whose mean block fidelity is ``target_fq``.

    ``F(sigma) = _mean_block_fidelity(m, sigma)`` takes every value in
    ``(1/m^2, 1]`` exactly once, so a target in that range has one root,
    which ``brentq`` finds inside a closed-form bracket.  The result
    satisfies ``|F(sigma) - target_fq| <= tolerance``.  Targets at or below
    the ``1/m^2`` floor can never be reached and raise ``ValueError``.
    """
    from scipy.optimize import brentq

    m = int(m)
    if m < 2:
        raise ValueError(f"block size must be at least 2, got {m}")
    target_fq = float(target_fq)
    floor = 1.0 / m**2
    if not floor < target_fq <= 1.0:
        raise ValueError(
            f"target fidelity must be in (1/m^2, 1] = ({floor:.6g}, 1] for m={m}, "
            f"got {target_fq}"
        )
    # F(sigma) is evaluated as 1 - (1 - 1/m^2) 1F1 and carries an absolute
    # rounding error of a few eps.  Near the floor F sits under the target by
    # about (target - floor) / 2 at the bracket's upper end below, so within
    # 16 eps of the floor the computed sign there is rounding noise.
    if target_fq - floor <= 16 * math.ulp(1.0):
        raise ValueError(
            f"target fidelity {target_fq!r} is within float resolution of the "
            f"1/m^2 floor {floor!r} for m={m}"
        )
    tolerance = float(tolerance)
    if not 0.0 < tolerance < 1.0:
        raise ValueError(f"tolerance must be in (0, 1), got {tolerance}")
    if target_fq == 1.0:
        return CalibrationResult(sigma=0.0, achieved=1.0, target=target_fq, probes=0)

    # The root solves 1F1(1; m^2+1; -c) = h for c = m / (2 sigma^2), with
    # h = (1 - target) / (1 - 1/m^2).  That 1F1 lies between exp(-c/(m^2+1))
    # (Jensen) and m^2/c, so it is above h at c = (m^2+1) ln(1/h) / 2 and
    # below h at c = 2 m^2 / h: a closed-form bracket with room to spare on
    # both sides.
    h = (1.0 - target_fq) / (1.0 - floor)
    log_inv_h = math.log1p((target_fq - floor) / (1.0 - target_fq))
    lo = 0.5 * math.sqrt(h / m)
    hi = math.sqrt(m / ((m * m + 1.0) * log_inv_h))
    # a negligible xtol leaves brentq's relative tolerance (4 eps) in charge
    sigma, info = brentq(
        lambda s: _mean_block_fidelity(m, s) - target_fq, lo, hi,
        xtol=1e-300, full_output=True,
    )
    achieved = _mean_block_fidelity(m, sigma)
    if not abs(achieved - target_fq) <= tolerance:
        raise ValueError(
            f"tolerance {tolerance} is finer than the closed form resolves: "
            f"sigma={sigma:.17g} gives {achieved!r} for target {target_fq}"
        )
    return CalibrationResult(
        sigma=sigma, achieved=achieved, target=target_fq, probes=info.function_calls + 1
    )


def _check_counts(n_matrices: int, n_perturbations: int) -> tuple[int, int]:
    n_matrices = int(n_matrices)
    n_perturbations = int(n_perturbations)
    if n_matrices < 1:
        raise ValueError(f"n_matrices must be positive, got {n_matrices}")
    if n_perturbations < 1:
        raise ValueError(f"n_perturbations must be positive, got {n_perturbations}")
    return n_matrices, n_perturbations


def _prepare(n: int, m: int, n_matrices: int, seed: int, key) -> list:
    """Draw a sweep's trial matrices and decompose each one once.

    Matrix ``t`` is the Haar unitary seeded by
    ``_child_seed(seed, _MATRIX_STREAM, *key, t)``.  Returns the
    ``(u, plan)`` pairs that ``_sweep_cell`` takes.
    """
    prepared = []
    for t in range(n_matrices):
        u = haar_random_unitary(n, _child_seed(seed, _MATRIX_STREAM, *key, t))
        prepared.append((u, decompose(u, m)))
    return prepared


def _sweep_cell(
    n: int, m: int, sigma: float, prepared, n_perturbations: int, seed: int, cell
) -> SweepResult:
    """Pool block and matrix fidelities over every perturbation of every matrix.

    ``prepared`` lists ``(u, plan)`` pairs.  Perturbation ``p`` of
    matrix ``t`` is the joint draw seeded by
    ``_child_seed(seed, _NOISE_STREAM, *cell, t, p)``; the perturbations of
    one matrix are composed as one stack.
    """
    fq_acc = _RunningMean()
    fu_acc = _RunningMean()
    for t, (u, plan) in enumerate(prepared):
        seeds = [
            _child_seed(seed, _NOISE_STREAM, *cell, t, p) for p in range(n_perturbations)
        ]
        rebuilt, block_fids = _perturbed_stack(plan, sigma, seeds)
        fq_acc.add(block_fids)
        fu_acc.add(_fidelities(u, rebuilt))
    return SweepResult(n=n, m=m, sigma=sigma, fq=fq_acc.stats(), fu=fu_acc.stats())


def sweep_noise(
    n: int,
    m_list,
    sigma_grid,
    n_matrices: int,
    n_perturbations: int,
    seed: int,
) -> list[SweepResult]:
    """Fidelity statistics over a grid of block sizes and noise strengths.

    For each ``m`` the sweep decomposes ``n_matrices`` fresh Haar unitaries
    once, then evaluates every ``sigma`` with ``n_perturbations``
    independent joint perturbations per matrix, pooling block fidelities and
    matrix fidelities per ``(m, sigma)`` cell.  Results are ordered with
    ``m`` outermost, then ``sigma`` in the given order.
    """
    n = int(n)
    m_list = [int(m) for m in m_list]
    if not m_list:
        raise ValueError("m_list must not be empty")
    for m in m_list:
        _check_block_size(n, m)
    sigma_grid = [_check_sigma(s) for s in sigma_grid]
    if not sigma_grid:
        raise ValueError("sigma_grid must not be empty")
    n_matrices, n_perturbations = _check_counts(n_matrices, n_perturbations)

    results: list[SweepResult] = []
    for mi, m in enumerate(m_list):
        # Decompose each trial matrix once; the plan is reused across the
        # whole sigma grid (perturbation draws stay independent per sigma).
        prepared = _prepare(n, m, n_matrices, seed, (mi,))
        for si, sigma in enumerate(sigma_grid):
            results.append(
                _sweep_cell(n, m, sigma, prepared, n_perturbations, seed, (mi, si))
            )
    return results


def sweep_size(
    m_list,
    n_grid,
    target_fq: float,
    fq_tolerance: float,
    n_matrices: int,
    n_perturbations: int,
    seed: int,
) -> list[SweepResult]:
    """Fidelity versus matrix size at a fixed calibrated block fidelity.

    For each ``m`` the noise strength is first calibrated so a single noisy
    ``m x m`` block averages ``target_fq`` within ``fq_tolerance``; the same
    sigma is then applied across every ``n`` in ``n_grid``.  Grid points
    with ``n < m`` are skipped so one shared ``n_grid`` can serve several
    block sizes, but every ``m`` needs at least one ``n >= m``.  Results are
    ordered with ``m`` outermost, then ``n``.
    """
    m_list = [int(m) for m in m_list]
    if not m_list:
        raise ValueError("m_list must not be empty")
    n_grid = [int(n) for n in n_grid]
    if not n_grid:
        raise ValueError("n_grid must not be empty")
    for n in n_grid:
        if n < 2:
            raise ValueError(f"dimension must be at least 2, got {n}")
    for m in m_list:
        _check_block_size(max(n_grid), m)
    n_matrices, n_perturbations = _check_counts(n_matrices, n_perturbations)
    sigmas = [calibrate_sigma(m, target_fq, fq_tolerance).sigma for m in m_list]

    results: list[SweepResult] = []
    for mi, (m, sigma) in enumerate(zip(m_list, sigmas)):
        for ni, n in enumerate(n_grid):
            if n < m:
                continue
            prepared = _prepare(n, m, n_matrices, seed, (mi, ni))
            results.append(
                _sweep_cell(n, m, sigma, prepared, n_perturbations, seed, (mi, ni))
            )
    return results
