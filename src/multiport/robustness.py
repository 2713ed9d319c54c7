"""Robustness of block-decomposed unitaries under Gaussian noise.

The noise model perturbs every entry of every factor block independently:
real and imaginary parts each receive an N(0, sigma^2) offset.  Output
phases are left exact.  Fidelity between an ideal matrix and its perturbed
counterpart is the phase-insensitive overlap

    F = |tr(q^dag p) / d|^2 / (tr(p^dag p) / d)

which is 1 exactly when ``p`` equals ``q`` up to a global phase.

The mean fidelity of one noisy m x m block has a closed form (see
``_mean_block_fidelity``), which numpy evaluates as a sum of positive
terms, so ``calibrate_sigma`` is a deterministic bracketed root-find with
no scipy; ``component_fidelity_estimate`` stays as its independent
Monte-Carlo cross-check.  The sweeps are Monte Carlo.

All sampling is drawn from ``linalg._generator`` of a single master seed,
keyed by a fixed stream tag and the loop indices, so every sweep is
reproducible and distinct loops never share a stream.  A joint perturbation
of a mesh draws the offsets of every block as one flat array of ``(re, im)`` pairs laid
out like the plan's own ``blocks`` array (factor order, each block
row-major).  All the perturbations of one trial matrix of a sweep come
from one generator, in one call: perturbation ``p`` is the ``p``-th
consecutive such array it draws, as standard offsets, and every sigma of
the sweep scales the same offsets.  So the cells of one block size share
their noise draws, as they share their trial matrices.  The sweeps and
``component_fidelity_estimate`` draw their noise through one helper,
``_offsets``, and scale it through another, ``_perturb``.

A sweep decomposes the trial matrices of one block size as one stack, then
composes their perturbations as stacks too, one wavefront layer at a time
for every slice.  It builds no per-matrix plans: the stack decomposition
returns one shared layout with the ``(T, entries)`` blocks and ``(T, n)``
phases of the ``T`` trial matrices, which it checks once, as a whole, with
the validator that checks a plan, and the perturbations are composed
straight from those arrays.  The trial matrices are Haar draws, which have
no exact zeros, so they share one layout and every ``(matrix, sigma)``
pair holds the same number of entries: the pairs of a block size are
composed in runs of as many whole pairs as fit in ``_STACK_ENTRIES``
(``2**18``) entries of matrices plus blocks, at least one: 4 MB as complex
numbers, and more while they are composed, as the real embeddings of the
blocks take twice the bytes of the blocks.  Only the offsets of the
matrices in the stack being composed are held: ``16 P entries`` bytes per
matrix, 1.6 MB at ``n = 100``, ``m = 2`` and ``P = 5``.  Each slice
depends only on its own blocks and offsets, so it equals the same
perturbation composed alone.  At ``sigma = 0`` all the perturbations of
a pair are its ideal blocks, so the pair enters the stack as one slice,
composed once, and its fidelities are placed once per perturbation; the
ceiling still counts it as a whole pair.  The ceiling keeps memory
bounded: at ``n = 100`` and ``m = 2``, where it holds one pair per stack,
one unbounded stack of 80 pairs peaked at 523 MB against 103 MB and took
about 2.4 times as long.  Block and matrix
fidelities are segment sums over flat arrays
(``linalg._segment_fidelities``), so no sum depends on what else shares
the stack.  The fidelities of every chunk go into arrays that hold a
whole block size in ``(sigma, matrix)`` order, and every cell is reduced
in one pass when they are full, so the results do not depend on the
chunking.  Those arrays take ``8 C T P (K + 1)`` bytes for ``C`` cells,
``T`` matrices, ``P`` perturbations and ``K`` factors per plan: 3.2 MB
at ``m = 2`` for ``sweep_noise(100, [2, 3, 4], <4 sigmas>, 4, 5,
seed)``, and 15 KB per cell at ``n = 20`` with 2 matrices and 5
perturbations.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .decomposition import _check_block_size, _compose, _decompose_stack
from .linalg import (
    _fidelities, _generator, _haar, _haar_stack, _segment_fidelities, _to_float, as_matrix,
)

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
# Entries of perturbed matrices plus blocks that a sweep composes as one
# stack; the results do not depend on it.  Unbounded stacks of large
# meshes ran slower and used several times the memory.
_STACK_ENTRIES = 2**18

# Stream tags, the first word of every key, keep the independent sampling
# loops (matrix draws, noise draws, component estimates) on disjoint streams.
_MATRIX_STREAM = 1
_NOISE_STREAM = 2
_ESTIMATE_STREAM = 4


def _check_sigma(sigma) -> float:
    """``sigma`` as a float, ``-0.0`` as ``0.0``; raises ``ValueError`` unless
    it is finite and >= 0."""
    sigma = _to_float(sigma)
    if not (math.isfinite(sigma) and sigma >= 0.0):
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    return sigma + 0.0  # -0.0 + 0.0 is +0.0


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


def fidelity(q, q_pert) -> float:
    """Phase-insensitive fidelity between a matrix and its perturbed version."""
    q = as_matrix(q, square=True)
    p = as_matrix(q_pert, square=True)
    if q.shape != p.shape:
        raise ValueError(f"shape mismatch: {q.shape} vs {p.shape}")
    return float(_fidelities(q, p))


def _offsets(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """Standard complex normal offsets: one ``(re, im)`` pair of N(0, 1) draws per entry.

    ``rng`` draws them as one ``shape + (2,)`` array.  This is the only
    place noise is drawn; ``_perturb`` scales the offsets by ``sigma``.
    """
    return rng.standard_normal(shape + (2,)).view(np.complex128)[..., 0]


def _perturb(ideal, sigma: float, offsets: np.ndarray, out=None) -> np.ndarray:
    """``ideal`` plus entry noise: ``ideal + sigma * offsets``.

    With ``offsets`` from ``_offsets`` every real and imaginary part gets
    an N(0, sigma^2) offset.  ``ideal`` broadcasts against ``offsets``, so
    one set of offsets serves any number of noise strengths; the result
    goes to ``out`` if it is given.
    """
    return np.add(ideal, np.multiply(sigma, offsets, out=out), out=out)


def _perturbed_stack(layout, blocks, phases, sigmas, offsets, draws):
    """Compose ``draws`` perturbations of each set of blocks, as one stack.

    ``blocks`` (``(C, entries)``) and ``phases`` (``(C, n)``) hold ``C``
    sets of plan fields that share ``layout``; set ``c`` is perturbed at
    noise strength ``sigmas[c]`` by the ``(draws, entries)`` offsets
    ``offsets[c]`` (see ``_perturb``), draw ``p`` by row ``p``.  A set at
    ``sigma == 0`` has ``draws`` equal draws, its ideal blocks, and enters
    the stack as one slice, its offsets unread (they may be ``None``); any
    other set as ``draws`` slices.  Returns the ``(S, n, n)`` composed
    slices, their ``(S, K)`` block fidelities in factor order, the ``(S,)``
    set of each slice and the ``(C, draws)`` slice of each draw.  The block
    fidelities are segment sums over the flat blocks
    (``linalg._segment_fidelities`` at the layout's offsets), so each slice
    and each of its fidelities equals the same draw composed and scored
    alone.
    """
    counts = np.array([draws if sigma else 1 for sigma in sigmas])
    owner = np.repeat(np.arange(len(counts)), counts)
    first = np.cumsum(counts) - counts
    # a one-slice set repeats its slice for every draw
    slices = first[:, np.newaxis] + np.minimum(np.arange(draws), counts[:, np.newaxis] - 1)
    flat = np.empty((len(owner), blocks.shape[-1]), dtype=np.complex128)
    # huge noise may overflow; the fidelities then report a non-finite slice
    with np.errstate(over="ignore", invalid="ignore"):
        for ideal, sigma, noise, start in zip(blocks, sigmas, offsets, first.tolist()):
            if sigma:
                _perturb(ideal, sigma, noise, out=flat[start : start + draws])
            else:
                flat[start] = ideal
        rebuilt = _compose(layout, flat, phases[owner])
    block_fids = _segment_fidelities(blocks[owner], flat, layout.offsets[:-1], layout.sizes)
    return rebuilt, block_fids, owner, slices


def _row_stats(rows: np.ndarray) -> list[FidelityStats]:
    """Mean and standard error of the mean of each row of a 2-D sample, in two passes.

    Every row is reduced at once, each along its own contiguous row, so a
    row's statistics do not depend on the other rows.  Deviations are taken
    from the mean, never from zero, so values packed close to 1 keep their
    spread.
    """
    count = rows.shape[-1]
    means = rows.mean(axis=-1)
    errors = np.zeros(len(rows))
    if count > 1:
        squares = np.square(rows - means[:, np.newaxis]).sum(axis=-1)
        errors = np.sqrt(squares / (count - 1) / count)
    return [
        FidelityStats(mean=mean, std_error=error, samples=count)
        for mean, error in zip(means.tolist(), errors.tolist())
    ]


def _stats(values: np.ndarray) -> FidelityStats:
    """``_row_stats`` of one sample."""
    return _row_stats(values[np.newaxis])[0]


def component_fidelity_estimate(
    m: int,
    sigma: float,
    trials: int,
    seed: int,
) -> FidelityStats:
    """Monte-Carlo mean fidelity of a single noisy m x m Haar block.

    Each trial draws a fresh Haar unitary, perturbs it with entry noise of
    strength ``sigma``, and records the fidelity.  Fully vectorized in
    chunks; deterministic for fixed ``(m, sigma, trials, seed)``.  The Haar
    draws come from ``_generator(seed, _ESTIMATE_STREAM, 0)`` and the noise
    from ``_generator(seed, _ESTIMATE_STREAM, 1)``.
    """
    m = operator.index(m)
    trials = operator.index(trials)
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    sigma = _check_sigma(sigma)
    if m < 1:
        raise ValueError(f"dimension must be at least 1, got {m}")
    # Haar draws and noise draws ride separate substreams, so the result is
    # independent of the internal chunk size and two estimates at different
    # sigma share the exact same Haar samples (common random numbers).
    haar_rng, noise_rng = (_generator(seed, _ESTIMATE_STREAM, i) for i in range(2))
    fids = []
    for start in range(0, trials, _ESTIMATE_CHUNK):
        q = _haar(haar_rng.standard_normal((min(_ESTIMATE_CHUNK, trials - start), m, m, 2)))
        # an overflow leaves p non-finite, which _fidelities reports
        with np.errstate(over="ignore", invalid="ignore"):
            p = q if sigma == 0.0 else _perturb(q, sigma, _offsets(noise_rng, q.shape))
        fids.append(_fidelities(q, p))
    return _stats(np.concatenate(fids))


def _mean_block_fidelity(m: int, sigma: float) -> float:
    """Exact mean fidelity of any m x m unitary block under entry noise ``sigma``.

    Complex Gaussian noise ``E`` is unitarily invariant, so the block drops
    out and the fidelity is ``X / (X + Y)`` with ``X = |1 + tr(E)/m|^2`` and
    ``Y`` an independent ``(sigma^2/m) chi^2`` on ``2(m^2 - 1)`` degrees of
    freedom.  Its mean, after one integration by parts, is

        F(sigma) = 1 - (1 - 1/m^2) 1F1(1; m^2 + 1; -m / (2 sigma^2))

    which falls strictly from ``F(0) = 1`` toward ``1/m^2`` as ``sigma``
    grows, with ``F ~ 1 - 2(m^2 - 1) sigma^2 / m`` near zero.

    With ``k = m^2`` and ``c = m / (2 sigma^2)``, DLMF 13.4.1 writes the
    1F1 as a Poisson mixture, ``1F1(1; k+1; -c) = E[k / (k + J)]`` with
    ``J ~ Poisson(c)``, so ``F = 1/k + (1 - 1/k) E[J / (k + J)]``: a sum of
    positive terms, with no cancellation near 1 or near the floor.  For
    ``c <= 2k + 40`` the sum runs over ``J`` within ``9 sqrt(c) + 40`` of
    the mode ``floor(c)``: nine standard deviations, plus 40 terms for
    small ``c``.  The Poisson mass outside that window is below ``e^-40``
    times ``E[J / (k + J)]`` (checked for every m up to 40), under a
    rounding of the sum.  The weights are built outward from the mode by
    the ratios of consecutive Poisson terms, with the mode's weight 1, and
    the sum is divided by the window's total weight; so no
    ``e^-c c^J / J!`` is formed, and no exponent of size ``c ln c`` is
    rounded.  Past ``2k + 40`` the window would need O(sqrt(c)) terms, and
    ``c`` runs to 1e300, so there an asymptotic series of at most 60 terms
    takes over.
    """
    if sigma == 0.0:
        return 1.0
    k = m * m
    c = m / (2.0 * sigma**2)
    if c > 2 * k + 40:
        # 1F1(1; k+1; -c) = (k/c) sum_j (-1)^j (k-1)...(k-j) / c^j up to a
        # relative e^-c, and each term is at most half the one before.
        s = 1.0
        for i in range(min(k - 1, 60), 0, -1):
            s = 1.0 - (k - i) / c * s
        return 1.0 - (1.0 - 1.0 / k) * (k / c * s)
    mode = math.floor(c)
    width = math.ceil(9.0 * math.sqrt(c)) + 40
    above = np.cumprod(c / np.arange(mode + 1, mode + width + 1))
    below = np.cumprod(np.arange(mode, max(mode - width, 0), -1) / c)[::-1]
    weights = np.concatenate([below, [1.0], above])
    j = np.arange(mode - len(below), mode + width + 1)
    rise = float(weights @ (j / (k + j)) / weights.sum())
    return 1.0 / k + (1.0 - 1.0 / k) * rise


def calibrate_sigma(m: int, target_fq: float, tolerance: float) -> CalibrationResult:
    """Find the noise strength whose mean block fidelity is ``target_fq``.

    ``F(sigma) = _mean_block_fidelity(m, sigma)`` takes every value in
    ``(1/m^2, 1]`` exactly once, so a target in that range has one root.
    An Anderson-Bjorck regula falsi finds it inside a closed-form bracket,
    which it shrinks until it is 4 eps wide relative to ``sigma``.  The
    result satisfies ``|F(sigma) - target_fq| <= tolerance``.  Targets at or
    below the ``1/m^2`` floor can never be reached and raise ``ValueError``.
    """
    m = operator.index(m)
    if m < 2:
        raise ValueError(f"block size must be at least 2, got {m}")
    target_fq = _to_float(target_fq)
    floor = 1.0 / m**2
    if not floor < target_fq <= 1.0:
        raise ValueError(
            f"target fidelity must be in (1/m^2, 1] = ({floor:.6g}, 1] for m={m}, "
            f"got {target_fq}"
        )
    # Measured fidelities carry absolute rounding errors of a few eps, so a
    # target within 16 eps of the floor cannot be told apart from the
    # unreachable floor; its root would lie past sigma = 1e7 / sqrt(m).
    if target_fq - floor <= 16 * math.ulp(1.0):
        raise ValueError(
            f"target fidelity {target_fq!r} is within float resolution of the "
            f"1/m^2 floor {floor!r} for m={m}"
        )
    tolerance = _to_float(tolerance)
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
    # F - target falls through zero on [lo, hi].  ``b`` is the latest probe
    # and ``a`` the end that keeps the root bracketed; when ``b`` does not
    # cross, ``a``'s value is scaled down (Anderson-Bjorck) so that the
    # next secant step moves toward it.
    a, fa = lo, _mean_block_fidelity(m, lo) - target_fq
    b, fb = hi, _mean_block_fidelity(m, hi) - target_fq
    probes = 2
    while fb != 0.0 and abs(b - a) > 4 * math.ulp(1.0) * max(a, b):
        s = b - fb * (b - a) / (fb - fa)
        if not min(a, b) < s < max(a, b):
            s = 0.5 * (a + b)
        fs = _mean_block_fidelity(m, s) - target_fq
        probes += 1
        if (fs < 0.0) != (fb < 0.0):
            a, fa = b, fb
        else:
            scale = 1.0 - fs / fb
            fa *= scale if scale > 0.0 else 0.5
        b, fb = s, fs
    sigma = b
    achieved = _mean_block_fidelity(m, sigma)
    if not abs(achieved - target_fq) <= tolerance:
        raise ValueError(
            f"tolerance {tolerance} is finer than the closed form resolves: "
            f"sigma={sigma:.17g} gives {achieved!r} for target {target_fq}"
        )
    return CalibrationResult(sigma=sigma, achieved=achieved, target=target_fq, probes=probes + 1)


def _check_counts(n_matrices: int, n_perturbations: int) -> tuple[int, int]:
    n_matrices = operator.index(n_matrices)
    n_perturbations = operator.index(n_perturbations)
    if n_matrices < 1:
        raise ValueError(f"n_matrices must be positive, got {n_matrices}")
    if n_perturbations < 1:
        raise ValueError(f"n_perturbations must be positive, got {n_perturbations}")
    return n_matrices, n_perturbations


def _sweep_cells(
    n: int, m: int, sigmas, key, n_matrices: int, n_perturbations: int, seed: int
) -> list[SweepResult]:
    """Pool block and matrix fidelities over every perturbation of every matrix.

    Trial matrix ``t`` is the Haar unitary drawn from
    ``_generator(seed, _MATRIX_STREAM, *key, t)``, all of them through one
    stacked QR (``linalg._haar_stack``), and they are decomposed once, as
    one stack (``_decompose_stack``: one layout, ``(n_matrices, entries)``
    blocks and ``(n_matrices, n)`` phases; no plan is built).  There is one
    cell per noise strength in ``sigmas``.  Matrix ``t`` has one set of
    noise for the whole list: the ``(draws, entries)`` offsets drawn from
    ``_generator(seed, _NOISE_STREAM, *key, t)`` (see ``_offsets``), row
    ``p`` for perturbation ``p``, which every cell scales by its own sigma
    (``_perturb``).  So the cells of one sweep share their draws, as they
    share their matrices.  The ``(matrix, cell)`` pairs are composed in
    that order, matrix outermost, in runs of whole pairs (see the module
    docstring); a matrix's offsets are drawn when its first ``sigma > 0``
    pair enters a stack and held only while its pairs are being composed.
    The fidelities fill one ``(cells, matrices, draws, K)`` array of block
    fidelities and one ``(cells, matrices, draws)`` array of matrix
    fidelities, and every cell is reduced in one pass, by ``_row_stats``,
    when all are composed.  So the results do not depend on how the pairs
    are stacked.  A pair at ``sigma == 0`` is composed once, as one slice
    (see ``_perturbed_stack``), and its fidelities fill all ``draws``
    places of its row, so it still counts ``draws`` samples; the stack
    ceiling counts it as ``draws`` slices all the same.
    """
    us = _haar_stack(n, [_generator(seed, _MATRIX_STREAM, *key, t) for t in range(n_matrices)])
    layout, blocks, phases = _decompose_stack(us, m)
    draws, entries = n_perturbations, blocks.shape[-1]
    fq = np.empty((len(sigmas), n_matrices, draws, len(layout)))
    fu = np.empty((len(sigmas), n_matrices, draws))
    pairs = np.array([(t, c) for t in range(n_matrices) for c in range(len(sigmas))])
    per_stack = max(1, _STACK_ENTRIES // (draws * (n * n + entries)))
    held = {}
    for start in range(0, len(pairs), per_stack):
        ts, cs = pairs[start : start + per_stack].T
        chunk_sigmas = [sigmas[c] for c in cs.tolist()]
        # Matrices come in order, so only the first one of a stack can
        # have pairs in the stack before.
        held = {t: noise for t, noise in held.items() if t == ts[0]}
        for t, sigma in zip(ts.tolist(), chunk_sigmas):
            if sigma and t not in held:
                held[t] = _offsets(_generator(seed, _NOISE_STREAM, *key, t), (draws, entries))
        rebuilt, block_fids, owner, slices = _perturbed_stack(
            layout, blocks[ts], phases[ts], chunk_sigmas,
            [held.get(t) for t in ts.tolist()], draws,
        )
        fq[cs, ts] = block_fids[slices]
        fu[cs, ts] = _fidelities(us[ts[owner]], rebuilt)[slices]
    return [
        SweepResult(n=n, m=m, sigma=sigma, fq=cell_fq, fu=cell_fu)
        for sigma, cell_fq, cell_fu in zip(
            sigmas,
            _row_stats(fq.reshape(len(sigmas), -1)),
            _row_stats(fu.reshape(len(sigmas), -1)),
        )
    ]


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
    once and draws ``n_perturbations`` independent joint perturbations per
    matrix once, as standard offsets; every ``sigma`` scales those same
    offsets, so the cells of one ``m`` share their draws as they share
    their matrices.  Block fidelities and matrix fidelities are pooled per
    ``(m, sigma)`` cell.  Results are ordered with
    ``m`` outermost, then ``sigma`` in the given order.
    """
    n = operator.index(n)
    m_list = [operator.index(m) for m in m_list]
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
        # The trial matrices of one m, and their noise draws, serve the
        # whole sigma grid.
        results += _sweep_cells(
            n, m, sigma_grid, (mi,), n_matrices, n_perturbations, seed
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
    m_list = [operator.index(m) for m in m_list]
    if not m_list:
        raise ValueError("m_list must not be empty")
    n_grid = [operator.index(n) for n in n_grid]
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
            results += _sweep_cells(
                n, m, [sigma], (mi, ni), n_matrices, n_perturbations, seed
            )
    return results
