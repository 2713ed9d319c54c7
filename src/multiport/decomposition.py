"""Factor an n x n unitary into embedded block unitaries plus output phases.

The decomposition generalizes the classic triangular mesh of 2 x 2
beam-splitter transformations to blocks of size up to ``m``.  A working copy
``W`` of the input is swept from the bottom row up: for the active row the
sweep repeatedly picks the leftmost columns that still hold entries at or
left of the diagonal (at most ``m`` of them, always including the diagonal
column itself), takes the submatrix of those columns over the ``m'`` rows
ending at the active row, and right-multiplies ``W`` by an embedded unitary
obtained from an RQ factorization of that submatrix.  Each multiplication
stamps a triangular patch of zeros below the diagonal; zeros created earlier
sit in columns untouched by later steps, or are protected by unitarity, so
they survive.  When every row is done ``W`` is diagonal with unit-modulus
entries, and the input equals that phase diagonal times the reversed product
of the conjugated factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import as_matrix, rq_decompose, unitarity

__all__ = [
    "DecompositionError",
    "Factor",
    "SweepDiagnostics",
    "DecompositionPlan",
    "VerificationReport",
    "CostComparison",
    "factor_count_bound",
    "embed_factor",
    "decompose",
    "reconstruct",
    "verify",
    "cost_compare",
]

_BLOCK_UNITARY_TOL = 1e-10
_INPUT_UNITARY_TOL = 1e-8


class DecompositionError(RuntimeError):
    """A sweep invariant failed or the factor budget was exhausted."""


@dataclass(frozen=True, eq=False)
class Factor:
    """One block unitary acting on a chosen subset of modes.

    ``columns`` are 1-based mode indices in strictly ascending order;
    ``base_row`` is the 1-based row whose left-of-diagonal entries the block
    was chosen to clear.  ``block`` is the ``size x size`` unitary itself.
    The full-dimension action of the factor is ``embed_factor(factor, n)``.
    """

    size: int
    base_row: int
    columns: tuple[int, ...]
    block: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "size", int(self.size))
        object.__setattr__(self, "base_row", int(self.base_row))
        object.__setattr__(self, "columns", tuple(int(c) for c in self.columns))
        block = np.array(self.block, dtype=np.complex128)
        block.setflags(write=False)
        object.__setattr__(self, "block", block)

        if self.size < 2:
            raise ValueError(f"block size must be at least 2, got {self.size}")
        if block.shape != (self.size, self.size):
            raise ValueError(
                f"block shape {block.shape} does not match size {self.size}"
            )
        if len(self.columns) != self.size:
            raise ValueError(
                f"expected {self.size} columns, got {len(self.columns)}"
            )
        if self.columns[0] < 1:
            raise ValueError(f"column indices are 1-based, got {self.columns}")
        if any(b <= a for a, b in zip(self.columns, self.columns[1:])):
            raise ValueError(f"columns must be strictly ascending, got {self.columns}")
        if self.base_row < self.columns[-1]:
            raise ValueError(
                f"base row {self.base_row} lies above the last column "
                f"{self.columns[-1]}"
            )
        report = unitarity(block, tol=_BLOCK_UNITARY_TOL)
        if not report.is_unitary:
            raise ValueError(
                f"factor block is not unitary (defect {report.defect:.3e})"
            )


@dataclass(frozen=True)
class SweepDiagnostics:
    """Bookkeeping from one decomposition run (not serialized with the plan).

    ``new_zeros_per_factor`` counts the below-diagonal entries each factor
    cleared for the first time; ``refill_events`` counts previously cleared
    entries that later rose back above the threshold (expected to be zero,
    logged rather than fatal); ``threshold`` is the zero threshold used.
    """

    new_zeros_per_factor: tuple[int, ...]
    refill_events: int
    threshold: float

    @property
    def total_zeros(self) -> int:
        return sum(self.new_zeros_per_factor)


@dataclass(frozen=True, eq=False)
class DecompositionPlan:
    """An ordered factorization ``u = D * Q_N^dag * ... * Q_1^dag``.

    ``factors`` lists the embedded block unitaries in the order they were
    applied to the working matrix; ``phases`` holds the n output phase
    angles, each in ``(-pi, pi]``, defining ``D = diag(exp(1j * phases))``.
    """

    n: int
    m: int
    factors: tuple[Factor, ...]
    phases: np.ndarray
    diagnostics: SweepDiagnostics | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "factors", tuple(self.factors))
        phases = np.array(self.phases, dtype=np.float64)
        phases.setflags(write=False)
        object.__setattr__(self, "phases", phases)

        if self.n < 1:
            raise ValueError(f"dimension must be at least 1, got {self.n}")
        if not 2 <= self.m <= self.n:
            raise ValueError(f"block size m={self.m} must satisfy 2 <= m <= n={self.n}")
        if phases.shape != (self.n,):
            raise ValueError(
                f"expected {self.n} phases, got shape {phases.shape}"
            )
        if not np.isfinite(phases).all():
            raise ValueError("phases contain non-finite values")
        if ((phases <= -np.pi) | (phases > np.pi)).any():
            raise ValueError("phases must lie in (-pi, pi]")
        for k, f in enumerate(self.factors):
            if not isinstance(f, Factor):
                raise TypeError(f"factors[{k}] is not a Factor")
            if f.size > self.m:
                raise ValueError(
                    f"factors[{k}] has size {f.size} > m = {self.m}"
                )
            if f.base_row > self.n:
                raise ValueError(
                    f"factors[{k}] base row {f.base_row} exceeds n = {self.n}"
                )
        bound = factor_count_bound(self.n, self.m)
        if len(self.factors) > bound:
            raise ValueError(
                f"{len(self.factors)} factors exceed the bound {bound} "
                f"for n={self.n}, m={self.m}"
            )


def factor_count_bound(n: int, m: int) -> int:
    """Upper bound on the number of factors needed for an n x n unitary.

    For ``m = 2`` the sweep uses exactly ``n(n-1)/2`` factors.  For larger
    blocks each full factor clears ``m(m-1)/2`` entries, but every row can
    end with one undersized remainder block, giving
    ``floor(n(n-1) / (m(m-1))) + n - 1``.
    """
    n = int(n)
    m = int(m)
    if n < 1:
        raise ValueError(f"dimension must be at least 1, got {n}")
    if not 2 <= m <= n:
        raise ValueError(f"block size m={m} must satisfy 2 <= m <= n={n}")
    if m == 2:
        return n * (n - 1) // 2
    return (n * (n - 1)) // (m * (m - 1)) + n - 1


def embed_factor(factor: Factor, n: int) -> np.ndarray:
    """Expand a factor to its full ``n x n`` action (identity elsewhere)."""
    n = int(n)
    if factor.columns[-1] > n:
        raise ValueError(
            f"factor touches column {factor.columns[-1]} but n = {n}"
        )
    out = np.eye(n, dtype=np.complex128)
    idx = np.asarray(factor.columns) - 1
    out[np.ix_(idx, idx)] = factor.block
    return out


def _compose(phases: np.ndarray, reversed_blocks, stack: tuple[int, ...] = ()) -> np.ndarray:
    """Build ``diag(exp(1j*phases))`` times the daggered blocks in the given order.

    ``reversed_blocks`` iterates ``(indices, block)`` pairs with the *last*
    applied factor first, i.e. already in product order; ``indices`` are the
    0-based modes the block acts on.  A block may carry leading ``stack``
    axes, one matrix per slice, and the result then has shape
    ``stack + (n, n)``.  Shared by the exact and perturbed reconstruction
    paths, so zero perturbation reproduces the exact result bit for bit and
    each slice of a stack equals the same slice composed alone.
    """
    diag = np.diag(np.exp(1j * np.asarray(phases, dtype=np.float64)))
    out = np.broadcast_to(diag, stack + diag.shape).copy()
    for idx, block in reversed_blocks:
        out[..., idx] = out[..., idx] @ np.conj(block).swapaxes(-1, -2)
    return out


def reconstruct(plan: DecompositionPlan) -> np.ndarray:
    """Multiply a plan back out into the n x n matrix it encodes."""
    return _compose(
        plan.phases,
        ((np.asarray(f.columns) - 1, f.block) for f in reversed(plan.factors)),
    )


def decompose(u, m: int, tol: float | None = None) -> DecompositionPlan:
    """Sweep an n x n unitary into at most ``factor_count_bound(n, m)`` factors.

    ``tol`` is the zero threshold: entries at or below it count as cleared.
    It defaults to ``1e-9 * n * max|u|``.  Raises ``ValueError`` for a
    non-unitary input or an out-of-range ``m``, and ``DecompositionError``
    when a sweep invariant fails (a stamped zero patch above threshold,
    previously cleared rows disturbed, or the factor budget exhausted).
    """
    w = as_matrix(u, square=True).copy()
    n = w.shape[0]
    m = int(m)
    if not 2 <= m <= n:
        raise ValueError(f"block size m={m} must satisfy 2 <= m <= n={n}")
    report = unitarity(w, tol=_INPUT_UNITARY_TOL)
    if not report.is_unitary:
        raise ValueError(
            f"input is not unitary: defect {report.defect:.3e} exceeds "
            f"{_INPUT_UNITARY_TOL:.0e}"
        )
    if tol is None:
        tol = 1e-9 * n * float(np.abs(w).max())
    tol = float(tol)
    if not 0 < tol < 1:
        raise ValueError(f"zero threshold must be in (0, 1), got {tol}")

    budget = 2 * factor_count_bound(n, m)
    factors: list[Factor] = []
    cleared = np.zeros((n, n), dtype=bool)  # below-diagonal entries stamped so far
    new_zero_counts: list[int] = []
    refills = 0

    for row in range(n - 1, 0, -1):  # 0-based active row, bottom to top
        while True:
            live = np.flatnonzero(np.abs(w[row, : row + 1]) > tol)
            if live.size == 0:
                raise DecompositionError(
                    f"row {row + 1} lost its diagonal entry; the zero "
                    f"threshold {tol:.3e} is likely too large"
                )
            if live[-1] == row and live.size == 1:
                break  # only the diagonal survives: row finished
            # Candidate columns: every live entry at or left of the diagonal,
            # with the diagonal column always included so the last block of
            # the row leaves the diagonal as the sole survivor.  (On generic
            # unitaries the diagonal is live anyway; forcing it keeps
            # permutation-like inputs from stalling.)
            cand = live if live[-1] == row else np.append(live, row)
            size = min(m, cand.size)
            cols = cand[:size]
            top = row - size + 1
            _, q = rq_decompose(w[top : row + 1][:, cols])
            w[:, cols] = w[:, cols] @ q
            factors.append(
                Factor(
                    size=size,
                    base_row=row + 1,
                    columns=tuple(int(c) + 1 for c in cols),
                    block=q,
                )
            )
            if len(factors) > budget:
                raise DecompositionError(
                    f"factor budget exhausted ({len(factors)} > {budget} "
                    f"for n={n}, m={m}); zero threshold {tol:.3e} is likely "
                    f"too small for this input"
                )

            # The factor must have stamped a triangular patch of zeros: the
            # k-th selected column is cleared in the k trailing rows of the
            # block (rows top+k .. row).
            patch_rows = np.concatenate(
                [np.arange(top + k, row + 1) for k in range(1, size)]
            )
            patch_cols = np.repeat(cols[:-1], np.arange(size - 1, 0, -1))
            patch = np.abs(w[patch_rows, patch_cols])
            if patch.size and patch.max() > tol:
                raise DecompositionError(
                    f"factor {len(factors)} failed to clear its block: "
                    f"residual {patch.max():.3e} exceeds threshold {tol:.3e}"
                )
            # Rows below the active one were finished earlier; the touched
            # columns there must still be clear.
            if row + 1 < n:
                residue = np.abs(w[row + 1 :][:, cols]).max()
                if residue > tol:
                    raise DecompositionError(
                        f"factor {len(factors)} disturbed finished rows: "
                        f"residual {residue:.3e} exceeds threshold {tol:.3e}"
                    )

            fresh = ~cleared[patch_rows, patch_cols]
            new_zero_counts.append(int(fresh.sum()))
            cleared[patch_rows, patch_cols] = True
            # Any previously stamped zero in a touched column that rose back
            # above threshold is a refill: logged, unmarked, and re-cleared
            # by a later factor.  (Unitarity of the updates makes this
            # impossible in exact arithmetic; the counter watches rounding.)
            for c in cols:
                risen = cleared[:, c] & (np.abs(w[:, c]) > tol)
                if risen.any():
                    refills += int(risen.sum())
                    cleared[risen, c] = False

    # What survives must be a diagonal of pure phases.
    diag_tol = 2.0 * tol * math.sqrt(n) + 1e-12
    off = np.abs(np.triu(w, 1)).max() if n > 1 else 0.0
    if off > diag_tol:
        raise DecompositionError(
            f"residual above-diagonal entry {off:.3e} exceeds {diag_tol:.3e}; "
            f"the swept matrix is not diagonal"
        )
    diag = np.diagonal(w)
    if np.abs(np.abs(diag) - 1.0).max() > diag_tol:
        raise DecompositionError(
            "diagonal of the swept matrix is not unit modulus"
        )
    phases = np.angle(diag)
    phases[phases <= -np.pi] += 2.0 * np.pi  # fold the -pi edge into (-pi, pi]

    return DecompositionPlan(
        n=n,
        m=m,
        factors=tuple(factors),
        phases=phases,
        diagnostics=SweepDiagnostics(
            new_zeros_per_factor=tuple(new_zero_counts),
            refill_events=refills,
            threshold=tol,
        ),
    )


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking a plan against the matrix it should encode."""

    max_error: float
    fidelity: float
    factor_count: int
    factor_bound: int
    tol: float
    passed: bool


def verify(plan: DecompositionPlan, u, tol: float | None = None) -> VerificationReport:
    """Rebuild the plan and compare against ``u`` entry by entry.

    ``passed`` requires the maximum absolute entry error to stay within
    ``tol`` (default ``1e-9 * n``) and the factor count to respect the bound.
    """
    from .robustness import fidelity as _fidelity

    mat = as_matrix(u, square=True)
    if mat.shape[0] != plan.n:
        raise ValueError(
            f"matrix dimension {mat.shape[0]} does not match plan n = {plan.n}"
        )
    if tol is None:
        tol = 1e-9 * plan.n
    tol = float(tol)
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    rebuilt = reconstruct(plan)
    max_error = float(np.abs(rebuilt - mat).max())
    bound = factor_count_bound(plan.n, plan.m)
    count = len(plan.factors)
    return VerificationReport(
        max_error=max_error,
        fidelity=_fidelity(mat, rebuilt),
        factor_count=count,
        factor_bound=bound,
        tol=tol,
        passed=bool(max_error <= tol and count <= bound),
    )


@dataclass(frozen=True)
class CostComparison:
    """Total mesh cost under a per-factor cost model.

    ``cost_m`` is ``c_m`` times the number of size-m factors, ``cost_2`` is
    ``c_2`` times the ``n(n-1)/2`` factors a pure 2 x 2 mesh needs, and
    ``advantageous`` says the m-block mesh is strictly cheaper.
    """

    n: int
    m: int
    count_m: int
    cost_m: float
    cost_2: float
    advantageous: bool


def cost_compare(n: int, m: int, c_m: float, c_2: float, count_m: int) -> CostComparison:
    """Compare an m-block mesh of ``count_m`` factors against a 2 x 2 mesh."""
    n = int(n)
    m = int(m)
    if not 2 <= m <= n:
        raise ValueError(f"block size m={m} must satisfy 2 <= m <= n={n}")
    c_m = float(c_m)
    c_2 = float(c_2)
    if not (c_m > 0 and c_2 > 0):
        raise ValueError(f"costs must be positive, got c_m={c_m}, c_2={c_2}")
    count_m = int(count_m)
    if count_m < 1:
        raise ValueError(f"count_m must be positive, got {count_m}")
    cost_m = c_m * count_m
    cost_2 = c_2 * (n * (n - 1) / 2)
    return CostComparison(
        n=n,
        m=m,
        count_m=count_m,
        cost_m=cost_m,
        cost_2=cost_2,
        advantageous=bool(cost_m < cost_2),
    )
