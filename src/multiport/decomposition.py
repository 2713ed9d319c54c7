"""Factor an n x n unitary into embedded block unitaries plus output phases.

The decomposition generalizes the classic triangular mesh of 2 x 2
beam-splitter transformations to blocks of size up to ``m``.  A working copy
``W`` of the input is swept from the bottom row up: for the active row the
sweep repeatedly picks the leftmost columns that hold entries at or left of
the diagonal (at most ``m`` of them, always including the diagonal column
itself), takes the submatrix of those columns over the ``m'`` rows ending at
the active row, and right-multiplies ``W`` by an embedded unitary obtained
from an RQ factorization of that submatrix.  Each multiplication stamps a
triangular patch of exact zeros below the diagonal; rows below the active
row are finished and are not touched again.  When every row is done ``W``
is diagonal with unit-modulus entries, and the input equals that phase
diagonal times the reversed product of the conjugated factors.

Which entries are zero is decided by structure, never by magnitude: the
schedule of steps is simulated once on the input's exact zero pattern
(``u != 0``), and every step's RQ is applied whatever the size of its
entries.  Dense inputs, including near-permutations with tiny entries, all
share the one schedule of their ``(n, m)``; inputs with exact zeros (phase
diagonals, permutations, block-diagonal matrices) get the shorter schedule
their pattern allows.  Schedules are kept in a small bounded cache.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field

import numpy as np

from .linalg import as_matrix, rq_decompose, unitarity

__all__ = [
    "DecompositionError",
    "Factor",
    "DecompositionPlan",
    "factor_count_bound",
    "embed_factor",
    "decompose",
    "reconstruct",
    "verify",
    "cost_compare",
]

_BLOCK_UNITARY_TOL = 1e-10
_INPUT_UNITARY_TOL = 1e-8
_SCHEDULE_CACHE_SIZE = 16


class DecompositionError(RuntimeError):
    """The swept matrix did not end as a diagonal of unit-modulus phases."""


def _check_block_size(n, m) -> tuple[int, int]:
    """``(n, m)`` as ints; raises ``ValueError`` unless ``2 <= m <= n``."""
    n, m = int(n), int(m)
    if not 2 <= m <= n:
        raise ValueError(f"block size m={m} must satisfy 2 <= m <= n={n}")
    return n, m


@functools.lru_cache(maxsize=32)
def _identity(k: int) -> np.ndarray:
    eye = np.eye(k, dtype=np.complex128)
    eye.setflags(write=False)
    return eye


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
        size = int(self.size)
        base_row = int(self.base_row)
        columns = tuple(map(int, self.columns))
        block = np.array(self.block, dtype=np.complex128)
        block.setflags(write=False)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "base_row", base_row)
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "block", block)

        if size < 2:
            raise ValueError(f"block size must be at least 2, got {size}")
        if block.shape != (size, size):
            raise ValueError(f"block shape {block.shape} does not match size {size}")
        if len(columns) != size:
            raise ValueError(f"expected {size} columns, got {len(columns)}")
        if columns[0] < 1:
            raise ValueError(f"column indices are 1-based, got {columns}")
        if not all(map(operator.lt, columns, columns[1:])):
            raise ValueError(f"columns must be strictly ascending, got {columns}")
        if base_row < columns[-1]:
            raise ValueError(
                f"base row {base_row} lies above the last column {columns[-1]}"
            )
        defect = np.abs(block.conj().T @ block - _identity(size)).max()
        if not defect <= _BLOCK_UNITARY_TOL:  # also rejects NaN
            raise ValueError(f"factor block is not unitary (defect {defect:.3e})")


@dataclass(frozen=True)
class SweepDiagnostics:
    """Bookkeeping from one decomposition run (not serialized with the plan).

    Both counts come from the schedule, which is simulated on the input's
    zero pattern.  ``new_zeros_per_factor`` counts the below-diagonal
    entries each factor stamps to zero for the first time;
    ``refill_events`` counts stamped zeros that a later factor may fill
    again (zero on dense inputs).
    """

    new_zeros_per_factor: tuple[int, ...]
    refill_events: int

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
        n, m = _check_block_size(self.n, self.m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "factors", tuple(self.factors))
        phases = np.array(self.phases, dtype=np.float64)
        phases.setflags(write=False)
        object.__setattr__(self, "phases", phases)

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
    n, m = _check_block_size(n, m)
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


def _zero_pattern(w: np.ndarray) -> bytes:
    """The exact nonzero pattern of ``w``: row-major bitmask rows, bit c = column c."""
    return np.packbits(w != 0, axis=1, bitorder="little").tobytes()


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@functools.lru_cache(maxsize=_SCHEDULE_CACHE_SIZE)
def _schedule(n: int, m: int, pattern: bytes):
    """Simulate the sweep on a zero pattern; return its steps and zero counts.

    Each step is ``(top, stop, idx, columns)``: the block covers rows
    ``top:stop`` (``stop - 1`` is the active row) and the 0-based columns
    ``idx`` (a slice when they are contiguous), and ``columns`` are the same
    columns 1-based.  A step's RQ sets the block's lower triangle to exact
    zeros; any other row with a nonzero in the block's columns may then hold
    nonzeros in all of them, and a row with none keeps exact zeros there.
    The one exception is a 2-column step whose bottom row is ``(x, 0)``:
    its rotation is an exact swap with phases, so the columns trade entries.
    Rows below the active row are finished and never touched.  Also returns
    the below-diagonal entries each step stamps to zero for the first time,
    and the stamped entries a later step may fill again (refills).
    """
    width = (n + 7) // 8
    rows = [int.from_bytes(pattern[r * width : (r + 1) * width], "little") for r in range(n)]
    col_rows = [0] * n  # col_rows[c] has bit r set iff entry (r, c) may be nonzero
    for r, mask in enumerate(rows):
        for c in _bits(mask):
            col_rows[c] |= 1 << r
    cleared = [0] * n  # per row, the below-diagonal entries stamped to zero
    steps, new_zeros, refills = [], [], 0
    indices = {}  # 1-based columns -> (0-based index, the same columns)
    for row in range(n - 1, 0, -1):
        diag = 1 << row
        while True:
            # The diagonal always joins the candidates, so the row's last
            # block leaves it as the sole survivor at or left of it.
            live = (rows[row] & (diag - 1)) | diag
            if live == diag:
                break
            cols = _bits(live)[:m]
            size = len(cols)
            top = row - size + 1
            block = touching = 0
            in_all = -1
            for c in cols:
                block |= 1 << c
                touching |= col_rows[c]
                in_all &= col_rows[c]
            if size == 2 and not rows[row] >> cols[1] & 1:
                # The bottom row is (x, 0), so rq_decompose returns an exact
                # swap with phases: the two columns trade entries, no fill.
                for r in _bits(touching & ~in_all):
                    rows[r] ^= block
                    refills += (cleared[r] & rows[r]).bit_count()
                    cleared[r] &= ~rows[r]
                j = cols[0]
                col_rows[j], col_rows[row] = col_rows[row], col_rows[j]
                fresh = 1 - (cleared[row] >> j & 1)
                cleared[row] |= 1 << j
            else:
                above = touching & ((1 << top) - 1)
                # Rows above the block that touch some but not all of its
                # columns fill in the rest; rows touching all are unchanged.
                for r in _bits(above & ~in_all):
                    rows[r] |= block
                    refills += (cleared[r] & block).bit_count()
                    cleared[r] &= ~block
                finished = ~((diag << 1) - 1)
                for c in cols:
                    col_rows[c] = above | (col_rows[c] & finished)
                # Row top + k of the block is stamped to zero in its first k
                # columns and keeps the rest, if it touched the block at all.
                fresh = 0
                kept = block
                for k in range(size):
                    r = top + k
                    if k:
                        kept &= ~(1 << cols[k - 1])
                    if rows[r] & block:
                        rows[r] = (rows[r] & ~block) | kept
                        refills += (cleared[r] & kept).bit_count()
                        cleared[r] &= ~kept
                        for c in cols[k:]:
                            col_rows[c] |= 1 << r
                    stamp = block & ~kept
                    fresh += (stamp & ~cleared[r]).bit_count()
                    cleared[r] |= stamp
            columns = tuple(c + 1 for c in cols)
            if columns not in indices:  # many steps share a column set
                if cols[-1] - cols[0] == size - 1:
                    idx = slice(cols[0], cols[-1] + 1)
                else:
                    idx = np.array(cols)
                    idx.setflags(write=False)
                indices[columns] = (idx, columns)
            steps.append((top, row + 1, *indices[columns]))
            new_zeros.append(fresh)
    return tuple(steps), tuple(new_zeros), refills


def decompose(u, m: int) -> DecompositionPlan:
    """Sweep an n x n unitary into at most ``factor_count_bound(n, m)`` factors.

    The schedule comes from the exact zero pattern of ``u`` (see the module
    docstring) and is cached per ``(m, pattern)``, so every dense input of a
    given size shares one.  Raises ``ValueError`` for a non-unitary input or
    an out-of-range ``m``, and ``DecompositionError`` if the swept matrix is
    not a diagonal of unit-modulus phases.
    """
    w = as_matrix(u, square=True).copy()
    n, m = _check_block_size(w.shape[0], m)
    report = unitarity(w, tol=_INPUT_UNITARY_TOL)
    if not report.is_unitary:
        raise ValueError(
            f"input is not unitary: defect {report.defect:.3e} exceeds "
            f"{_INPUT_UNITARY_TOL:.0e}"
        )

    steps, new_zeros, refills = _schedule(n, m, _zero_pattern(w))
    factors = []
    for top, stop, idx, columns in steps:
        r, q = rq_decompose(w[top:stop, idx])
        w[:top, idx] = w[:top, idx] @ q
        w[top:stop, idx] = r
        factors.append(
            Factor(size=len(columns), base_row=stop, columns=columns, block=q)
        )

    # What survives must be a diagonal of pure phases.  An input that is
    # unitary within _INPUT_UNITARY_TOL ends within about n times that.
    diag = np.diagonal(w)
    diag_tol = 2.0 * n * _INPUT_UNITARY_TOL
    off = np.abs(w - np.diag(diag)).max()
    if off > diag_tol:
        raise DecompositionError(
            f"residual off-diagonal entry {off:.3e} exceeds {diag_tol:.3e}; "
            f"the swept matrix is not diagonal"
        )
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
            new_zeros_per_factor=new_zeros, refill_events=refills
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
    n, m = _check_block_size(n, m)
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
