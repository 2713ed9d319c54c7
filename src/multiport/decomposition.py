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
row are finished and hold exact zeros in every column a later step uses.
When every row is done ``W`` is diagonal with unit-modulus entries, and the
input equals that phase diagonal times the reversed product of the
conjugated factors.

Which entries are zero is decided by structure, never by magnitude: the
schedule of steps is simulated once on the input's exact zero pattern
(``u != 0``), and every step's RQ is applied whatever the size of its
entries.  Dense inputs, including near-permutations with tiny entries, all
share the one schedule of their ``(n, m)``; inputs with exact zeros (phase
diagonals, permutations, block-diagonal matrices) get the shorter schedule
their pattern allows.  Schedules are kept in a small bounded cache.

Steps on disjoint columns commute, so a schedule splits into wavefront
layers: a step's layer is its longest-path depth in the column-conflict
graph (for ``m = 2`` these are the anti-diagonals of the triangular mesh).
``decompose`` and the composition behind ``reconstruct`` run one layer at a
time, with one batched RQ or matrix product per block size in the layer.
A ``DecompositionPlan`` stores its factors as flat arrays in factor order
(sizes, base rows, padded columns and one array of row-major blocks) and
validates them once, when it is built; ``plan.factors`` returns records
whose blocks are read-only views of those arrays.
"""

from __future__ import annotations

import functools
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


def _first(bad: np.ndarray) -> int | None:
    """Index of the first true entry of ``bad``, or ``None``."""
    return int(np.argmax(bad)) if bad.any() else None


def _factor_fault(sizes, base_rows, columns) -> tuple[int, str] | None:
    """The first factor of a plan with a malformed size, columns or base row.

    ``columns`` holds each factor's 0-based columns padded with -1 to a
    width that fits every factor; returns ``(k, message)`` for the first
    factor ``k`` failing a check, or ``None``.
    """
    def named(k):
        return tuple(int(c) + 1 for c in columns[k, : sizes[k]])

    k = _first(sizes < 2)
    if k is not None:
        return k, f"block size must be at least 2, got {sizes[k]}"
    k = _first(columns[:, 0] < 0)
    if k is not None:
        return k, f"column indices are 1-based, got {named(k)}"
    inside = np.arange(1, columns.shape[1]) < sizes[:, np.newaxis]
    k = _first(((columns[:, 1:] <= columns[:, :-1]) & inside).any(axis=1))
    if k is not None:
        return k, f"columns must be strictly ascending, got {named(k)}"
    last = columns[np.arange(len(sizes)), sizes - 1] + 1
    k = _first(base_rows < last)
    if k is not None:
        return k, f"base row {base_rows[k]} lies above the last column {last[k]}"
    return None


def _unitarity_defects(blocks: np.ndarray) -> np.ndarray:
    """``max|B^dag B - I|`` of every ``s x s`` block of a ``(..., s, s)`` stack."""
    gram = np.einsum("...ji,...jk->...ik", np.conj(blocks), blocks)
    return np.abs(gram - _identity(blocks.shape[-1])).max(axis=(-2, -1))


@dataclass(frozen=True, eq=False)
class Factor:
    """One block unitary of a plan, acting on a chosen subset of modes.

    ``columns`` are 1-based mode indices in strictly ascending order;
    ``base_row`` is the 1-based row whose left-of-diagonal entries the block
    was chosen to clear.  ``block`` is the ``size x size`` unitary itself.
    The full-dimension action of the factor is ``embed_factor(factor, n)``.
    ``DecompositionPlan.factors`` builds these records from a plan that was
    validated once, when it was built, and each ``block`` is a read-only
    view of ``plan.blocks``; the record itself checks nothing.
    """

    size: int
    base_row: int
    columns: tuple[int, ...]
    block: np.ndarray


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


class _FactorError(ValueError):
    """Factor ``k`` of a plan is malformed; the message starts ``factors[k]: ``."""


def _frozen(values, dtype) -> np.ndarray:
    """A read-only copy of ``values`` as an array of ``dtype``."""
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class _Layout:
    """Where each factor of a sequence sits, and its wavefront layers.

    ``sizes``, ``base_rows`` (1-based) and ``columns`` (0-based, padded with
    -1 to width m) list the factors in order, and block ``k`` fills
    ``offsets[k]:offsets[k + 1]`` of a flat block array.  ``layers`` holds
    one ``(size, tops, cols, starts)`` group per layer and block size, in
    layer order: the first row of each factor's block in the swept matrix,
    its 0-based columns and the start of its entries in the flat array, as
    ``(k,)``, ``(k, s)`` and ``(k,)`` index arrays for a group of ``k``
    factors.
    """

    sizes: np.ndarray
    base_rows: np.ndarray
    columns: np.ndarray
    offsets: np.ndarray
    layers: tuple

    def __len__(self) -> int:
        return len(self.sizes)

    def by_size(self):
        """Per block size ``s``: ``(s, factors, entries)``.

        ``factors`` are the indices of the size-``s`` factors in order and
        ``entries`` (shape ``(K_s, s*s)``) pick their blocks out of a flat
        block array.
        """
        for s in np.flatnonzero(np.bincount(self.sizes)).tolist():
            factors = np.flatnonzero(self.sizes == s)
            yield s, factors, self.offsets[factors, np.newaxis] + np.arange(s * s)


@functools.lru_cache(maxsize=_SCHEDULE_CACHE_SIZE)
def _layout_of(n: int, m: int, base_rows: bytes, columns: bytes) -> _Layout:
    """Lay out a valid factor sequence given by the bytes of its intp arrays.

    Steps on disjoint columns commute, so a factor's layer is its
    longest-path depth in the column-conflict graph: one past the deepest
    earlier factor sharing a column with it.  Within a layer the factors
    are grouped by block size.  The layers depend only on ``n`` and the
    columns, so a plan read back from its JSON gets the layers of the plan
    it was written from; layouts are kept in a small bounded cache.
    """
    base = np.frombuffer(base_rows, dtype=np.intp)
    cols = np.frombuffer(columns, dtype=np.intp).reshape(-1, m)
    sizes = _frozen(np.count_nonzero(cols >= 0, axis=1), np.intp)
    offsets = _frozen(np.concatenate(([0], np.cumsum(sizes * sizes))), np.intp)
    depth = [0] * n  # per column, one past the deepest layer that used it
    layer = []
    for s, row in zip(sizes.tolist(), cols.tolist()):
        row = row[:s]
        d = max(map(depth.__getitem__, row))
        layer.append(d)
        for c in row:
            depth[c] = d + 1
    order = np.lexsort((sizes, layer))
    key = (np.asarray(layer, dtype=np.intp) * (m + 1) + sizes)[order]
    bounds = np.flatnonzero(np.diff(key, prepend=-1, append=-1)).tolist()
    layers = []
    for start, stop in zip(bounds[:-1], bounds[1:]):
        group = order[start:stop]
        s = int(sizes[group[0]])
        layers.append((
            s,
            _frozen(base[group] - s, np.intp),
            _frozen(cols[group, :s], np.intp),
            _frozen(offsets[group], np.intp),
        ))
    return _Layout(sizes, base, cols, offsets, tuple(layers))


@dataclass(frozen=True, eq=False)
class DecompositionPlan:
    """An ordered factorization ``u = D * Q_N^dag * ... * Q_1^dag``.

    The factors, in the order they were applied to the working matrix, are
    stored as flat arrays: ``sizes`` and 1-based ``base_rows`` (one entry
    per factor), ``columns`` (each factor's 0-based modes, padded with -1 to
    width ``m``) and ``blocks`` (every block row-major, one after the
    other).  ``phases`` holds the n output phase angles, each in
    ``(-pi, pi]``, defining ``D = diag(exp(1j * phases))``.  Construction
    copies the arrays read-only, validates every factor (size, columns,
    base row, and the unitarity of the blocks as one stacked check per
    block size) and splits the factors into wavefront layers; it is the
    only place a factor is checked.  ``factors`` lists them as ``Factor``
    records over read-only views of ``blocks``.
    """

    n: int
    m: int
    sizes: np.ndarray
    base_rows: np.ndarray
    columns: np.ndarray
    blocks: np.ndarray
    phases: np.ndarray
    diagnostics: SweepDiagnostics | None = field(default=None, repr=False)
    _layout: _Layout = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n, m = _check_block_size(self.n, self.m)
        phases = _frozen(self.phases, np.float64)
        if phases.shape != (n,):
            raise ValueError(f"expected {n} phases, got shape {phases.shape}")
        if not np.isfinite(phases).all():
            raise ValueError("phases contain non-finite values")
        if ((phases <= -np.pi) | (phases > np.pi)).any():
            raise ValueError("phases must lie in (-pi, pi]")

        sizes = _frozen(self.sizes, np.intp)
        base_rows = _frozen(self.base_rows, np.intp)
        if sizes.ndim != 1 or base_rows.shape != sizes.shape:
            raise ValueError(
                f"sizes and base_rows must be 1-D of one length, got shapes "
                f"{sizes.shape} and {base_rows.shape}"
            )
        bound = factor_count_bound(n, m)
        if len(sizes) > bound:
            raise ValueError(
                f"{len(sizes)} factors exceed the bound {bound} for n={n}, m={m}"
            )
        k = _first(sizes > m)
        if k is not None:
            raise ValueError(f"factors[{k}] has size {sizes[k]} > m = {m}")
        columns = _frozen(self.columns, np.intp)
        if columns.shape != (len(sizes), m):
            raise ValueError(
                f"columns must be a ({len(sizes)}, {m}) array, got shape {columns.shape}"
            )
        fault = _factor_fault(sizes, base_rows, columns)
        if fault is not None:
            raise _FactorError("factors[%d]: %s" % fault)
        if (columns[np.arange(m) >= sizes[:, np.newaxis]] != -1).any():
            raise ValueError("columns must be padded with -1 past each factor's size")
        k = _first(base_rows > n)
        if k is not None:
            raise ValueError(f"factors[{k}] base row {base_rows[k]} exceeds n = {n}")
        blocks = _frozen(self.blocks, np.complex128)
        entries = int(sizes @ sizes)
        if blocks.shape != (entries,):
            raise ValueError(f"expected {entries} block entries, got shape {blocks.shape}")

        layout = _layout_of(n, m, base_rows.tobytes(), columns.tobytes())
        defects = np.empty(len(sizes))
        for s, factors, index in layout.by_size():
            defects[factors] = _unitarity_defects(blocks[index].reshape(-1, s, s))
        k = _first(~(defects <= _BLOCK_UNITARY_TOL))  # also rejects NaN
        if k is not None:
            raise _FactorError(
                f"factors[{k}]: factor block is not unitary (defect {defects[k]:.3e})"
            )
        for name, value in (
            ("n", n), ("m", m), ("sizes", sizes), ("base_rows", base_rows),
            ("columns", columns), ("blocks", blocks), ("phases", phases),
            ("_layout", layout),
        ):
            object.__setattr__(self, name, value)

    @property
    def factors(self) -> tuple[Factor, ...]:
        """The factors in the order they were applied; blocks are views of ``blocks``."""
        blocks = self.blocks
        return tuple(
            Factor(s, row, tuple(cols[:s]), blocks[start : start + s * s].reshape(s, s))
            for s, row, cols, start in zip(
                self.sizes.tolist(),
                self.base_rows.tolist(),
                (self.columns + 1).tolist(),
                self._layout.offsets.tolist(),
            )
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
    cols = factor.columns
    k = len(cols)
    shape = np.shape(factor.block)
    if not (len(set(cols)) == k and 0 < min(cols, default=0) and max(cols) <= n
            and shape == (k, k)):
        raise ValueError(
            f"factor on columns {cols} with block shape {shape} does not embed in n = {n}"
        )
    out = np.eye(n, dtype=np.complex128)
    idx = np.asarray(cols) - 1
    out[np.ix_(idx, idx)] = factor.block
    return out


def _compose(plan: DecompositionPlan, blocks: np.ndarray) -> np.ndarray:
    """Build ``diag(exp(1j*phases))`` times the daggered blocks of ``plan``.

    ``blocks`` is laid out like ``plan.blocks`` and may carry leading
    ``stack`` axes, one set of blocks per slice; the result then has shape
    ``stack + (n, n)``.  The layers are applied last first.  The factors of
    a layer act on disjoint columns, so one gather, product and scatter per
    block size applies them all with the arithmetic of one factor at a
    time.  Shared by the exact and perturbed reconstruction paths, so zero
    perturbation reproduces the exact result bit for bit and each slice of
    a stack equals the same slice composed alone.
    """
    stack = blocks.shape[:-1]
    diag = np.diag(np.exp(1j * plan.phases))
    out = np.broadcast_to(diag, stack + diag.shape).copy()
    for s, _, cols, starts in reversed(plan._layout.layers):
        entries = starts[:, np.newaxis] + np.arange(s * s)
        block = blocks[..., entries].reshape(stack + (-1, s, s))
        gathered = out[..., cols].swapaxes(-2, -3)
        out[..., cols] = (gathered @ np.conj(block).swapaxes(-1, -2)).swapaxes(-3, -2)
    return out


def reconstruct(plan: DecompositionPlan) -> np.ndarray:
    """Multiply a plan back out into the n x n matrix it encodes."""
    return _compose(plan, plan.blocks)


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

    The steps come as the ``_Layout`` of the plan they produce, in order and
    in wavefront layers: a step of size ``s`` with base row ``b`` covers the
    rows ``b - s:b`` (``b - 1`` is the active row) and its columns.  A
    step's RQ sets the block's lower triangle to exact
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
    base_rows, columns, new_zeros, refills = [], [], [], 0
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
            base_rows.append(row + 1)
            columns.append(cols + [-1] * (m - size))
            new_zeros.append(fresh)
    layout = _layout_of(
        n,
        m,
        np.array(base_rows, dtype=np.intp).tobytes(),
        np.array(columns, dtype=np.intp).reshape(-1, m).tobytes(),
    )
    return layout, tuple(new_zeros), refills


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

    layout, new_zeros, refills = _schedule(n, m, _zero_pattern(w))
    blocks = np.empty(layout.offsets[-1], dtype=np.complex128)
    for s, tops, cols, starts in layout.layers:
        rows = tops[:, np.newaxis] + np.arange(s)
        block = (rows[:, :, np.newaxis], cols[:, np.newaxis, :])
        r, q = rq_decompose(w[block])
        # The rows below each block are finished: they hold exact zeros
        # in its columns, and multiplying keeps them so.
        w[:, cols] = (w[:, cols].swapaxes(0, 1) @ q).swapaxes(0, 1)
        blocks[starts[:, np.newaxis] + np.arange(s * s)] = q.reshape(-1, s * s)
        w[block] = r  # exact zeros below each block's diagonal

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
        sizes=layout.sizes,
        base_rows=layout.base_rows,
        columns=layout.columns,
        blocks=blocks,
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
    count = len(plan.sizes)
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


def cost_compare(n: int, m: int, c_m: float, c_2: float) -> CostComparison:
    """Compare a mesh of ``factor_count_bound(n, m)`` m-blocks against a 2 x 2 mesh."""
    n, m = _check_block_size(n, m)
    c_m = float(c_m)
    c_2 = float(c_2)
    if not (c_m > 0 and c_2 > 0):
        raise ValueError(f"costs must be positive, got c_m={c_m}, c_2={c_2}")
    count_m = factor_count_bound(n, m)
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
