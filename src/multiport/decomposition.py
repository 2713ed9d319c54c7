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
When every row is done, ``W`` of a unitary input is diagonal with
unit-modulus entries, and the input equals that phase diagonal times the
reversed product of the conjugated factors.

For any finite input the sweep is an RQ factorization ``R = U Q``: ``Q``
is the product of the factors and ``R``, the swept ``W``, is upper
triangular.  A plan rebuilds ``D Q^dag``, ``D = diag(exp(1j * phases))``
the unit-modulus part of R's diagonal, so its round-trip error is
``E = (R - D) Q^dag`` and, the columns of ``Q^dag`` being unit vectors,
``|E_ij| <= ||row_i(R - D)||_2`` plus rounding.  That triangle is the one
judge of the input (``_phases``): ``decompose`` accepts it exactly when
every row of ``R - D`` has 2-norm at most ``0.9 * tol``, ``tol = 1e-9 * n``
being ``verify``'s default, so every plan it returns passes ``verify``.
The other tenth is the margin for rounding, which enters through products
with factors unitary to rounding; the backward error bounds for sequences
of Householder and Givens transformations (Higham 2002, ch. 19) make it a
small multiple of ``n * m * eps`` on an accepted input, whose norm is 1 to
within the bound.  Measured over Haar, near-permutation, block-diagonal
and phase-only inputs at n = 2 to 100, it adds at most ``0.5 * n * eps``,
about 10^6 times below the margin.  A unitary input leaves ``R - D`` at
rounding level and is accepted at any size.  An input with an entry of
modulus above 2, which no unitary has, is rejected before the sweep,
which keeps the sweep's arithmetic finite.

Which entries are zero is decided by structure, never by magnitude: the
schedule of steps is simulated once on the input's exact zero pattern
(``u != 0``), and every step's RQ is applied whatever the size of its
entries.  Dense inputs, including near-permutations with tiny entries, all
share the one schedule of their ``(n, m)``; inputs with exact zeros (phase
diagonals, permutations, block-diagonal matrices) get the shorter schedule
their pattern allows; no schedule is longer than ``factor_count_bound``
(see ``_schedule``).  Schedules are kept in a small bounded cache.

Steps on disjoint columns commute, so a schedule splits into wavefront
layers: a step's layer is its longest-path depth in the column-conflict
graph (for ``m = 2`` these are the anti-diagonals of the triangular mesh).
The sweep runs one layer at a time, with one batched RQ and one product
per block size in the layer, on a whole stack of inputs at once.  The
working matrices are kept transposed, row ``c`` holding column ``c``, so a
layer moves whole contiguous rows and its product is a stack of
``(s, s) @ (s, n)`` products that numpy hands to BLAS as they lie.  A
layer group's factors are sorted by first column; where their columns,
concatenated, are one run ``c0 .. c1 - 1`` (every group of a dense
``m = 2`` mesh: adjacent pairs), the group multiplies the slice of rows
``c0:c1`` in place, and otherwise it gathers its rows by index and
scatters them back.  Both give the same bits.  At ``m >= 3`` the factors
of a layer take interleaved columns, so there only single-factor groups
are runs.  The sweep reads a group's blocks for its RQ out of the working
matrices through one flat index per group into each matrix read as a row
of ``n*n`` entries.  It takes only each RQ's ``q``: the group's product
already leaves each block upper triangular, and the sweep stamps exact
zeros below each block's diagonal through the same index.  A 2 x 2
group reads only its blocks' bottom rows, which alone decide each
closed-form rotation, and the rotation is written straight into the
group's slice of the block listing; larger groups copy their RQ's ``q``
there, and every group's product reads its blocks from there.
Blocks have one order everywhere, the factor order: the layout lists each
block size's blocks once, group by group in the order of the layers, and
a layer group holds its slice of that listing, where the sweep writes its
blocks and the composition reads them.
A stack holds one zero pattern, so its inputs share one schedule and cross
its layers together, and each matrix gets the arithmetic, and so the blocks
and phases, it would get alone.  ``decompose`` is the stack of one and
returns one plan; the noise sweeps decompose all their trial matrices of
one size, Haar draws and so dense, as one stack, and build no per-matrix
plans: they take the shared layout with a ``(T, entries)`` block array and
``(T, n)`` phases.  The composition behind ``reconstruct`` runs the same
layers, transposed, in real arithmetic (see ``_compose``).
A ``DecompositionPlan`` stores its factors as flat arrays in factor order,
the arrays of its JSON file (sizes, base rows, 1-based columns and one
array of row-major blocks), and validates them once, when it is built;
``plan.factors`` returns each factor's block, shaped ``size x size``, as
a read-only view of ``blocks``.  One checker, ``_validated``, serves both:
it checks a plan's fields, or a sweep's whole stack of blocks and phases
at once, with the same checks and messages, and raises every fault as a
``ValueError``.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .linalg import _fidelities, _rotations, _rq_unitaries, _to_float, as_matrix

__all__ = [
    "DecompositionPlan",
    "factor_count_bound",
    "decompose",
    "reconstruct",
    "verify",
    "cost_compare",
]

_BLOCK_UNITARY_TOL = 1e-10
_TOL_PER_MODE = 1e-9  # ``verify``'s default tolerance is this times n
_SCHEDULE_CACHE_SIZE = 16


def _check_block_size(n, m) -> tuple[int, int]:
    """``(n, m)`` as ints; raises ``TypeError`` unless both are integers
    and ``ValueError`` unless ``2 <= m <= n``."""
    n, m = operator.index(n), operator.index(m)
    if not 2 <= m <= n:
        raise ValueError(f"block size m={m} must satisfy 2 <= m <= n={n}")
    return n, m


def _first(bad: np.ndarray) -> int | None:
    """Index of the first true entry of ``bad``, or ``None``."""
    return int(np.argmax(bad)) if bad.any() else None


def _unitarity_defects(blocks: np.ndarray) -> np.ndarray:
    """``max|B^dag B - I|`` of every ``s x s`` block of a ``(..., s, s, K)``
    stack, the factor axis last, as ``(..., K)``: the unitarity measure of
    a plan's blocks.  Inputs are judged by their sweep instead (``_phases``)."""
    # Measured on 2 cores: s products over contiguous K-long rows win up to
    # s = 5 (4950 2x2 blocks: 0.7 against 3.2 ms for a stacked ``@``; 400 5x5
    # blocks: 0.16 against 0.24 ms), the two are even at s = 6, and ``@``
    # wins from s = 7 (400 10x10 blocks: 0.65 against 1.2 ms; one 300x300
    # block: 3 against 75 ms).
    s = blocks.shape[-2]
    if s <= 5:
        conj = np.conj(blocks)
        gram = conj[..., 0, :, None, :] * blocks[..., 0, None, :, :]
        for j in range(1, s):
            gram += conj[..., j, :, None, :] * blocks[..., j, None, :, :]
        gram = gram.reshape(gram.shape[:-3] + (s * s, -1))
    else:
        stacked = np.ascontiguousarray(np.moveaxis(blocks, -1, -3))
        gram = np.conj(stacked).swapaxes(-1, -2) @ stacked
        gram = gram.reshape(gram.shape[:-2] + (s * s,)).swapaxes(-1, -2)  # a view
    gram[..., :: s + 1, :] -= 1
    return np.abs(gram).max(axis=-2)


def _frozen(values, dtype) -> np.ndarray:
    """A read-only copy of ``values`` as an array of ``dtype``."""
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


def _field(name: str, values, dtype) -> np.ndarray:
    """Plan field ``name`` as a read-only ``dtype`` array; a ``ValueError``
    that names the field if a value lies outside the range of ``dtype``, if
    the cast fails (a complex phase, a ``None`` column), or, for an integer
    field, if the cast would change a value (``2.5``, or a ``uint64`` that
    wraps)."""
    try:
        given = np.asarray(values)
        with np.errstate(invalid="ignore"):  # a value the cast changes is named below
            # A list converts once; values of another dtype are cast from
            # ``values`` itself, which keeps Python's errors for NaN and range.
            out = _frozen(given if given.dtype == dtype else values, dtype)
    except OverflowError:
        raise ValueError(f"{name}: a value is out of range for {np.dtype(dtype)}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name}: {exc}") from None
    if out.dtype.kind == "i" and given.dtype != out.dtype:
        k = _first((out != given).ravel())
        if k is not None:
            raise ValueError(
                f"{name}: {given.ravel().tolist()[k]!r} is not an integer "
                f"in the range of {out.dtype}"
            )
    return out


@dataclass(frozen=True, eq=False)
class _Layout:
    """Where each factor of a sequence sits, and its wavefront layers.

    ``sizes``, ``base_rows`` (1-based) and ``columns`` (each factor's 1-based
    columns, concatenated) list the factors in order, and block ``k`` fills
    ``offsets[k]:offsets[k + 1]`` of a flat block array.  ``applied`` holds
    one ``(size, factors, entries)`` triple per block size, the sizes
    ascending: ``factors`` are the indices of that size's factors group by
    group, in the order of ``layers``, and ``entries`` the ``(K_s, s*s)``
    indices of their blocks in the flat block array.  ``layers`` holds one
    ``(size, index, cols, span, run, lower)`` group per layer and block
    size, the layers in order.  A group's ``k`` factors are sorted by first
    column; ``cols`` holds their 0-based columns as ``(k, s)``, ``index`` the
    ``(k, s, s)`` flat index of their blocks in a transposed ``n x n``
    matrix read as one row of ``n*n``
    (entry ``(i, j)`` of factor ``f``'s block, from row ``base_row - s + i``
    and column ``cols[f, j]``, sits at ``cols[f, j] * n + base_row - s +
    i``), and ``span`` the slice of its size's ``factors`` and ``entries``
    that holds them.  ``run`` is ``slice(c0, c0 + k*s)`` when the group's
    columns, concatenated, are exactly ``c0 .. c0 + k*s - 1``, so the
    kernels can move its rows as one slice; else ``None``.  ``lower`` holds
    the ``(k, s*(s-1)/2)`` flat positions of the blocks' strictly lower
    entries, ``index[:, i, j]`` for ``j < i``, where the sweep stamps zeros.
    """

    sizes: np.ndarray
    base_rows: np.ndarray
    columns: np.ndarray
    offsets: np.ndarray
    layers: tuple
    applied: tuple

    def __len__(self) -> int:
        return len(self.sizes)


@functools.lru_cache(maxsize=_SCHEDULE_CACHE_SIZE)
def _layout_of(n: int, m: int, sizes: bytes, base_rows: bytes, columns: bytes) -> _Layout:
    """Lay out a valid factor sequence given by the bytes of its intp arrays.

    Steps on disjoint columns commute, so a factor's layer is its
    longest-path depth in the column-conflict graph: one past the deepest
    earlier factor sharing a column with it.  Within a layer the factors
    are grouped by block size, and a group is sorted by first column, so
    adjacent factors on adjacent columns make one run (see ``_Layout``);
    the order within a group is free, as its factors act on disjoint
    columns and its span of ``entries`` places each block.  The layers
    depend only on ``n`` and the columns, so a plan read back from its
    JSON gets the layers of the plan it was written from; layouts are kept
    in a small bounded cache.  Only here do columns turn 0-based: the
    groups' ``cols``, ``index`` and ``run`` address rows of the working
    matrices.
    """
    sizes = np.frombuffer(sizes, dtype=np.intp)
    base = np.frombuffer(base_rows, dtype=np.intp)
    flat = np.frombuffer(columns, dtype=np.intp)
    zero_based = flat - 1
    starts = np.cumsum(sizes) - sizes  # each factor's first entry in ``flat``
    offsets = _frozen(np.concatenate(([0], np.cumsum(sizes * sizes))), np.intp)
    depth = [0] * n  # per column, one past the deepest layer that used it
    layer = []
    listed = zero_based.tolist()
    for s, start in zip(sizes.tolist(), starts.tolist()):
        row = listed[start : start + s]
        d = max(map(depth.__getitem__, row))
        layer.append(d)
        for c in row:
            depth[c] = d + 1
    first = zero_based[starts]
    order = np.lexsort((first, sizes, layer))
    key = (np.asarray(layer, dtype=np.intp) * (m + 1) + sizes)[order]
    bounds = np.flatnonzero(np.diff(key, prepend=-1, append=-1)).tolist()
    grouped = [0] * (m + 1)  # per size, its factors in the groups so far
    layers = []
    for start, stop in zip(bounds[:-1], bounds[1:]):
        group = order[start:stop]
        s = int(sizes[group[0]])
        group_cols = zero_based[starts[group, np.newaxis] + np.arange(s)]
        c0 = int(group_cols[0, 0])
        run = slice(c0, c0 + group_cols.size)
        tiled = np.array_equal(group_cols.ravel(), np.arange(run.start, run.stop))
        rows = base[group, np.newaxis, np.newaxis] - s + np.arange(s)[:, np.newaxis]
        index = group_cols[:, np.newaxis, :] * n + rows
        below = np.tril_indices(s, -1)
        layers.append((
            s,
            _frozen(index, np.intp),
            _frozen(group_cols, np.intp),
            slice(grouped[s], grouped[s] + len(group)),
            run if tiled else None,
            _frozen(index[:, below[0], below[1]], np.intp),
        ))
        grouped[s] += len(group)
    applied = []
    for s in np.flatnonzero(np.bincount(sizes)).tolist():
        factors = order[sizes[order] == s]
        entries = offsets[factors, np.newaxis] + np.arange(s * s)
        applied.append((s, _frozen(factors, np.intp), _frozen(entries, np.intp)))
    return _Layout(sizes, base, flat, offsets, tuple(layers), tuple(applied))


_PLAN_FIELDS = ("n", "m", "sizes", "base_rows", "columns", "blocks", "phases", "_layout")


def _validated(n, m, sizes, base_rows, columns, blocks, phases, stack=()):
    """Check the fields of one plan, or of a stack of plans sharing their factors.

    The factors (``sizes``, ``base_rows``, ``columns``) are one sequence;
    ``blocks`` and ``phases`` carry the leading ``stack`` axes, one set of
    blocks and phases per plan (none for a single plan).  Every check runs
    once over the whole stack: the phases, the factors' sizes, columns and
    base rows, and the unitarity of every block, as ``max|B^dag B - I|``
    per factor over each block size's blocks gathered with the factor axis
    last (``_unitarity_defects`` picks the kernel by block size).  Raises a
    plain ``ValueError`` at the first fault, a value out of range for its
    field's array and a non-integer ``n`` or ``m`` (``n: ...``) included;
    the message of a fault of factor ``k``, in any plan of the stack,
    starts ``factors[k]: ``.
    Returns the fields of ``_PLAN_FIELDS`` in order, the arrays as
    read-only copies and the factors' ``_Layout`` last.  This is the one
    checker of a plan: ``DecompositionPlan`` and the stack decomposition
    both check through here.
    """
    for name, value in (("n", n), ("m", m)):
        try:
            operator.index(value)
        except TypeError as exc:
            raise ValueError(f"{name}: {exc}") from None
    n, m = _check_block_size(n, m)
    phases = _field("phases", phases, np.float64)
    if phases.shape != stack + (n,):
        raise ValueError(f"expected {n} phases, got shape {phases.shape}")
    if not np.isfinite(phases).all():
        raise ValueError("phases contain non-finite values")
    if ((phases <= -np.pi) | (phases > np.pi)).any():
        raise ValueError("phases must lie in (-pi, pi]")

    sizes = _field("sizes", sizes, np.intp)
    base_rows = _field("base_rows", base_rows, np.intp)
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
        raise ValueError(f"factors[{k}]: block size {sizes[k]} exceeds m = {m}")
    k = _first(sizes < 2)
    if k is not None:
        raise ValueError(f"factors[{k}]: block size must be at least 2, got {sizes[k]}")
    columns = _field("columns", columns, np.intp)
    count = int(sizes.sum())
    if columns.shape != (count,):
        raise ValueError(
            f"columns must be 1-D of length sum(sizes) = {count}, got shape {columns.shape}"
        )
    ends = np.cumsum(sizes)
    starts = ends - sizes

    def named(k):  # factor k's columns, as a message shows them
        return tuple(columns[starts[k] : ends[k]].tolist())

    k = _first(columns[starts] < 1)
    if k is not None:
        raise ValueError(f"factors[{k}]: column indices are 1-based, got {named(k)}")
    owner = np.repeat(np.arange(len(sizes)), sizes)  # the factor of each column
    j = _first((columns[1:] <= columns[:-1]) & (owner[1:] == owner[:-1]))
    if j is not None:
        k = int(owner[j])
        raise ValueError(f"factors[{k}]: columns must be strictly ascending, got {named(k)}")
    last = columns[ends - 1]
    k = _first(base_rows < last)
    if k is not None:
        raise ValueError(
            f"factors[{k}]: base row {base_rows[k]} lies above the last column {last[k]}"
        )
    k = _first(base_rows > n)
    if k is not None:
        raise ValueError(f"factors[{k}]: base row {base_rows[k]} exceeds n = {n}")
    blocks = _field("blocks", blocks, np.complex128)
    entries = int(sizes @ sizes)
    if blocks.shape != stack + (entries,):
        raise ValueError(f"expected {entries} block entries, got shape {blocks.shape}")

    layout = _layout_of(n, m, sizes.tobytes(), base_rows.tobytes(), columns.tobytes())
    defects = np.empty(stack + (len(sizes),))
    for s, factors, entries in layout.applied:
        gathered = np.take(blocks, entries.T, axis=-1)  # (..., s*s, K): factor axis last
        defects[..., factors] = _unitarity_defects(gathered.reshape(stack + (s, s, -1)))
    bad = _first(~(defects <= _BLOCK_UNITARY_TOL))  # also rejects NaN
    if bad is not None:
        raise ValueError(
            f"factors[{bad % len(sizes)}]: factor block is not unitary "
            f"(defect {defects.flat[bad]:.3e})"
        )
    return n, m, sizes, base_rows, columns, blocks, phases, layout


@dataclass(frozen=True, eq=False)
class DecompositionPlan:
    """An ordered factorization ``u = D * Q_N^dag * ... * Q_1^dag``.

    The factors, in the order they were applied to the working matrix, are
    stored as flat arrays: ``sizes`` and 1-based ``base_rows`` (one entry
    per factor), ``columns`` (each factor's 1-based modes, concatenated)
    and ``blocks`` (every block row-major, one after the other), the
    arrays of the plan's JSON file.  ``phases`` holds the n output phase
    angles, each in ``(-pi, pi]``, defining ``D = diag(exp(1j * phases))``.
    Construction copies the arrays read-only, validates every factor (size,
    columns, base row, and the unitarity of the blocks, checked per block
    size) and splits the factors into wavefront layers, all through
    ``_validated``, the one plan checker, which also checks the block
    stacks of the sweeps.  Every fault raises ``ValueError``, a value
    out of range for its field included; a fault of factor ``k`` reads
    ``factors[k]: ...``.  ``factors`` gives each factor's block, shaped
    ``size x size``, as a read-only view of ``blocks``.
    """

    n: int
    m: int
    sizes: np.ndarray
    base_rows: np.ndarray
    columns: np.ndarray
    blocks: np.ndarray
    phases: np.ndarray
    _layout: _Layout = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for name, value in zip(_PLAN_FIELDS, _validated(
            self.n, self.m, self.sizes, self.base_rows, self.columns, self.blocks, self.phases
        )):
            object.__setattr__(self, name, value)

    @property
    def factors(self) -> tuple[np.ndarray, ...]:
        """Each factor's ``size x size`` block, in factor order, as a
        read-only view of ``blocks``."""
        blocks = self.blocks
        return tuple(
            blocks[b : b + s * s].reshape(s, s)
            for s, b in zip(self.sizes.tolist(), self._layout.offsets.tolist())
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


@functools.lru_cache(maxsize=None)
def _embedding_pattern(s: int) -> tuple[np.ndarray, np.ndarray]:
    """How ``_compose`` turns a row-major ``s x s`` block into its real
    ``(2s, 2s)`` embedding: the order in which to read its ``s*s`` entries
    and the ``[1, 1j]`` factors to multiply them by, both of length
    ``2*s*s``.  Entry ``(i, p, j)`` of the block's ``(s, 2, s)`` complex
    rows is ``b_ij``; as float64 pairs, row ``(i, 0)`` holds ``[Re b, Im b]``
    for each ``j``, and row ``(i, 1)``, multiplied by ``1j`` exactly, holds
    ``[-Im b, Re b]``.  They depend only on ``s``, so they are built once
    per block size, read-only."""
    order = np.arange(s * s).reshape(s, 1, s).repeat(2, axis=1).ravel()
    return _frozen(order, np.intp), _frozen(np.tile(np.repeat([1, 1j], s), s), np.complex128)


def _compose(layout: _Layout, blocks: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Build ``diag(exp(1j*phases))`` times the daggered blocks of a layout.

    ``blocks`` is laid out like ``DecompositionPlan.blocks`` and may carry
    leading ``stack`` axes, one set of blocks per slice; ``phases`` holds n
    phase angles per slice, with leading axes that broadcast to ``stack``.
    The slices may come from different plans that share the layout.  The
    result is a C-contiguous complex array of shape ``stack + (n, n)``.

    The product is built transposed, row ``c`` holding column ``c``, so a
    factor's right-multiplication by ``B^dag`` is ``conj(B)`` times the
    contiguous rows of its columns.  It is built in real arithmetic: the
    working array is float64 of shape ``stack + (n, 2, n)``, row ``c``
    holding the real part of column ``c`` at ``[..., c, 0, :]`` and its
    imaginary part at ``[..., c, 1, :]``, so the ``s`` rows of a factor
    read as ``2s`` real rows.  Each block entry ``b`` becomes the real
    ``2 x 2`` block ``[[Re b, Im b], [-Im b, Re b]]``, which multiplies by
    ``conj(b)``, so a block becomes one ``(2s, 2s)`` matrix; a real
    ``(2s, 2s) @ (2s, n)`` product costs a fraction of a complex
    ``(s, s) @ (s, n)`` one at these shapes.  The embeddings are built
    once per call, one pass per block size with its factors listed group
    by group (``_Layout.applied``), so each group reads its contiguous
    ``span`` of them.  Per size, one ``np.take`` gathers the blocks, a
    second spreads each block's entries into embedding order, and one
    in-place product applies the ``[1, 1j]`` factors; order and factors
    come from ``_embedding_pattern``, built once per block size.  The
    layers are applied last first, each block size of a layer with one
    stacked product of whole rows, as the factors of a layer act on
    disjoint columns: in place on the slice of a group's run, or through a
    gather and scatter of its rows where it has none.  Shared by the exact
    and perturbed reconstruction paths, so zero perturbation reproduces the
    exact result bit for bit and each slice of a stack equals the same
    slice composed alone.  The sweep stays complex: its RQs need complex
    blocks, so split rows would pay a conversion per group there.
    """
    stack = blocks.shape[:-1]
    n = phases.shape[-1]
    embeddings = {}
    for s, _, entries in layout.applied:
        order, signs = _embedding_pattern(s)
        embedding = np.take(np.take(blocks, entries, axis=-1), order, axis=-1)
        embedding *= signs
        embeddings[s] = embedding.view(np.float64).reshape(stack + (-1, 2 * s, 2 * s))
    out = np.zeros(stack + (n, 2, n))
    diagonal = np.exp(1j * phases)
    d = np.arange(n)
    out[..., d, 0, d] = diagonal.real
    out[..., d, 1, d] = diagonal.imag
    for s, _, cols, span, run, _ in reversed(layout.layers):
        block = embeddings[s][..., span, :, :]
        if run is None:
            rows = out[..., cols, :, :]
            out[..., cols, :, :] = (block @ rows.reshape(stack + (-1, 2 * s, n))).reshape(rows.shape)
        else:
            tile = out[..., run, :, :].reshape(stack + (-1, 2 * s, n))
            np.matmul(block, tile, out=tile)
    # C-contiguous, so ``_fidelities`` reads each slice as one flat segment
    # of n*n entries without a copy; a transposed view would need one.
    result = np.empty(stack + (n, n), dtype=np.complex128)
    result.view(np.float64).reshape(stack + (n, n, 2))[...] = np.moveaxis(out, -1, -3)
    return result


def reconstruct(plan: DecompositionPlan) -> np.ndarray:
    """Multiply a plan back out into the n x n matrix it encodes."""
    return _compose(plan._layout, plan.blocks, plan.phases)


def _zero_pattern(w: np.ndarray) -> bytes:
    """The exact nonzero pattern of ``w``: row-major bitmask rows, bit c = column c."""
    return np.packbits(w != 0, axis=1, bitorder="little").tobytes()


def _bits(mask: int, limit: int = -1) -> list[int]:
    """Indices of the set bits of ``mask``, lowest first; at most ``limit`` if given."""
    out = []
    while mask and len(out) != limit:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@functools.lru_cache(maxsize=_SCHEDULE_CACHE_SIZE)
def _schedule(n: int, m: int, pattern: bytes) -> _Layout:
    """The steps of the sweep of a zero pattern, as a cached ``_Layout``.

    The steps come as the ``_Layout`` of the plan they produce, in order and
    in wavefront layers (see ``_simulate``).  No zero counts are kept: a
    schedule with sizes ``s`` clears exactly ``sum(s * (s - 1) // 2)`` of
    the ``n(n-1)/2`` below-diagonal entries, none twice (see ``_simulate``),
    and each row ends with at most one step smaller than ``m``, the one
    that takes the diagonal; so no schedule exceeds ``factor_count_bound``.
    """
    steps = _simulate(n, m, pattern)
    return _layout_of(n, m, *(np.array(a, dtype=np.intp).tobytes() for a in steps))


def _simulate(n: int, m: int, pattern: bytes):
    """Simulate the sweep on a zero pattern; return its steps.

    The steps come in order as three lists, the arrays of a plan: their
    sizes, their base rows and their 1-based columns, concatenated.  A step
    of size ``s`` with base row ``b`` covers the rows ``b - s:b`` (``b - 1``
    is the active row) and its columns.  A step's RQ sets the block's lower
    triangle to exact zeros; any other row with a nonzero in the block's
    columns may then hold nonzeros in all of them, and a row with none
    keeps exact zeros there.
    The one exception is a 2-column step whose bottom row is ``(x, 0)``:
    its rotation is an exact swap with phases, so the columns trade entries.
    Rows below the active row are finished and never touched.

    The zeros need no tracking, as their count is a closed form of the step
    sizes.  A step of size ``s`` with first row ``top`` on columns
    ``c_0 < ... < c_{s-1}`` stamps the ``s(s-1)/2`` entries
    ``(top + i, c_j)``, ``j < i``, all below the diagonal.  None is stamped
    twice or filled again: a later step at active row ``R' <= top + s - 1``
    never takes a stamped ``c_j`` while a row ``r <= R'`` holds a stamp
    there, since ``R' >= r > top + j`` means row ``R'`` was stamped at
    ``c_j`` too; fills and swaps touch only the current step's columns and
    no finished row.
    """
    width = (n + 7) // 8
    rows = [int.from_bytes(pattern[r * width : (r + 1) * width], "little") for r in range(n)]
    col_rows = [0] * n  # col_rows[c] has bit r set iff entry (r, c) may be nonzero
    for r, mask in enumerate(rows):
        for c in _bits(mask):
            col_rows[c] |= 1 << r
    sizes, base_rows, columns = [], [], []
    for row in range(n - 1, 0, -1):
        diag = 1 << row
        while True:
            # The diagonal always joins the candidates, so the row's last
            # block leaves it as the sole survivor at or left of it.
            live = (rows[row] & (diag - 1)) | diag
            if live == diag:
                break
            cols = _bits(live, m)
            size = len(cols)
            top = row - size + 1
            block = touching = 0
            in_all = -1
            for c in cols:
                block |= 1 << c
                touching |= col_rows[c]
                in_all &= col_rows[c]
            if size == 2 and not rows[row] >> cols[1] & 1:
                # The bottom row is (x, 0), so the RQ kernel returns an exact
                # swap with phases: the two columns trade entries, no fill.
                for r in _bits(touching & ~in_all):
                    rows[r] ^= block
                j = cols[0]
                col_rows[j], col_rows[row] = col_rows[row], col_rows[j]
            else:
                above = touching & ((1 << top) - 1)
                # Rows above the block that touch some but not all of its
                # columns fill in the rest; rows touching all are unchanged.
                for r in _bits(above & ~in_all):
                    rows[r] |= block
                finished = ~((diag << 1) - 1)
                for c in cols:
                    col_rows[c] = above | (col_rows[c] & finished)
                # Row top + k of the block is stamped to zero in its first k
                # columns and keeps the rest, if it touched the block at all.
                kept = block
                for k in range(size):
                    r = top + k
                    if k:
                        kept &= ~(1 << cols[k - 1])
                    if rows[r] & block:
                        rows[r] = (rows[r] & ~block) | kept
                        for c in cols[k:]:
                            col_rows[c] |= 1 << r
            sizes.append(size)
            base_rows.append(row + 1)
            columns.extend(c + 1 for c in cols)
    return sizes, base_rows, columns


def _sweep(w: np.ndarray, layout: _Layout) -> np.ndarray:
    """Sweep a ``(T, n, n)`` stack of transposed matrices through a schedule.

    The stack is swept in place, one layer at a time.  Row ``c`` of
    ``w[t]`` holds column ``c`` of matrix ``t``, so a step's
    right-multiplication of its columns by ``q`` is ``q^T`` times their
    contiguous rows.  Every matrix of the stack must have the zero pattern
    the schedule was simulated on, and ``w`` must be C-contiguous, as it is
    updated through reshaped views.  Each layer group gets one batched RQ
    of its blocks, gathered from the ``(T, n*n)`` view of ``w`` through its
    flat index, and one product of whole rows for the whole stack, in place
    on the slice of its run or through a gather and scatter of rows where
    it has none (see ``_Layout``).  The RQ yields only ``q``: the product
    leaves each block upper triangular, and exact zeros are then stamped
    at each block's strictly lower entries, through the group's ``lower``
    positions, as the schedule counts on (see ``_simulate``).
    A group's ``q`` blocks live in its ``span`` of its size's listing in
    ``_Layout.applied``.  A 2 x 2 group gathers only its blocks' bottom
    rows (``index[:, -1, :]``) and ``_rotations`` writes the rotations
    straight into that span; this is the one place a 2 x 2 group goes to
    ``_rotations``.  A larger group's ``_rq_unitaries`` result is copied
    into its span.  Either way the product reads ``q`` from the listing.
    The arithmetic on each matrix is that of the matrix swept alone.  Each listing goes, once, to the
    returned ``(T, entries)`` blocks, in the layout of
    ``DecompositionPlan.blocks``; ``w`` ends as the swept matrices,
    transposed.
    """
    t, n = w.shape[:2]
    cells = w.reshape(t, n * n)  # a view, as ``w`` is C-contiguous
    # per block size, its blocks as listed
    listed = {s: np.empty((t, len(k), s, s), dtype=np.complex128) for s, k, _ in layout.applied}
    for s, index, cols, span, run, lower in layout.layers:
        q = listed[s][:, span]  # a view: the group's blocks are written in place
        if s == 2:
            # the bottom rows alone decide a rotation
            _rotations(cells.take(index[:, -1, :], axis=1), q)
        else:
            q[...] = _rq_unitaries(cells.take(index, axis=1))
        # The rows below each block are finished: they hold exact zeros
        # in its columns, and multiplying keeps them so.
        if run is None:
            w[:, cols, :] = q.swapaxes(-1, -2) @ w[:, cols, :]
        else:
            tile = w[:, run, :].reshape(t, -1, s, n)
            np.matmul(q.swapaxes(-1, -2), tile, out=tile)
        cells[:, lower] = 0.0
    blocks = np.empty((t, layout.offsets[-1]), dtype=np.complex128)
    for s, _, entries in layout.applied:
        blocks[:, entries] = listed[s].reshape(t, -1, s * s)
    return blocks


def _phases(w: np.ndarray) -> np.ndarray:
    """The phase angles, in ``(-pi, pi]``, of the diagonals of swept matrices.

    ``w`` is a ``(..., n, n)`` stack as ``_sweep`` leaves it, transposed:
    row ``i`` of each swept triangle ``R`` is column ``i`` of ``w``.
    Returns the ``(..., n)`` angles.  This is the one judge of an input's
    unitarity (see the module docstring): it raises ``ValueError`` unless
    every row of ``R - D``, with ``D = diag(exp(1j * phases))``, has 2-norm
    at most ``0.9 * _TOL_PER_MODE * n``, which keeps the plan's round trip
    within ``verify``'s default tolerance.
    """
    n = w.shape[-1]
    d = np.arange(n)
    phases = np.angle(w[..., d, d])
    phases[phases <= -np.pi] += 2.0 * np.pi  # fold the -pi edge into (-pi, pi]
    residual = w.copy()
    residual[..., d, d] -= np.exp(1j * phases)
    worst = np.linalg.norm(residual, axis=-2).max()
    bound = 0.9 * _TOL_PER_MODE * n  # the other tenth is the rounding margin
    if not worst <= bound:
        raise ValueError(f"input is not unitary: swept row residual {worst:.3e} exceeds {bound:.3e}")
    return phases


def _sweep_stack(us: np.ndarray, m: int):
    """Sweep every matrix of a finite ``(T, n, n)`` complex stack.

    Every member must have the same exact zero pattern, so the stack
    crosses that pattern's cached schedule's layers together (see
    ``_sweep``) and each member gets bit for bit the blocks and phases it
    gets when swept alone.  Returns the schedule's ``_Layout``, the
    ``(T, entries)`` blocks and the ``(T, n)`` phases, none of them checked
    by ``_validated``.  Raises ``ValueError`` for an out-of-range ``m``,
    members whose zero patterns differ, or a member that is not unitary:
    one with an entry of modulus above 2, which no unitary has and which
    the sweep's arithmetic could overflow on, or one that ``_phases``
    rejects after the sweep.
    """
    n, m = _check_block_size(us.shape[-1], m)
    peak = np.abs(us).max()
    if not peak <= 2.0:  # also rejects NaN
        raise ValueError(f"input is not unitary: entry modulus {peak:.3e} exceeds 2")
    nonzero = us != 0
    if (nonzero != nonzero[0]).any():
        raise ValueError("the matrices of a stack must share one zero pattern")
    layout = _schedule(n, m, _zero_pattern(us[0]))
    w = us.swapaxes(-1, -2).copy()
    blocks = _sweep(w, layout)
    return layout, blocks, _phases(w)


def _decompose_stack(us: np.ndarray, m: int):
    """Decompose every matrix of a finite ``(T, n, n)`` complex stack.

    The stack is swept as one (see ``_sweep_stack``) and its blocks and
    phases pass the plan constructor's checks once, as a whole; no plan is
    built.  Returns the cached ``_Layout`` the members share, their
    ``(T, entries)`` blocks and their ``(T, n)`` phases, read-only, where
    member ``t``'s are bit for bit those of ``decompose(us[t], m)``.
    Raises as ``decompose`` and the plan constructor do if any member is
    at fault, and ``ValueError`` if the members' zero patterns differ.
    """
    layout, blocks, phases = _sweep_stack(us, m)
    *_, blocks, phases, layout = _validated(
        us.shape[-1], m, layout.sizes, layout.base_rows, layout.columns, blocks, phases,
        stack=(len(us),),
    )
    return layout, blocks, phases


def decompose(u, m: int) -> DecompositionPlan:
    """Sweep an n x n unitary into at most ``factor_count_bound(n, m)`` factors.

    The schedule comes from the exact zero pattern of ``u`` (see the module
    docstring) and is cached per ``(m, pattern)``, so every dense input of a
    given size shares one.  The input is judged by the triangle its sweep
    leaves: it is accepted exactly when the plan provably rebuilds it within
    ``verify``'s default tolerance, ``1e-9 * n`` (see the module docstring).
    Raises ``ValueError`` for any other input, as not unitary, or for an
    out-of-range ``m``.
    """
    mat = as_matrix(u, square=True)
    layout, blocks, phases = _sweep_stack(mat[np.newaxis], m)
    return DecompositionPlan(
        n=mat.shape[0],
        m=m,
        sizes=layout.sizes,
        base_rows=layout.base_rows,
        columns=layout.columns,
        blocks=blocks[0],
        phases=phases[0],
    )


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking a plan against the matrix it should encode: the
    largest entry error, the fidelity (at most 1, see ``verify``), the
    tolerance and the verdict."""

    max_error: float
    fidelity: float
    tol: float
    passed: bool


def verify(plan: DecompositionPlan, u, tol: float | None = None) -> VerificationReport:
    """Rebuild the plan and compare against ``u`` entry by entry.

    ``passed`` requires the maximum absolute entry error to stay within
    ``tol`` (default ``1e-9 * n``, which every plan of ``decompose``
    meets).  Raises ``ValueError`` unless ``tol`` is positive and finite:
    an infinite tolerance would pass the plan of any matrix.  ``fidelity``
    is ``|tr(V^dag U)|^2 / (n * tr(U^dag U))`` of the rebuilt ``V`` against
    ``U = u``: at most 1 by Cauchy-Schwarz, as ``V`` is unitary, blind to a
    scale or global phase of ``u``, and 0 for a zero ``u``.  The factor
    count is ``len(plan.sizes)``, which the plan's constructor holds within
    ``factor_count_bound(plan.n, plan.m)``.
    """
    mat = as_matrix(u, square=True)
    if mat.shape[0] != plan.n:
        raise ValueError(
            f"matrix dimension {mat.shape[0]} does not match plan n = {plan.n}"
        )
    if tol is None:
        tol = _TOL_PER_MODE * plan.n
    tol = _to_float(tol)
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    rebuilt = reconstruct(plan)
    max_error = float(np.abs(rebuilt - mat).max())
    return VerificationReport(
        max_error=max_error,
        fidelity=float(_fidelities(rebuilt, mat)) if mat.any() else 0.0,
        tol=tol,
        passed=max_error <= tol,
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
    """Compare a mesh of ``factor_count_bound(n, m)`` m-blocks against a 2 x 2 mesh.

    Raises ``ValueError`` for a cost that is not positive and finite, or
    for an ``n`` whose factor counts or total costs exceed the float range.
    """
    n, m = _check_block_size(n, m)
    c_m = _to_float(c_m)
    c_2 = _to_float(c_2)
    if not (0 < c_m < math.inf and 0 < c_2 < math.inf):
        raise ValueError(f"costs must be positive and finite, got c_m={c_m}, c_2={c_2}")
    count_m = factor_count_bound(n, m)
    try:
        cost_m = c_m * count_m
        cost_2 = c_2 * (n * (n - 1) / 2)
    except OverflowError:
        raise ValueError(f"factor counts for n={n} exceed the float range") from None
    if math.isinf(cost_m) or math.isinf(cost_2):
        raise ValueError(f"mesh costs for n={n}, c_m={c_m}, c_2={c_2} exceed the float range")
    return CostComparison(
        n=n,
        m=m,
        count_m=count_m,
        cost_m=cost_m,
        cost_2=cost_2,
        advantageous=bool(cost_m < cost_2),
    )
