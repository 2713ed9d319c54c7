"""Dense complex linear algebra helpers.

Every matrix in this package is a plain numpy ``complex128`` array in
row-major layout.  The helpers here never mutate their arguments, and
every random stream of the package comes from one rule, ``_generator``.
"""

from __future__ import annotations

import math
import operator

import numpy as np

__all__ = [
    "as_matrix",
    "haar_random_unitary",
]

_U64_MASK = (1 << 64) - 1
# A 0-d array: adding it costs less than converting a Python scalar per call.
_ZERO = np.zeros((), dtype=np.complex128)
_ZERO.setflags(write=False)

try:  # numpy's stacked LAPACK QR, the gufuncs behind ``np.linalg.qr``
    from numpy.linalg._umath_linalg import qr_r_raw, qr_reduced

    _QR_GUFUNCS = (qr_r_raw, qr_reduced)
except ImportError:  # not under these names: ``np.linalg.qr`` it is
    _QR_GUFUNCS = None


def _generator(seed: int, *key: int) -> np.random.Generator:
    """Stream ``key`` of ``seed``: the ``SeedSequence`` of ``seed mod 2**64``
    with spawn key ``key``.  Seed and key sit in separate words, so seeds
    that differ modulo ``2**64``, or keys of indices below ``2**32`` that
    differ, never share a stream; the empty key is ``default_rng(seed mod 2**64)``."""
    sequence = np.random.SeedSequence(operator.index(seed) & _U64_MASK, spawn_key=key)
    return np.random.default_rng(sequence)


def _to_float(obj) -> float:
    """``float(obj)``, with a number too large for a float read as an infinity of its sign."""
    try:
        return float(obj)
    except OverflowError:
        return -math.inf if obj < 0 else math.inf


def as_matrix(a, *, square: bool = False) -> np.ndarray:
    """Coerce ``a`` to a finite 2-D ``complex128`` array.

    No copy is made when ``a`` already has the right dtype and layout.
    Raises ``ValueError`` for wrong dimensionality, empty axes, non-finite
    entries, or (with ``square=True``) a non-square shape.
    """
    mat = np.asarray(a, dtype=np.complex128)
    if mat.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={mat.ndim}")
    if mat.shape[0] < 1 or mat.shape[1] < 1:
        raise ValueError(f"matrix axes must be non-empty, got shape {mat.shape}")
    if square and mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    if not np.isfinite(mat).all():
        raise ValueError("matrix contains non-finite entries")
    return mat


def _segment_fidelities(q: np.ndarray, p: np.ndarray, starts, dims) -> np.ndarray:
    """Phase-insensitive fidelities of the square matrices laid flat in segments.

    ``q`` and ``p`` hold flat rows ``(..., L)`` that broadcast against each
    other; segment ``k`` of a row starts at ``starts[k]`` and holds the
    ``dims[k]**2`` entries of a row-major ``dims[k] x dims[k]`` matrix, the
    segments in order and covering the row.  Returns ``(..., K)``, one
    fidelity per segment, in segment order.  Overlaps and powers are
    segment sums, ``np.add.reduceat`` along the row, so each value depends
    only on the entries of its own segment, not on the leading axes or on
    the other segments.  A segment whose power underflows below the normal
    floats, or overflows, is scored again scaled by an exact power of two;
    the rest keep their bits.  Raises ``ValueError`` if any perturbed matrix is not
    finite or identically zero.
    """
    starts = np.asarray(starts, dtype=np.intp)
    if not starts.size:  # a plan without factors has no blocks to score
        return np.zeros(np.broadcast_shapes(q.shape, p.shape)[:-1] + (0,))
    p = np.ascontiguousarray(p, dtype=np.complex128)
    # a row of p read as float64 pairs: segment k starts at 2 * starts[k]
    pairs = p.view(np.float64)
    with np.errstate(over="ignore"):
        power = np.add.reduceat(np.square(pairs), 2 * starts, axis=-1) / dims
    redo = ~(power >= np.finfo(np.float64).tiny) | (power == np.inf)
    if redo.any():
        peak = np.maximum.reduceat(np.abs(pairs), 2 * starts, axis=-1)
        if not np.isfinite(peak).all():
            raise ValueError("perturbed matrix is not finite")
        if not peak.all():
            raise ValueError("perturbed matrix is identically zero")
        shift = np.repeat(np.where(redo, -np.frexp(peak)[1], 0), 2 * np.square(dims), axis=-1)
        return _segment_fidelities(q, np.ldexp(pairs, shift).view(np.complex128), starts, dims)
    overlap = np.add.reduceat(np.conj(q) * p, starts, axis=-1) / dims
    return np.abs(overlap) ** 2 / power


def _fidelities(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Phase-insensitive fidelity over the last two axes, broadcasting the rest.

    ``(..., d, d) x (..., d, d) -> (...)``; each matrix is one segment of
    ``_segment_fidelities``, so its value does not depend on how many
    matrices share the call.  Raises ``ValueError`` if any perturbed matrix
    is identically zero.
    """
    d = q.shape[-1]
    flat = [a.reshape(a.shape[:-2] + (d * d,)) for a in (q, p)]
    return _segment_fidelities(*flat, [0], d)[..., 0]


def _haar(pairs: np.ndarray) -> np.ndarray:
    """Haar unitaries from Ginibre samples given as ``(..., n, n, 2)`` ``(re, im)`` pairs.

    One stacked QR for the whole stack; the R diagonal's phases are folded
    back into Q so the distribution is exactly Haar rather than QR-convention
    dependent.  Each matrix depends only on its own pairs.
    """
    z = pairs[..., 0] + 1j * pairs[..., 1]
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., np.newaxis, :]


def haar_random_unitary(n: int, seed: int) -> np.ndarray:
    """Seeded Haar-random unitary; the same integers ``(n, seed)`` give identical output."""
    return _haar_stack(n, [_generator(seed)])[0]


def _haar_stack(n: int, rngs) -> np.ndarray:
    """One Haar unitary per generator, as one ``(len(rngs), n, n)`` stack.

    Matrix ``t`` draws its ``(n, n, 2)`` Ginibre pairs from ``rngs[t]``, and
    the stack goes through one stacked QR (``_haar``); each matrix depends
    only on its own generator.
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError(f"dimension must be at least 1, got {n}")
    return _haar(np.stack([rng.standard_normal((n, n, 2)) for rng in rngs]))


def _rotations(bottom: np.ndarray, q: np.ndarray) -> None:
    """Write into ``q``, a writable ``(..., 2, 2)`` complex128 array or
    view, the closed-form unitary that maps each bottom row ``(x, y)`` of
    the finite ``(..., 2)`` stack ``bottom`` to ``(0, rho)``, with
    ``rho = |(x, y)|``: so ``a @ q`` is upper triangular for every 2 x 2
    ``a`` whose bottom row is ``bottom``.  ``bottom`` is left unchanged.

    For the unit row ``(x, y)`` the rotation is
    ``q = [[y, conj(x)], [-x, conj(y)]]``, written straight into ``q`` by a
    handful of whole-stack ufuncs, since at the stack sizes of a
    decomposition layer their call overhead is the cost.  A zero bottom row
    gives ``q = I``, and a bottom row ``(x, 0)`` an exact swap with phases
    (the decomposition schedule relies on that); ``q[0, 0]`` never holds a
    negative zero, and ``q[1, 1]`` is its conjugate.  This is the one 2 x 2
    rotation of the package: the decomposition sweep writes each layer
    group's rotations into its block listing through here, and
    ``_rq_unitaries`` calls it for 2 x 2 stacks.
    """
    norm = np.hypot(np.abs(bottom[..., 0]), np.abs(bottom[..., 1]))
    zero = _ZERO
    if norm.min(initial=1.0) < 2.0**-1022:
        # Dividing by a subnormal norm overflows, so those rows, and only
        # those (another row's entries may overflow), are first scaled by
        # 2**600, which is exact.  A zero row is divided by 1 instead and
        # gets y = 1, so q = I.
        small = norm < 2.0**-1022
        bottom = bottom.copy()
        bottom[small] *= 2.0**600
        norm = np.hypot(np.abs(bottom[..., 0]), np.abs(bottom[..., 1]))
        zero = norm == 0.0
        norm = np.where(zero, 1.0, norm)
    unit = bottom / norm[..., np.newaxis]
    x = unit[..., 0]
    # Adding ``zero`` (0, or 1 on zero rows) also turns a -0 part of y into +0.
    np.add(unit[..., 1], zero, out=q[..., 0, 0])
    np.conjugate(x, out=q[..., 0, 1])
    np.negative(x, out=q[..., 1, 0])
    np.conjugate(q[..., 0, 0], out=q[..., 1, 1])


def _rq_unitaries(a: np.ndarray) -> np.ndarray:
    """A unitary ``q`` per matrix of a finite ``(..., s, s)`` complex128 stack
    ``a``, unchecked, such that ``a @ q`` is upper triangular: the ``q`` of
    the RQ decomposition ``a = r q^dag``, for the decomposition sweep to
    use as a right-multiplier.

    A 2 x 2 matrix gets the closed-form rotation of its bottom row from
    ``_rotations``.  Other sizes use a Householder QR of the reversed
    conjugate transpose: ``(J a)^dag = Q R`` gives ``a (Q J) = J R^dag J``.
    It calls numpy's LAPACK gufuncs directly where numpy has them under the
    names ``np.linalg.qr`` calls, which skips that wrapper's per-call cost
    and gives the same ``Q`` bit for bit; elsewhere it calls
    ``np.linalg.qr``.
    """
    if a.shape[-1] == 2:
        q = np.empty(a.shape, dtype=np.complex128)
        _rotations(a[..., 1, :], q)
        return q
    flipped = np.conj(a[..., ::-1, :]).swapaxes(-1, -2)  # a fresh array, so ours to overwrite
    if _QR_GUFUNCS is None:
        q = np.linalg.qr(flipped)[0]
    else:
        raw, reduced = _QR_GUFUNCS
        tau = raw(flipped, signature="D->D")  # leaves the reflectors in ``flipped``
        q = reduced(flipped, tau, signature="DD->D")
    return q[..., ::-1]
