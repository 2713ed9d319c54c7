"""Dense complex linear algebra helpers.

Every matrix in this package is a plain numpy ``complex128`` array in
row-major layout.  The helpers here never mutate their arguments, and all
random sampling is a pure function of the seed that is passed in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "as_matrix",
    "unitarity",
    "haar_random_unitary",
    "sample_haar",
    "rq_decompose",
]

_U64_MASK = (1 << 64) - 1


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


@dataclass(frozen=True)
class UnitarityReport:
    """Result of a unitarity check.

    ``defect`` is ``max|a^dag a - I|`` over all entries; ``is_unitary`` is
    true when the defect does not exceed the tolerance the check ran with.
    """

    defect: float
    tol: float
    is_unitary: bool


def unitarity(a, tol: float = 1e-12) -> UnitarityReport:
    """Measure how far a square matrix is from unitary."""
    mat = as_matrix(a, square=True)
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    n = mat.shape[0]
    defect = float(np.abs(np.conj(mat).T @ mat - np.eye(n)).max())
    return UnitarityReport(defect=defect, tol=float(tol), is_unitary=defect <= tol)


def sample_haar(rng: np.random.Generator, n: int, count: int | None = None) -> np.ndarray:
    """Draw Haar-distributed ``n x n`` unitaries from an existing generator.

    Returns a single ``(n, n)`` matrix when ``count`` is ``None``, else a
    stacked ``(count, n, n)`` array.  Uses the QR construction on a complex
    Ginibre sample, with the R diagonal's phases folded back into Q so the
    distribution is exactly Haar rather than QR-convention dependent.
    """
    if n < 1:
        raise ValueError(f"dimension must be at least 1, got {n}")
    shape = (n, n) if count is None else (int(count), n, n)
    # real/imaginary parts are drawn as interleaved pairs so the stream
    # position after k matrices does not depend on how calls are batched
    pairs = rng.standard_normal(shape + (2,))
    z = pairs[..., 0] + 1j * pairs[..., 1]
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., np.newaxis, :]


def haar_random_unitary(n: int, seed: int) -> np.ndarray:
    """Seeded Haar-random unitary.  Same ``(n, seed)`` gives identical output."""
    rng = np.random.default_rng(np.random.SeedSequence(int(seed) & _U64_MASK))
    return sample_haar(rng, int(n))


def rq_decompose(a) -> tuple[np.ndarray, np.ndarray]:
    """Factor square matrices so that ``a @ q`` is upper triangular.

    ``a`` is one ``(s, s)`` matrix or a stack of them (any leading axes,
    typically ``(k, s, s)``); every matrix of the stack is factored on its
    own.  Returns ``(r, q)`` of the same shape with each ``q`` unitary and
    ``r = a @ q`` upper triangular (``r`` carries exact structural zeros
    below the diagonal).  This is the standard RQ decomposition ``a = r q'``
    with ``q = q'^dag`` so the caller can use ``q`` directly as a
    right-multiplier that triangularizes ``a``.

    A 2 x 2 matrix gets the closed-form rotation that maps its bottom row
    ``(x, y)`` to ``(0, rho)`` with ``rho = |(x, y)|``; a zero bottom row
    gives ``q = I``, and a bottom row ``(x, 0)`` an exact swap with phases
    (the decomposition schedule relies on that).  Larger matrices use a
    Householder QR of the reversed conjugate transpose: ``(J a)^dag = Q R``
    gives ``a (Q J) = J R^dag J``.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise ValueError(f"expected square matrices, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix contains non-finite entries")
    if a.shape[-1] == 2:
        rho = np.hypot(np.abs(a[..., 1, 0]), np.abs(a[..., 1, 1]))
        zero = rho == 0.0
        # A zero bottom row is divided by 1 instead and gets y = 1, so q = I.
        unit = a[..., 1, :] / np.where(zero, 1.0, rho)[..., np.newaxis]
        x, y = unit[..., 0], unit[..., 1] + zero
        q = np.empty_like(a)
        q[..., 0, 0], q[..., 0, 1], q[..., 1, 0], q[..., 1, 1] = y, np.conj(x), -x, np.conj(y)
        r = np.zeros_like(a)
        r[..., 0, :] = a[..., 0, :1] * q[..., 0, :] + a[..., 0, 1:] * q[..., 1, :]
        r[..., 1, 1] = rho
        return r, q
    q, r = np.linalg.qr(np.conj(a[..., ::-1, :]).swapaxes(-1, -2))
    return np.conj(r).swapaxes(-1, -2)[..., ::-1, ::-1], q[..., ::-1]
