"""Dense symmetric positive-definite kernels.

Symmetrization, Cholesky factorization, log-determinant and inverse of
one (n, n) matrix or of an (L, n, n) stack of them. Every block the
package symmetrizes, factors or inverts goes through here, so the pivot
floor and the symmetry tolerance are decided in exactly one place. A
stack is factored by one batched Cholesky call; only after a failure is
it refactored block by block, to name the first bad block and pivot. It
is inverted through its triangular factors, a whole stack at a time.
"""

from typing import NamedTuple

import numpy as np
from scipy.linalg import lapack

from .errors import NotPositiveDefinite

# A pivot counts as non-positive when <= PIVOT_RTOL * max(1, max diagonal
# entry). Scale-relative so tiny well-conditioned problems are not rejected.
PIVOT_RTOL = 1e-12

# Inputs with relative asymmetry below this are silently symmetrized
# (tolerates JSON round-trip noise); anything larger is a hard error.
SYMMETRY_RTOL = 1e-12

# How errors name block ell of a stack; callers pass their own, such as
# "covariance block {}".format. A single matrix is called "matrix".
_BLOCK = "block {}".format


class SpdFactor(NamedTuple):
    """Cholesky factor of an SPD matrix, or stack, plus its log-determinant.

    For an (L, n, n) stack, ``lower`` is the stack of factors and
    ``logdet`` the length-L array of log-determinants.
    """

    lower: np.ndarray
    logdet: float | np.ndarray


def _name(m, label, ell):
    return "matrix" if m.ndim == 2 else label(ell)


def _symmetric_part(m, label, rtol=SYMMETRY_RTOL):
    m = np.asarray(m, dtype=float)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise ValueError(
            f"expected a square matrix or a stack of them, got shape {m.shape}"
        )
    t = np.swapaxes(m, -1, -2)
    if m.size:
        scale = np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))
        # NaN or inf exactly where a matrix has a non-finite entry.
        bad = np.flatnonzero(~np.isfinite(scale))
        if bad.size:
            raise ValueError(
                f"{_name(m, label, int(bad[0]))} contains non-finite entries"
            )
        asym = np.abs(m - t).max(axis=(-2, -1))
        bad = np.flatnonzero(asym > rtol * scale)
        if bad.size:
            ell = int(bad[0])
            raise ValueError(
                f"{_name(m, label, ell)} is not symmetric "
                f"(max |m - m.T| = {asym.flat[ell]:.3e})"
            )
    return 0.5 * (m + t)


def symmetrize(m, rtol=SYMMETRY_RTOL):
    """Return the symmetric part of ``m``, rejecting real asymmetry.

    Parameters
    ----------
    m : array_like, shape (n, n) or (L, n, n)
        Square matrix, or stack of them, expected to be symmetric up to
        round-off.
    rtol : float
        Largest tolerated relative asymmetry ``|m - m.T| / max(1, |m|)``,
        per matrix.

    Returns
    -------
    ndarray
        ``(m + m.T) / 2`` as a float array, matrix by matrix.

    Raises
    ------
    ValueError
        If ``m`` is not square, or a matrix has a non-finite entry or an
        asymmetry over ``rtol``; for a stack, the message names the first
        such block.
    """
    return _symmetric_part(m, _BLOCK, rtol)


def pivot_floor(diag):
    """PIVOT_RTOL · max(1, max diagonal entry), over the last axis of ``diag``."""
    return PIVOT_RTOL * np.fmax(1.0, np.max(diag, axis=-1, initial=-np.inf))


def _first_bad_pivot(lower_diag, floor, info=0):
    """Flat index of the first pivot at or below ``floor``, or None.

    The pivots are the squares of ``lower_diag``, the diagonal of a
    Cholesky factor. ``info`` is LAPACK's: when positive, pivot info - 1
    was not positive and the ones after it were never computed.
    """
    if info > 0:
        lower_diag = lower_diag[: info - 1]
    bad = np.flatnonzero(lower_diag**2 <= floor)
    if bad.size:
        return int(bad[0])
    return info - 1 if info > 0 else None


def _cholesky(m, label):
    """Lower Cholesky factor of a symmetric (n, n) matrix or (L, n, n) stack.

    Raises NotPositiveDefinite at the first pivot, of the first block,
    at or below `pivot_floor`, naming the block by ``label(ell)``.
    """
    n = m.shape[-1]
    floor = pivot_floor(np.diagonal(m, axis1=-2, axis2=-1))
    try:
        lower = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        # Some block has a non-positive pivot: find it block by block.
        for ell, b in enumerate(m.reshape(-1, n, n)):
            c, info = lapack.dpotrf(b, lower=1)
            p = _first_bad_pivot(np.diagonal(c), floor.flat[ell], info)
            if p is not None:
                break
        else:  # LAPACK builds that disagree at round-off
            raise NotPositiveDefinite("Cholesky factorization failed") from None
    else:
        lower_diag = np.diagonal(lower, axis1=-2, axis2=-1)
        i = _first_bad_pivot(lower_diag, floor[..., None])
        if i is None:
            return lower
        ell, p = divmod(i, n)
    raise NotPositiveDefinite(
        f"{_name(m, label, ell)} is not positive definite (pivot {p})",
        pivot_index=p,
    )


def _logdet(lower):
    """Log-determinant from a Cholesky factor, per block of a stack."""
    return 2.0 * np.sum(np.log(np.diagonal(lower, axis1=-2, axis2=-1)), axis=-1)


def _diagonal_blocks(x, size, count):
    """Writable view of the first ``count`` diagonal blocks of each matrix.

    ``x`` is a C-contiguous (B, n, n) stack; the view has shape
    (B, count, size, size) and shares ``x``'s memory.
    """
    row, col = x.strides[1:]
    strides = (x.strides[0], size * (row + col), row, col)
    return np.ndarray((x.shape[0], count, size, size), x.dtype, x, 0, strides)


def _merge(v, h):
    """Invert lower-triangular ``v`` in place, given inverted diagonal halves.

    ``v[..., :h, :h]`` and ``v[..., h:, h:]`` already hold X₁₁ and X₂₂;
    the coupling L₂₁ below them becomes X₂₁ = −X₂₂·L₂₁·X₁₁.
    """
    t = np.matmul(v[..., h:, :h], v[..., :h, :h])
    np.negative(t, out=t)
    np.matmul(v[..., h:, h:], t, out=v[..., h:, :h])


def _triangular_inverse(x):
    """Invert the C-contiguous lower-triangular (B, n, n) stack ``x`` in place.

    Bottom-up 2×2 block recursion: diagonal blocks of size h, already
    inverted, are merged pairwise into blocks of size 2h, every pair of
    every matrix in one `_merge`. When 2h does not divide n, the trailing
    rows merge as one more pair, of a full h-block and the shorter tail.
    So there are O(log n) batched products, none per block; they cost
    2n³/3 flops per matrix, and the temporaries are at most two quarter
    stacks.
    """
    n = x.shape[-1]
    diag = _diagonal_blocks(x, 1, n)
    np.reciprocal(diag, out=diag)
    h = 1
    while h < n:
        count, rest = divmod(n, 2 * h)
        if count:
            _merge(_diagonal_blocks(x, 2 * h, count), h)
        if rest > h:
            _merge(x[:, n - rest :, n - rest :], h)
        h *= 2
    return x


def _inverse(lower):
    """Symmetric inverse of the matrix, or stack, with Cholesky factor ``lower``.

    X = L⁻¹ is formed in ``lower`` by `_triangular_inverse`, then
    Σ⁻¹ = XᵀX overwrites ``lower`` and is returned. At most three
    stack-sized arrays are live: ``lower``, Xᵀ / 2 and XᵀX / 2. For the
    (25000, 8, 8) stack of a k=4 ladder, 12.2 MiB, tracemalloc's peak
    over the whole direct route is 36.6 MiB.
    """
    x = _triangular_inverse(lower if lower.ndim == 3 else lower[None])
    # The product runs from a contiguous copy of Xᵀ, which is faster than
    # a transposed view. Halving is exact barring underflow, so
    # half = XᵀX / 2, and half + halfᵀ = Σ⁻¹ is symmetric bit for bit by
    # construction.
    xt = np.multiply(np.swapaxes(x, -1, -2), 0.5, order="C")
    half = np.matmul(xt, x)
    del xt
    np.add(half, np.swapaxes(half, -1, -2), out=x)
    return lower


def spd_factorize(m) -> SpdFactor:
    """Cholesky-factorize a symmetric matrix and return its log-determinant.

    Parameters
    ----------
    m : array_like, shape (n, n) or (L, n, n)
        Symmetric matrix, or stack of them. ``n = 0`` is allowed and
        yields ``logdet = 0``.

    Returns
    -------
    SpdFactor
        Lower-triangular factor ``L`` with ``L @ L.T == m`` and
        ``logdet = 2 * sum(log diag L)``, block by block for a stack.

    Raises
    ------
    NotPositiveDefinite
        If any elimination pivot falls at or below the scale-relative
        floor ``PIVOT_RTOL * max(1, max diagonal entry)``. The exception
        carries the 0-based index of the first offending pivot; for a
        stack, its message names the first offending block.
    """
    m = symmetrize(m)
    lower = _cholesky(m, _BLOCK)
    logdet = _logdet(lower)
    return SpdFactor(lower, logdet if m.ndim == 3 else float(logdet))


def spd_inverse(m) -> np.ndarray:
    """Invert an SPD matrix, or stack, via its Cholesky factor.

    The result is exactly symmetric, so round-tripping through
    ``spd_inverse`` twice reproduces the input to working precision.
    """
    return _inverse(_cholesky(symmetrize(m), _BLOCK))
