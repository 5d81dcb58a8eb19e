"""Dense symmetric positive-definite kernels.

Symmetrization, Cholesky factorization, log-determinant and inverse of
one (n, n) matrix or of an (L, n, n) stack of them. Every block the
package symmetrizes, factors or inverts goes through here, so the pivot
floor and the symmetry tolerance are decided in exactly one place. A
stack is factored by one batched Cholesky call; only after a failure is
it refactored block by block, to name the first bad block and pivot.
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
    logdet: float


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
        If ``m`` is not square or a matrix's asymmetry exceeds ``rtol``;
        for a stack, the message names the first such block.
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


def _inverse(lower):
    """Symmetric inverse of the matrix, or stack, with Cholesky factor ``lower``.

    The inverse overwrites ``lower`` and is returned.
    """
    inv = np.linalg.inv(lower)
    out = np.matmul(np.swapaxes(inv, -1, -2), inv, out=lower)
    del inv
    # In place: at most two stack-sized arrays are live at once, so fewer
    # fresh pages are touched per call. numpy buffers the overlapping
    # transpose, so the values equal 0.5 * (out + outᵀ) bit for bit.
    out += np.swapaxes(out, -1, -2)
    out *= 0.5
    return out


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
