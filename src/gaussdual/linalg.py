"""Dense symmetric positive-definite kernels.

Factorization, log-determinant, inverse and SPD testing for small dense
matrices. Everything downstream (model validation, dual construction,
oracle log-determinants) funnels through these routines so that pivot
tolerances and symmetry handling are decided in exactly one place.
"""

from typing import NamedTuple

import numpy as np
from scipy.linalg import lapack, solve_triangular

from .errors import NotPositiveDefinite

# A pivot counts as non-positive when <= PIVOT_RTOL * max(1, max diagonal
# entry). Scale-relative so tiny well-conditioned problems are not rejected.
PIVOT_RTOL = 1e-12

# Inputs with relative asymmetry below this are silently symmetrized
# (tolerates JSON round-trip noise); anything larger is a hard error.
SYMMETRY_RTOL = 1e-12


class SpdFactor(NamedTuple):
    """Cholesky factor of an SPD matrix plus its log-determinant."""

    lower: np.ndarray
    logdet: float


def symmetrize(m, rtol=SYMMETRY_RTOL):
    """Return the symmetric part of ``m``, rejecting real asymmetry.

    Parameters
    ----------
    m : array_like, shape (n, n)
        Square matrix expected to be symmetric up to round-off.
    rtol : float
        Largest tolerated relative asymmetry ``|m - m.T| / max(1, |m|)``.

    Returns
    -------
    ndarray
        ``(m + m.T) / 2`` as a float array.

    Raises
    ------
    ValueError
        If ``m`` is not square or its asymmetry exceeds ``rtol``.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.size:
        scale = max(1.0, float(np.max(np.abs(m))))
        asym = float(np.max(np.abs(m - m.T)))
        if asym > rtol * scale:
            raise ValueError(
                f"matrix is not symmetric (max |m - m.T| = {asym:.3e})"
            )
    return 0.5 * (m + m.T)


def pivot_floor(diag):
    """PIVOT_RTOL · max(1, max diagonal entry), over the last axis of ``diag``."""
    return PIVOT_RTOL * np.fmax(1.0, np.max(diag, axis=-1, initial=-np.inf))


def spd_factorize(m) -> SpdFactor:
    """Cholesky-factorize a symmetric matrix and return its log-determinant.

    Parameters
    ----------
    m : array_like, shape (n, n)
        Symmetric matrix. ``n = 0`` is allowed and yields ``logdet = 0``.

    Returns
    -------
    SpdFactor
        Lower-triangular factor ``L`` with ``L @ L.T == m`` and
        ``logdet = 2 * sum(log diag L)``.

    Raises
    ------
    NotPositiveDefinite
        If any elimination pivot falls at or below the scale-relative
        floor ``PIVOT_RTOL * max(1, max diagonal entry)``. The exception
        carries the 0-based index of the first offending pivot.
    """
    m = symmetrize(m)
    n = m.shape[0]
    if n == 0:
        return SpdFactor(np.zeros((0, 0)), 0.0)

    floor = pivot_floor(np.diagonal(m))
    c, info = lapack.dpotrf(m, lower=1, clean=1)
    if info > 0:
        raise NotPositiveDefinite(
            f"pivot {info - 1} is not positive", pivot_index=info - 1
        )
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrf")

    pivots = np.diagonal(c) ** 2
    bad = np.nonzero(pivots <= floor)[0]
    if bad.size:
        i = int(bad[0])
        raise NotPositiveDefinite(
            f"pivot {i} = {pivots[i]:.3e} is below the positivity floor",
            pivot_index=i,
        )
    return SpdFactor(c, float(2.0 * np.sum(np.log(np.diagonal(c)))))


def spd_inverse(m) -> np.ndarray:
    """Invert an SPD matrix via its Cholesky factor.

    The result is explicitly symmetrized, so round-tripping through
    ``spd_inverse`` twice reproduces the input to working precision.
    """
    factor = spd_factorize(m)
    n = factor.lower.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    eye = np.eye(n)
    y = solve_triangular(factor.lower, eye, lower=True)
    inv = solve_triangular(factor.lower.T, y, lower=False)
    return 0.5 * (inv + inv.T)


def is_spd(m) -> bool:
    """True iff ``m`` factorizes with strictly positive pivots."""
    try:
        spd_factorize(m)
    except NotPositiveDefinite:
        return False
    return True
