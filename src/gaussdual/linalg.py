"""Dense symmetric positive-definite kernels, and the shared tolerances.

The package's two tolerances are decided here. `pivot_floor` is the
level at or below which a pivot counts as non-positive, and
`_first_bad_pivot` finds the first pivot of a factor that is under it;
`SYMMETRY_RTOL` is the relative asymmetry past which a matrix is
rejected instead of symmetrized. The banded and dense factorizations
(``dpbtrf``, ``dpttrf``, ``dpotrf``) run in `elimination`, and raked
pivots are judged in `rake`, against the same floor.

The kernels are the symmetrization of an (L, n, n) stack of matrices or
of one (n, n) matrix, and the Cholesky factorization, log-determinant
and inverse of a stack. A stack is factored by one batched Cholesky
call; only after a failure is it refactored block by block, to name the
first bad block and pivot. It is inverted through its triangular
factors, a whole stack at a time. The kernels are private: the engine
routes, `validate`, `load_model` and `logdet_dense` call them.
"""

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
# "covariance block {}".format; `_name` calls a single matrix "matrix".
_BLOCK = "block {}".format


def _name(m, label, ell):
    return "matrix" if m.ndim == 2 else label(ell)


def _symmetric_part(m, label):
    """Symmetric part ``(m + mᵀ) / 2`` of a square matrix or stack.

    Raises ValueError if ``m`` is not square, or if a matrix has a
    non-finite entry or a relative asymmetry over `SYMMETRY_RTOL`,
    naming the first such block by ``label(ell)``.
    """
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
        bad = np.flatnonzero(asym > SYMMETRY_RTOL * scale)
        if bad.size:
            ell = int(bad[0])
            raise ValueError(
                f"{_name(m, label, ell)} is not symmetric "
                f"(max |m - m.T| = {asym.flat[ell]:.3e})"
            )
    # Halve before adding: m + t overflows on finite entries above about
    # 9e307. numpy adds into the temporary 0.5 * m, so the stack-sized
    # result is allocated first, not above a freed temporary: that hole
    # let glibc trim the heap and refault it on every later route call.
    return 0.5 * m + 0.5 * t


def pivot_floor(diag):
    """PIVOT_RTOL · max(1, max diagonal entry), over the last axis of ``diag``."""
    return PIVOT_RTOL * np.fmax(1.0, np.max(diag, axis=-1, initial=-np.inf))


def _first_bad_pivot(diag, floor, info=0, squared=True):
    """Flat index of the first pivot at or below ``floor``, or None.

    The pivots are the squares of ``diag``, the diagonal of a Cholesky
    factor, or with ``squared=False`` the entries of ``diag``, the D of
    an LDLᵀ factor. ``info`` is LAPACK's: when positive, pivot info - 1
    was not positive and the ones after it were never computed.
    """
    if info > 0:
        diag = diag[: info - 1]
    bad = np.flatnonzero((diag**2 if squared else diag) <= floor)
    if bad.size:
        return int(bad[0])
    return info - 1 if info > 0 else None


def _cholesky(m, label, floor=None):
    """Lower Cholesky factors of a symmetric (L, n, n) stack.

    Raises NotPositiveDefinite at the first pivot, of the first block,
    at or below ``floor``, naming the block by ``label(ell)``. The floor,
    one per block, defaults to `pivot_floor` of the block's diagonal.
    """
    if floor is None:
        floor = pivot_floor(np.diagonal(m, axis1=-2, axis2=-1))
    try:
        lower = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        # Some block has a non-positive pivot: find it block by block.
        for ell, b in enumerate(m):
            c, info = lapack.dpotrf(b, lower=1)
            p = _first_bad_pivot(np.diagonal(c), floor[ell], info)
            if p is not None:
                break
        else:  # LAPACK builds that disagree at round-off
            raise NotPositiveDefinite("Cholesky factorization failed") from None
    else:
        lower_diag = np.diagonal(lower, axis1=-2, axis2=-1)
        i = _first_bad_pivot(lower_diag, floor[..., None])
        if i is None:
            return lower
        ell, p = divmod(i, m.shape[-1])
    raise NotPositiveDefinite(
        f"{label(ell)} is not positive definite (pivot {p})",
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
    """Symmetric inverses of the (L, n, n) stack with Cholesky factors ``lower``.

    X = L⁻¹ is formed in ``lower`` by `_triangular_inverse`, then
    Σ⁻¹ = XᵀX overwrites ``lower`` and is returned. At most three
    stack-sized arrays are live: ``lower``, Xᵀ / 2 and XᵀX / 2. For the
    (25000, 8, 8) stack of a k=4 ladder, 12.2 MiB, tracemalloc's peak
    over the whole direct route is 36.6 MiB.
    """
    x = _triangular_inverse(lower)
    # The product runs from a contiguous copy of Xᵀ, which is faster than
    # a transposed view. Halving is exact barring underflow, so
    # half = XᵀX / 2, and half + halfᵀ = Σ⁻¹ is symmetric bit for bit by
    # construction.
    xt = np.multiply(np.swapaxes(x, -1, -2), 0.5, order="C")
    half = np.matmul(xt, x)
    del xt
    np.add(half, np.swapaxes(half, -1, -2), out=x)
    return x
