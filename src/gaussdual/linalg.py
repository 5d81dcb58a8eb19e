"""Dense symmetric positive-definite kernels, and the shared tolerances.

The package's two tolerances are decided here, both relative to the
matrix they judge and to nothing else, so a model scaled by any c > 0
is accepted or rejected as the model itself is (Higham, *Accuracy and
Stability of Numerical Algorithms*, ch. 10). `pivot_floor` is the level
at or below which a pivot counts as non-positive, `PIVOT_RTOL` times
the matrix's largest diagonal entry, and `_first_bad_pivot` finds the
first pivot of a factor that is under it; `SYMMETRY_RTOL` times a
matrix's largest entry is the asymmetry past which it is rejected
instead of symmetrized. The banded and dense factorizations
(``dpbtrf``, ``dpttrf``, ``dpotrf``) run in `elimination`, and raked
pivots are judged in `rake`, against the same floor.

The kernels are the symmetrization of an (L, n, n) stack of matrices or
of one (n, n) matrix, and `_factor`: the log-determinants and, on
request, the symmetric inverses of a stack. No caller needs the
Cholesky factor itself, so `_factor` picks how to form it, by one rule
on the stack's shape (`_entry_major`):

* A long stack of small blocks, at least `_ENTRY_MAJOR_MIN_BLOCKS` of
  order at most `_ENTRY_MAJOR_MAX_ORDER`, is worked entry-major, one
  chunk of about 1 MiB at a time (`_chunks`): the chunk is transposed
  to (n, n, B), so that each step of a column Cholesky, a row-by-row
  triangular inverse and the upper triangle of XᵀX is one numpy call
  over all B blocks, instead of one LAPACK or BLAS call per block. The
  factor never exists at stack size. At a pivot at or below its floor
  this path gives up, and the batched path reruns the whole stack.
* Every other stack, and any stack with a bad pivot, is factored by one
  batched Cholesky call; only after a failure is it refactored block by
  block, to name the first bad block and pivot. It is inverted through
  its triangular factors, a whole stack at a time.

So a stack's errors, messages and ``pivot_index`` do not depend on its
path. The kernels are private: the engine routes, `validate`,
`load_model`, `rake` and `logdet_dense` call them.
"""

import numpy as np
from scipy.linalg import lapack

from .errors import NotPositiveDefinite

# A pivot counts as non-positive when <= PIVOT_RTOL * (largest diagonal
# entry of its matrix), or when <= 0.
PIVOT_RTOL = 1e-12

# Inputs whose asymmetry is at most this times their largest entry are
# silently symmetrized (tolerates JSON round-trip noise); anything larger
# is a hard error.
SYMMETRY_RTOL = 1e-12

# Stacks of at least this many blocks, each of order at most this, are
# factored entry-major. Fewer or larger blocks are cheaper in numpy's
# per-block LAPACK and BLAS calls (README has the crossover timings).
_ENTRY_MAJOR_MIN_BLOCKS = 1024
_ENTRY_MAJOR_MAX_ORDER = 8

# How errors name block ell of a stack; callers pass their own, such as
# "covariance block {}".format; `_name` calls a single matrix "matrix".
_BLOCK = "block {}".format


def _name(m, label, ell):
    return "matrix" if m.ndim == 2 else label(ell)


def _symmetric_part(m, label):
    """Symmetric part ``(m + mᵀ) / 2`` of a square matrix or stack.

    Raises ValueError if ``m`` is not square, or if a matrix has a
    non-finite entry or an asymmetry over `SYMMETRY_RTOL` times its
    largest entry, naming the first such block by ``label(ell)``.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise ValueError(
            f"expected a square matrix or a stack of them, got shape {m.shape}"
        )
    t = np.swapaxes(m, -1, -2)
    if m.size:
        scale = np.abs(m).max(axis=(-2, -1))
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
    """PIVOT_RTOL · max(0, max diagonal entry), over the last axis of ``diag``.

    The 0 keeps a matrix with no positive diagonal entry rejected.

    Here, and in `_logdet`, array methods stand in for numpy functions:
    on the small stacks of short ladders their dispatch costs less.
    """
    return PIVOT_RTOL * np.fmax(0.0, diag.max(axis=-1, initial=-np.inf))


def _first_bad_pivot(diag, floor, info=0, squared=True):
    """Flat index of the first pivot at or below ``floor``, or NaN, or None.

    The pivots are the squares of ``diag``, the diagonal of a Cholesky
    factor, or with ``squared=False`` the entries of ``diag``, the D of
    an LDLᵀ factor. ``info`` is LAPACK's: when positive, pivot info - 1
    was not positive and the ones after it were never computed.
    """
    if info > 0:
        diag = diag[: info - 1]
    ok = (diag**2 if squared else diag) > floor  # False at a NaN too
    if not ok.all():
        return int(np.flatnonzero(~ok)[0])
    return info - 1 if info > 0 else None


def _chunks(stack, start=0):
    """Slices of ``stack`` from block ``start`` on, about 1 MiB each."""
    step = max(1, 2**20 // stack[0].nbytes)
    return (slice(lo, lo + step) for lo in range(start, len(stack), step))


def _entry_major(n_blocks, order):
    """Whether `_factor` works a stack of this shape entry-major."""
    return n_blocks >= _ENTRY_MAJOR_MIN_BLOCKS and 0 < order <= _ENTRY_MAJOR_MAX_ORDER


def _factor(stack, label, floor=None, invert=False):
    """Log-determinants, and with ``invert`` inverses, of an SPD stack.

    ``stack`` is a symmetric (L, n, n) stack. Returns the length-L
    log-determinants and the (L, n, n) inverses, symmetric bit for bit,
    or None without ``invert``. Raises NotPositiveDefinite at the first
    pivot, of the first block, at or below ``floor``, naming the block by
    ``label(ell)``. The floor, one per block, defaults to `pivot_floor`
    of the block's diagonal.
    """
    if floor is None:
        floor = pivot_floor(np.diagonal(stack, axis1=-2, axis2=-1))
    if _entry_major(len(stack), stack.shape[-1]):
        done = _factor_entry_major(stack, floor, invert)
        if done is not None:
            return done
    lower = _cholesky(stack, label, floor)
    return _logdet(lower), _inverse(lower) if invert else None


def _factor_entry_major(stack, floor, invert):
    """`_factor` on (n, n, B) transposes of the stack's chunks, or None.

    Each step below is one numpy call over the B blocks of a chunk.
    Returns None at the first pivot at or below its floor, unnamed.
    """
    n = stack.shape[-1]
    logdets = np.empty(len(stack))
    inverses = np.empty_like(stack) if invert else None
    for chunk in _chunks(stack):
        a = stack[chunk].transpose(1, 2, 0).copy()
        d = np.empty(a.shape[1:])
        # Left-looking column Cholesky of the lower triangle; each pivot
        # is judged before its square root.
        for j in range(n):
            if j:
                a[j:, j] -= np.einsum("ipb,pb->ib", a[j:, :j], a[j, :j])
            d[j] = a[j, j]
            if _first_bad_pivot(d[j], floor[chunk], squared=False) is not None:
                return None
            s = np.sqrt(d[j])
            a[j, j] = s
            a[j + 1 :, j] /= s
        logdets[chunk] = np.log(d).sum(axis=0)
        if not invert:
            continue
        # X = L⁻¹ over L, a row at a time: once row m of X is done, each
        # row i below it takes −L[i, m]·X[m, :m + 1] into its right-hand
        # side, stored where L's columns :m + 1 of row i were.
        for m in range(n):
            x_mm = 1.0 / a[m, m]
            a[m, m] = x_mm
            a[m, :m] *= x_mm
            below = a[m + 1 :, m]
            a[m + 1 :, :m] -= below[:, None] * a[m, :m]
            below *= -x_mm
        # Σ⁻¹ = XᵀX, a column of its upper triangle at a time, mirrored,
        # so the inverse is symmetric bit for bit.
        gram = np.empty_like(a)
        for q in range(n):
            col = np.einsum("ipb,ib->pb", a[q:, : q + 1], a[q:, q])
            gram[: q + 1, q] = col
            gram[q, :q] = col[:q]
        inverses[chunk] = gram.transpose(2, 0, 1)
    return logdets, inverses


def _cholesky(m, label, floor):
    """Lower Cholesky factors of a symmetric (L, n, n) stack.

    Raises NotPositiveDefinite at the first pivot, of the first block,
    at or below ``floor``, one per block, naming the block by
    ``label(ell)``.
    """
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
    return 2.0 * np.log(np.diagonal(lower, axis1=-2, axis2=-1)).sum(axis=-1)


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
    stack-sized arrays are live: ``lower``, Xᵀ / 2 and XᵀX / 2.
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
