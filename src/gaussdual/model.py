"""Ladder-structured Gaussian models.

A ladder model couples N = (L+1)k zero-mean variables through L local
covariance blocks of size 2k; consecutive blocks overlap in k variables.
This module holds the model container, structural validation (positive
definiteness, acyclicity of the block sparsity graphs, counted as
connected components over the whole block stack), and assembly of
the global precision matrix implied by the product of local factors.
"""

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import DimensionMismatch, NotPositiveDefinite
from .linalg import SYMMETRY_RTOL, pivot_floor, symmetrize


class LadderModel:
    """Chain of L overlapping Gaussian factors, each on 2k variables.

    Parameters
    ----------
    k : int
        Half-block width; consecutive blocks share k variables.
    L : int
        Number of blocks, ≥ 1.
    sigma_blocks : sequence of (2k, 2k) arrays
        Local covariance matrices. They are symmetrized on ingestion;
        positive definiteness is checked by `validate`, not here, so
        deliberately broken models can be constructed for inspection.

    Attributes
    ----------
    sigma_blocks : ndarray, shape (L, 2k, 2k)
        The blocks, stacked.
    N : int
        Total variable count, (L+1)·k.
    """

    def __init__(self, k, L, sigma_blocks):
        k = int(k)
        L = int(L)
        if k < 1:
            raise DimensionMismatch(f"k must be >= 1, got {k}")
        if L < 1:
            raise DimensionMismatch(f"L must be >= 1, got {L}")
        blocks = np.asarray(sigma_blocks, dtype=float)
        if blocks.shape != (L, 2 * k, 2 * k):
            raise DimensionMismatch(
                f"expected {L} covariance blocks of shape "
                f"({2 * k}, {2 * k}), got array of shape {blocks.shape}"
            )
        swapped = np.swapaxes(blocks, 1, 2)
        if blocks.size:
            scale = np.maximum(1.0, np.abs(blocks).max(axis=(1, 2)))
            asym = np.abs(blocks - swapped).max(axis=(1, 2))
            bad = np.nonzero(asym > SYMMETRY_RTOL * scale)[0]
            if bad.size:
                raise ValueError(
                    f"covariance block {bad[0]} is not symmetric "
                    f"(max |b - b.T| = {asym[bad[0]]:.3e})"
                )
        self.k = k
        self.L = L
        self.sigma_blocks = 0.5 * (blocks + swapped)
        self.sigma_blocks.setflags(write=False)

    @property
    def N(self):
        return (self.L + 1) * self.k

    def block_span(self, ell):
        """Global indices covered by block ``ell`` (0-based): a range of 2k."""
        if not 0 <= ell < self.L:
            raise IndexError(f"block index {ell} out of range [0, {self.L})")
        return range(ell * self.k, (ell + 2) * self.k)

    def __repr__(self):
        return f"LadderModel(k={self.k}, L={self.L}, N={self.N})"


class SparseSymMatrix:
    """Symmetric matrix stored as a diagonal plus strictly-upper entries.

    Off-diagonal structure is kept in parallel arrays ``rows``, ``cols``,
    ``vals`` with rows < cols, no duplicates and no explicit zeros, so the
    entry list doubles as the edge set of the matrix's graph.
    """

    def __init__(self, n, diag, rows=None, cols=None, vals=None):
        n = int(n)
        diag = np.asarray(diag, dtype=float)
        if diag.shape != (n,):
            raise DimensionMismatch(
                f"diagonal has shape {diag.shape}, expected ({n},)"
            )
        rows = np.asarray([] if rows is None else rows, dtype=np.int64)
        cols = np.asarray([] if cols is None else cols, dtype=np.int64)
        vals = np.asarray([] if vals is None else vals, dtype=float)
        if not rows.shape == cols.shape == vals.shape or rows.ndim != 1:
            raise DimensionMismatch("rows, cols and vals must be equal-length 1-d")
        if rows.size:
            if rows.min() < 0 or cols.max() >= n:
                raise ValueError("entry index out of range")
            if np.any(rows >= cols):
                raise ValueError("entries must satisfy row < col (upper triangle)")
            if np.any(vals == 0.0):
                raise ValueError("explicit zero entries are not allowed")
            keys = rows * n + cols
            # Strictly increasing (row-major) keys cannot repeat: skip the sort.
            if np.any(np.diff(keys) <= 0) and np.unique(keys).size != keys.size:
                raise ValueError("duplicate (row, col) entries")
        self.n = n
        self.diag = diag
        self.rows = rows
        self.cols = cols
        self.vals = vals

    @property
    def nnz(self):
        return int(self.rows.size)

    @property
    def edges(self):
        """Off-diagonal entries as (i, j, weight) tuples, i < j."""
        return [
            (int(i), int(j), float(v))
            for i, j, v in zip(self.rows, self.cols, self.vals)
        ]

    @classmethod
    def from_dense(cls, m, zero_tol=0.0):
        m = symmetrize(m)
        i, j = np.triu_indices(m.shape[0], 1)
        keep = np.abs(m[i, j]) > zero_tol
        return cls(m.shape[0], np.diagonal(m).copy(), i[keep], j[keep], m[i, j][keep])

    def to_dense(self):
        m = np.zeros((self.n, self.n))
        np.fill_diagonal(m, self.diag)
        m[self.rows, self.cols] = self.vals
        m[self.cols, self.rows] = self.vals
        return m

    def __repr__(self):
        return f"SparseSymMatrix(n={self.n}, nnz={self.nnz})"


@dataclass
class ValidationReport:
    """Outcome of the structural checks a ladder model is expected to meet.

    ``assumption2_cycles_present`` is informational: it records whether
    every block's precision graph is cyclic (the regime where dualization
    pays off), and nothing downstream depends on it.
    """

    assumption1_ok: bool
    assumption2_cycles_present: bool
    assumption3_blocks_acyclic: bool
    assumption3_union_acyclic: bool
    messages: list = field(default_factory=list)

    @property
    def ok(self):
        return (
            self.assumption1_ok
            and self.assumption3_blocks_acyclic
            and self.assumption3_union_acyclic
        )


def sparsity_graph(m, zero_tol=0.0):
    """Graph of a symmetric matrix: entries above ``zero_tol`` are edges.

    Diagonal values are copied verbatim; an off-diagonal pair (i, j) with
    |m[i, j]| > zero_tol contributes one undirected edge.
    """
    return SparseSymMatrix.from_dense(m, zero_tol=zero_tol)


def _components(n, rows, cols):
    """Number of connected components and their labels, for n vertices."""
    # CSR arrays built here: scipy's COO conversion dominates small graphs.
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    order = np.argsort(rows, kind="stable")
    graph = csr_matrix((np.ones(rows.size), cols[order], indptr), shape=(n, n))
    return connected_components(graph, directed=False)


def is_forest(g):
    """True iff the edge set of ``g`` contains no cycle.

    A simple graph is a forest iff it has n - (component count) edges.
    """
    return g.nnz == g.n - _components(g.n, g.rows, g.cols)[0]


def _block_forests(stack, zero_tol):
    """Which blocks of a (L, m, m) stack have a cycle-free sparsity graph.

    Pair (i, j), i < j, of block ell is an edge iff |stack[ell, i, j]| >
    zero_tol. All L graphs are counted at once, as one block-diagonal
    graph on L·m vertices, whose components never span two blocks.

    Returns the length-L boolean array and the edges (ell, i, j), block
    by block and row-major within a block.
    """
    L, m, _ = stack.shape
    iu, ju = np.triu_indices(m, 1)
    ell, e = np.nonzero(np.abs(stack[:, iu, ju]) > zero_tol)
    i, j = iu[e], ju[e]
    n_comp, labels = _components(L * m, ell * m + i, ell * m + j)
    block_of = np.empty(n_comp, dtype=np.intp)
    block_of[labels] = np.arange(L * m) // m
    components = np.bincount(block_of, minlength=L)
    return np.bincount(ell, minlength=L) == m - components, (ell, i, j)


def _stacked_cholesky(blocks, context):
    """Cholesky-factorize a (L, m, m) stack, attributing failures to a block.

    Returns the stacked lower factors. Raises NotPositiveDefinite naming
    the first offending block and pivot, applying the same scale-relative
    pivot floor as `linalg.spd_factorize`.
    """
    try:
        lowers = np.linalg.cholesky(blocks)
    except np.linalg.LinAlgError:
        lowers = None
    if lowers is None:
        for ell, b in enumerate(blocks):
            try:
                np.linalg.cholesky(b)
            except np.linalg.LinAlgError:
                raise NotPositiveDefinite(
                    f"{context} {ell} is not positive definite"
                ) from None
        raise NotPositiveDefinite(f"some {context} is not positive definite")

    pivots = np.diagonal(lowers, axis1=1, axis2=2) ** 2
    floors = pivot_floor(np.diagonal(blocks, axis1=1, axis2=2))
    bad = np.nonzero((pivots <= floors[:, None]).any(axis=1))[0]
    if bad.size:
        ell = int(bad[0])
        p = int(np.nonzero(pivots[ell] <= floors[ell])[0][0])
        raise NotPositiveDefinite(
            f"{context} {ell} has a near-zero pivot at index {p}",
            pivot_index=p,
        )
    return lowers


def _stacked_inverse(blocks, context):
    inv = np.linalg.inv(_stacked_cholesky(blocks, context))
    out = np.swapaxes(inv, 1, 2) @ inv
    del inv
    # In place: at most two stack-sized arrays are live at once, so fewer
    # fresh pages are touched per call. numpy buffers the overlapping
    # transpose, so the values equal 0.5 * (out + outᵀ) bit for bit.
    out += np.swapaxes(out, 1, 2)
    out *= 0.5
    return out


def _block_tridiagonal(stack, k):
    """Overlap-add a (L, 2k, 2k) stack at stride k, as k×k blocks.

    Returns the (L+1, k, k) diagonal blocks and, as a view, the (L, k, k)
    super-diagonal blocks of the block-tridiagonal sum.
    """
    diag_blocks = np.zeros((stack.shape[0] + 1, k, k))
    diag_blocks[:-1] += stack[:, :k, :k]
    diag_blocks[1:] += stack[:, k:, k:]
    return diag_blocks, stack[:, :k, k:]


def _lower_band(diag_blocks, off_blocks):
    """LAPACK lower band storage of a symmetric block-tridiagonal matrix.

    From B diagonal and B-1 super-diagonal k×k blocks, returns the
    (2k, B·k) array ab with ab[r, i] = M[i, i + r], zero past the end.
    Only the upper triangle of each diagonal block is read.
    """
    nb, k, _ = diag_blocks.shape
    # Row i = b·k + p of M's upper triangle is row p of the panel
    # [A_b | C_b | 0] from column p on; p + r <= 3k - 2 stays inside it.
    panel = np.zeros((nb, k, 3 * k))
    panel[:, :, :k] = diag_blocks
    panel[:-1, :, k : 2 * k] = off_blocks
    s0, s1, s2 = panel.strides
    rows = as_strided(panel, (nb, k, 2 * k), (s0, s1 + s2, s2), writeable=False)
    return rows.reshape(nb * k, 2 * k).T


def _sparse_from_blocks(diag_blocks, off_blocks):
    """SparseSymMatrix of a block-tridiagonal matrix, entries row-major."""
    rows_band = _lower_band(diag_blocks, off_blocks).T
    i, r = np.nonzero(rows_band[:, 1:])
    diag = rows_band[:, 0].copy()
    return SparseSymMatrix(diag.size, diag, i, i + r + 1, rows_band[i, r + 1])


def assemble_global_precision(model):
    """Build the N×N precision matrix of the full ladder.

    Each block contributes its inverse covariance on the 2k variables it
    covers; contributions from overlapping blocks add. The result is SPD
    whenever every block is, and block-tridiagonal with k×k blocks.

    Raises
    ------
    NotPositiveDefinite
        If any covariance block fails to factorize.
    """
    return _sparse_from_blocks(*_precision_blocks(model))


def _precision_blocks(model):
    """Diagonal and coupling k×k blocks of the global precision J."""
    inverses = _stacked_inverse(model.sigma_blocks, "covariance block")
    return _block_tridiagonal(inverses, model.k)


def local_logdets(model):
    """Log-determinant of each covariance block, as a length-L array."""
    lowers = _stacked_cholesky(model.sigma_blocks, "covariance block")
    return 2.0 * np.sum(np.log(np.diagonal(lowers, axis1=1, axis2=2)), axis=1)


def validate(model, zero_tol=0.0):
    """Check the structural assumptions the duality pipeline relies on.

    Parameters
    ----------
    model : LadderModel
    zero_tol : float
        Threshold below which off-diagonal entries are treated as absent
        when building sparsity graphs.

    Returns
    -------
    ValidationReport
        Flags for: every block SPD; every block's precision graph cyclic
        (informational); every block's covariance graph acyclic; and the
        union of all block graphs, mapped to global variables, acyclic.

    Raises
    ------
    ValueError
        If ``zero_tol`` is negative.
    """
    if zero_tol < 0:
        raise ValueError(f"zero_tol must be >= 0, got {zero_tol}")
    messages = []

    a1 = True
    try:
        inverses = _stacked_inverse(model.sigma_blocks, "covariance block")
    except NotPositiveDefinite as exc:
        a1 = False
        inverses = None
        messages.append(str(exc))

    a2 = False
    if inverses is not None:
        a2 = not _block_forests(inverses, zero_tol)[0].any()
        if not a2:
            messages.append(
                "some block precision graph is already cycle-free; "
                "dualization is unnecessary for it"
            )

    acyclic, (ell, i, j) = _block_forests(model.sigma_blocks, zero_tol)
    cyclic = np.nonzero(~acyclic)[0]
    a3_blocks = cyclic.size == 0
    messages.extend(f"covariance block {b} has a cycle" for b in cyclic)

    a3_union = False
    if a3_blocks:
        k, n = model.k, model.N
        # Structural union: an edge present in two overlapping blocks is
        # one edge, whatever its weights.
        keys = np.unique((i + ell * k) * n + (j + ell * k))
        a3_union = keys.size == n - _components(n, keys // n, keys % n)[0]
        if not a3_union:
            messages.append("union of block graphs has a cycle")

    return ValidationReport(
        assumption1_ok=a1,
        assumption2_cycles_present=a2,
        assumption3_blocks_acyclic=a3_blocks,
        assumption3_union_acyclic=a3_union,
        messages=messages,
    )
