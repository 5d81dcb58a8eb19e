"""Ladder-structured Gaussian models.

A ladder model couples N = (L+1)k zero-mean variables through L local
covariance blocks of size 2k; consecutive blocks overlap in k variables.
This module holds the model container, structural validation (positive
definiteness; acyclicity of the block sparsity graphs, counted by one
kernel for either stack), and assembly of the global precision matrix
implied by the product of local factors.
The covariance stack is symmetrized, factored and inverted whole by
the kernels in `linalg`; their errors name the covariance block.
"""

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import DimensionMismatch, NotPositiveDefinite
from .linalg import _cholesky, _inverse, _logdet, _symmetric_part

_COVARIANCE = "covariance block {}".format


class LadderModel:
    """Chain of L overlapping Gaussian factors, each on 2k variables.

    Parameters
    ----------
    k : int
        Half-block width; consecutive blocks share k variables.
    L : int
        Number of blocks, ≥ 1.
    sigma_blocks : sequence of (2k, 2k) arrays
        Local covariance matrices, finite. They are symmetrized on
        ingestion; positive definiteness is checked by `validate`, not
        here, so indefinite models can be constructed for inspection.

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
        self.k = k
        self.L = L
        self.sigma_blocks = _symmetric_part(blocks, _COVARIANCE)
        self.sigma_blocks.setflags(write=False)

    @property
    def N(self):
        return (self.L + 1) * self.k

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


def _components(n, rows, cols):
    """Number of connected components and their labels, for n vertices."""
    # CSR arrays built here: scipy's COO conversion dominates small graphs.
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    order = np.argsort(rows, kind="stable")
    graph = csr_matrix((np.ones(rows.size), cols[order], indptr), shape=(n, n))
    return connected_components(graph, directed=False)


def _block_forests(stack, zero_tol):
    """Which blocks of an exactly symmetric (L, m, m) stack have a
    cycle-free sparsity graph.

    Pair (i, j), i < j, of block ell is an edge iff |stack[ell, i, j]| >
    zero_tol. The stack must be symmetric bit for bit, because a block's
    edge count is taken as half the count of its off-diagonal entries
    above ``zero_tol``. A block with m or more edges has a cycle; the
    edges of the other blocks are listed and counted at once, as one
    block-diagonal graph whose components never span two blocks.
    Returns the length-L boolean array and the listed edges (ell, i, j),
    block by block and row-major within a block.
    """
    m = stack.shape[-1]
    above = np.abs(stack) > zero_tol
    diagonal = above.diagonal(axis1=1, axis2=2).sum(axis=1)
    n_edges = (above.sum(axis=(1, 2)) - diagonal) // 2
    forest = n_edges < m
    sparse = np.flatnonzero(forest)
    iu, ju = np.triu_indices(m, 1)
    s, e = np.nonzero(above[sparse][:, iu, ju])
    i, j = iu[e], ju[e]
    if sparse.size:
        # Vertex v of the s-th sparse block is s·m + v.
        n = sparse.size * m
        n_comp, labels = _components(n, s * m + i, s * m + j)
        block_of = np.empty(n_comp, dtype=np.intp)
        block_of[labels] = np.arange(n) // m
        components = np.bincount(block_of, minlength=sparse.size)
        forest[sparse] = n_edges[sparse] == m - components
    return forest, (sparse[s], i, j)


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
    inverses = _inverse(_covariance_factor(model))
    return _sparse_from_blocks(*_block_tridiagonal(inverses, model.k))


def _covariance_factor(model):
    """Cholesky factors of the covariance stack; a failure names its block."""
    return _cholesky(model.sigma_blocks, _COVARIANCE)


def local_logdets(model):
    """Log-determinant of each covariance block, as a length-L array."""
    return _logdet(_covariance_factor(model))


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
        If ``zero_tol`` is negative or NaN.
    """
    if not zero_tol >= 0:
        raise ValueError(f"zero_tol must be >= 0, got {zero_tol}")
    messages = []

    a1 = True
    try:
        inverses = _inverse(_covariance_factor(model))
    except NotPositiveDefinite as exc:
        a1 = False
        inverses = None
        messages.append(str(exc))

    a2 = False
    if inverses is not None:
        # The inverse stack is symmetric bit for bit (`linalg._inverse`).
        a2 = not _block_forests(inverses, zero_tol)[0].any()
        if not a2:
            messages.append(
                "some block precision graph is already cycle-free; "
                "dualization is unnecessary for it"
            )

    # `LadderModel` stores the covariance stack symmetric bit for bit.
    acyclic, (ell, i, j) = _block_forests(model.sigma_blocks, zero_tol)
    cyclic = np.nonzero(~acyclic)[0]
    a3_blocks = cyclic.size == 0
    messages.extend(f"covariance block {b} has a cycle" for b in cyclic)

    a3_union = False
    if a3_blocks:
        k, n = model.k, model.N
        # Every block is a forest, with fewer than m edges, so all their
        # edges are listed. Structural union: an edge present in two
        # overlapping blocks is one edge, whatever its weights.
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
