"""Log-determinants of sparse SPD matrices.

Three backends, each returning a `LogDetReport` of its method name, the
log-determinant and the dimension. The banded Cholesky of a
block-tridiagonal matrix (linear in n for fixed block size) is the one
both engine routes run, on J and on Σ′⁻¹. Leaf-peeling Gaussian
elimination of a matrix whose graph is a forest (linear time, no fill)
and dense Cholesky are the independent references the banded kernel is
tested against.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import DimensionMismatch, NotAForest, NotPositiveDefinite
from .linalg import _BLOCK, _first_bad_pivot, _logdet, _symmetric_part, pivot_floor
from .model import SparseSymMatrix, _lower_band


@dataclass
class EliminationOrder:
    """Leaves-first elimination schedule for a forest.

    ``order`` lists every vertex exactly once; ``parent[v]`` is the one
    neighbor of v still uneliminated when v is removed, or -1 for the
    vertex eliminated last in its component.
    """

    order: np.ndarray
    parent: np.ndarray
    rounds: int


@dataclass
class LogDetReport:
    method: str
    logdet: float
    n: int


def tree_elimination_order(g):
    """Schedule vertices of a forest by repeated leaf peeling.

    Peeling proceeds in rounds: every vertex of degree ≤ 1 at the start
    of a round is eliminated during it, in ascending index order. A
    vertex left with degree ≥ 2 when no leaves remain sits on a cycle.

    Raises
    ------
    NotAForest
        If the graph contains a cycle.
    """
    n = g.n
    adj = [[] for _ in range(n)]
    for i, j in zip(g.rows.tolist(), g.cols.tolist()):
        adj[i].append(j)
        adj[j].append(i)

    deg = [len(a) for a in adj]
    eliminated = [False] * n
    queued = [False] * n
    current = [v for v in range(n) if deg[v] <= 1]
    for v in current:
        queued[v] = True

    order = []
    parent = np.full(n, -1, dtype=np.int64)
    rounds = 0
    while current:
        rounds += 1
        nxt = []
        for v in current:
            eliminated[v] = True
            order.append(v)
            for u in adj[v]:
                if not eliminated[u]:
                    parent[v] = u
                    deg[u] -= 1
                    if deg[u] <= 1 and not queued[u]:
                        queued[u] = True
                        nxt.append(u)
                    break
        nxt.sort()
        current = nxt

    if len(order) != n:
        raise NotAForest(
            f"{n - len(order)} vertices remain with degree >= 2; "
            "the graph contains a cycle"
        )
    return EliminationOrder(np.asarray(order, dtype=np.int64), parent, rounds)


def logdet_tree_bp(m):
    """Log-determinant by single-pass elimination along a forest.

    Each eliminated vertex contributes its current diagonal value as a
    pivot and sends the correction w²/pivot to its parent's diagonal;
    the log-determinant is the sum of log pivots. Linear in n + edges.

    Raises
    ------
    NotAForest
        If the sparsity graph has a cycle.
    NotPositiveDefinite
        If a pivot falls below the scale-relative positivity floor; the
        exception carries the offending vertex index.
    """
    sched = tree_elimination_order(m)

    # Weight of the (v, parent) edge for every non-root v, via one sorted
    # key lookup instead of a per-edge dict; keys are unique by construction.
    n = m.n
    keys = m.rows * n + m.cols
    key_order = np.argsort(keys)
    par = sched.parent
    qv = np.nonzero(par >= 0)[0]
    qu = par[qv]
    qkeys = np.minimum(qv, qu) * n + np.maximum(qv, qu)
    pos = key_order[np.searchsorted(keys[key_order], qkeys)]
    pw = np.zeros(n)
    pw[qv] = m.vals[pos]

    work = m.diag.astype(float).tolist()
    parent = par.tolist()
    parw = pw.tolist()
    floor = float(pivot_floor(m.diag))

    logdet = 0.0
    for v in sched.order.tolist():
        p = work[v]
        if p <= floor:
            raise NotPositiveDefinite(
                f"pivot at vertex {v} is {p:.3e}", pivot_index=v
            )
        logdet += math.log(p)
        u = parent[v]
        if u >= 0:
            w = parw[v]
            work[u] -= w * (w / p)  # w * w overflows at |w| ≳ 1e154

    return LogDetReport("tree_bp", float(logdet), n)


def block_partition(m, k):
    """Split an n×n SparseSymMatrix into k×k tridiagonal block stacks.

    Returns (diag_blocks, off_blocks): the B = n/k diagonal blocks and
    the B-1 super-diagonal blocks. Entries outside the block tridiagonal
    band are rejected.
    """
    if k < 1 or m.n % k != 0:
        raise DimensionMismatch(f"dimension {m.n} is not a multiple of k={k}")
    nb = m.n // k
    diag_blocks = np.zeros((nb, k, k))
    idx = np.arange(m.n)
    diag_blocks[idx // k, idx % k, idx % k] = m.diag

    br, bc = m.rows // k, m.cols // k
    same = br == bc
    upper = bc == br + 1
    if not np.all(same | upper):
        raise DimensionMismatch("matrix has entries outside the tridiagonal band")

    r, c, v = m.rows[same], m.cols[same], m.vals[same]
    diag_blocks[r // k, r % k, c % k] = v
    diag_blocks[r // k, c % k, r % k] = v

    off_blocks = np.zeros((max(nb - 1, 0), k, k))
    r, c, v = m.rows[upper], m.cols[upper], m.vals[upper]
    off_blocks[r // k, r % k, c % k] = v
    return diag_blocks, off_blocks


def logdet_block_tridiagonal(diag_blocks, off_blocks):
    """Log-determinant by banded Cholesky.

    With k×k diagonal blocks A_1..A_B and super-diagonal blocks
    C_1..C_{B-1}, the matrix has bandwidth 2k-1. One LAPACK ``dpbtrf``
    call factors it in O(B·k³); only the upper triangle of each A_b is
    read.

    Raises
    ------
    NotPositiveDefinite
        If a pivot is at or below `linalg.pivot_floor` (the implied matrix
        is not SPD). ``pivot_index`` is the pivot's global index.
    """
    nb = len(diag_blocks)
    if nb == 0:
        return LogDetReport("block_tridiag", 0.0, 0)
    if len(off_blocks) != nb - 1:
        raise DimensionMismatch(
            f"{nb} diagonal blocks need {nb - 1} off-diagonal blocks, "
            f"got {len(off_blocks)}"
        )
    try:
        a = np.asarray(diag_blocks, dtype=float)
        c = np.asarray(off_blocks, dtype=float)
    except ValueError:
        raise DimensionMismatch("blocks must all be k×k") from None
    k = a.shape[-1]
    if a.shape != (nb, k, k):
        raise DimensionMismatch("diagonal blocks must all be k×k")
    if nb > 1 and c.shape != (nb - 1, k, k):
        raise DimensionMismatch("off-diagonal blocks must all be k×k")

    logdet = _banded_logdet(a, c.reshape(nb - 1, k, k))
    return LogDetReport("block_tridiag", logdet, nb * k)


def _banded_logdet(diag_blocks, off_blocks, floor=None):
    """log det of a block-tridiagonal matrix by one ``dpbtrf`` call, or
    for k = 1 by ``dpttrf``, whose LDLᵀ loop is a few times faster.

    Raises NotPositiveDefinite at the first pivot at or below ``floor``,
    by default `pivot_floor` of the matrix's own diagonal.
    """
    nb, k, _ = diag_blocks.shape
    # scipy's dpttrf wrapper rejects the empty off-diagonal of a 1×1 matrix.
    tridiagonal = k == 1 and nb > 1
    if tridiagonal:
        diag = diag_blocks.reshape(nb)
        if floor is None:
            floor = pivot_floor(diag)
        d, _, info = lapack.dpttrf(diag, off_blocks.reshape(nb - 1))
    else:
        band = _lower_band(diag_blocks, off_blocks)
        if floor is None:
            floor = pivot_floor(band[0])
        factor, info = lapack.dpbtrf(band, lower=1, overwrite_ab=1)
        d = factor[0]
    # The LDLᵀ pivots are d; the Cholesky ones are the squares of d.
    i = _first_bad_pivot(d, floor, info, squared=not tridiagonal)
    if i is not None:
        raise NotPositiveDefinite(
            f"Schur complement {i // k} is not positive definite (pivot {i})",
            pivot_index=i,
        )
    logdet = float(np.sum(np.log(d)))
    return logdet if tridiagonal else 2.0 * logdet


def logdet_dense(m):
    """Dense Cholesky log-determinant; the oracle for the other backends.

    Raises
    ------
    NotPositiveDefinite
        If a pivot is at or below `linalg.pivot_floor`; ``pivot_index`` is
        its index.
    """
    # A SparseSymMatrix is symmetric by construction: no symmetrized copy.
    if isinstance(m, SparseSymMatrix):
        dense = m.to_dense()
    else:
        dense = _symmetric_part(m, _BLOCK)
    n = dense.shape[0]
    floor = pivot_floor(np.diagonal(dense))
    # dense is a fresh C-ordered array, so its transpose, the same matrix,
    # is Fortran-ordered and LAPACK factors it in place.
    lower, info = lapack.dpotrf(dense.T, lower=1, overwrite_a=1)
    p = _first_bad_pivot(np.diagonal(lower), floor, info)
    if p is not None:
        raise NotPositiveDefinite(
            f"matrix is not positive definite (pivot {p})", pivot_index=p
        )
    return LogDetReport("dense", float(_logdet(lower)), n)
