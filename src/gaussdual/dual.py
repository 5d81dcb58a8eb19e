"""Dual construction for ladder models.

The dual of a Gaussian ladder swaps each local covariance block into the
exponent of its factor (precision and covariance trade places), negates
couplings between the two halves of every block, and fixes the first k
and last k variables to zero. What remains is an ordinary Gaussian in
the N - 2k interior variables whose precision matrix this module builds
explicitly; its log-determinant is the whole point, since it converts a
chain of coupled determinants into one sparse one. The 2π factors of
the pinned variables enter only the normalization constants, which
`engine.z_constants` accounts for.
"""

from dataclasses import dataclass

import numpy as np

from .model import SparseSymMatrix, _sparse_from_blocks


@dataclass
class DualModel:
    """Gaussian dual of a ladder model, restricted to its free variables.

    Attributes
    ----------
    n_dual : int
        Number of unpinned dual variables, (L-1)·k.
    dual_precision : SparseSymMatrix
        Precision matrix of the dual Gaussian over those variables.
    variable_map : ndarray, shape (n_dual,)
        variable_map[p] is the primal/global index of dual coordinate p
        (the unpinned interior indices k..L·k-1, in natural order).
    pinned : ndarray, shape (2k,)
        Global indices held at zero: the first k and the last k.
    k, L : int
        Dimensions of the source model, kept for serialization.
    """

    n_dual: int
    dual_precision: SparseSymMatrix
    variable_map: np.ndarray
    pinned: np.ndarray
    k: int
    L: int


def _dual_blocks(stack, k):
    """Σ′⁻¹'s k×k blocks, sliced from the (L, 2k, 2k) covariance stack.

    Σ′⁻¹ is the interior of the stack's overlap-add at stride k: its
    first and last block rows are pinned. Returns the L−1 diagonal
    blocks, the bottom-right corner of block ℓ plus the top-left corner
    of block ℓ+1, and, as a view, the L−2 couplings, the top-right
    corners of blocks 1 … L−2.

    The couplings are not negated. The dual negates them, but with
    D = diag(I, −I, I, …), M(−C) = D·M(C)·D: a congruence that leaves
    the determinant unchanged, and both Cholesky kernels give such a
    pair the same pivots bit for bit, since only the signs of the
    off-diagonal factor entries differ. So the engine eliminates them as
    they are, and only `build_dual` makes the negation.
    """
    return stack[:-1, k:, k:] + stack[1:, :k, :k], stack[1:-1, :k, k:]


def build_dual(model):
    """Construct the dual Gaussian of a ladder model.

    The dual precision holds `_dual_blocks` of the covariance stack,
    couplings negated.
    """
    k, L, N = model.k, model.L, model.N
    diag_blocks, off_blocks = _dual_blocks(model.sigma_blocks, k)
    dual_precision = _sparse_from_blocks(diag_blocks, -off_blocks)

    lo, hi = k, L * k
    return DualModel(
        n_dual=hi - lo,
        dual_precision=dual_precision,
        variable_map=np.arange(lo, hi, dtype=np.int64),
        pinned=np.concatenate(
            [np.arange(k, dtype=np.int64), np.arange(hi, N, dtype=np.int64)]
        ),
        k=k,
        L=L,
    )

