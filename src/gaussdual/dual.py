"""Dual construction for ladder models.

The dual of a Gaussian ladder swaps each local covariance block into the
exponent of its factor (precision and covariance trade places), negates
couplings between the two halves of every block, and fixes the first k
and last k variables to zero. What remains is an ordinary Gaussian in
the N - 2k interior variables whose precision matrix this module builds
explicitly; its log-determinant is the whole point, since it converts a
chain of coupled determinants into one sparse one.
"""

from dataclasses import dataclass

import numpy as np

from .model import SparseSymMatrix, _block_tridiagonal, _sparse_from_blocks

LOG_2PI = float(np.log(2.0 * np.pi))


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
    log_boundary_constant : float
        log((2π)^{2k}), the scale carried by the 2k boundary factors.
        Enters partition-function accounting only, never determinants.
    k, L : int
        Dimensions of the source model, kept for serialization.
    """

    n_dual: int
    dual_precision: SparseSymMatrix
    variable_map: np.ndarray
    pinned: np.ndarray
    log_boundary_constant: float
    k: int
    L: int


def build_dual(model):
    """Construct the dual Gaussian of a ladder model.

    The dual precision is the overlap-add of the covariance blocks
    (covariance in place of precision, same embedding as the primal
    assembly) with every coupling block negated, restricted to the
    interior variables by deleting the pinned rows and columns: the
    first and last block row. The negation is the congruence D·Σ_ℓ·D,
    D = diag(-1×k, +1×k), so it leaves every determinant unchanged.
    """
    k, L, N = model.k, model.L, model.N
    diag_blocks, off_blocks = _block_tridiagonal(model.sigma_blocks, k)
    dual_precision = _sparse_from_blocks(diag_blocks[1:-1], -off_blocks[1:-1])

    lo, hi = k, L * k
    return DualModel(
        n_dual=hi - lo,
        dual_precision=dual_precision,
        variable_map=np.arange(lo, hi, dtype=np.int64),
        pinned=np.concatenate(
            [np.arange(k, dtype=np.int64), np.arange(hi, N, dtype=np.int64)]
        ),
        log_boundary_constant=2.0 * k * LOG_2PI,
        k=k,
        L=L,
    )

