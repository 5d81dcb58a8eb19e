"""Exact log-determinants for Gaussian ladder models via dual factor graphs.

A ladder model chains L overlapping 2k-variable Gaussian factors.
Instead of eliminating the global N×N precision matrix, the dual
construction turns the problem into one sparse (usually tree) matrix of
size N−2k whose log-determinant, together with the blocks' own, gives
log det(Σ) exactly and in linear time.
"""

from .dual import DualModel, build_dual, dual_is_tree
from .elimination import (
    EliminationOrder,
    LogDetReport,
    block_partition,
    logdet_block_tridiagonal,
    logdet_dense,
    logdet_tree_bp,
    tree_elimination_order,
)
from .engine import (
    DualityCheck,
    ZReport,
    duality_check,
    logdet_sigma_direct,
    logdet_sigma_via_duality,
    verify_duality,
    z_constants,
)
from .errors import (
    DimensionMismatch,
    GaussDualError,
    InfeasibleStructure,
    ModelFormatError,
    NotAForest,
    NotPositiveDefinite,
)
from .generate import STRUCTURES, GenSpec, generate
from .linalg import SpdFactor, spd_factorize, spd_inverse, symmetrize
from .model import (
    LadderModel,
    SparseSymMatrix,
    ValidationReport,
    assemble_global_precision,
    is_forest,
    local_logdets,
    sparsity_graph,
    validate,
)
from .modelio import load_model, save_model

__version__ = "0.1.0"

__all__ = [
    "DualModel",
    "DualityCheck",
    "DimensionMismatch",
    "EliminationOrder",
    "GaussDualError",
    "GenSpec",
    "InfeasibleStructure",
    "LadderModel",
    "LogDetReport",
    "ModelFormatError",
    "NotAForest",
    "NotPositiveDefinite",
    "STRUCTURES",
    "SparseSymMatrix",
    "SpdFactor",
    "ValidationReport",
    "ZReport",
    "assemble_global_precision",
    "block_partition",
    "build_dual",
    "dual_is_tree",
    "duality_check",
    "generate",
    "is_forest",
    "load_model",
    "local_logdets",
    "logdet_block_tridiagonal",
    "logdet_dense",
    "logdet_sigma_direct",
    "logdet_sigma_via_duality",
    "logdet_tree_bp",
    "save_model",
    "sparsity_graph",
    "spd_factorize",
    "spd_inverse",
    "symmetrize",
    "tree_elimination_order",
    "validate",
    "verify_duality",
    "z_constants",
]
