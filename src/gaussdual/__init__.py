"""Exact log-determinants for Gaussian ladder models via dual factor graphs.

A ladder model chains L overlapping 2k-variable Gaussian factors.
Instead of eliminating the global N×N precision matrix, the dual
construction turns the problem into one sparse (usually tree) matrix of
size N−2k whose log-determinant, together with the blocks' own, gives
log det(Σ) exactly and in linear time.
"""

from .dual import DualModel, build_dual
from .elimination import LogDetReport, logdet_block_tridiagonal, logdet_dense
from .engine import (
    DualityCheck,
    ZReport,
    duality_check,
    logdet_sigma_direct,
    logdet_sigma_via_duality,
    z_constants,
)
from .errors import (
    DimensionMismatch,
    GaussDualError,
    InfeasibleStructure,
    ModelFormatError,
    NotPositiveDefinite,
)
from .generate import STRUCTURES, GenSpec, generate
from .model import (
    LadderModel,
    SparseSymMatrix,
    ValidationReport,
    local_logdets,
    validate,
)
from .modelio import load_model, save_model

__version__ = "0.1.0"

__all__ = [
    "DualModel",
    "DualityCheck",
    "DimensionMismatch",
    "GaussDualError",
    "GenSpec",
    "InfeasibleStructure",
    "LadderModel",
    "LogDetReport",
    "ModelFormatError",
    "NotPositiveDefinite",
    "STRUCTURES",
    "SparseSymMatrix",
    "ValidationReport",
    "ZReport",
    "build_dual",
    "duality_check",
    "generate",
    "load_model",
    "local_logdets",
    "logdet_block_tridiagonal",
    "logdet_dense",
    "logdet_sigma_direct",
    "logdet_sigma_via_duality",
    "save_model",
    "validate",
    "z_constants",
]
