"""End-to-end solvers for ladder determinants and normalization constants.

Two independent routes to log det(Σ):

* direct: eliminate the global precision J, block-tridiagonal with k×k
  blocks, by banded Cholesky (or densely); log det(Σ) = −log det(J).
* via duality: log det(Σ) = Σ_ℓ log det(Σ_ℓ) − log det(Σ′⁻¹), with the
  dual precision Σ′⁻¹ eliminated along its tree graph (banded if cyclic).

Their agreement is the substantive correctness check of the whole
package, and `verify_duality` states it as a relation between the
primal and dual normalization constants.
"""

import warnings
from dataclasses import dataclass, field

from .dual import LOG_2PI, build_dual
from .elimination import (
    block_partition,
    logdet_block_tridiagonal,
    logdet_dense,
    logdet_tree_bp,
)
from .errors import NotAForest
from .model import _precision_blocks, assemble_global_precision, local_logdets


@dataclass
class ZReport:
    """Normalization constants of a ladder model, all in natural logs.

    ``log_z = log_zf - sum(log_zl)`` holds exactly by construction;
    ``duality_residual`` restates the scale relation between the dual
    constant Z′ and the primal Z and should vanish to round-off.
    """

    log_zf: float
    log_zl: list
    log_z: float
    log_zprime: float
    duality_residual: float


@dataclass
class DualityCheck:
    """Cross-path consistency report produced by `duality_check`."""

    ok: bool
    residual: float
    tol: float
    log_zprime: float
    log_z: float
    logdet_via_duality: float
    logdet_direct: float
    messages: list = field(default_factory=list)


def _logdet_dual_precision(model, method):
    """log det(Σ′⁻¹) of the model's dual; a cyclic one is banded like J."""
    dual = build_dual(model)
    if method == "dense":
        return logdet_dense(dual.dual_precision).logdet, dual
    if method != "tree_bp":
        raise ValueError(f"unknown dual method {method!r}")
    try:
        return logdet_tree_bp(dual.dual_precision).logdet, dual
    except NotAForest:
        warnings.warn(
            "dual sparsity graph has a cycle; falling back to banded "
            "elimination",
            RuntimeWarning,
            stacklevel=3,
        )
        blocks = block_partition(dual.dual_precision, model.k)
        return logdet_block_tridiagonal(*blocks).logdet, dual


def logdet_sigma_via_duality(model, method="tree_bp"):
    """log det(Σ) through the dual: Σ_ℓ logdet(Σ_ℓ) − logdet(Σ′⁻¹).

    Parameters
    ----------
    model : LadderModel
    method : {"tree_bp", "dense"}
        How to eliminate the dual precision matrix. "tree_bp" eliminates
        a cyclic dual graph by banded Cholesky, with a RuntimeWarning.
    """
    ld_prime_inv, _ = _logdet_dual_precision(model, method)
    return float(local_logdets(model).sum() - ld_prime_inv)


def logdet_sigma_direct(model, method="block_tridiag"):
    """log det(Σ) from the global precision: −log det(J).

    ``method`` selects the elimination backend: "block_tridiag", banded
    Cholesky of J's k×k blocks, or "dense" Cholesky of the assembled J.
    """
    if method == "dense":
        report = logdet_dense(assemble_global_precision(model))
    elif method == "block_tridiag":
        report = logdet_block_tridiagonal(*_precision_blocks(model))
    else:
        raise ValueError(f"unknown direct method {method!r}")
    return float(-report.logdet)


def z_constants(model, method="tree_bp"):
    """All normalization constants of the model, in natural logs.

    log Z_f needs log det(Σ), which is computed through the dual path;
    log Z′ uses the same dual log-determinant, so the residual reported
    here checks bookkeeping, not cross-path agreement (that is
    `verify_duality`'s job).
    """
    k, n_vars = model.k, model.N
    locals_ = local_logdets(model)
    ld_prime_inv, _ = _logdet_dual_precision(model, method)

    logdet_sigma = float(locals_.sum() - ld_prime_inv)
    log_zf = 0.5 * (n_vars * LOG_2PI + logdet_sigma)
    log_zl = [0.5 * (2 * k * LOG_2PI + v) for v in locals_.tolist()]
    log_z = log_zf - sum(log_zl)
    log_zprime = (k + n_vars / 2.0) * LOG_2PI + 0.5 * (-ld_prime_inv)
    residual = log_zprime - (n_vars * LOG_2PI + log_z)
    return ZReport(
        log_zf=log_zf,
        log_zl=log_zl,
        log_z=log_z,
        log_zprime=log_zprime,
        duality_residual=residual,
    )


def _dual_digest(dual):
    g = dual.dual_precision
    if g.n == 0:
        return "dual: empty (n_dual=0)"
    return (
        f"dual: n={g.n} nnz={g.nnz} "
        f"diag∈[{g.diag.min():.6g}, {g.diag.max():.6g}] "
        f"Σ|w|={abs(g.vals).sum():.6g}"
    )


def duality_check(model, tol=1e-9, direct_method="block_tridiag"):
    """Compare the dual-domain Z′ against the primal-domain Z.

    Z is computed entirely from the primal side (direct elimination of
    the assembled precision) and Z′ entirely from the dual side, so a
    small residual is genuine evidence that the two constructions
    describe the same distribution.
    """
    k, n_vars = model.k, model.N
    locals_ = local_logdets(model)
    ld_prime_inv, dual = _logdet_dual_precision(model, "tree_bp")
    ld_sigma_direct = logdet_sigma_direct(model, method=direct_method)
    ld_sigma_dual = float(locals_.sum() - ld_prime_inv)

    log_zf = 0.5 * (n_vars * LOG_2PI + ld_sigma_direct)
    log_z = log_zf - sum(0.5 * (2 * k * LOG_2PI + v) for v in locals_)
    log_zprime = (k + n_vars / 2.0) * LOG_2PI - 0.5 * ld_prime_inv

    residual = float(log_zprime - (n_vars * LOG_2PI + log_z))
    ok = abs(residual) <= tol * max(1.0, abs(log_zprime))
    messages = []
    if not ok:
        messages = [
            f"duality residual {residual:.6e} exceeds tolerance {tol:g}",
            f"log det(Σ) via duality = {ld_sigma_dual!r}",
            f"log det(Σ) direct     = {ld_sigma_direct!r}",
            _dual_digest(dual),
        ]
    return DualityCheck(
        ok=ok,
        residual=float(residual),
        tol=tol,
        log_zprime=float(log_zprime),
        log_z=float(log_z),
        logdet_via_duality=ld_sigma_dual,
        logdet_direct=float(ld_sigma_direct),
        messages=messages,
    )


def verify_duality(model, tol=1e-9, direct_method="block_tridiag"):
    """True iff the primal and dual normalization constants agree.

    On failure the discrepancy details are emitted as a warning; both
    candidate values are reported rather than either being trusted.
    """
    check = duality_check(model, tol=tol, direct_method=direct_method)
    if not check.ok:
        warnings.warn("; ".join(check.messages), RuntimeWarning, stacklevel=2)
    return check.ok
