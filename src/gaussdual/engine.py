"""End-to-end solvers for ladder determinants and normalization constants.

Two independent routes to log det(Σ):

* direct: eliminate the global precision J, block-tridiagonal with k×k
  blocks, by banded Cholesky (or densely); log det(Σ) = −log det(J).
* via duality: log det(Σ) = Σ_ℓ log det(Σ_ℓ) − log det(Σ′⁻¹). Σ′⁻¹
  is block-tridiagonal like J, so its band is sliced from the covariance
  stack and eliminated by the same banded Cholesky, whatever its graph.

From `rake._RAKE_MIN_BLOCKS` blocks on, "block_tridiag" first rakes the
leaves of the stack's shared zero pattern (`rake.raked_logdets`): the
block graph's leaves for the local log-dets, the group graph's for
Σ′⁻¹. `linalg._factor` then gets only each block's survivors and the
band only each group's. With too little to rake (more than half
of a graph's vertices survive), or a pivot at or below its floor, the
unraked kernels run on the unraked arrays, so their values and errors
are unchanged.

Both routes hand their k×k blocks to one kernel dispatch, `_eliminate`,
so "dense" eliminates exactly the matrix the band holds. Their
agreement is the substantive correctness check of the whole package,
and `duality_check` states it as a relation between the primal and
dual normalization constants. When both routes run, one pass of
`linalg._factor` over the covariance stack gives the dual route its
local log-determinants and the direct route its inverse blocks, which
overlap-add into J; only Σ′⁻¹ is raked.
"""

import math
from dataclasses import dataclass, field

from .dual import _dual_blocks, build_dual
from .elimination import logdet_block_tridiagonal, logdet_dense
from .model import _block_tridiagonal, _covariance_factor, _sparse_from_blocks
from .rake import raked_logdets

LOG_2PI = math.log(2.0 * math.pi)


@dataclass
class ZReport:
    """Normalization constants of a ladder model, all in natural logs.

    ``log_z = log_zf − Σ log_zl``, where the sum is exact
    (`math.fsum`); ``duality_residual`` restates the scale relation
    between the dual constant Z′ and the primal Z and should vanish to
    round-off.
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


def _check_method(method):
    if method not in ("block_tridiag", "dense"):
        raise ValueError(f"unknown method {method!r}")


def _eliminate(diag_blocks, off_blocks, method):
    """log det of the block-tridiagonal matrix with these k×k blocks.

    "block_tridiag" runs the banded Cholesky on them, "dense" a dense
    Cholesky of the same matrix.
    """
    if method == "dense":
        return logdet_dense(_sparse_from_blocks(diag_blocks, off_blocks)).logdet
    return logdet_block_tridiagonal(diag_blocks, off_blocks).logdet


def _logdet_direct(inverses, k, method):
    """log det(Σ) = −log det(J), J overlap-added from the block ``inverses``."""
    return -_eliminate(*_block_tridiagonal(inverses, k), method)


def _pass(model, dual_method, direct_method=None):
    """Both routes over one `linalg._factor` pass of the covariance stack.

    Returns the length-L local log-dets, log det(Σ′⁻¹), log det(Σ) by
    the duality identity and log det(Σ) by the direct route, None unless
    ``direct_method`` is given. On "block_tridiag", `raked_logdets`
    first rakes the leaves of the stack's shared zero pattern; the local
    log-dets are raked only when no direct route needs the inverses. The
    rake never raises, and the stack is factored before the band, so a
    bad covariance block is named before Σ′⁻¹ is judged.
    """
    _check_method(dual_method)
    if direct_method is not None:
        _check_method(direct_method)
    stack, k = model.sigma_blocks, model.k
    locals_ = ld_prime_inv = ld_direct = None
    if dual_method == "block_tridiag":
        locals_, ld_prime_inv = raked_logdets(stack, k, direct_method is None)
    if locals_ is None:
        locals_, inverses = _covariance_factor(model, invert=direct_method is not None)
        if direct_method is not None:
            ld_direct = _logdet_direct(inverses, k, direct_method)
        del inverses  # freed before the dual's band is built
    if ld_prime_inv is None:
        ld_prime_inv = _eliminate(*_dual_blocks(stack, k), dual_method)
    return locals_, ld_prime_inv, float(locals_.sum() - ld_prime_inv), ld_direct


def _z_report(model, locals_, ld_prime_inv, logdet_sigma):
    """Z bookkeeping: log Z_f from ``logdet_sigma``, log Z′ from the dual."""
    k, n_vars = model.k, model.N
    log_zf = 0.5 * (n_vars * LOG_2PI + logdet_sigma)
    log_zl = (k * LOG_2PI + 0.5 * locals_).tolist()
    log_z = log_zf - math.fsum(log_zl)
    log_zprime = (k + n_vars / 2.0) * LOG_2PI - 0.5 * ld_prime_inv
    residual = log_zprime - (n_vars * LOG_2PI + log_z)
    return ZReport(
        log_zf=log_zf,
        log_zl=log_zl,
        log_z=log_z,
        log_zprime=log_zprime,
        duality_residual=residual,
    )


def logdet_sigma_via_duality(model, method="block_tridiag"):
    """log det(Σ) through the dual: Σ_ℓ logdet(Σ_ℓ) − logdet(Σ′⁻¹).

    Parameters
    ----------
    model : LadderModel
    method : {"block_tridiag", "dense"}
        How to eliminate the dual precision matrix, whose k×k blocks are
        sliced from the covariance stack: banded Cholesky (any sparsity
        graph, forest or not), or dense Cholesky of the same matrix.
    """
    return _pass(model, method)[2]


def logdet_sigma_direct(model, method="block_tridiag"):
    """log det(Σ) from the global precision: −log det(J).

    ``method`` selects the elimination backend: "block_tridiag", banded
    Cholesky of J's k×k blocks, or "dense" Cholesky of the same J.
    """
    _check_method(method)
    inverses = _covariance_factor(model, invert=True)[1]
    return _logdet_direct(inverses, model.k, method)


def z_constants(model):
    """All normalization constants of the model, in natural logs.

    log Z_f needs log det(Σ), which is computed through the dual path;
    log Z′ uses the same dual log-determinant, so the residual reported
    here checks bookkeeping, not cross-path agreement (that is
    `duality_check`'s job).
    """
    return _z_report(model, *_pass(model, "block_tridiag")[:3])


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
    describe the same distribution. Both sides share one pass over the
    covariance stack. ``ok`` is ``|residual| <= tol ·
    max(1, |log Z′|)``; ``tol`` must be a number >= 0.
    """
    if not tol >= 0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    locals_, ld_prime_inv, ld_sigma_dual, ld_sigma_direct = _pass(
        model, "block_tridiag", direct_method
    )
    z = _z_report(model, locals_, ld_prime_inv, ld_sigma_direct)

    residual = z.duality_residual
    ok = abs(residual) <= tol * max(1.0, abs(z.log_zprime))
    messages = []
    if not ok:
        messages = [
            f"duality residual {residual:.6e} exceeds tolerance {tol:g}",
            f"log det(Σ) via duality = {ld_sigma_dual!r}",
            f"log det(Σ) direct     = {ld_sigma_direct!r}",
            _dual_digest(build_dual(model)),
        ]
    return DualityCheck(
        ok=ok,
        residual=residual,
        tol=tol,
        log_zprime=z.log_zprime,
        log_z=z.log_z,
        logdet_via_duality=ld_sigma_dual,
        logdet_direct=ld_sigma_direct,
        messages=messages,
    )

