"""The engine routes against kernels they do not run.

Both engine routes eliminate a band by the same banded Cholesky, so
they are checked here against the forest elimination of the built
sparse dual (Parter's leaves-first order), which inverts no block, and
the dual route also against the dense oracle.
"""

import math

import pytest

from gaussdual import (
    STRUCTURES,
    GenSpec,
    LadderModel,
    build_dual,
    generate,
    local_logdets,
    logdet_sigma_direct,
    logdet_sigma_via_duality,
)
from gaussdual.elimination import logdet_tree_bp


def _forest_route(model):
    """Σ_ℓ log det(Σ_ℓ) − log det(Σ′⁻¹), Σ′⁻¹ eliminated as a forest."""
    dual = build_dual(model).dual_precision
    return float(local_logdets(model).sum() - logdet_tree_bp(dual).logdet)


@pytest.mark.parametrize("L", [1, 2, 3, 17])
@pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 17])
@pytest.mark.parametrize("structure", STRUCTURES)
def test_matches_forest_kernel_and_dense_oracle(structure, k, L):
    # L = 1 leaves no interior variables: log det(Σ′⁻¹) = 0.
    model = generate(GenSpec(k=k, L=L, seed=100 * k + L, structure=structure))
    forest = _forest_route(model)
    got = logdet_sigma_via_duality(model)
    assert got == pytest.approx(forest, rel=1e-12)
    assert got == pytest.approx(logdet_sigma_direct(model, "dense"), rel=1e-12)
    # The direct route inverts the stack; the forest route never does.
    assert logdet_sigma_direct(model) == pytest.approx(forest, rel=1e-12)


@pytest.mark.parametrize("c", [1e100, 1e200, 1e300, 1e-13, 1e-100, 1e-200, 1e-300])
def test_large_scale_shifts_by_n_log_c(c):
    # |w| ≳ 1e154 once overflowed w·w in the forest kernel's Schur update.
    # c ≤ 1e-13 takes the blocks' pivots, and c ≥ 1e100 those of J, under
    # any floor with an absolute part.
    model = generate(GenSpec(k=3, L=6, seed=1, structure="random_tree"))
    scaled = LadderModel(model.k, model.L, c * model.sigma_blocks)
    expected = logdet_sigma_direct(model, "dense") + model.N * math.log(c)
    assert logdet_sigma_via_duality(scaled) == pytest.approx(expected, rel=1e-12)
    assert _forest_route(scaled) == pytest.approx(expected, rel=1e-12)
    for method in ("block_tridiag", "dense"):
        got = logdet_sigma_direct(scaled, method)
        assert got == pytest.approx(expected, rel=1e-12)
