import math

import numpy as np
import pytest

from gaussdual import (
    STRUCTURES,
    GenSpec,
    LadderModel,
    build_dual,
    generate,
    local_logdets,
    logdet_dense,
    logdet_sigma_via_duality,
)
from gaussdual.dual import _dual_blocks
from gaussdual.model import _block_tridiagonal
from helpers import (
    LADDER1_DUAL_DENSE,
    LADDER2_DUAL_DENSE,
    edge_list,
    is_forest_union_find,
    ladder1_model,
    ladder2_model,
)


def dual_is_tree(dual, zero_tol=0.0):
    """True iff the dual precision's graph, past ``zero_tol``, has no cycle."""
    edges = edge_list(dual.dual_precision.to_dense(), zero_tol)
    return is_forest_union_find(dual.n_dual, edges)


class TestBuildDual:
    def test_ladder1_exact(self):
        dual = build_dual(ladder1_model())
        assert dual.n_dual == 4
        assert np.array_equal(dual.dual_precision.to_dense(), LADDER1_DUAL_DENSE)
        assert dual.variable_map.tolist() == [2, 3, 4, 5]
        assert dual.pinned.tolist() == [0, 1, 6, 7]

    def test_ladder2_exact(self):
        dual = build_dual(ladder2_model())
        assert dual.n_dual == 3
        assert np.array_equal(dual.dual_precision.to_dense(), LADDER2_DUAL_DENSE)
        assert dual.pinned.tolist() == [0, 1, 2, 6, 7, 8]

    def test_single_block_pins_everything(self):
        model = LadderModel(1, 1, [np.array([[2.0, 1.0], [1.0, 2.0]])])
        dual = build_dual(model)
        assert dual.n_dual == 0
        assert dual.dual_precision.n == 0
        assert dual.pinned.tolist() == [0, 1]
        assert dual.variable_map.size == 0

    def test_dual_spd_on_random_sweep(self):
        for seed in range(20):
            model = generate(
                GenSpec(
                    k=1 + seed % 4,
                    L=2 + seed % 6,
                    seed=300 + seed,
                    structure="random_tree" if seed % 2 else "star_pattern",
                )
            )
            dense = build_dual(model).dual_precision.to_dense()
            assert np.all(np.linalg.eigvalsh(dense) > 0)

    def test_logdet_invariant_under_sign_flips(self):
        # Negating cross-half couplings is a +/-1 congruence, so the
        # determinant must not change. Rebuild the restriction without
        # any flips, densely, and compare.
        for seed in range(50):
            model = generate(
                GenSpec(
                    k=1 + seed % 5,
                    L=2 + seed % 8,
                    seed=7000 + seed,
                    structure="random_tree" if seed % 2 else "star_pattern",
                )
            )
            k, L, n = model.k, model.L, model.N
            unflipped = np.zeros((n, n))
            for ell in range(L):
                sl = slice(ell * k, (ell + 2) * k)
                unflipped[sl, sl] += model.sigma_blocks[ell]
            interior = unflipped[k : L * k, k : L * k]
            sign, expected = np.linalg.slogdet(interior)
            assert sign == 1.0

            dual = build_dual(model)
            got = logdet_dense(dual.dual_precision).logdet
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("L", [1, 2, 3, 64])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("structure", [*STRUCTURES, "dense"])
def test_dual_blocks_are_the_overlap_add_interior(structure, k, L):
    if structure == "dense":
        a = np.random.default_rng(L).normal(size=(L, 2 * k, 2 * k))
        stack = a @ np.swapaxes(a, 1, 2) + 2 * k * np.eye(2 * k)
    else:
        stack = generate(GenSpec(k=k, L=L, seed=5, structure=structure)).sigma_blocks
    diag_blocks, off_blocks = _dual_blocks(stack, k)
    assert diag_blocks.shape == (L - 1, k, k)
    assert off_blocks.shape == (max(L - 2, 0), k, k)
    assert not off_blocks.flags.owndata
    # Rows 1 … L−1 of the overlap-add, the ones not pinned.
    want_diag, want_off = _block_tridiagonal(stack, k)
    for got, want in [(diag_blocks, want_diag[1:-1]), (off_blocks, want_off[1:-1])]:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestDualIsTree:
    def test_ladder1(self):
        assert dual_is_tree(build_dual(ladder1_model()))

    def test_ladder2(self):
        assert dual_is_tree(build_dual(ladder2_model()))

    def test_dense_block_gives_cycle(self):
        dense = np.ones((6, 6)) * 0.3 + 6.0 * np.eye(6)
        model = LadderModel(3, 2, [dense, dense])
        assert not dual_is_tree(build_dual(model))

    def test_zero_tol_can_prune_cycles(self):
        base = np.eye(6) * 4.0
        for i, j in [(3, 4), (4, 5)]:
            base[i, j] = base[j, i] = 1.0
        second = np.eye(6) * 4.0
        for i, j in [(0, 1), (1, 2)]:
            second[i, j] = second[j, i] = 1.0
        # A tiny extra coupling closes a cycle on the shared variables.
        second[0, 2] = second[2, 0] = 1e-13
        model = LadderModel(3, 2, [base, second])
        dual = build_dual(model)
        assert not dual_is_tree(dual)
        assert dual_is_tree(dual, zero_tol=1e-9)


class TestDegenerateLadder:
    def test_single_block_reduces_to_local_logdet(self):
        model = LadderModel(1, 1, [np.array([[2.0, 1.0], [1.0, 2.0]])])
        assert logdet_sigma_via_duality(model) == pytest.approx(
            math.log(3.0), rel=1e-14
        )
        assert logdet_sigma_via_duality(model) == pytest.approx(
            float(local_logdets(model)[0]), rel=1e-15
        )
