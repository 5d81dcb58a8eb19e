import math

import numpy as np
import pytest

from scipy.linalg import lapack

from gaussdual import (
    DimensionMismatch,
    GenSpec,
    NotPositiveDefinite,
    SparseSymMatrix,
    generate,
    logdet_block_tridiagonal,
    logdet_dense,
    logdet_sigma_direct,
    logdet_sigma_via_duality,
)
from gaussdual.elimination import (
    _banded_logdet,
    block_partition,
    logdet_tree_bp,
    tree_elimination_order,
)
from gaussdual.errors import NotAForest
from gaussdual.linalg import _first_bad_pivot, pivot_floor
from gaussdual.model import _lower_band, assemble_global_precision
from helpers import (
    det_cofactor,
    edge_list,
    ladder1_model,
    random_forest_spd,
    random_spd_dense,
)


def graph_of(n, pairs):
    rows = [i for i, _ in pairs]
    cols = [j for _, j in pairs]
    return SparseSymMatrix(n, np.ones(n), rows, cols, np.ones(len(pairs)))


class TestEliminationOrder:
    def test_path_peels_ends_first(self):
        order = tree_elimination_order(graph_of(3, [(0, 1), (1, 2)]))
        assert order.order.tolist() == [0, 2, 1]
        assert order.parent.tolist() == [1, -1, 1]

    def test_edgeless(self):
        order = tree_elimination_order(graph_of(3, []))
        assert order.order.tolist() == [0, 1, 2]
        assert order.parent.tolist() == [-1, -1, -1]

    def test_two_vertex_path(self):
        order = tree_elimination_order(graph_of(2, [(0, 1)]))
        assert order.order.tolist() == [0, 1]
        assert order.parent.tolist() == [1, -1]

    def test_star_center_last(self):
        order = tree_elimination_order(graph_of(4, [(0, 3), (1, 3), (2, 3)]))
        assert order.order.tolist() == [0, 1, 2, 3]
        assert order.parent.tolist() == [3, 3, 3, -1]

    def test_triangle_raises(self):
        with pytest.raises(NotAForest):
            tree_elimination_order(graph_of(3, [(0, 1), (1, 2), (0, 2)]))

    def test_cycle_with_tail_raises(self):
        with pytest.raises(NotAForest):
            tree_elimination_order(
                graph_of(5, [(0, 1), (1, 2), (2, 3), (1, 3), (3, 4)])
            )

    def test_each_vertex_once_on_random_forests(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(1, 60))
            g = random_forest_spd(n, rng)
            order = tree_elimination_order(g)
            assert sorted(order.order.tolist()) == list(range(n))

    def test_deep_path_round_count(self):
        n = 101
        order = tree_elimination_order(graph_of(n, [(i, i + 1) for i in range(n - 1)]))
        # Both ends peel per round, so a path of n vertices needs
        # about n/2 rounds.
        assert order.rounds == 51


class TestLogdetTreeBp:
    def test_ladder1_dual(self):
        from gaussdual import build_dual

        dual = build_dual(ladder1_model())
        report = logdet_tree_bp(dual.dual_precision)
        assert report.method == "tree_bp"
        assert report.logdet == pytest.approx(math.log(128.0), rel=1e-13)

    def test_diagonal(self):
        g = SparseSymMatrix(4, np.full(4, 2.0))
        assert logdet_tree_bp(g).logdet == pytest.approx(math.log(16.0), rel=1e-14)

    def test_known_3x3(self):
        g = SparseSymMatrix(3, [7.0, 5.0, 4.0], [0], [1], [2.0])
        assert logdet_tree_bp(g).logdet == pytest.approx(math.log(124.0), rel=1e-14)

    def test_empty(self):
        assert logdet_tree_bp(SparseSymMatrix(0, [])).logdet == 0.0

    def test_matches_dense_on_random_forests(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            n = int(rng.integers(1, 120))
            g = random_forest_spd(n, rng)
            expected = logdet_dense(g).logdet
            got = logdet_tree_bp(g).logdet
            assert got == pytest.approx(expected, rel=1e-10, abs=1e-10)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        g = random_forest_spd(40, rng)
        base = logdet_tree_bp(g).logdet
        for _ in range(5):
            perm = rng.permutation(40)
            dense = g.to_dense()[np.ix_(perm, perm)]
            rows, cols, vals = zip(*edge_list(dense))
            relabeled = SparseSymMatrix(40, np.diagonal(dense), rows, cols, vals)
            assert logdet_tree_bp(relabeled).logdet == pytest.approx(
                base, rel=1e-10, abs=1e-10
            )

    def test_cycle_raises(self):
        g = graph_of(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(NotAForest):
            logdet_tree_bp(g)

    def test_indefinite_names_vertex(self):
        # Edge weight overwhelms the diagonal: pivot at the parent goes
        # negative once the leaf's message arrives.
        g = SparseSymMatrix(2, [1.0, 1.0], [0], [1], [5.0])
        with pytest.raises(NotPositiveDefinite) as exc:
            logdet_tree_bp(g)
        assert exc.value.pivot_index == 1

    def test_stats_present(self):
        g = random_forest_spd(30, np.random.default_rng(3))
        report = logdet_tree_bp(g)
        assert report.n == 30


class TestBlockPartition:
    def test_round_trip(self):
        j = assemble_global_precision(ladder1_model())
        diag_blocks, off_blocks = block_partition(j, 2)
        rebuilt = np.zeros((8, 8))
        for b in range(4):
            rebuilt[2 * b : 2 * b + 2, 2 * b : 2 * b + 2] = diag_blocks[b]
        for b in range(3):
            rebuilt[2 * b : 2 * b + 2, 2 * b + 2 : 2 * b + 4] = off_blocks[b]
            rebuilt[2 * b + 2 : 2 * b + 4, 2 * b : 2 * b + 2] = off_blocks[b].T
        assert np.allclose(rebuilt, j.to_dense(), atol=0)

    def test_rejects_out_of_band(self):
        g = SparseSymMatrix(4, np.ones(4), [0], [3], [1.0])
        with pytest.raises(DimensionMismatch, match="band"):
            block_partition(g, 1)

    def test_rejects_indivisible(self):
        g = SparseSymMatrix(5, np.ones(5))
        with pytest.raises(DimensionMismatch):
            block_partition(g, 2)


class TestLogdetBlockTridiagonal:
    def test_single_block(self):
        report = logdet_block_tridiagonal([np.array([[2.0, 1.0], [1.0, 2.0]])], [])
        assert report.logdet == pytest.approx(math.log(3.0), rel=1e-14)
        assert report.method == "block_tridiag"

    def test_ladder1_global(self):
        j = assemble_global_precision(ladder1_model())
        diag_blocks, off_blocks = block_partition(j, 2)
        report = logdet_block_tridiagonal(list(diag_blocks), list(off_blocks))
        assert report.logdet == pytest.approx(
            -math.log(125.0 / 128.0), rel=1e-12
        )

    def test_identity_blocks(self):
        report = logdet_block_tridiagonal(
            [np.eye(3)] * 4, [np.zeros((3, 3))] * 3
        )
        assert report.logdet == 0.0

    def test_matches_dense_on_random_band(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            k = int(rng.integers(1, 5))
            nb = int(rng.integers(1, 12))
            n = k * nb
            band = np.zeros((n, n))
            for b in range(nb - 1):
                c = rng.uniform(-1.0, 1.0, size=(k, k))
                band[b * k : (b + 1) * k, (b + 1) * k : (b + 2) * k] = c
            band = band + band.T
            band[np.diag_indices(n)] = np.abs(band).sum(axis=1) + rng.uniform(
                0.5, 1.5, size=n
            )
            diag_blocks = [
                band[b * k : (b + 1) * k, b * k : (b + 1) * k] for b in range(nb)
            ]
            off_blocks = [
                band[b * k : (b + 1) * k, (b + 1) * k : (b + 2) * k]
                for b in range(nb - 1)
            ]
            expected = logdet_dense(band).logdet
            got = logdet_block_tridiagonal(diag_blocks, off_blocks).logdet
            assert got == pytest.approx(expected, rel=1e-9, abs=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            logdet_block_tridiagonal([np.eye(2)] * 3, [np.zeros((2, 2))])

    def test_not_spd(self):
        with pytest.raises(NotPositiveDefinite, match="Schur complement"):
            logdet_block_tridiagonal(
                [np.eye(2), -np.eye(2)], [np.zeros((2, 2))]
            )

    def test_empty(self):
        assert logdet_block_tridiagonal([], []).logdet == 0.0


def banded_reference(diag, off):
    """`_banded_logdet` of a tridiagonal matrix by the band kernel, dpbtrf:
    its log-det, or the message and index of its first bad pivot."""
    band = _lower_band(diag[:, None, None], off[:, None, None])
    floor = pivot_floor(band[0])
    factor, info = lapack.dpbtrf(band, lower=1)
    i = _first_bad_pivot(factor[0], floor, info)
    if i is not None:
        return f"Schur complement {i} is not positive definite (pivot {i})", i
    return 2.0 * float(np.sum(np.log(factor[0])))


def tridiagonal_logdet(diag, off):
    try:
        return _banded_logdet(diag[:, None, None], off[:, None, None])
    except NotPositiveDefinite as exc:
        return str(exc), exc.pivot_index


def random_tridiagonal(n, rng):
    """Diagonal and off-diagonal of a diagonally dominant tridiagonal matrix."""
    off = rng.uniform(-1.0, 1.0, n - 1) * 10.0 ** rng.uniform(-3, 3, n - 1)
    diag = np.abs(np.r_[off, 0.0]) + np.abs(np.r_[0.0, off])
    return diag * rng.uniform(1.0, 2.0, n) + 10.0 ** rng.uniform(-3, 3, n), off


class TestTridiagonalKernel:
    """k = 1 bands go to dpttrf; dpbtrf is their reference."""

    @pytest.mark.parametrize("n", [2, 3, 10, 1000])
    def test_matches_band_kernel(self, n):
        rng = np.random.default_rng(n)
        for _ in range(10):
            diag, off = random_tridiagonal(n, rng)
            expected = banded_reference(diag, off)
            assert tridiagonal_logdet(diag, off) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("bad", [0, 1, 17, 99])
    @pytest.mark.parametrize("pivot", [-1.0, 0.0, 1e-20])
    def test_bad_pivot_at_chosen_index(self, bad, pivot):
        diag, off = random_tridiagonal(100, np.random.default_rng(bad))
        # Its pivot is exactly `pivot`: no coupling to the vertex before.
        diag[bad] = pivot
        if bad:
            off[bad - 1] = 0.0
        expected = banded_reference(diag, off)
        assert expected[1] == bad
        assert tridiagonal_logdet(diag, off) == expected

    @pytest.mark.parametrize("diag", [[1e10, 1.0, 1e-3], [1e13, 5.0, 1.0]])
    def test_floor_of_the_whole_diagonal(self, diag):
        # The last two pivots are fine on their own; under the largest
        # diagonal entry's floor (1e-2, 10) the first of them at or below
        # it is bad.
        diag = np.array(diag)
        expected = banded_reference(diag, np.zeros(2))
        assert tridiagonal_logdet(diag, np.zeros(2)) == expected

    @pytest.mark.parametrize("structure", ["star_pattern", "random_tree"])
    def test_k1_ladder_through_both_routes(self, structure):
        model = generate(GenSpec(k=1, L=300, seed=4, structure=structure))
        expected = logdet_sigma_direct(model, "dense")
        assert logdet_sigma_via_duality(model) == pytest.approx(expected, rel=1e-12)
        assert logdet_sigma_direct(model) == pytest.approx(expected, rel=1e-12)


class TestLogdetDense:
    def test_empty(self):
        assert logdet_dense(SparseSymMatrix(0, [])).logdet == 0.0

    def test_matches_cofactor_oracle(self):
        rng = np.random.default_rng(21)
        m = random_spd_dense(6, rng)
        expected = math.log(det_cofactor(m))
        assert logdet_dense(m).logdet == pytest.approx(expected, rel=1e-10)

    def test_accepts_sparse_and_dense(self):
        g = random_forest_spd(12, np.random.default_rng(2))
        assert logdet_dense(g).logdet == pytest.approx(
            logdet_dense(g.to_dense()).logdet, rel=1e-14
        )

    def test_not_spd(self):
        message = r"^matrix is not positive definite \(pivot 1\)$"
        with pytest.raises(NotPositiveDefinite, match=message) as exc:
            logdet_dense(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert exc.value.pivot_index == 1

    def test_leaves_input_unchanged(self):
        m = random_spd_dense(5, np.random.default_rng(3))
        for a in (m, np.asfortranarray(m)):
            before = a.copy()
            logdet_dense(a)
            assert np.array_equal(a, before)
