import math

import numpy as np
import pytest

from gaussdual import (
    DimensionMismatch,
    GenSpec,
    LadderModel,
    NotPositiveDefinite,
    SparseSymMatrix,
    generate,
    local_logdets,
    spd_inverse,
    validate,
)
from gaussdual.model import _block_forests, assemble_global_precision
from helpers import (
    LADDER1_BLOCK,
    LADDER2_S1,
    edge_list,
    is_forest_union_find,
    ladder1_model,
    ladder2_model,
    validate_reference,
)


def masked_dense_model(k, L, rng):
    """Diagonally dominant blocks with a random symmetric zero pattern,
    dense enough that most block graphs have cycles."""
    m = 2 * k
    blocks = rng.uniform(-1.0, 1.0, size=(L, m, m))
    blocks *= rng.random((L, m, m)) < 0.5
    blocks = np.triu(blocks, 1)
    blocks += np.swapaxes(blocks, 1, 2)
    idx = np.arange(m)
    blocks[:, idx, idx] = np.abs(blocks).sum(axis=2) + 0.5
    return LadderModel(k, L, blocks)


def union_cycle_model():
    """Each block alone is a path, but block 1 joins the shared pair
    through variable 0 and block 2 joins it through variable 4, closing
    a 4-cycle in the union graph."""
    b1 = np.eye(4) * 3.0
    b1[0, 2] = b1[2, 0] = 1.0
    b1[0, 3] = b1[3, 0] = 1.0
    b2 = np.eye(4) * 3.0
    b2[0, 2] = b2[2, 0] = 1.0
    b2[1, 2] = b2[2, 1] = 1.0
    return LadderModel(2, 2, [b1, b2])


class TestLadderModel:
    def test_dimensions(self):
        m = ladder1_model()
        assert (m.k, m.L, m.N) == (2, 3, 8)

    def test_wrong_block_count(self):
        with pytest.raises(DimensionMismatch):
            LadderModel(2, 3, [LADDER1_BLOCK] * 2)

    def test_wrong_block_shape(self):
        with pytest.raises(DimensionMismatch):
            LadderModel(3, 1, [LADDER1_BLOCK])

    @pytest.mark.parametrize("k,L", [(0, 1), (1, 0), (-2, 3)])
    def test_bad_counts(self, k, L):
        with pytest.raises(DimensionMismatch):
            LadderModel(k, L, np.zeros((max(L, 1), 2 * max(k, 1), 2 * max(k, 1))))

    def test_asymmetric_block_rejected(self):
        b = LADDER1_BLOCK.copy()
        b[0, 1] = 9.0
        with pytest.raises(ValueError, match="not symmetric"):
            LadderModel(2, 1, [b])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_rejected(self, value):
        blocks = np.array(generate(GenSpec(k=2, L=3, seed=1)).sigma_blocks)
        blocks[1, 0, 0] = value
        with pytest.raises(ValueError, match="covariance block 1 contains non-finite"):
            LadderModel(2, 3, blocks)

    def test_huge_finite_entries_stored(self):
        # Symmetrizing halves before it adds, so 1.5e308 does not overflow.
        blocks = np.diag([1.5e308, 1.0, 1.5e308, 2.0])[None]
        m = LadderModel(2, 1, blocks)
        assert np.array_equal(m.sigma_blocks, blocks)

    def test_blocks_read_only(self):
        m = ladder1_model()
        with pytest.raises(ValueError):
            m.sigma_blocks[0, 0, 0] = 5.0


class TestSparseSymMatrix:
    def test_round_trip(self):
        rows, cols, vals = zip(*edge_list(LADDER1_BLOCK))
        m = SparseSymMatrix(4, np.diagonal(LADDER1_BLOCK), rows, cols, vals)
        assert np.array_equal(m.to_dense(), LADDER1_BLOCK)
        assert m.nnz == 3

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            SparseSymMatrix(3, np.ones(3), [0, 0], [1, 1], [1.0, 2.0])

    def test_rejects_lower_triangle(self):
        with pytest.raises(ValueError, match="row < col"):
            SparseSymMatrix(3, np.ones(3), [1], [0], [1.0])

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="row < col"):
            SparseSymMatrix(3, np.ones(3), [1], [1], [1.0])

    def test_rejects_explicit_zero(self):
        with pytest.raises(ValueError, match="zero"):
            SparseSymMatrix(3, np.ones(3), [0], [1], [0.0])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            SparseSymMatrix(3, np.ones(3), [0], [5], [1.0])

    def test_diag_shape_checked(self):
        with pytest.raises(DimensionMismatch):
            SparseSymMatrix(3, np.ones(2))


def block_edges(m, zero_tol=0.0):
    """Edge pairs of one matrix's sparsity graph, as `validate` lists them:
    all of them if there are fewer than the matrix has rows, else none."""
    _, (_, i, j) = _block_forests(np.asarray(m)[None], zero_tol)
    return list(zip(i.tolist(), j.tolist()))


def block_is_forest(m):
    return bool(_block_forests(np.asarray(m)[None], 0.0)[0][0])


class TestSparsityGraph:
    def test_ladder1_block_edges(self):
        assert block_edges(LADDER1_BLOCK) == [(0, 1), (0, 2), (2, 3)]

    def test_identity_has_no_edges(self):
        assert block_edges(np.eye(4)) == []

    def test_dense_precision_is_complete(self):
        precision = spd_inverse(LADDER1_BLOCK)
        assert not block_is_forest(precision)
        assert len(edge_list(precision)) == 6

    def test_zero_tol_filters(self):
        m = np.array([[1.0, 1e-12], [1e-12, 1.0]])
        assert len(block_edges(m, 0.0)) == 1
        assert block_edges(m, 1e-9) == []


class TestIsForest:
    def test_path_star(self):
        g = SparseSymMatrix(4, np.ones(4), [0, 0, 2], [1, 2, 3], [1.0, 1.0, 1.0])
        assert block_is_forest(g.to_dense())

    def test_complete_graph(self):
        assert not block_is_forest(np.ones((4, 4)) + 4 * np.eye(4))

    def test_union_graph_of_ladder1(self):
        model = ladder1_model()
        k, n = model.k, model.N
        union = np.eye(n)
        for ell, b in enumerate(model.sigma_blocks):
            for i, j in block_edges(b):
                p, q = i + ell * k, j + ell * k
                union[p, q] = union[q, p] = 1.0
        assert block_is_forest(union)

    def test_empty_graph(self):
        assert block_is_forest(np.eye(5))


class TestBlockForests:
    def test_mixed_forest_and_dense_blocks(self):
        # Blocks 0 and 3 are complete graphs (6 edges on 4 vertices);
        # block 1 is a path, block 2 a triangle plus an isolated vertex
        # (3 edges, but a cycle), block 4 two edges of a star.
        stack = np.tile(np.eye(4) * 5.0, (5, 1, 1))
        stack[[0, 3]] += np.ones((4, 4)) - np.eye(4)
        sparse = {
            1: [(0, 1), (1, 2), (2, 3)],
            2: [(0, 1), (1, 2), (0, 2)],
            4: [(0, 1), (0, 3)],
        }
        for b, edges in sparse.items():
            for i, j in edges:
                stack[b, i, j] = stack[b, j, i] = 1.0
        forest, (ell, i, j) = _block_forests(stack, 0.0)
        assert forest.tolist() == [False, True, False, False, True]
        # The dense blocks 0 and 3 have 4 or more edges: none is listed.
        assert ell.tolist() == [1] * 3 + [2] * 3 + [4] * 2
        edges = list(zip(ell.tolist(), i.tolist(), j.tolist()))
        for b, expected in sparse.items():
            own = [(p, q) for e, p, q in edges if e == b]
            assert own == [(p, q) for p, q, _ in edge_list(stack[b])]
            assert sorted(own) == sorted(expected)
            assert forest[b] == is_forest_union_find(4, own)

    @pytest.mark.parametrize("zero_tol", [0.0, 0.05, 0.3])
    def test_symmetric_stack_flags_match(self, zero_tol):
        # Flags and listed edges, block by block, against edge_list and
        # union-find. Precision stacks of forest covariances: mostly
        # complete graphs, but a raised zero_tol leaves forests and cycles
        # among them. The masked stack adds blocks with fewer than m edges
        # and a cycle.
        stacks = [
            spd_inverse(generate(GenSpec(k=3, L=30, seed=5, structure=s)).sigma_blocks)
            for s in ("star_pattern", "random_tree", "diagonal")
        ]
        stacks.append(masked_dense_model(3, 40, np.random.default_rng(7)).sigma_blocks)
        for stack in stacks:
            assert np.array_equal(stack, np.swapaxes(stack, 1, 2))
            forest, (ell, i, j) = _block_forests(stack, zero_tol)
            assert np.all(np.diff(ell) >= 0)
            m = stack.shape[1]
            for b, block in enumerate(stack):
                edges = [(p, q) for p, q, _ in edge_list(block, zero_tol)]
                assert forest[b] == is_forest_union_find(m, edges)
                listed = list(zip(i[ell == b].tolist(), j[ell == b].tolist()))
                assert listed == (edges if len(edges) < m else [])


class TestValidate:
    def test_ladder1_all_flags(self):
        report = validate(ladder1_model())
        assert report.assumption1_ok
        assert report.assumption2_cycles_present
        assert report.assumption3_blocks_acyclic
        assert report.assumption3_union_acyclic
        assert report.ok

    def test_identity_blocks(self):
        model = LadderModel(2, 3, [np.eye(4)] * 3)
        report = validate(model)
        assert report.assumption1_ok
        assert not report.assumption2_cycles_present
        assert report.assumption3_blocks_acyclic
        assert report.assumption3_union_acyclic

    def test_non_spd_block_flagged(self):
        bad = np.eye(4)
        bad[0, 1] = bad[1, 0] = 2.0  # [[1,2],[2,1]] corner, indefinite
        model = LadderModel(2, 2, [LADDER1_BLOCK, bad])
        report = validate(model)
        assert not report.assumption1_ok
        assert not report.ok
        assert report.messages

    def test_cyclic_block_flagged(self):
        dense = np.ones((4, 4)) + 4.0 * np.eye(4)
        model = LadderModel(2, 1, [dense])
        report = validate(model)
        assert report.assumption1_ok
        assert not report.assumption3_blocks_acyclic
        assert not report.ok

    def test_union_cycle_without_block_cycles(self):
        report = validate(union_cycle_model())
        assert report.assumption3_blocks_acyclic
        assert not report.assumption3_union_acyclic

    def test_shared_edge_does_not_count_twice(self):
        # Both blocks place an edge inside the overlap; structurally it
        # is one edge, so the union stays a forest.
        b1 = np.eye(4) * 3.0
        b1[2, 3] = b1[3, 2] = 1.0
        b2 = np.eye(4) * 3.0
        b2[0, 1] = b2[1, 0] = 1.0
        model = LadderModel(2, 2, [b1, b2])
        report = validate(model)
        assert report.assumption3_blocks_acyclic
        assert report.assumption3_union_acyclic

    def test_matches_union_find_reference(self):
        rng = np.random.default_rng(11)
        indefinite = np.eye(4)
        indefinite[0, 1] = indefinite[1, 0] = 2.0
        models = [
            generate(
                GenSpec(k=1 + seed % 6, L=1 + seed % 8, seed=seed, structure=s)
            )
            for s in ("star_pattern", "random_tree", "diagonal")
            for seed in range(30)
        ]
        models += [masked_dense_model(1 + t % 4, 1 + t % 5, rng) for t in range(30)]
        models += [
            union_cycle_model(),
            LadderModel(2, 3, [LADDER1_BLOCK, indefinite, 4 * np.eye(4) + 1]),
            LadderModel(2, 1, [LADDER1_BLOCK]),
        ]
        for model in models:
            for zero_tol in (0.0, 0.3):
                got = validate(model, zero_tol)
                want = validate_reference(model, zero_tol)
                assert got == want, (model, zero_tol)

    def test_negative_zero_tol_rejected(self):
        with pytest.raises(ValueError, match="zero_tol"):
            validate(ladder1_model(), zero_tol=-1.0)

    def test_nan_zero_tol_rejected(self):
        # NaN compares false with every entry, so it would drop all edges.
        with pytest.raises(ValueError, match="zero_tol"):
            validate(ladder1_model(), zero_tol=math.nan)


class TestAssembleGlobalPrecision:
    def test_single_block_is_inverse(self):
        model = LadderModel(1, 1, [np.array([[2.0, 1.0], [1.0, 2.0]])])
        j = assemble_global_precision(model)
        expected = np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0
        assert np.allclose(j.to_dense(), expected, atol=1e-14)

    def test_identity_overlap_counting(self):
        model = LadderModel(2, 3, [np.eye(4)] * 3)
        j = assemble_global_precision(model)
        assert j.nnz == 0
        assert np.array_equal(j.diag, [1, 1, 2, 2, 2, 2, 1, 1])

    def test_ladder1_logdet(self):
        j = assemble_global_precision(ladder1_model())
        sign, logdet = np.linalg.slogdet(j.to_dense())
        assert sign == 1.0
        assert logdet == pytest.approx(-math.log(125.0 / 128.0), rel=1e-12)

    def test_block_tridiagonal_sparsity(self):
        model = generate(GenSpec(k=3, L=8, seed=5, structure="random_tree"))
        j = assemble_global_precision(model)
        blocks_apart = np.abs(j.rows // model.k - j.cols // model.k)
        assert blocks_apart.max() <= 1

    def test_spd_on_random_sweep(self):
        for seed in range(100):
            spec = GenSpec(
                k=1 + seed % 4,
                L=1 + seed % 7,
                seed=seed,
                structure=("star_pattern", "random_tree", "diagonal")[seed % 3],
            )
            j = assemble_global_precision(generate(spec))
            assert np.all(np.linalg.eigvalsh(j.to_dense()) > 0)

    def test_propagates_not_positive_definite(self):
        bad = np.eye(4)
        bad[0, 1] = bad[1, 0] = 2.0
        model = LadderModel(2, 1, [bad])
        with pytest.raises(NotPositiveDefinite):
            assemble_global_precision(model)


class TestLocalLogdets:
    def test_ladder1(self):
        assert np.allclose(local_logdets(ladder1_model()), math.log(5.0))

    def test_ladder2(self):
        out = local_logdets(ladder2_model())
        assert out[0] == pytest.approx(math.log(44.0), rel=1e-12)
        assert out[1] == pytest.approx(math.log(33.0), rel=1e-12)

    def test_identity(self):
        model = LadderModel(2, 4, [np.eye(4)] * 4)
        assert np.array_equal(local_logdets(model), np.zeros(4))

    def test_failure_names_block(self):
        bad = np.eye(6)
        bad[4, 5] = bad[5, 4] = 3.0
        model = LadderModel(3, 2, [LADDER2_S1, bad])
        with pytest.raises(NotPositiveDefinite, match="block 1"):
            local_logdets(model)
