import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussdual import (
    GenSpec,
    InfeasibleStructure,
    build_dual,
    generate,
    validate,
)
from helpers import edge_list, is_forest_union_find


def test_deterministic_per_seed():
    a = generate(GenSpec(k=3, L=6, seed=99, structure="random_tree"))
    b = generate(GenSpec(k=3, L=6, seed=99, structure="random_tree"))
    assert np.array_equal(a.sigma_blocks, b.sigma_blocks)


def test_seeds_differ():
    a = generate(GenSpec(k=3, L=6, seed=1))
    b = generate(GenSpec(k=3, L=6, seed=2))
    assert not np.array_equal(a.sigma_blocks, b.sigma_blocks)


def test_star_pattern_zero_structure():
    model = generate(GenSpec(k=2, L=3, seed=7, structure="star_pattern"))
    expected_pairs = {(0, 1), (0, 2), (2, 3)}
    for b in model.sigma_blocks:
        assert {(i, j) for i, j, _ in edge_list(b)} == expected_pairs


def test_diagonal_structure():
    model = generate(GenSpec(k=2, L=4, seed=5, structure="diagonal"))
    report = validate(model)
    assert report.assumption1_ok
    assert not report.assumption2_cycles_present
    assert report.assumption3_union_acyclic


def test_weight_magnitudes_within_range():
    spec = GenSpec(k=4, L=5, seed=11, weight_range=(0.4, 0.7))
    model = generate(spec)
    for b in model.sigma_blocks:
        off = b[~np.eye(8, dtype=bool)]
        mags = np.abs(off[off != 0.0])
        assert mags.size
        assert np.all((mags >= 0.4) & (mags <= 0.7))


@pytest.mark.parametrize("structure", ["star_pattern", "random_tree"])
def test_duals_are_trees(structure):
    for seed in range(15):
        model = generate(
            GenSpec(k=1 + seed % 5, L=2 + seed % 7, seed=seed, structure=structure)
        )
        dual = build_dual(model)
        assert is_forest_union_find(
            dual.n_dual, edge_list(dual.dual_precision.to_dense())
        )


def test_thousand_model_sweep_validates():
    structures = ("star_pattern", "random_tree", "diagonal")
    for seed in range(1000):
        spec = GenSpec(
            k=1 + seed % 5,
            L=1 + seed % 10,
            seed=seed,
            structure=structures[seed % 3],
        )
        report = validate(generate(spec))
        assert report.assumption1_ok, spec
        assert report.assumption3_blocks_acyclic, spec
        assert report.assumption3_union_acyclic, spec


@given(
    k=st.integers(min_value=1, max_value=6),
    L=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**63 - 1),
    structure=st.sampled_from(["star_pattern", "random_tree", "diagonal"]),
)
@settings(max_examples=60, deadline=None)
def test_generated_models_always_validate(k, L, seed, structure):
    model = generate(GenSpec(k=k, L=L, seed=seed, structure=structure))
    report = validate(model)
    assert report.assumption1_ok
    assert report.assumption3_blocks_acyclic
    assert report.assumption3_union_acyclic


@pytest.mark.parametrize(
    "spec",
    [
        GenSpec(k=0, L=3, seed=0),
        GenSpec(k=2, L=0, seed=0),
        GenSpec(k=2, L=3, seed=0, structure="ring"),
        GenSpec(k=2, L=3, seed=0, weight_range=(0.0, 1.0)),
        GenSpec(k=2, L=3, seed=0, weight_range=(-0.5, 1.0)),
        GenSpec(k=2, L=3, seed=0, weight_range=(2.0, 1.0)),
    ],
)
def test_infeasible_specs(spec):
    with pytest.raises(InfeasibleStructure):
        generate(spec)
