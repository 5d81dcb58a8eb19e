"""The dual route's leaf rake against the unraked kernels.

`raked_logdets` eliminates the leaves of the stack's shared zero pattern
before the batched and the banded Cholesky see the rest. The `rake_all`
fixture lowers the size rule to one block, so small ladders are raked
too, and every raked value is checked against `local_logdets` and the
banded Cholesky of the whole Σ′⁻¹, which never rake.
"""

import numpy as np
import pytest

from gaussdual import (
    STRUCTURES,
    GenSpec,
    LadderModel,
    NotPositiveDefinite,
    duality_check,
    generate,
    local_logdets,
    logdet_block_tridiagonal,
    logdet_sigma_via_duality,
    z_constants,
)
from gaussdual import rake
from gaussdual.model import _block_tridiagonal


@pytest.fixture
def rake_all(monkeypatch):
    monkeypatch.setattr(rake, "_RAKE_MIN_BLOCKS", 1)


def _dense_blocks(k, L, seed):
    a = np.random.default_rng(seed).normal(size=(L, 2 * k, 2 * k))
    return a @ np.swapaxes(a, 1, 2) + 2 * k * np.eye(2 * k)


def _model(structure, k, L, seed=7):
    if structure == "dense":
        return LadderModel(k, L, _dense_blocks(k, L, seed))
    return generate(GenSpec(k=k, L=L, seed=seed, structure=structure))


def _band_logdet(model):
    """log det(Σ′⁻¹) by the banded Cholesky of all of it."""
    d, o = _block_tridiagonal(model.sigma_blocks, model.k)
    return logdet_block_tridiagonal(d[1:-1], o[1:-1]).logdet


def _unraked(model):
    """log det(Σ) as the route computed it before the rake, couplings negated."""
    d, o = _block_tridiagonal(model.sigma_blocks, model.k)
    ld = logdet_block_tridiagonal(d[1:-1], -o[1:-1]).logdet
    return float(local_logdets(model).sum() - ld)


def _periodic(k, L, within, cross, seed=3):
    """Blocks with these within-group edges and cross edges (a, b), a of
    group j to b of group j + 1; SPD by diagonal dominance."""
    rng = np.random.default_rng(seed)
    blocks = np.zeros((L, 2 * k, 2 * k))
    pairs = [(a, b) for a, b in within] + [(k + a, k + b) for a, b in within]
    pairs += [(a, k + b) for a, b in cross]
    for i, j in pairs:
        w = rng.uniform(0.2, 1.0, size=L) * rng.choice([-1.0, 1.0], size=L)
        blocks[:, i, j] = blocks[:, j, i] = w
    d = np.arange(2 * k)
    blocks[:, d, d] = np.abs(blocks).sum(axis=2) + rng.uniform(0.5, 1.5, (L, 2 * k))
    return blocks


def _late_edge(k=8, L=64, ell=50):
    """star_pattern, but block ``ell`` also joins vertices 1 and 3, which
    closes a cycle in both graphs and leaves survivors in each."""
    blocks = generate(GenSpec(k=k, L=L, seed=11)).sigma_blocks.copy()
    blocks[ell, 1, 3] = blocks[ell, 3, 1] = 0.1
    blocks[ell, [1, 3], [1, 3]] += 0.1
    return LadderModel(k, L, blocks)


def _assert_matches_unraked(model):
    locals_, ld = rake.raked_logdets(model.sigma_blocks, model.k)
    if locals_ is not None:
        np.testing.assert_allclose(
            locals_, local_logdets(model), rtol=1e-12, atol=1e-13
        )
    if ld is not None:
        assert ld == pytest.approx(_band_logdet(model), rel=1e-12)
    expected = _unraked(model)
    assert logdet_sigma_via_duality(model) == pytest.approx(expected, rel=1e-12)
    check = duality_check(model)
    assert check.ok
    assert check.logdet_via_duality == pytest.approx(expected, rel=1e-12)
    z = z_constants(model)
    assert abs(z.duality_residual) < 1e-9 * max(1.0, abs(z.log_zprime))
    return locals_, ld


@pytest.mark.parametrize("L", [2, 3, 4, 64])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 8])
@pytest.mark.parametrize("structure", [*STRUCTURES, "dense"])
def test_agrees_with_unraked_kernels(rake_all, structure, k, L):
    locals_, ld = _assert_matches_unraked(_model(structure, k, L, seed=10 * k + L))
    # A star's halves are paths joined at vertex 0, so its block graph
    # is a path; k = 1 leaves its group graph a bare spine.
    if structure in ("star_pattern", "diagonal"):
        assert locals_ is not None
    if structure == "diagonal" or (structure == "star_pattern" and k > 1):
        assert ld is not None


def test_one_late_block_adds_an_edge(rake_all):
    # Block 700 of 1000 is past the scan's first chunk of 512 blocks, so
    # the survivors change, and the schedules are made again, after a
    # later chunk.
    for L, ell in [(64, 50), (1000, 700)]:
        model = _late_edge(L=L, ell=ell)
        stack = model.sigma_blocks
        for blocks, survivors in [
            (stack[:ell], [[], [0]]),
            (stack, [[1, 2, 3], [0, 1, 2, 3]]),
        ]:
            schedules = rake._scan(blocks, model.k, True)
            assert [rest for _, rest in schedules] == survivors
        locals_, ld = _assert_matches_unraked(model)
        assert locals_ is not None and ld is not None


@pytest.mark.parametrize(
    "k,within,cross",
    [
        pytest.param(3, [(0, 1)], [(0, 0), (2, 1)], id="cross-a-to-b"),
        pytest.param(3, [(0, 1)], [(0, 0), (1, 2)], id="cross-b-to-a"),
        pytest.param(4, [(0, 1), (2, 3)], [(0, 0), (2, 2)], id="two-spines"),
        pytest.param(
            4, [(0, 1), (2, 3)], [(0, 0), (2, 2), (0, 2)], id="spines-crossed"
        ),
    ],
)
@pytest.mark.parametrize("L", [2, 3, 64])
def test_hand_built_periodic_patterns(rake_all, k, within, cross, L):
    model = LadderModel(k, L, _periodic(k, L, within, cross))
    _, ld = _assert_matches_unraked(model)
    assert ld is not None


def test_nothing_to_rake_is_bit_identical(rake_all):
    # Triangles in both halves: every vertex of both graphs has degree 2.
    k, L = 3, 64
    model = LadderModel(k, L, _periodic(k, L, [(0, 1), (1, 2), (0, 2)], [(0, 0)]))
    assert rake.raked_logdets(model.sigma_blocks, k) == (None, None)
    assert logdet_sigma_via_duality(model) == _unraked(model)


def test_negative_zero_is_a_zero(rake_all):
    model = _model("star_pattern", 4, 64)
    signed = np.where(model.sigma_blocks == 0, -0.0, model.sigma_blocks)
    negative = LadderModel(4, 64, signed)
    assert np.signbit(negative.sigma_blocks[model.sigma_blocks == 0]).all()
    locals_, ld = rake.raked_logdets(negative.sigma_blocks, 4)
    assert locals_ is not None and ld is not None
    assert logdet_sigma_via_duality(negative) == logdet_sigma_via_duality(model)


def _error(call, model):
    with pytest.raises(NotPositiveDefinite) as exc:
        call(model)
    return str(exc.value), exc.value.pivot_index


def _indefinite(block, v):
    block[v, v] = -1.0


def _near_singular(block, v):
    # A pivot of 1e-14: positive, but under the block's floor.
    block[v, :] = block[:, v] = 0.0
    block[v, v] = 1e-14


@pytest.mark.parametrize("spoil", [_indefinite, _near_singular])
@pytest.mark.parametrize(
    "build,vertex",
    [
        pytest.param(lambda: _model("star_pattern", 4, 64), 3, id="raked"),
        pytest.param(_late_edge, 2, id="survivor"),
    ],
)
def test_bad_block_raises_as_unraked(rake_all, build, vertex, spoil):
    model = build()
    blocks = model.sigma_blocks.copy()
    spoil(blocks[50], vertex)
    bad = LadderModel(model.k, model.L, blocks)
    expected = _error(local_logdets, bad)
    assert expected[0].startswith("covariance block 50 is not positive definite")
    assert _error(logdet_sigma_via_duality, bad) == expected
    assert _error(z_constants, bad) == expected
    assert _error(duality_check, bad) == expected


@pytest.mark.parametrize(
    "vertex", [pytest.param(2, id="raked"), pytest.param(0, id="survivor")]
)
def test_singular_dual_precision_raises_as_unraked(rake_all, vertex):
    # Every block passes its own floor, but one variable of the group
    # that blocks 29 and 30 share is scaled by 1e-4, and block 5 by 1e6:
    # that variable's pivot falls under the floor of Σ′⁻¹'s whole
    # diagonal. On a star, vertex 2 of a group is raked and vertex 0
    # survives on the spine.
    k = 4
    blocks = _model("star_pattern", k, 64).sigma_blocks.copy()
    scale = np.ones((2, 2 * k))
    scale[0, k + vertex] = scale[1, vertex] = 1e-4
    blocks[29:31] *= scale[:, :, None] * scale[:, None, :]
    blocks[5] *= 1e6
    model = LadderModel(k, 64, blocks)
    local_logdets(model)  # no block is rejected
    assert rake.raked_logdets(model.sigma_blocks, k, local=False) == (None, None)
    expected = _error(_band_logdet, model)
    assert expected[0].startswith("Schur complement 29 is not positive definite")
    assert _error(logdet_sigma_via_duality, model) == expected
    assert _error(z_constants, model) == expected
    assert _error(duality_check, model) == expected


@pytest.mark.parametrize(
    "model",
    [
        pytest.param(_model("random_tree", 8, 64), id="random_tree"),
        pytest.param(_model("dense", 4, 64), id="dense"),
    ],
)
def test_unrakable_models_keep_their_bits(rake_all, model):
    assert rake.raked_logdets(model.sigma_blocks, model.k) == (None, None)
    assert logdet_sigma_via_duality(model) == _unraked(model)


def test_a_block_with_no_zeros_ends_the_scan():
    # 10¹² copies of one dense block, by a zero stride: a scan past the
    # first block would not finish.
    block = _dense_blocks(4, 1, seed=2)[0]
    stack = np.lib.stride_tricks.as_strided(
        block, (10**12, 8, 8), (0, *block.strides), writeable=False
    )
    assert rake.raked_logdets(stack, 4) == (None, None)


def test_below_the_size_rule_keeps_its_bits():
    model = _model("star_pattern", 4, rake._RAKE_MIN_BLOCKS - 1)
    assert rake.raked_logdets(model.sigma_blocks, model.k) == (None, None)
    assert logdet_sigma_via_duality(model) == _unraked(model)
