"""Scale equivariance against an exact oracle.

Scaling every covariance block by c > 0 scales Σ by c, so log det(Σ)
shifts by N·log c. Both tolerances are relative to the matrix they
judge, so every route, backend and check must follow the shift from
c = 1e-300 to 1e300. The oracle is exact: log det(Σ) = −log det(J), with
J overlap-added from the blocks' inverses in rational arithmetic, for
the floats the scaled model actually holds.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from gaussdual import (
    STRUCTURES,
    GenSpec,
    LadderModel,
    duality_check,
    generate,
    logdet_sigma_direct,
    logdet_sigma_via_duality,
    save_model,
    validate,
)
from gaussdual.cli import main
from gaussdual.linalg import _entry_major
from gaussdual.rake import _RAKE_MIN_BLOCKS
from helpers import random_spd_dense

SCALES = [1e-300, 1e-200, 1e-100, 1e-13, 1e-6, 1e6, 1e100, 1e200, 1e300]
# Each structure and dense blocks at k=3; k=1 takes the tridiagonal
# kernel, dpttrf, instead of dpbtrf.
SHAPES = [(shape, 3) for shape in (*STRUCTURES, "dense")] + [("random_tree", 1)]
SHAPE_IDS = [f"{shape}-k{k}" for shape, k in SHAPES]


def _model(shape, k, L, seed):
    if shape != "dense":
        return generate(GenSpec(k=k, L=L, seed=seed, structure=shape))
    rng = np.random.default_rng(seed)
    return LadderModel(k, L, [random_spd_dense(2 * k, rng) for _ in range(L)])


def _scaled(model, c):
    return LadderModel(model.k, model.L, c * model.sigma_blocks)


def _eliminate(a):
    """Pivots of the exact Gaussian elimination of the SPD matrix ``a``.

    Works in place on a list of rows of Fractions. Only the non-zero
    entries of each pivot's row and column are worked, so a band matrix,
    which elimination without pivoting never fills outside its band,
    costs time linear in its order.
    """
    n = len(a)
    pivots = []
    for p in range(n):
        pivot = a[p][p]
        assert pivot > 0
        pivots.append(pivot)
        rows = [i for i in range(p + 1, n) if a[i][p]]
        cols = [j for j in range(p + 1, n) if a[p][j]]
        for i in rows:
            f = a[i][p] / pivot
            for j in cols:
                a[i][j] -= f * a[p][j]
    return pivots


def _inverse(block):
    """Exact inverse of a symmetric positive-definite list-of-rows matrix."""
    n = len(block)
    eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    aug = [row + unit for row, unit in zip(block, eye)]
    for p in range(n):
        pivot = aug[p][p]
        aug[p] = [x / pivot for x in aug[p]]
        for i in range(n):
            if i != p and aug[i][p]:
                f = aug[i][p]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[p])]
    return [row[n:] for row in aug]


def _log(q):
    """Natural log of a positive Fraction, to about one float rounding."""
    e = q.numerator.bit_length() - q.denominator.bit_length()
    return math.log(q / Fraction(2) ** e) + e * math.log(2.0)


def exact_logdet(model):
    """log det(Σ) = −log det(J), from the model's floats in exact arithmetic."""
    k, n = model.k, model.N
    j = [[Fraction(0)] * n for _ in range(n)]
    for ell, block in enumerate(model.sigma_blocks.tolist()):
        inverse = _inverse([[Fraction(x) for x in row] for row in block])
        for a, row in enumerate(inverse):
            for b, x in enumerate(row):
                j[ell * k + a][ell * k + b] += x
    return -sum(_log(p) for p in _eliminate(j))


def test_oracle_on_a_known_determinant():
    # One k=1 block is the whole Σ: log det = log(2·3 − 1).
    model = LadderModel(1, 1, [[[2.0, 1.0], [1.0, 3.0]]])
    assert exact_logdet(model) == pytest.approx(math.log(5.0), rel=1e-15)
    assert exact_logdet(_scaled(model, 1e-300)) == pytest.approx(
        math.log(5.0) + 2 * math.log(1e-300), rel=1e-15
    )


@pytest.fixture(scope="module", params=SHAPES, ids=SHAPE_IDS)
def small(request):
    """A model of each shape with N ≤ 24 (k=3, L=6: N = 21)."""
    return _model(*request.param, 6, seed=7)


@pytest.mark.parametrize("c", SCALES)
def test_routes_and_checks_match_the_exact_oracle(small, c):
    model = _scaled(small, c)
    expected = exact_logdet(model)
    for method in ("block_tridiag", "dense"):
        assert logdet_sigma_via_duality(model, method) == pytest.approx(
            expected, rel=1e-12
        )
        assert logdet_sigma_direct(model, method) == pytest.approx(expected, rel=1e-12)
    assert duality_check(model).ok
    assert validate(model).assumption1_ok


@pytest.fixture(scope="module", params=SHAPES, ids=SHAPE_IDS)
def long(request):
    """A model of each shape past the rake's and entry-major's block counts,
    with its value at c = 1."""
    model = _model(*request.param, _RAKE_MIN_BLOCKS + 76, seed=3)
    assert _entry_major(model.L, 2 * model.k)
    return model, logdet_sigma_direct(model)


@pytest.mark.parametrize("c", SCALES)
def test_long_ladders_shift_by_n_log_c(long, c):
    # star_pattern and diagonal are raked in both halves, random_tree at
    # k=1 in the blocks' half only; random_tree at k=3 and dense blocks
    # share no zero pattern and run unraked.
    base, value = long
    model = _scaled(base, c)
    expected = value + model.N * math.log(c)
    assert logdet_sigma_via_duality(model) == pytest.approx(expected, rel=1e-12)
    assert logdet_sigma_direct(model) == pytest.approx(expected, rel=1e-12)
    check = duality_check(model)
    assert check.ok
    assert check.logdet_direct == pytest.approx(expected, rel=1e-12)
    assert validate(model).assumption1_ok


@pytest.mark.parametrize("c", [1e-300, 1e-13, 1e300])
def test_cli_verifies_scaled_models(tmp_path, capsys, c):
    path = tmp_path / "scaled.json"
    save_model(path, _scaled(_model("random_tree", 2, 5, seed=1), c))
    assert main(["verify", str(path)]) == 0
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()


def test_spread_of_scale_inside_a_block_stays_rejected():
    # The floor is relative to a matrix's largest diagonal entry, so a
    # block of entries 1e100 and 1e-100 has pivots under it.
    model = LadderModel(1, 1, [[[1e100, 0.0], [0.0, 1e-100]]])
    assert not validate(model).assumption1_ok
