import json
import math

import numpy as np
import pytest

from gaussdual import (
    LadderModel,
    NotPositiveDefinite,
    load_model,
    local_logdets,
    spd_factorize,
    spd_inverse,
    symmetrize,
    validate,
)
from helpers import LADDER1_BLOCK, det_cofactor, random_spd_dense


def test_symmetrize_passthrough():
    m = np.array([[2.0, 1.0], [1.0, 3.0]])
    assert np.array_equal(symmetrize(m), m)


def test_symmetrize_averages_roundoff():
    m = np.array([[2.0, 1.0 + 1e-14], [1.0, 3.0]])
    out = symmetrize(m)
    assert out[0, 1] == out[1, 0]


def test_symmetrize_rejects_asymmetric():
    with pytest.raises(ValueError, match="not symmetric"):
        symmetrize([[1.0, 5.0], [0.0, 1.0]])


def test_symmetrize_rejects_nonsquare():
    with pytest.raises(ValueError, match="square"):
        symmetrize(np.zeros((2, 3)))


def test_factorize_identity():
    f = spd_factorize(np.eye(4))
    assert f.logdet == 0.0
    assert np.array_equal(f.lower, np.eye(4))


def test_factorize_known_2x2():
    f = spd_factorize([[2.0, 1.0], [1.0, 2.0]])
    assert f.logdet == pytest.approx(math.log(3.0), rel=1e-14)
    assert np.allclose(f.lower @ f.lower.T, [[2.0, 1.0], [1.0, 2.0]])


def test_factorize_empty():
    f = spd_factorize(np.zeros((0, 0)))
    assert f.logdet == 0.0
    assert f.lower.shape == (0, 0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_factorize_matches_cofactor_oracle(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(20):
        m = random_spd_dense(n, rng)
        expected = math.log(det_cofactor(m))
        assert spd_factorize(m).logdet == pytest.approx(expected, rel=1e-10)


def test_factorize_indefinite_reports_pivot():
    with pytest.raises(NotPositiveDefinite) as exc:
        spd_factorize([[1.0, 2.0], [2.0, 1.0]])
    assert exc.value.pivot_index == 1


def test_factorize_negative_first_pivot():
    with pytest.raises(NotPositiveDefinite) as exc:
        spd_factorize([[-1.0, 0.0], [0.0, 2.0]])
    assert exc.value.pivot_index == 0


def test_factorize_near_singular_hits_floor():
    # Second pivot is ~1e-16 relative to a unit-scale diagonal.
    m = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-16]])
    with pytest.raises(NotPositiveDefinite):
        spd_factorize(m)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_factorize_rejects_non_finite(value):
    # Checked before the asymmetry test, whose inf - inf would be NaN.
    blocks = np.array([LADDER1_BLOCK] * 3)
    blocks[1, 0, 0] = value
    with pytest.raises(ValueError, match="^block 1 contains non-finite"):
        spd_factorize(blocks)
    with pytest.raises(ValueError, match="^matrix contains non-finite"):
        spd_factorize(blocks[1])


def test_factorize_small_scale_accepted():
    # Tiny but well-conditioned matrices must not be rejected.
    f = spd_factorize(1e-8 * np.eye(3))
    assert f.logdet == pytest.approx(3 * math.log(1e-8), rel=1e-12)


def test_inverse_round_trip():
    rng = np.random.default_rng(7)
    m = random_spd_dense(6, rng)
    inv = spd_inverse(m)
    assert np.allclose(inv @ m, np.eye(6), atol=1e-10)
    assert np.array_equal(inv, inv.T)


def test_inverse_involution():
    rng = np.random.default_rng(8)
    m = random_spd_dense(5, rng)
    again = spd_inverse(spd_inverse(m))
    assert np.allclose(again, m, rtol=1e-10)


@pytest.mark.parametrize("n", [2, 6, 10, 34, 66])
@pytest.mark.parametrize("cond", [1e2, 1e4, 1e6, 1e8, 1e10])
def test_inverse_accuracy_ill_conditioned(n, cond):
    # Inverting through the triangular factor is backward stable, so the
    # forward error is a modest multiple of cond·ε (Du Croz & Higham,
    # IMA J. Numer. Anal. 12, 1992); LU's inverse, the reference, is too.
    rng = np.random.default_rng(n)
    q, _ = np.linalg.qr(rng.standard_normal((5, n, n)))
    m = (q * np.logspace(0, -math.log10(cond), n)) @ np.swapaxes(q, 1, 2)
    expected = np.linalg.inv(symmetrize(m))
    got = spd_inverse(m)
    err = np.linalg.norm(got - expected, axis=(1, 2))
    bound = n * cond * np.finfo(float).eps * np.linalg.norm(expected, axis=(1, 2))
    assert (err <= bound).all()
    assert np.array_equal(got, np.swapaxes(got, 1, 2))


class TestStacks:
    """A stack is the same as its matrices one by one, bit for bit."""

    # n = 2k that is not a power of two leaves a tail at some halving.
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 8, 16, 17, 32, 33])
    def test_stack_equals_per_matrix(self, k):
        rng = np.random.default_rng(k)
        stack = np.array([random_spd_dense(2 * k, rng) for _ in range(20)])
        factor = spd_factorize(stack)
        inverse = spd_inverse(stack)
        for ell, m in enumerate(stack):
            one = spd_factorize(m)
            assert np.array_equal(factor.lower[ell], one.lower)
            assert factor.logdet[ell] == one.logdet
            assert np.array_equal(inverse[ell], spd_inverse(m))

    def test_symmetrize_stack(self):
        stack = np.array([np.eye(3), [[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0, 0, 1]]])
        assert np.array_equal(symmetrize(stack), stack)
        stack[1, 0, 1] = 5.0
        with pytest.raises(ValueError, match="block 1 is not symmetric"):
            symmetrize(stack)

    def test_empty_stack(self):
        f = spd_factorize(np.zeros((2, 0, 0)))
        assert f.lower.shape == (2, 0, 0)
        assert f.logdet.tolist() == [0.0, 0.0]
        for shape in [(2, 0, 0), (0, 0), (0, 3, 3)]:
            assert spd_inverse(np.zeros(shape)).shape == shape


def _indefinite(b):
    b[0, 1] = b[1, 0] = 3.0  # leading 2x2 minor 2·2 - 9 < 0: pivot 1


def _near_singular(b):
    # Pivot 1 is about 1e-14, below the floor; the block still factors.
    b[0, 1] = b[1, 0] = 2.0
    b[1, 1] += 1e-14
    b[0, 2] = b[2, 0] = 0.0


def _blocks_bad_at_3(spoil):
    blocks = np.array([LADDER1_BLOCK] * 5)
    spoil(blocks[3])
    return blocks


@pytest.mark.parametrize("spoil", [_indefinite, _near_singular])
class TestBadBlockIsNamed:
    def test_spd_factorize(self, spoil):
        with pytest.raises(NotPositiveDefinite, match="^block 3 ") as exc:
            spd_factorize(_blocks_bad_at_3(spoil))
        assert exc.value.pivot_index == 1

    def test_local_logdets(self, spoil):
        model = LadderModel(2, 5, _blocks_bad_at_3(spoil))
        with pytest.raises(NotPositiveDefinite, match="covariance block 3 ") as exc:
            local_logdets(model)
        assert exc.value.pivot_index == 1

    def test_validate(self, spoil):
        report = validate(LadderModel(2, 5, _blocks_bad_at_3(spoil)))
        assert not report.assumption1_ok
        assert report.messages[0] == (
            "covariance block 3 is not positive definite (pivot 1)"
        )

    def test_load_model(self, tmp_path, spoil):
        entries = [{"covariance": b.tolist()} for b in _blocks_bad_at_3(spoil)]
        entries[3] = {"precision": entries[3]["covariance"]}
        entries[1] = {"precision": LADDER1_BLOCK.tolist()}
        path = tmp_path / "model.json"
        path.write_text(
            json.dumps({"format_version": "1", "k": 2, "L": 5, "blocks": entries})
        )
        with pytest.raises(NotPositiveDefinite, match="precision block 3 ") as exc:
            load_model(path)
        assert exc.value.pivot_index == 1
