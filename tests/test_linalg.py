import json
import math

import numpy as np
import pytest

from gaussdual import (
    GenSpec,
    LadderModel,
    NotPositiveDefinite,
    generate,
    load_model,
    local_logdets,
    validate,
)
from gaussdual.linalg import (
    _BLOCK,
    _chunks,
    _cholesky,
    _entry_major,
    _factor,
    _factor_entry_major,
    _first_bad_pivot,
    _inverse,
    _logdet,
    _symmetric_part,
    pivot_floor,
)
from helpers import LADDER1_BLOCK, det_cofactor, invert, random_spd_dense


def factorize(m):
    """Cholesky factor and log-determinant of an SPD matrix, or of each
    block of a stack, as the routes take them. A matrix is factored as
    a stack of one."""
    sym = _symmetric_part(m, _BLOCK)
    stack = sym[None] if sym.ndim == 2 else sym
    floor = pivot_floor(np.diagonal(stack, axis1=-2, axis2=-1))
    lower = _cholesky(stack, _BLOCK, floor)
    lower = lower.reshape(sym.shape)
    return lower, _logdet(lower)


def test_symmetrize_passthrough():
    m = np.array([[2.0, 1.0], [1.0, 3.0]])
    assert np.array_equal(_symmetric_part(m, _BLOCK), m)


def test_symmetrize_averages_roundoff():
    m = np.array([[2.0, 1.0 + 1e-14], [1.0, 3.0]])
    out = _symmetric_part(m, _BLOCK)
    assert out[0, 1] == out[1, 0]


def test_symmetrize_rejects_asymmetric():
    with pytest.raises(ValueError, match="not symmetric"):
        _symmetric_part([[1.0, 5.0], [0.0, 1.0]], _BLOCK)


def test_symmetrize_rejects_nonsquare():
    with pytest.raises(ValueError, match="square"):
        _symmetric_part(np.zeros((2, 3)), _BLOCK)


def test_factorize_identity():
    lower, logdet = factorize(np.eye(4))
    assert logdet == 0.0
    assert np.array_equal(lower, np.eye(4))


def test_factorize_known_2x2():
    lower, logdet = factorize([[2.0, 1.0], [1.0, 2.0]])
    assert logdet == pytest.approx(math.log(3.0), rel=1e-14)
    assert np.allclose(lower @ lower.T, [[2.0, 1.0], [1.0, 2.0]])


def test_factorize_empty():
    lower, logdet = factorize(np.zeros((0, 0)))
    assert logdet == 0.0
    assert lower.shape == (0, 0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_factorize_matches_cofactor_oracle(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(20):
        m = random_spd_dense(n, rng)
        expected = math.log(det_cofactor(m))
        assert factorize(m)[1] == pytest.approx(expected, rel=1e-10)


def test_factorize_indefinite_reports_pivot():
    with pytest.raises(NotPositiveDefinite) as exc:
        factorize([[1.0, 2.0], [2.0, 1.0]])
    assert exc.value.pivot_index == 1


def test_factorize_negative_first_pivot():
    with pytest.raises(NotPositiveDefinite) as exc:
        factorize([[-1.0, 0.0], [0.0, 2.0]])
    assert exc.value.pivot_index == 0


def test_factorize_near_singular_hits_floor():
    # Second pivot is ~1e-16 relative to a unit-scale diagonal.
    m = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-16]])
    with pytest.raises(NotPositiveDefinite):
        factorize(m)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_factorize_rejects_non_finite(value):
    # Checked before the asymmetry test, whose inf - inf would be NaN.
    blocks = np.array([LADDER1_BLOCK] * 3)
    blocks[1, 0, 0] = value
    with pytest.raises(ValueError, match="^block 1 contains non-finite"):
        factorize(blocks)
    with pytest.raises(ValueError, match="^matrix contains non-finite"):
        factorize(blocks[1])


def test_factorize_small_scale_accepted():
    # Tiny but well-conditioned matrices must not be rejected.
    logdet = factorize(1e-8 * np.eye(3))[1]
    assert logdet == pytest.approx(3 * math.log(1e-8), rel=1e-12)


def test_inverse_round_trip():
    rng = np.random.default_rng(7)
    m = random_spd_dense(6, rng)
    inv = invert(m[None])[0]
    assert np.allclose(inv @ m, np.eye(6), atol=1e-10)
    assert np.array_equal(inv, inv.T)


def test_inverse_involution():
    rng = np.random.default_rng(8)
    m = random_spd_dense(5, rng)
    again = invert(invert(m[None]))[0]
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
    expected = np.linalg.inv(_symmetric_part(m, _BLOCK))
    got = invert(m)
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
        lower, logdet = factorize(stack)
        inverse = invert(stack)
        for ell, m in enumerate(stack):
            one_lower, one_logdet = factorize(m)
            assert np.array_equal(lower[ell], one_lower)
            assert logdet[ell] == one_logdet
            assert np.array_equal(inverse[ell], invert(m[None])[0])

    def test_symmetrize_stack(self):
        stack = np.array([np.eye(3), [[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0, 0, 1]]])
        assert np.array_equal(_symmetric_part(stack, _BLOCK), stack)
        stack[1, 0, 1] = 5.0
        with pytest.raises(ValueError, match="block 1 is not symmetric"):
            _symmetric_part(stack, _BLOCK)

    def test_empty_stack(self):
        lower, logdet = factorize(np.zeros((2, 0, 0)))
        assert lower.shape == (2, 0, 0)
        assert logdet.tolist() == [0.0, 0.0]
        for shape in [(2, 0, 0), (1, 0, 0), (0, 3, 3)]:
            assert invert(np.zeros(shape)).shape == shape


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
            _factor(_blocks_bad_at_3(spoil), _BLOCK)
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


def _floor(stack):
    return pivot_floor(np.diagonal(stack, axis1=-2, axis2=-1))


def _batched(stack):
    """`_factor`'s batched path: log-dets and inverses, whatever the shape."""
    lower = _cholesky(stack, _BLOCK, _floor(stack))
    return _logdet(lower), _inverse(lower)


def _entry_major_of(stack):
    found = _factor_entry_major(stack, _floor(stack), invert=True)
    assert found is not None
    return found


def _spd_stack(n, count, rng):
    a = rng.standard_normal((count, n, n))
    return _symmetric_part(a @ np.swapaxes(a, 1, 2) + n * np.eye(n), _BLOCK)


def _one_and_a_third_chunks(n):
    """A block count past one chunk of n×n blocks, not a multiple of it."""
    per_chunk = next(_chunks(np.zeros((1, n, n)))).stop
    return per_chunk + per_chunk // 3 + 1


class TestEntryMajor:
    """The entry-major path of `_factor` against its batched path."""

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_matches_batched(self, n):
        rng = np.random.default_rng(n)
        stack = _spd_stack(n, _one_and_a_third_chunks(n), rng)
        assert _entry_major(*stack.shape[:2])
        logdets, inverses = _entry_major_of(stack)
        expected_logdets, expected_inverses = _batched(stack)
        np.testing.assert_allclose(logdets, expected_logdets, rtol=1e-13, atol=0)
        err = np.linalg.norm(inverses - expected_inverses, axis=(1, 2))
        norm = np.linalg.norm(expected_inverses, axis=(1, 2))
        cond = np.linalg.cond(stack)
        assert (err <= n * cond * np.finfo(float).eps * norm).all()
        assert np.array_equal(inverses, np.swapaxes(inverses, 1, 2))
        assert np.array_equal(_factor(stack, _BLOCK, invert=True)[1], inverses)
        assert np.array_equal(_factor(stack, _BLOCK)[0], logdets)

    @pytest.mark.parametrize("n", [2, 5, 8])
    @pytest.mark.parametrize("cond", [1e2, 1e6, 1e10])
    def test_inverse_accuracy_ill_conditioned(self, n, cond):
        # The bound of test_inverse_accuracy_ill_conditioned, per block.
        rng = np.random.default_rng(n)
        q, _ = np.linalg.qr(rng.standard_normal((1100, n, n)))
        m = (q * np.logspace(0, -math.log10(cond), n)) @ np.swapaxes(q, 1, 2)
        stack = _symmetric_part(m, _BLOCK)
        expected = np.linalg.inv(stack)
        got = _entry_major_of(stack)[1]
        err = np.linalg.norm(got - expected, axis=(1, 2))
        bound = n * cond * np.finfo(float).eps * np.linalg.norm(expected, axis=(1, 2))
        assert (err <= bound).all()
        assert np.array_equal(got, np.swapaxes(got, 1, 2))

    def test_permuting_blocks_permutes_results(self):
        # Every step is elementwise across blocks, so a block's results do
        # not depend on its chunk or its place in it.
        rng = np.random.default_rng(3)
        stack = _spd_stack(8, _one_and_a_third_chunks(8), rng)
        order = rng.permutation(len(stack))
        logdets, inverses = _entry_major_of(stack)
        permuted_logdets, permuted_inverses = _entry_major_of(stack[order])
        assert np.array_equal(permuted_logdets, logdets[order])
        assert np.array_equal(permuted_inverses, inverses[order])

    def test_logdets_only(self):
        stack = _spd_stack(4, 1500, np.random.default_rng(4))
        logdets, inverses = _factor(stack, _BLOCK)
        assert inverses is None
        assert np.array_equal(logdets, _entry_major_of(stack)[0])


def test_nan_pivot_is_bad():
    # Entry-major pivots are not LAPACK's, which stops at a NaN: a NaN
    # must not pass the floor check.
    assert _first_bad_pivot(np.array([2.0, np.nan, 3.0]), 1e-12, squared=False) == 1
    assert _first_bad_pivot(np.array([2.0, np.nan]), 1e-12) == 1


def test_path_rule_on_benchmark_shapes():
    # long_ladder's stack (k=4, L=25,000) is worked entry-major; cyclic_dual's
    # (k=4, L=1,000), many_small's (k <= 4, L <= 47) and wide_blocks'
    # (k=32, L=100) stay on the batched path.
    assert _entry_major(25_000, 8)
    assert not _entry_major(1_000, 8)
    assert not any(_entry_major(L, 2 * k) for k in range(1, 5) for L in range(1, 48))
    assert not _entry_major(100, 64)


def _spoil_indefinite(b):
    # Leading 2×2 minor b00·b11 − 4·b00·b11 < 0: pivot 1.
    b[0, 1] = b[1, 0] = 2.0 * math.sqrt(b[0, 0] * b[1, 1])


def _spoil_near_singular(b):
    # Row 1 repeats row 0, plus 1e-14 on the diagonal: pivot 1 is about
    # 1e-14, under the floor, though the block still factors.
    b[1, :] = b[0, :]
    b[:, 1] = b[:, 0]
    b[1, 1] += 1e-14


def _long_stack_bad_at(bad, spoil):
    """2,100 SPD 8×8 blocks, a chunk and some, with block ``bad`` spoiled."""
    stack = np.array(generate(GenSpec(k=4, L=2100, seed=5)).sigma_blocks)
    spoil(stack[bad])
    return stack


@pytest.mark.parametrize("spoil", [_spoil_indefinite, _spoil_near_singular])
@pytest.mark.parametrize("bad", [1500, 2047, 2048])
class TestBadBlockInLongStack:
    """A long stack of small blocks, entry-major until a pivot fails, is
    named exactly as the batched path names it."""

    def test_factor(self, spoil, bad):
        stack = _long_stack_bad_at(bad, spoil)
        assert next(_chunks(stack)).stop == 2048
        assert _factor_entry_major(stack, _floor(stack), invert=True) is None
        for invert_ in (False, True):
            with pytest.raises(NotPositiveDefinite) as exc:
                _factor(stack, _BLOCK, invert=invert_)
            assert str(exc.value) == f"block {bad} is not positive definite (pivot 1)"
            assert exc.value.pivot_index == 1

    def test_local_logdets_and_validate(self, spoil, bad):
        model = LadderModel(4, 2100, _long_stack_bad_at(bad, spoil))
        message = f"covariance block {bad} is not positive definite (pivot 1)"
        with pytest.raises(NotPositiveDefinite) as exc:
            local_logdets(model)
        assert str(exc.value) == message
        assert exc.value.pivot_index == 1
        report = validate(model)
        assert not report.assumption1_ok
        assert report.messages[0] == message

    def test_load_model(self, tmp_path, spoil, bad):
        entries = [{"precision": b.tolist()} for b in _long_stack_bad_at(bad, spoil)]
        path = tmp_path / "model.json"
        path.write_text(
            json.dumps({"format_version": "1", "k": 4, "L": 2100, "blocks": entries})
        )
        with pytest.raises(NotPositiveDefinite) as exc:
            load_model(path)
        assert str(exc.value) == (
            f"precision block {bad} is not positive definite (pivot 1)"
        )
        assert exc.value.pivot_index == 1
