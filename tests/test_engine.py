import math
import warnings

import numpy as np
import pytest

from gaussdual import (
    GenSpec,
    LadderModel,
    duality_check,
    generate,
    local_logdets,
    logdet_sigma_direct,
    logdet_sigma_via_duality,
    validate,
    z_constants,
)
from helpers import (
    LADDER1_DET,
    LADDER2_DET,
    ladder1_model,
    ladder2_model,
    margin_models,
)

LOG_2PI = math.log(2.0 * math.pi)


def _dense_blocks(k, L, seed):
    """L dense SPD blocks A·Aᵀ + 2k·I, so the dual graph has cycles."""
    a = np.random.default_rng(seed).normal(size=(L, 2 * k, 2 * k))
    return a @ np.swapaxes(a, 1, 2) + 2 * k * np.eye(2 * k)


class TestViaDuality:
    def test_ladder1(self):
        assert logdet_sigma_via_duality(ladder1_model()) == pytest.approx(
            math.log(LADDER1_DET), rel=1e-12
        )

    def test_ladder2(self):
        assert logdet_sigma_via_duality(ladder2_model()) == pytest.approx(
            math.log(LADDER2_DET), rel=1e-12
        )

    def test_single_block(self):
        model = LadderModel(1, 1, [np.array([[2.0, 1.0], [1.0, 2.0]])])
        assert logdet_sigma_via_duality(model) == pytest.approx(
            math.log(3.0), rel=1e-14
        )

    @pytest.mark.parametrize("k,L", [(1, 1), (2, 3), (3, 7), (4, 10)])
    def test_identity_blocks_closed_form(self, k, L):
        model = LadderModel(k, L, [np.eye(2 * k)] * L)
        expected = -(L - 1) * k * math.log(2.0)
        assert logdet_sigma_via_duality(model) == pytest.approx(
            expected, abs=1e-12
        )
        assert logdet_sigma_direct(model) == pytest.approx(expected, abs=1e-12)

    def test_dense_method_agrees(self):
        model = generate(GenSpec(k=3, L=9, seed=17, structure="random_tree"))
        bt = logdet_sigma_via_duality(model, method="block_tridiag")
        dn = logdet_sigma_via_duality(model, method="dense")
        assert bt == pytest.approx(dn, rel=1e-12, abs=1e-12)

    def test_cyclic_dual_needs_no_fallback(self):
        dense = np.ones((6, 6)) * 0.3 + 6.0 * np.eye(6)
        models = [
            LadderModel(3, 2, [dense, dense]),
            LadderModel(4, 50, _dense_blocks(4, 50, seed=5)),
        ]
        for model in models:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = logdet_sigma_via_duality(model)
            expected = logdet_sigma_direct(model, "dense")
            assert got == pytest.approx(expected, rel=1e-10)

    def test_unknown_method(self):
        # "tree_bp" is not a method: the dual route always runs the band.
        for method in ("cg", "tree_bp"):
            with pytest.raises(ValueError, match="unknown method"):
                logdet_sigma_via_duality(ladder1_model(), method=method)


class TestDirect:
    def test_ladder1_both_backends(self):
        model = ladder1_model()
        expected = math.log(LADDER1_DET)
        assert logdet_sigma_direct(model, "dense") == pytest.approx(
            expected, rel=1e-12
        )
        assert logdet_sigma_direct(model, "block_tridiag") == pytest.approx(
            expected, rel=1e-12
        )

    def test_ladder2_oracle_value(self):
        # 9x9 dense elimination is the ground truth for this model.
        assert logdet_sigma_direct(ladder2_model(), "dense") == pytest.approx(
            math.log(LADDER2_DET), rel=1e-12
        )

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            logdet_sigma_direct(ladder1_model(), method="lu")

    def test_small_dominance_margin(self):
        # Eliminating the assembled J must not trip over its own round-off:
        # a Schur loop that re-checked symmetry of its intermediates raised
        # "matrix is not symmetric" on most of these models.
        for model in margin_models():
            got = logdet_sigma_direct(model, "block_tridiag")
            expected = logdet_sigma_direct(model, "dense")
            assert got == pytest.approx(expected, rel=1e-9)


class TestAgreementSweep:
    def test_two_paths_agree(self):
        for seed in range(40):
            model = generate(
                GenSpec(
                    k=1 + seed % 5,
                    L=1 + seed % 12,
                    seed=1000 + seed,
                    structure="random_tree" if seed % 2 else "star_pattern",
                )
            )
            via = logdet_sigma_via_duality(model)
            direct = logdet_sigma_direct(model)
            assert via == pytest.approx(direct, rel=1e-9, abs=1e-9)


class TestZConstants:
    def test_ladder1_zprime(self):
        report = z_constants(ladder1_model())
        expected = 6.0 * LOG_2PI - 0.5 * math.log(128.0)
        assert report.log_zprime == pytest.approx(expected, rel=1e-13)

    def test_bookkeeping_identity(self):
        report = z_constants(ladder2_model())
        assert report.log_z == report.log_zf - math.fsum(report.log_zl)

    @pytest.mark.parametrize("structure", ["star_pattern", "random_tree"])
    def test_long_ladder_sums_exactly(self, structure):
        # Summed left to right, 25,000 block constants put the residual at
        # 6.3e-10 (star_pattern) and 1.3e-9 (random_tree).
        model = generate(GenSpec(k=4, L=25_000, seed=1, structure=structure))
        report = z_constants(model)
        assert report.log_z == report.log_zf - math.fsum(report.log_zl)
        assert abs(duality_check(model).residual) <= 1e-10

    def test_residual_vanishes(self):
        report = z_constants(generate(GenSpec(k=2, L=6, seed=3)))
        assert abs(report.duality_residual) < 1e-12

    def test_normalized_single_block(self):
        model = LadderModel(1, 1, [np.eye(2)])
        report = z_constants(model)
        assert report.log_z == pytest.approx(0.0, abs=1e-13)

    def test_zl_matches_blocks(self):
        model = ladder2_model()
        report = z_constants(model)
        locals_ = local_logdets(model)
        # Bit for bit the per-block loop's 0.5·(2k·log 2π + ld): halving is exact.
        for got, ld in zip(report.log_zl, locals_.tolist()):
            assert got == 0.5 * (6.0 * LOG_2PI + ld)


class TestVerifyDuality:
    def test_ladder1(self):
        assert duality_check(ladder1_model(), tol=1e-9).ok

    def test_ladder2(self):
        assert duality_check(ladder2_model(), tol=1e-9).ok

    def test_random_sweep(self):
        for seed in range(30):
            model = generate(
                GenSpec(
                    k=1 + seed % 4,
                    L=1 + seed % 9,
                    seed=4000 + seed,
                    structure=("star_pattern", "random_tree", "diagonal")[seed % 3],
                )
            )
            assert duality_check(model, tol=1e-9).ok

    def test_impossible_tolerance_reports_both_values(self):
        check = duality_check(ladder1_model(), tol=0.0)
        assert not check.ok
        assert "exceeds tolerance" in check.messages[0]
        assert check.messages[1].endswith(repr(check.logdet_via_duality))
        assert check.messages[2].endswith(repr(check.logdet_direct))

    @pytest.mark.parametrize("tol", [-1.0, math.nan])
    def test_bad_tolerance_rejected(self, tol):
        with pytest.raises(ValueError, match="tol must be >= 0"):
            duality_check(ladder1_model(), tol=tol)

    def test_check_payload(self):
        check = duality_check(ladder2_model(), tol=1e-9)
        assert check.ok
        assert check.messages == []
        assert check.logdet_via_duality == pytest.approx(
            check.logdet_direct, rel=1e-12
        )
        assert abs(check.residual) < 1e-12


class TestScaleCovariance:
    @pytest.mark.parametrize("c", [0.5, 3.0])
    def test_shift_by_n_log_c(self, c):
        model = generate(GenSpec(k=3, L=11, seed=77, structure="random_tree"))
        scaled = LadderModel(model.k, model.L, c * model.sigma_blocks)
        base = logdet_sigma_via_duality(model)
        shifted = logdet_sigma_via_duality(scaled)
        expected = model.N * math.log(c)
        assert shifted - base == pytest.approx(expected, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize(
    "call",
    [
        duality_check,
        z_constants,
        logdet_sigma_via_duality,
        logdet_sigma_direct,
        lambda m: logdet_sigma_direct(m, "dense"),
        validate,
    ],
    ids=[
        "duality_check",
        "z_constants",
        "via_duality",
        "direct",
        "direct_dense",
        "validate",
    ],
)
def test_covariance_stack_factored_once(monkeypatch, call):
    model = generate(GenSpec(k=3, L=9, seed=4, structure="random_tree"))
    factored, inverted = [], []
    cholesky, inv = np.linalg.cholesky, np.linalg.inv

    def counting(a):
        if a.ndim == 3:  # not the dense J
            factored.append(a.shape)
        return cholesky(a)

    def counting_inv(a):
        if np.ndim(a) == 3:
            inverted.append(np.shape(a))
        return inv(a)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    monkeypatch.setattr(np.linalg, "inv", counting_inv)
    call(model)
    assert factored == [model.sigma_blocks.shape]
    # The stack is inverted through its triangular factors, never by LU.
    assert inverted == []
