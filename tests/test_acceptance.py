"""Acceptance gate: one test per shipped guarantee.

Each test prints a single `[acceptance] criterion N: PASS/FAIL` line
(visible with `pytest -s` or on failure) and asserts the guarantee at
its stated tolerance. Criteria 3 and 4 share one 200-model sweep.
"""

import csv
import json
import math
import time

import numpy as np
import pytest

from gaussdual import (
    GenSpec,
    LadderModel,
    SparseSymMatrix,
    build_dual,
    duality_check,
    generate,
    local_logdets,
    logdet_block_tridiagonal,
    logdet_dense,
    logdet_sigma_direct,
    logdet_sigma_via_duality,
)
from gaussdual.cli import main as cli_main
from gaussdual.elimination import block_partition, logdet_tree_bp
from gaussdual.errors import NotAForest
from gaussdual.model import assemble_global_precision
from helpers import (
    EXAMPLES_DIR,
    LADDER1_DUAL_DENSE,
    LADDER2_DUAL_DENSE,
    random_forest_spd,
)

EXAMPLE1 = str(EXAMPLES_DIR / "example1.json")
EXAMPLE2 = str(EXAMPLES_DIR / "example2.json")


def _report(num, problems, detail):
    status = "FAIL" if problems else "PASS"
    print(f"[acceptance] criterion {num}: {status} ({detail})")
    assert not problems, "; ".join(problems)


def _rel_err(got, expected):
    return abs(got - expected) / max(1.0, abs(expected))


@pytest.fixture(scope="module")
def sweep_models():
    """200 seeded models, k in 1..5, L in 1..20, both tree families."""
    models = []
    for i in range(200):
        spec = GenSpec(
            k=1 + i % 5,
            L=1 + (i * 7) % 20,
            seed=20_000 + i,
            structure="random_tree" if i % 2 else "star_pattern",
        )
        models.append(generate(spec))
    return models


def test_criterion_1_first_worked_example(capsys):
    problems = []
    from gaussdual import load_model

    model, _ = load_model(EXAMPLE1)

    cli_main(["logdet", EXAMPLE1, "--method", "duality-bp", "--json"])
    doc = json.loads(capsys.readouterr().out)
    det = math.exp(doc["logdet"])
    if _rel_err(det, 125.0 / 128.0) > 1e-12:
        problems.append(f"det = {det!r}, expected 125/128")

    dual = build_dual(model)
    if not np.array_equal(dual.dual_precision.to_dense(), LADDER1_DUAL_DENSE):
        problems.append("dual precision differs from the known dense form")

    det_dual = math.exp(logdet_tree_bp(dual.dual_precision).logdet)
    if _rel_err(det_dual, 128.0) > 1e-12:
        problems.append(f"det of dual = {det_dual!r}, expected 128")

    logdet_sigma_via_duality(model)  # warm-up
    walls = []
    for _ in range(5):
        t0 = time.perf_counter()
        logdet_sigma_via_duality(model)
        walls.append(time.perf_counter() - t0)
    wall_ms = 1e3 * sorted(walls)[len(walls) // 2]
    if wall_ms >= 10.0:
        problems.append(f"runtime {wall_ms:.2f} ms, budget 10 ms")

    _report(1, problems, f"det(Sigma)=125/128, dual exact, {wall_ms:.2f} ms")


def test_criterion_2_second_worked_example():
    problems = []
    from gaussdual import load_model

    model, _ = load_model(EXAMPLE2)

    dets = np.exp(local_logdets(model))
    for got, expected in zip(dets, (44.0, 33.0)):
        if _rel_err(got, expected) > 1e-12:
            problems.append(f"block det {got!r}, expected {expected}")

    dual = build_dual(model)
    if not np.array_equal(dual.dual_precision.to_dense(), LADDER2_DUAL_DENSE):
        problems.append("dual precision differs from the known dense form")

    via = logdet_sigma_via_duality(model)
    direct = logdet_sigma_direct(model, method="dense")
    if _rel_err(via, direct) > 1e-12:
        problems.append(f"via={via!r} vs direct={direct!r}")

    det_sigma = math.exp(direct)
    print(
        "[acceptance] note: det(Sigma) = 1452/124 = "
        f"{det_sigma:.6f} by both routes; the sometimes-quoted closed-form "
        "value 11 does not match the displayed dual and is recorded as a "
        "known discrepancy. Oracle agreement is what this criterion pins."
    )
    _report(2, problems, "block dets 44/33, dual exact, paths agree")


def test_criterion_3_two_path_agreement_sweep(sweep_models):
    problems = []
    t0 = time.perf_counter()
    worst = 0.0
    for model in sweep_models:
        via = logdet_sigma_via_duality(model)
        direct = logdet_sigma_direct(model, method="dense")
        err = _rel_err(via, direct)
        worst = max(worst, err)
        if err > 1e-9:
            problems.append(
                f"k={model.k} L={model.L}: via={via!r} direct={direct!r}"
            )
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        problems.append(f"sweep took {elapsed:.1f} s, budget 30 s")
    _report(
        3,
        problems,
        f"200 models, worst rel err {worst:.2e}, {elapsed:.1f} s",
    )


def test_criterion_4_normalization_constant_residual(sweep_models):
    problems = []
    worst = 0.0
    for model in sweep_models:
        check = duality_check(model, tol=1e-9)
        worst = max(worst, abs(check.residual))
        if abs(check.residual) > 1e-9:
            problems.append(
                f"k={model.k} L={model.L}: residual {check.residual!r}"
            )
    _report(4, problems, f"200 models, worst |residual| {worst:.2e}")


def test_criterion_5_tree_elimination_vs_dense():
    problems = []
    rng = np.random.default_rng(555)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 201))
        g = random_forest_spd(n, rng)
        expected = logdet_dense(g).logdet
        got = logdet_tree_bp(g).logdet
        err = abs(got - expected) / max(1.0, abs(expected))
        worst = max(worst, err)
        if err > 1e-10:
            problems.append(f"n={n}: tree={got!r} dense={expected!r}")

    triangle = SparseSymMatrix(
        3, np.full(3, 3.0), [0, 0, 1], [1, 2, 2], np.ones(3)
    )
    try:
        logdet_tree_bp(triangle)
        problems.append("triangle input did not raise NotAForest")
    except NotAForest:
        pass
    _report(5, problems, f"200 forests, worst rel err {worst:.2e}")


def test_criterion_6_block_recursion_vs_dense():
    problems = []
    worst = 0.0
    for i in range(50):
        model = generate(
            GenSpec(
                k=1 + i % 5,
                L=1 + (i * 11) % 50,
                seed=60_000 + i,
                structure="random_tree" if i % 2 else "star_pattern",
            )
        )
        j = assemble_global_precision(model)
        diag_blocks, off_blocks = block_partition(j, model.k)
        schur = logdet_block_tridiagonal(list(diag_blocks), list(off_blocks))
        dense = logdet_dense(j)
        err = abs(schur.logdet - dense.logdet) / max(1.0, abs(dense.logdet))
        worst = max(worst, err)
        if err > 1e-9:
            problems.append(f"k={model.k} L={model.L}: err {err:.2e}")
    _report(6, problems, f"50 assembled matrices, worst rel err {worst:.2e}")


def test_criterion_7_closed_forms():
    problems = []
    for k, L in [(1, 1), (2, 3), (3, 7), (4, 10)]:
        model = LadderModel(k, L, [np.eye(2 * k)] * L)
        expected = -(L - 1) * k * math.log(2.0)
        got = logdet_sigma_via_duality(model)
        if abs(got - expected) > 1e-12:
            problems.append(f"identity k={k} L={L}: {got!r} vs {expected!r}")

    for seed in range(5):
        model = generate(GenSpec(k=2 + seed, L=1, seed=seed))
        got = logdet_sigma_via_duality(model)
        expected = float(local_logdets(model)[0])
        if abs(got - expected) > 1e-12:
            problems.append(f"L=1 seed={seed}: {got!r} vs {expected!r}")
    _report(7, problems, "identity-block grid and L=1 degeneracy")


def test_criterion_8_benchmark_scaling(tmp_path, monkeypatch):
    problems = []
    monkeypatch.delenv("GAUSSDUAL_DENSE_CAP", raising=False)
    out = tmp_path / "bench.csv"
    t0 = time.perf_counter()
    code = cli_main(
        [
            "bench",
            "--k", "4",
            "--l-schedule", "25000,50000,100000",
            "--structure", "star_pattern",
            "--methods", "duality-bp,direct-dense",
            "--seed", "80",
            "--repeats", "3",
            "--csv", str(out),
        ]
    )
    elapsed = time.perf_counter() - t0
    if code != 0:
        problems.append(f"bench exited {code}")

    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))

    bp = [r for r in rows if r["method"] == "duality-bp"]
    walls = []
    if len(bp) != 3:
        problems.append(f"expected 3 duality-bp rows, got {len(bp)}")
    for row in bp:
        if row["error"] or not row["logdet"]:
            problems.append(f"L={row['L']} duality-bp incomplete: {row['error']}")
        else:
            walls.append(float(row["wall_ms"]))
    ratios = [b / a for a, b in zip(walls, walls[1:])]
    for ratio in ratios:
        if ratio > 2.5:
            problems.append(f"wall grew {ratio:.2f}x per doubling, bound 2.5x")

    dense_rows = [r for r in rows if r["method"] == "direct-dense"]
    for row in dense_rows:
        if not row["error"].startswith("skipped"):
            problems.append(f"direct-dense at L={row['L']} was not skipped")

    if elapsed >= 120.0:
        problems.append(f"bench took {elapsed:.0f} s, budget 120 s")

    detail = (
        f"walls {['%.0f' % w for w in walls]} ms, "
        f"ratios {['%.2f' % r for r in ratios]}, {elapsed:.1f} s total"
    )
    _report(8, problems, detail)


def test_criterion_9_scale_covariance():
    problems = []
    model = generate(GenSpec(k=3, L=14, seed=90, structure="random_tree"))
    base = logdet_sigma_via_duality(model)
    for c in (0.5, 3.0):
        scaled = LadderModel(model.k, model.L, c * model.sigma_blocks)
        got = logdet_sigma_via_duality(scaled) - base
        expected = model.N * math.log(c)
        if abs(got - expected) > 1e-9 * max(1.0, abs(expected)):
            problems.append(f"c={c}: shift {got!r}, expected {expected!r}")
    _report(9, problems, "shifts by N*log(c) for c in {0.5, 3}")
