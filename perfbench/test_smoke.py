"""Smoke test of the benchmark's own code, at toy sizes.

    python3 -m pytest -q perfbench/test_smoke.py

It is not part of the package's test suite (pytest's testpaths names only
tests/), so benchmark code can never turn that suite red.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402

WORK = ROOT / ".perfbench"


def _declared(kind):
    with open(ROOT / "BENCHMARK.json") as fh:
        doc = json.load(fh)
    return {m["name"]: m["unit"] for m in doc[kind]}


def _run(workload, trace):
    return bench.run_workload(
        workload, 7, 0, trace, str(WORK / f"smoke-{os.getpid()}"), toy=True
    )


def test_declared_workloads_match_the_code():
    with open(ROOT / "BENCHMARK.json") as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    assert names == list(bench.WORKLOADS)


@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = _run(workload, trace)
    declared = _declared("per_layer" if trace else "end_to_end")
    emitted = result.as_json()
    assert emitted["correct"] and emitted["failed"] == 0
    assert emitted["attempted"] >= len(bench.UNTRACED_OPS)
    assert {n: m["unit"] for n, m in emitted["metrics"].items()} == declared
    for name, metric in emitted["metrics"].items():
        assert isinstance(metric["value"], float), name
    if not trace:
        assert all(m["value"] > 0 for m in emitted["metrics"].values())


@pytest.mark.parametrize("trace", [False, True])
def test_a_corrupted_result_counts_as_failed(monkeypatch, trace):
    real = bench.logdet_sigma_via_duality
    monkeypatch.setattr(
        bench, "logdet_sigma_via_duality", lambda model: real(model) + 1e-6
    )
    result = _run("long_ladder", trace)
    assert result.failed_frac > 0
    assert result.as_json()["correct"] is False


@pytest.mark.parametrize("trace", [False, True])
def test_a_cli_call_with_a_wrong_exit_code_counts_as_failed(monkeypatch, trace):
    # logdet exits 1; gen exits 1 and writes no file, so reading it raises.
    monkeypatch.setattr(bench, "_call_cli", lambda argv: (1, '{"logdet": 0.0}'))
    result = _run("many_small", trace)
    assert result.failed == result.attempted * 2 // len(bench.UNTRACED_OPS)


def test_without_the_package_it_fails_and_prints_no_result():
    bare = WORK / f"bare-{os.getpid()}"
    try:
        skip = shutil.ignore_patterns("__pycache__")
        shutil.copytree(HERE, bare / HERE.name, ignore=skip)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "long_ladder",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": ""},
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
