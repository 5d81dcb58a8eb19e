import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from gaussdual import load_model, validate
from gaussdual.cli import main
from helpers import EXAMPLES_DIR, LADDER1_BLOCK, margin_models

EXAMPLE1 = str(EXAMPLES_DIR / "example1.json")
EXAMPLE2 = str(EXAMPLES_DIR / "example2.json")


def write_model(path, blocks, k, metadata=None):
    doc = {
        "format_version": "1",
        "k": k,
        "L": len(blocks),
        "blocks": [{"covariance": np.asarray(b).tolist()} for b in blocks],
    }
    if metadata:
        doc["metadata"] = metadata
    path.write_text(json.dumps(doc))
    return str(path)


class TestValidateCommand:
    def test_example1_passes(self, capsys):
        assert main(["validate", EXAMPLE1]) == 0
        out = capsys.readouterr().out
        assert "assumption1_ok: True" in out
        assert "assumption3_union_acyclic: True" in out

    def test_dense_model_fails_assumption3(self, tmp_path, capsys):
        dense = np.ones((4, 4)) * 0.3 + 4.0 * np.eye(4)
        path = write_model(tmp_path / "dense.json", [dense, dense], k=2)
        assert main(["validate", path]) == 1
        assert "assumption3_blocks_acyclic: False" in capsys.readouterr().out

    def test_wrong_dimension_is_parse_error(self, tmp_path, capsys):
        path = write_model(tmp_path / "bad.json", [np.eye(3)], k=2)
        assert main(["validate", path]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["validate", "/no/such/file.json"]) == 2

    def test_nan_zero_tol_is_usage_error(self, capsys):
        assert main(["validate", EXAMPLE1, "--zero-tol", "nan"]) == 2
        assert "zero_tol must be >= 0" in capsys.readouterr().err

    def test_json_flag(self, capsys):
        assert main(["validate", EXAMPLE1, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["assumption1_ok"] is True
        assert doc["messages"] == []


class TestLogdetCommand:
    def test_duality_bp_value(self, capsys):
        assert main(["logdet", EXAMPLE1, "--method", "duality-bp"]) == 0
        out = capsys.readouterr().out
        assert "0.9765625" in out

    def test_methods_agree(self, capsys):
        values = {}
        for method in ("duality-bp", "duality-dense", "direct-dense", "direct-blocktri"):
            assert main(["logdet", EXAMPLE1, "--method", method, "--json"]) == 0
            doc = json.loads(capsys.readouterr().out)
            values[method] = doc["logdet"]
            assert doc["n"] == 8
        spread = max(values.values()) - min(values.values())
        assert spread < 1e-12

    def test_identity_blocks(self, tmp_path, capsys):
        path = write_model(tmp_path / "eye.json", [np.eye(4)] * 5, k=2)
        assert main(["logdet", path, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["logdet"] == pytest.approx(-8.0 * math.log(2.0), abs=1e-12)

    def test_small_dominance_margin_exits_0(self, tmp_path, capsys):
        # At a 1e-8 diagonal-dominance margin, the direct route once raised
        # a symmetry error on its own round-off and exited 2.
        for i, model in enumerate(margin_models()):
            path = write_model(tmp_path / f"m{i}.json", model.sigma_blocks, k=3)
            assert main(["logdet", path, "--method", "direct-blocktri"]) == 0

    @pytest.mark.parametrize("method", ["direct-dense", "duality-dense"])
    def test_dense_methods_respect_cap(self, tmp_path, capsys, monkeypatch, method):
        monkeypatch.setenv("GAUSSDUAL_DENSE_CAP", "30")
        path = write_model(tmp_path / "big.json", [LADDER1_BLOCK] * 20, k=2)
        assert main(["logdet", path, "--method", method]) == 2
        assert "exceeds dense cap 30" in capsys.readouterr().err
        assert main(["logdet", path, "--method", "direct-blocktri"]) == 0

    def test_indefinite_model_exits_1(self, tmp_path, capsys):
        bad = np.eye(4)
        bad[0, 1] = bad[1, 0] = 2.0
        path = write_model(tmp_path / "bad.json", [bad], k=2)
        assert main(["logdet", path]) == 1


def _deep_json(path):
    path.write_text("[" * 100_000 + "]" * 100_000)


def _with_top_level(path, **extra):
    doc = {"format_version": "1", "k": 2, "L": 1}
    doc["blocks"] = [{"covariance": LADDER1_BLOCK.tolist()}]
    doc.update(extra)
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize(
    "make",
    [
        lambda p: p.mkdir(),
        _deep_json,
        lambda p: _with_top_level(
            p, k=True, blocks=[{"covariance": [[2.0, 1.0], [1.0, 2.0]]}]
        ),
        lambda p: _with_top_level(
            p, blocks=[{"covariance": [[str(v) for v in row] for row in LADDER1_BLOCK]}]
        ),
        lambda p: _with_top_level(p, comment="not in the schema"),
        lambda p: _with_top_level(
            p,
            blocks=[{"covariance": LADDER1_BLOCK.tolist(), "precison": [[1]]}],
        ),
        lambda p: _with_top_level(
            p, k=1, blocks=[{"covariance": [[2.0, True], [True, 2.0]]}]
        ),
        lambda p: _with_top_level(
            p, k=1, blocks=[{"covariance": [[10**400, 1.0], [1.0, 10**400]]}]
        ),
        lambda p: _with_top_level(
            p, k=1, blocks=[{"covariance": [[10**30, "1"], ["1", 10**30]]}]
        ),
        lambda p: p.write_text('{"format_version": "1", "k": ' + "9" * 5000 + "}"),
    ],
    ids=[
        "directory",
        "deep-nesting",
        "bool-k",
        "numeric-strings",
        "unknown-key",
        "unknown-block-key",
        "bool-entry",
        "integer-past-float-range",
        "wide-integer-and-string",
        "integer-past-digit-limit",
    ],
)
def test_malformed_input_exits_2_without_traceback(tmp_path, capsys, make):
    path = tmp_path / "model.json"
    make(path)
    assert main(["logdet", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert err.count("\n") == 1


def _indefinite(b):
    b[0, 1] = b[1, 0] = 3.0


def _asymmetric(b):
    b[0, 1] = 9.0


@pytest.mark.parametrize(
    "kind,spoil,code,named",
    [
        ("precision", _indefinite, 1, "precision block 3 "),
        ("precision", _asymmetric, 2, "precision block 3 "),
        ("covariance", _indefinite, 1, "covariance block 3 "),
    ],
    ids=["indefinite-precision", "asymmetric-precision", "indefinite-covariance"],
)
def test_bad_block_3_is_named(tmp_path, capsys, kind, spoil, code, named):
    # The dual route factors the blocks before it eliminates the dual, so
    # a bad covariance block is named, not a pivot of the dual.
    blocks = [{"covariance": LADDER1_BLOCK.tolist()} for _ in range(5)]
    bad = LADDER1_BLOCK.copy()
    spoil(bad)
    blocks[3] = {kind: bad.tolist()}
    path = tmp_path / "model.json"
    path.write_text(
        json.dumps({"format_version": "1", "k": 2, "L": 5, "blocks": blocks})
    )
    assert main(["logdet", str(path), "--method", "duality-bp"]) == code
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named}")
    assert "Traceback" not in err


class TestVerifyDefaultRoute:
    def test_verify_never_densifies(self, tmp_path, capsys, monkeypatch):
        # Both of verify's routes are banded or tree elimination; neither
        # may reach the N×N dense oracle.
        import gaussdual.engine

        def refuse(m):
            raise AssertionError("dense elimination reached")

        monkeypatch.setattr(gaussdual.engine, "logdet_dense", refuse)
        path = write_model(tmp_path / "big.json", [LADDER1_BLOCK] * 20, k=2)
        assert main(["verify", path]) == 0
        assert capsys.readouterr().out.startswith("PASS")


class TestDualizeCommand:
    def test_example1_golden(self, tmp_path):
        out = tmp_path / "dual.json"
        assert main(["dualize", EXAMPLE1, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["n_dual"] == 4
        assert doc["dual_precision"]["diag"] == [4.0, 4.0, 4.0, 4.0]
        assert doc["dual_precision"]["edges"] == [
            [0, 1, 2.0],
            [0, 2, -1.0],
            [2, 3, 2.0],
        ]

    def test_example2_golden(self, capsys):
        assert main(["dualize", EXAMPLE2]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dual_precision"]["diag"] == [7.0, 5.0, 4.0]
        assert doc["dual_precision"]["edges"] == [[0, 1, 2.0]]

    def test_single_block_empty_dual(self, tmp_path, capsys):
        path = write_model(tmp_path / "one.json", [LADDER1_BLOCK], k=2)
        assert main(["dualize", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_dual"] == 0
        assert doc["dual_precision"]["edges"] == []


class TestVerifyAndZ:
    def test_verify_examples(self, capsys):
        assert main(["verify", EXAMPLE1]) == 0
        assert capsys.readouterr().out.startswith("PASS")
        assert main(["verify", EXAMPLE2, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert abs(doc["residual"]) < 1e-12

    def test_verify_impossible_tolerance(self, capsys):
        assert main(["verify", EXAMPLE1, "--tol", "0"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("FAIL")
        assert "note:" in out

    @pytest.mark.parametrize("tol", ["-1", "nan"])
    def test_verify_bad_tolerance_is_usage_error(self, capsys, tol):
        assert main(["verify", EXAMPLE1, "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert "tol must be >= 0" in captured.err
        assert captured.out == ""

    def test_z_json(self, capsys):
        assert main(["z", EXAMPLE1, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        expected = 6.0 * math.log(2.0 * math.pi) - 0.5 * math.log(128.0)
        assert doc["log_zprime"] == pytest.approx(expected, rel=1e-13)
        assert len(doc["log_zl"]) == 3
        assert doc["log_z"] == pytest.approx(
            doc["log_zf"] - sum(doc["log_zl"]), abs=1e-12
        )


def _text_lines(doc):
    """The text rendering of a report's JSON document, line by line."""
    for key, value in doc.items():
        if key == "messages":
            yield from (f"note: {msg}" for msg in value)
        elif isinstance(value, list) and len(value) > 12:
            head = ", ".join(repr(v) for v in value[:3])
            yield f"{key}: [{head}, ...] ({len(value)} entries)"
        else:
            yield f"{key}: {value}"


@pytest.mark.parametrize("command", ["validate", "z"])
@pytest.mark.parametrize("source", ["example1", "long", "dense"])
def test_text_output_renders_the_json(tmp_path, capsys, command, source):
    # One line per field of the --json document, in field order; a list
    # of more than 12 entries is abbreviated and messages become notes.
    if source == "example1":
        path = EXAMPLE1
    elif source == "long":
        path = str(tmp_path / "long.json")
        assert main(["gen", "--k", "2", "--l", "40", "--seed", "3", "--out", path]) == 0
    else:
        dense = np.ones((4, 4)) * 0.3 + 4.0 * np.eye(4)
        path = write_model(tmp_path / "dense.json", [dense] * 3, k=2)
    code = main([command, path])
    text = capsys.readouterr().out
    assert main([command, path, "--json"]) == code
    doc = json.loads(capsys.readouterr().out)
    assert text.splitlines() == list(_text_lines(doc))
    if source == "long" and command == "z":
        assert "(40 entries)" in text
    if source == "dense" and command == "validate":
        assert code == 1 and "\nnote: " in text


class TestGenCommand:
    def test_gen_validate_verify(self, tmp_path, capsys):
        out = tmp_path / "gen.json"
        args = [
            "gen", "--k", "3", "--l", "6", "--seed", "5",
            "--structure", "random_tree", "--out", str(out),
        ]
        assert main(args) == 0
        assert main(["validate", str(out)]) == 0
        assert main(["verify", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["metadata"]["seed"] == 5

    def test_gen_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            main(["gen", "--k", "2", "--l", "4", "--seed", "9", "--out", str(out)])
        assert a.read_text() == b.read_text()

    def test_gen_stdout(self, capsys):
        assert main(["gen", "--k", "1", "--l", "2", "--seed", "0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["k"] == 1 and doc["L"] == 2

    def test_gen_stdout_matches_out_file(self, tmp_path, capsys):
        # At k = 4 the writer formats 2048 blocks at a time: L = 4099 ends
        # in a third, short chunk.
        for k, L in [("3", "5"), ("4", "4099")]:
            args = ["gen", "--k", k, "--l", L, "--seed", "4", "--name", "same"]
            out = tmp_path / "gen.json"
            assert main(args + ["--out", str(out)]) == 0
            capsys.readouterr()
            assert main(args) == 0
            assert capsys.readouterr().out.encode() == out.read_bytes()

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_gen_large_weights_verify_or_exit_2(self, tmp_path, capsys, k):
        # The diagonal margin grows with the weights, and the pivot floor
        # is relative to each matrix, so every model that gen writes below
        # overflow passes assumption 1 and both routes agree on it.
        refused = 0
        for hi in [10.0**e for e in range(3, 301, 9)]:
            for structure in ["star_pattern", "random_tree"]:
                out = tmp_path / f"{structure}-{hi:g}.json"
                args = [
                    "gen", "--k", str(k), "--l", "3", "--seed", "1",
                    "--structure", structure,
                    "--weight-range", repr(hi / 2), repr(hi), "--out", str(out),
                ]
                code = main(args)
                if code == 2:
                    refused += 1
                    assert not out.exists()
                    assert capsys.readouterr().err.startswith("error: weight_range")
                    continue
                assert code == 0
                assert validate(load_model(out)[0]).assumption1_ok
                assert main(["verify", str(out)]) == 0
        capsys.readouterr()
        assert refused == 0

    @pytest.mark.parametrize("k", [1, 2, 5])
    @pytest.mark.parametrize("lo,hi", [("1e15", "2e15"), ("5e306", "1e307")])
    def test_gen_wide_weight_range_verifies(self, tmp_path, capsys, k, lo, hi):
        # At 1e15, J's pivots fall under any floor with an absolute part;
        # 1e307 is the last decade whose diagonals stay finite.
        out = tmp_path / "model.json"
        args = ["gen", "--k", str(k), "--l", "3", "--weight-range", lo, hi]
        assert main(args + ["--out", str(out)]) == 0
        assert main(["verify", str(out)]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize(
        "lo,hi",
        [
            ("0", "1"),
            ("0.2", "inf"),
            ("inf", "inf"),
            ("1e308", "1.7e308"),
            ("5e307", "1e308"),  # finite weights, but a diagonal overflows
        ],
    )
    def test_gen_bad_weight_range(self, capsys, lo, hi):
        args = ["gen", "--k", "2", "--l", "3", "--weight-range", lo, hi]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: weight_range")
        assert "Traceback" not in err
        assert err.count("\n") == 1

    def test_gen_negative_seed_exits_2(self, tmp_path, capsys):
        out = tmp_path / "model.json"
        args = ["gen", "--k", "2", "--l", "3", "--seed", "-1", "--out", str(out)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: seed must be a non-negative integer")
        assert err.count("\n") == 1
        assert not out.exists()


class TestBenchCommand:
    def read_rows(self, path):
        with open(path, newline="") as fh:
            return list(csv.reader(fh))

    def test_csv_shape_and_agreement(self, tmp_path):
        out = tmp_path / "bench.csv"
        args = [
            "bench", "--k", "2", "--l-schedule", "5,20",
            "--methods", "duality-bp,direct-dense,direct-blocktri",
            "--seed", "1", "--repeats", "1", "--csv", str(out),
        ]
        assert main(args) == 0
        rows = self.read_rows(out)
        assert rows[0] == ["k", "L", "N", "method", "logdet", "wall_ms", "seed", "error"]
        assert len(rows) == 1 + 2 * 3
        by_l = {}
        for row in rows[1:]:
            assert row[7] == ""
            by_l.setdefault(row[1], []).append(float(row[4]))
        for values in by_l.values():
            assert max(values) - min(values) <= 1e-8 * max(1.0, abs(values[0]))

    def test_dense_cap_skips(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GAUSSDUAL_DENSE_CAP", "30")
        out = tmp_path / "bench.csv"
        args = [
            "bench", "--k", "2", "--l-schedule", "5,40",
            "--methods", "duality-bp,direct-dense",
            "--repeats", "1", "--csv", str(out),
        ]
        assert main(args) == 0
        rows = self.read_rows(out)
        skipped = [r for r in rows[1:] if r[7]]
        assert len(skipped) == 1
        assert skipped[0][3] == "direct-dense"
        assert skipped[0][1] == "40"
        assert "exceeds dense cap 30" in skipped[0][7]
        assert skipped[0][4] == ""

    def test_seed_column_tracks_rows(self, tmp_path):
        out = tmp_path / "bench.csv"
        args = [
            "bench", "--k", "1", "--l-schedule", "2,3,4",
            "--methods", "duality-bp", "--seed", "10",
            "--repeats", "1", "--csv", str(out),
        ]
        assert main(args) == 0
        rows = self.read_rows(out)
        assert [r[6] for r in rows[1:]] == ["10", "11", "12"]

    def test_unknown_method_is_usage_error(self, capsys):
        args = ["bench", "--k", "2", "--l-schedule", "5", "--methods", "magic"]
        assert main(args) == 2


class TestModuleEntryPoint:
    """``python -m gaussdual`` runs the same command line as `main`."""

    def run(self, *args):
        src = str(EXAMPLES_DIR.parent / "src")
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, path]))}
        return subprocess.run(
            [sys.executable, "-m", "gaussdual", *args],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )

    def test_help_exits_0(self):
        done = self.run("--help")
        assert done.returncode == 0
        assert done.stdout.startswith("usage: gaussdual")

    def test_logdet_matches_main(self, capsys):
        done = self.run("logdet", EXAMPLE1, "--json")
        assert done.returncode == 0
        assert main(["logdet", EXAMPLE1, "--json"]) == 0
        expected = json.loads(capsys.readouterr().out)["logdet"]
        assert json.loads(done.stdout)["logdet"] == expected
