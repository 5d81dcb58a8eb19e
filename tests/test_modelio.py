import io
import json
import math
import warnings

import numpy as np
import pytest

from gaussdual import (
    DimensionMismatch,
    GenSpec,
    LadderModel,
    ModelFormatError,
    build_dual,
    generate,
    load_model,
    logdet_sigma_via_duality,
    save_model,
    spd_inverse,
)
from gaussdual.modelio import dual_to_dict, model_from_dict, write_model
from helpers import EXAMPLES_DIR, LADDER1_BLOCK, edge_list, ladder1_model


def doc_for(blocks, k=2, L=None, version="1"):
    return {
        "format_version": version,
        "k": k,
        "L": len(blocks) if L is None else L,
        "blocks": blocks,
    }


class TestLoad:
    def test_example_files_load(self):
        m1, meta1 = load_model(EXAMPLES_DIR / "example1.json")
        assert (m1.k, m1.L) == (2, 3)
        assert meta1["name"] == "ladder-k2-L3"
        assert np.array_equal(m1.sigma_blocks[0], LADDER1_BLOCK)

        m2, _ = load_model(EXAMPLES_DIR / "example2.json")
        assert (m2.k, m2.L) == (3, 2)

    def test_precision_input_inverted_at_load(self):
        prec = spd_inverse(LADDER1_BLOCK)
        doc = doc_for([{"precision": prec.tolist()}], k=2)
        model, _ = model_from_dict(doc)
        assert np.allclose(model.sigma_blocks[0], LADDER1_BLOCK, atol=1e-12)

    def test_precision_and_covariance_logdets_agree(self):
        cov_doc = doc_for([{"covariance": LADDER1_BLOCK.tolist()}] * 3)
        prec = spd_inverse(LADDER1_BLOCK)
        prec_doc = doc_for([{"precision": prec.tolist()}] * 3)
        a = logdet_sigma_via_duality(model_from_dict(cov_doc)[0])
        # Inverting at load fills structural zeros with round-off, so
        # the dual is no longer an exact tree. The banded kernel does not
        # depend on the dual's graph: same kernel, same answer, no warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            b = logdet_sigma_via_duality(model_from_dict(prec_doc)[0])
        assert a == pytest.approx(b, rel=1e-9, abs=1e-9)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ModelFormatError, match="invalid JSON"):
            load_model(path)

    @pytest.mark.parametrize(
        "mutate,error",
        [
            (lambda d: d.update(format_version="9"), "format_version"),
            (lambda d: d.update(k="two"), "k must be"),
            (lambda d: d.update(k=0), "k must be"),
            (lambda d: d.update(L=5), "expected 5 blocks"),
            (lambda d: d.update(blocks="nope"), "blocks must be a list"),
            (lambda d: d.update(metadata=[1]), "metadata"),
        ],
    )
    def test_schema_errors(self, mutate, error):
        doc = doc_for([{"covariance": LADDER1_BLOCK.tolist()}])
        mutate(doc)
        with pytest.raises(ModelFormatError, match=error):
            model_from_dict(doc)

    def test_block_with_both_kinds(self):
        doc = doc_for(
            [
                {
                    "covariance": LADDER1_BLOCK.tolist(),
                    "precision": LADDER1_BLOCK.tolist(),
                }
            ]
        )
        with pytest.raises(ModelFormatError, match="exactly one"):
            model_from_dict(doc)

    def test_block_with_neither_kind(self):
        doc = doc_for([{"weights": []}])
        with pytest.raises(ModelFormatError, match="exactly one"):
            model_from_dict(doc)

    def test_wrong_block_dimension(self):
        doc = doc_for([{"covariance": np.eye(3).tolist()}], k=2)
        with pytest.raises(DimensionMismatch):
            model_from_dict(doc)

    def test_non_numeric_block(self):
        doc = doc_for([{"covariance": [["a"] * 4] * 4}], k=2)
        with pytest.raises(ModelFormatError, match="numeric"):
            model_from_dict(doc)

    def test_non_finite_block(self):
        bad = LADDER1_BLOCK.tolist()
        bad[0][0] = float("inf")
        doc = doc_for([{"covariance": bad}], k=2)
        with pytest.raises(ModelFormatError, match="non-finite"):
            model_from_dict(doc)


def corrupt_block_3(mutate):
    """Text of a valid five-block k=2 file whose block 3 ``mutate`` spoils."""
    blocks = [LADDER1_BLOCK.tolist() for _ in range(5)]
    mutate(blocks[3])
    return json.dumps(doc_for([{"covariance": b} for b in blocks]))


class TestLoadErrorsNameTheBlock:
    @pytest.mark.parametrize(
        "mutate,error",
        [
            (lambda b: b.append([0.0] * 4), DimensionMismatch),  # 5 x 4
            (lambda b: b[1].pop(), ModelFormatError),  # ragged rows
            (lambda b: b[2].__setitem__(2, "2.0"), ModelFormatError),
            (lambda b: b[0].__setitem__(1, float("nan")), ModelFormatError),
        ],
        ids=["wrong-shape", "ragged-rows", "string-entry", "nan"],
    )
    def test_corrupt_block_3(self, tmp_path, mutate, error):
        path = tmp_path / "model.json"
        path.write_text(corrupt_block_3(mutate))
        with pytest.raises(error, match="block 3"):
            load_model(path)

    def test_mixed_kinds_load_as_before(self, tmp_path):
        model = generate(GenSpec(k=2, L=5, seed=3, structure="random_tree"))
        entries, expected = [], []
        for ell, b in enumerate(model.sigma_blocks):
            if ell % 2:
                prec = spd_inverse(b)
                entries.append({"precision": prec.tolist()})
                expected.append(spd_inverse(prec))
            else:
                entries.append({"covariance": b.tolist()})
                expected.append(b)
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(doc_for(entries)))
        loaded, _ = load_model(path)
        want = LadderModel(2, 5, expected).sigma_blocks
        assert np.array_equal(loaded.sigma_blocks, want)


class TestRoundTrip:
    def test_model_round_trip_is_exact(self, tmp_path):
        model = generate(GenSpec(k=3, L=5, seed=123, structure="random_tree"))
        path = tmp_path / "model.json"
        save_model(path, model, metadata={"name": "rt", "seed": 123})
        again, meta = load_model(path)
        assert np.array_equal(again.sigma_blocks, model.sigma_blocks)
        assert meta == {"name": "rt", "seed": 123}

        path2 = tmp_path / "model2.json"
        save_model(path2, again, metadata=meta)
        assert json.loads(path.read_text()) == json.loads(path2.read_text())

    def test_one_line_per_block(self, tmp_path):
        model = generate(GenSpec(k=2, L=6, seed=1))
        path = tmp_path / "model.json"
        save_model(path, model, metadata={"name": "lines"})
        lines = path.read_text().splitlines()
        block_lines = [line for line in lines if '"covariance"' in line]
        assert len(block_lines) == 6
        for line, b in zip(block_lines, model.sigma_blocks):
            assert json.loads(line.strip().rstrip(","))["covariance"] == b.tolist()

    def test_old_layout_examples_resave_to_same_model(self, tmp_path):
        for name in ("example1.json", "example2.json"):
            old_layout = EXAMPLES_DIR / name
            model, meta = load_model(old_layout)
            path = tmp_path / name
            save_model(path, model, meta)
            assert path.stat().st_size < old_layout.stat().st_size
            again, meta_again = load_model(path)
            assert np.array_equal(again.sigma_blocks, model.sigma_blocks)
            assert meta_again == meta

    def test_dict_round_trip(self):
        model = ladder1_model()
        text = io.StringIO()
        write_model(text, model, metadata={"name": "x"})
        again, meta = model_from_dict(json.loads(text.getvalue()))
        assert np.array_equal(again.sigma_blocks, model.sigma_blocks)
        assert meta == {"name": "x"}


class TestDualDump:
    def test_dump_matches_dual(self):
        model = generate(GenSpec(k=2, L=7, seed=8))
        dual = build_dual(model)
        doc = json.loads(json.dumps(dual_to_dict(dual)))
        g = dual.dual_precision
        assert doc["n_dual"] == dual.n_dual
        assert doc["pinned"] == dual.pinned.tolist()
        assert doc["variable_map"] == dual.variable_map.tolist()
        assert doc["dual_precision"]["diag"] == g.diag.tolist()
        assert doc["dual_precision"]["edges"] == [
            list(e) for e in edge_list(g.to_dense())
        ]

    def test_empty_dual(self):
        model = generate(GenSpec(k=2, L=1, seed=8))
        dual = build_dual(model)
        doc = dual_to_dict(dual)
        assert doc["n_dual"] == 0
        assert doc["dual_precision"]["diag"] == []
        assert doc["dual_precision"]["edges"] == []

    def test_known_dual_content(self):
        doc = dual_to_dict(build_dual(ladder1_model()))
        assert doc["dual_precision"]["diag"] == [4.0, 4.0, 4.0, 4.0]
        assert doc["dual_precision"]["edges"] == [
            [0, 1, 2.0],
            [0, 2, -1.0],
            [2, 3, 2.0],
        ]
        assert doc["pinned"] == [0, 1, 6, 7]


def test_log_constant_preserved():
    model = generate(GenSpec(k=3, L=4, seed=2))
    dual = build_dual(model)
    assert dual.log_boundary_constant == pytest.approx(
        6.0 * math.log(2.0 * math.pi), rel=1e-15
    )
