import gc
import io
import json
import math
import os
import tracemalloc
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
from gaussdual.rake import _chunks
from helpers import (
    EXAMPLES_DIR,
    LADDER1_BLOCK,
    edge_list,
    ladder1_model,
    write_model_reference,
)


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

    def test_undecodable_file_names_the_path(self, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{\x00}\x00")
        with pytest.raises(ModelFormatError, match="utf16.json: not UTF-8 text"):
            load_model(path)

    def test_null_metadata_is_absent(self):
        doc = doc_for([{"covariance": LADDER1_BLOCK.tolist()}])
        doc["metadata"] = None
        assert model_from_dict(doc)[1] == {}

    @pytest.mark.parametrize(
        "mutate,error",
        [
            (lambda d: d.update(format_version="9"), "format_version"),
            (lambda d: d.update(k="two"), "k must be"),
            (lambda d: d.update(k=0), "k must be"),
            (lambda d: d.update(L=5), "expected 5 blocks"),
            (lambda d: d.update(blocks="nope"), "blocks must be a list"),
            (lambda d: d.update(metadata=[1]), "metadata"),
            # Falsy values that are not objects are rejected too.
            (lambda d: d.update(metadata=[]), "metadata must be an object"),
            (lambda d: d.update(metadata=0), "metadata must be an object"),
            (lambda d: d.update(metadata=False), "metadata must be an object"),
            (lambda d: d.update(metadata=""), "metadata must be an object"),
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
            (lambda b: b[2].__setitem__(3, True), ModelFormatError),
            (lambda b: b[1].__setitem__(0, False), ModelFormatError),
        ],
        ids=[
            "wrong-shape",
            "ragged-rows",
            "string-entry",
            "nan",
            "true-entry",
            "false-entry",
        ],
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


class TestBooleanEntries:
    """JSON booleans are not numbers, even among numbers in one matrix."""

    MIXED = [[2.0, True], [True, 2.0]]

    def test_mixed_matrix_in_dict_is_rejected(self):
        blocks = [{"covariance": [[2.0, 1.0], [1.0, 2.0]]}] * 3
        doc = doc_for(blocks + [{"covariance": self.MIXED}], k=1)
        with pytest.raises(
            ModelFormatError, match="block 3 covariance is not a numeric matrix"
        ):
            model_from_dict(doc)

    @pytest.mark.parametrize("flag", [True, False])
    def test_mixed_precision_block_is_rejected(self, tmp_path, flag):
        path = tmp_path / "model.json"
        mixed = [[2.0, flag], [flag, 2.0]]
        path.write_text(json.dumps(doc_for([{"precision": mixed}], k=1)))
        with pytest.raises(
            ModelFormatError, match="block 0 precision is not a numeric matrix"
        ):
            load_model(path)

    def test_false_without_format_version_is_rejected(self, tmp_path):
        # The file's one "f" is in its "false".
        doc = doc_for([{"covariance": [[2.0, False], [False, 2.0]]}], k=1)
        del doc["format_version"]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="format_version"):
            load_model(path)

    def test_all_boolean_matrix_is_rejected(self):
        doc = doc_for([{"covariance": [[True, False], [False, True]]}], k=1)
        with pytest.raises(ModelFormatError, match="block 0 covariance"):
            model_from_dict(doc)

    def test_boolean_metadata_loads_as_before(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(path, ladder1_model(), {"flag": True, "other": False})
        model, meta = load_model(path)
        assert np.array_equal(model.sigma_blocks, ladder1_model().sigma_blocks)
        assert meta == {"flag": True, "other": False}


def special_stack(k, L, seed):
    """Symmetric (L, 2k, 2k) stack: entries of every scale from 1e-300 to
    1e300, and half of them ±0.0, integral floats or other values whose
    text is special."""
    rng = np.random.default_rng(seed)
    m = 2 * k
    x = rng.normal(size=(L, m, m)) * 10.0 ** rng.integers(-300, 301, (L, m, m))
    specials = [0.0, -0.0, 2.0, -3.0, 1e16, -1e16, 1e22, 0.1, 1e-5, 1e-323]
    pick = rng.random((L, m, m)) < 0.5
    x[pick] = rng.choice(specials, size=np.count_nonzero(pick))
    upper = np.triu(np.ones((m, m), dtype=bool))
    return np.where(upper, x, np.swapaxes(x, -1, -2))


def chunk_size(k):
    """Blocks per chunk that the writer formats at once."""
    return next(_chunks(np.zeros((1, 2 * k, 2 * k)))).stop


def assert_same_text(model, metadata=None):
    new, old = io.StringIO(), io.StringIO()
    write_model(new, model, metadata)
    write_model_reference(old, model, metadata)
    assert new.getvalue() == old.getvalue()


class TestWriterBytes:
    """The writer formats each block's distinct entries once, and writes
    the text that one ``json.dumps`` per block writes."""

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_special_values_at_chunk_edges(self, k, offset):
        L = chunk_size(k) + offset
        model = LadderModel(k, L, special_stack(k, L, seed=10 * k + offset))
        stack = model.sigma_blocks
        assert np.signbit(stack[stack == 0]).any()
        assert_same_text(model, {"name": "edges", "k": k})

    @pytest.mark.parametrize("L", [1, 2, 7])
    def test_short_ladders(self, L):
        assert_same_text(LadderModel(3, L, special_stack(3, L, seed=L)))

    def test_smallest_subnormal(self):
        # LadderModel halves before it adds, and half of 5e-324 rounds to
        # 0; an asymmetric pair (5e-324, 1e-323) keeps 5e-324 in both.
        blocks = special_stack(2, 3, seed=1)
        blocks[:, 0, 1], blocks[:, 1, 0] = 5e-324, 1e-323
        model = LadderModel(2, 3, blocks)
        assert (model.sigma_blocks[:, 1, 0] == 5e-324).all()
        assert_same_text(model)

    @pytest.mark.parametrize("structure", ["star_pattern", "random_tree", "diagonal"])
    def test_generated_models(self, structure):
        spec = GenSpec(k=4, L=2 * chunk_size(4) + 3, seed=2, structure=structure)
        model = generate(spec)
        assert_same_text(model, {"name": structure, "seed": 2})

    def test_examples_resave(self):
        for name in ("example1.json", "example2.json"):
            assert_same_text(*load_model(EXAMPLES_DIR / name))

    def test_memory_does_not_grow_with_L(self):
        def peak(L):
            model = generate(GenSpec(k=4, L=L, seed=3, structure="star_pattern"))
            with open(os.devnull, "w") as sink:
                tracemalloc.start()
                try:
                    write_model(sink, model)
                    return tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

        assert peak(8192) < 1.5 * peak(2048)


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


@pytest.fixture
def gc_state():
    """Yield a setter for the collector's state; restore it afterwards."""
    was_enabled = gc.isenabled()

    def set_enabled(enabled):
        (gc.enable if enabled else gc.disable)()

    yield set_enabled
    set_enabled(was_enabled)


class TestCollectorPause:
    """Loading and saving pause the cyclic collector and restore its state."""

    @pytest.fixture(scope="class")
    def big_model(self):
        return generate(GenSpec(k=3, L=2000, seed=1))

    def collections_during(self, call):
        runs = []

        def count(phase, info):
            if phase == "start":
                runs.append(info["generation"])

        # Start from an empty young generation, so that the few objects
        # the call keeps cannot tip it over its threshold.
        gc.collect()
        gc.callbacks.append(count)
        try:
            call()
        finally:
            gc.callbacks.remove(count)
        return runs

    def test_no_collection_during_save_or_load(self, tmp_path, big_model, gc_state):
        gc_state(True)
        path = tmp_path / "big.json"
        assert self.collections_during(lambda: save_model(path, big_model)) == []
        assert self.collections_during(lambda: load_model(path)) == []

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_restored(self, tmp_path, gc_state, enabled):
        path = tmp_path / "m.json"
        gc_state(enabled)
        with open(path, "w") as fh:
            write_model(fh, ladder1_model())
        assert gc.isenabled() is enabled
        load_model(path)
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize(
        "text",
        ["{not json", corrupt_block_3(lambda b: b[1].pop())],
        ids=["invalid-json", "malformed-block"],
    )
    def test_state_restored_on_error(self, tmp_path, gc_state, enabled, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        gc_state(enabled)
        with pytest.raises(ModelFormatError):
            load_model(path)
        assert gc.isenabled() is enabled


def test_log_constant_preserved():
    model = generate(GenSpec(k=3, L=4, seed=2))
    dual = build_dual(model)
    assert dual.log_boundary_constant == pytest.approx(
        6.0 * math.log(2.0 * math.pi), rel=1e-15
    )
