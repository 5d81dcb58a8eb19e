"""The CLI's exit-code contract on corrupted model files.

Valid model documents are corrupted one way each: a key dropped, a
value of the wrong type, the text truncated, or a block made
non-finite, asymmetric or indefinite. ``logdet``, ``validate`` and
``verify`` must exit 2 on malformed input and 1 on numerical failure,
and neither may end in a traceback.
"""

import contextlib
import io
import json
import math
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from gaussdual import GenSpec, generate
from gaussdual.cli import main

COMMANDS = ["logdet", "validate", "verify"]

# Values that no field of the schema accepts in the place they land:
# every matrix entry must be a number, and no key takes these.
WRONG_TYPES = [None, "1.0", True, [], {}, [[]], "x"]
WRONG_HEADERS = {
    "format_version": [1, None, "2", True, []],
    "k": ["2", 2.0, True, None, [], 0, -1],
    "L": ["1", 1.0, False, None, {}, 0, -3],
    "blocks": [None, "x", {}, 7, [[]]],
    "metadata": ["x", [], 3, True],
}


def _doc(k, L, seed, kinds):
    blocks = generate(GenSpec(k=k, L=L, seed=seed)).sigma_blocks
    return {
        "format_version": "1",
        "k": k,
        "L": L,
        "blocks": [{kind: b.tolist()} for kind, b in zip(kinds, blocks)],
        "metadata": {"name": "m"},
    }


@st.composite
def documents(draw):
    k = draw(st.integers(1, 3))
    L = draw(st.integers(1, 4))
    kind = st.sampled_from(["covariance", "precision"])
    kinds = draw(st.lists(kind, min_size=L, max_size=L))
    return _doc(k, L, draw(st.integers(0, 2**16)), kinds)


def _matrix(doc, ell):
    (m,) = doc["blocks"][ell].values()
    return m


@st.composite
def malformed(draw):
    """The text of a corrupted document that is not a valid model file."""
    doc = draw(documents())
    L, dim = doc["L"], 2 * doc["k"]
    ell = draw(st.integers(0, L - 1))
    i, j = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
    how = draw(
        st.sampled_from(
            [
                "drop-key", "drop-block-key", "header-type", "block-type",
                "matrix-type", "row-type", "entry-type", "truncate",
                "non-finite", "asymmetric",
            ]
        )
    )
    if how == "drop-key":
        del doc[draw(st.sampled_from(["format_version", "k", "L", "blocks"]))]
    elif how == "drop-block-key":
        doc["blocks"][ell] = {}
    elif how == "header-type":
        key = draw(st.sampled_from(sorted(WRONG_HEADERS)))
        doc[key] = draw(st.sampled_from(WRONG_HEADERS[key]))
    elif how == "block-type":
        doc["blocks"][ell] = draw(st.sampled_from(WRONG_TYPES))
    elif how == "matrix-type":
        (kind,) = doc["blocks"][ell]
        doc["blocks"][ell][kind] = draw(st.sampled_from(WRONG_TYPES))
    elif how == "row-type":
        _matrix(doc, ell)[i] = draw(st.sampled_from(WRONG_TYPES))
    elif how == "entry-type":
        _matrix(doc, ell)[i][j] = draw(st.sampled_from(WRONG_TYPES))
    elif how == "non-finite":
        value = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        _matrix(doc, ell)[i][j] = _matrix(doc, ell)[j][i] = value
    elif how == "asymmetric":
        m = _matrix(doc, ell)
        j = (i + draw(st.integers(1, dim - 1))) % dim if dim > 1 else i
        if i == j:  # a 1×1 block cannot be asymmetric: make it truncated
            return json.dumps(doc)[:-1]
        m[i][j] += 1.0 + abs(m[i][j])
    text = json.dumps(doc)
    if how == "truncate":
        # Cut before the closing brace, so no prefix is a whole document.
        text = text[: draw(st.integers(0, len(text) - 1))]
    return text


@st.composite
def indefinite(draw):
    """The text of a well-formed document with one indefinite block."""
    doc = draw(documents())
    dim = 2 * doc["k"]
    m = _matrix(doc, draw(st.integers(0, doc["L"] - 1)))
    if dim == 1 or draw(st.booleans()):
        m[0][0] = -draw(st.floats(0.0, 10.0))
    else:
        # Leading 2×2 minor a·b − c² < 0.
        m[0][1] = m[1][0] = 1.5 * math.sqrt(m[0][0] * m[1][1])
    return json.dumps(doc)


def _run(command, text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        with open(path, "w") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, path])
    return code, err.getvalue()


@settings(max_examples=150, deadline=None)
@given(text=malformed(), command=st.sampled_from(COMMANDS))
def test_malformed_model_exits_2(text, command):
    code, err = _run(command, text)
    assert code == 2, err
    assert err.startswith("error:")
    assert "Traceback" not in err


@settings(max_examples=60, deadline=None)
@given(text=indefinite(), command=st.sampled_from(COMMANDS))
def test_indefinite_block_exits_1(text, command):
    code, err = _run(command, text)
    assert code == 1, err
    assert "Traceback" not in err
    if command != "validate":  # validate reports assumption 1 on stdout
        assert err.startswith("error:") and "not positive definite" in err


def test_valid_document_exits_0():
    # The corruptions above start from documents like this one.
    text = json.dumps(_doc(2, 3, 0, ["covariance"] * 3))
    for command in COMMANDS:
        assert _run(command, text) == (0, "")
