"""JSON serialization of ladder models, and the JSON dump of their duals.

Model files carry k, L and one matrix per block, given either as a
covariance or as a precision matrix; the precision blocks are inverted
at load, as one stack, so the in-memory form is always covariance.
Floats are written with full precision, so load → save → load is
value-identical.

Loading parses all blocks as one (L, 2k, 2k) array and checks it whole;
only when that check fails are the blocks checked one by one, to name
the first bad one. Booleans among a matrix's numbers would parse as 1
and 0, so the blocks are searched for them too, but from a file only
when its text holds "true" or "false". `save_model` writes the header
indented and then one block per line, the text the C JSON encoder gives
for the block's nested list, formatting each block's distinct non-zero
entries once; any JSON layout of the same schema loads.

Loading builds a whole file's worth of Python objects: about 1.6
million floats in 250,000 lists and dicts for a k=4, L=25,000 model;
saving builds a chunk's worth of strings and object arrays at a time.
None of them is in a reference cycle, so reference counting frees them
all, but the cyclic garbage collector would walk the young ones after
every 700 container allocations (its default threshold) and find
nothing to free. Both run with the collector paused, and its earlier
state, enabled or not, is restored afterwards.
"""

import gc
import json
from contextlib import contextmanager
from functools import cache
from itertools import chain

import numpy as np

from .errors import DimensionMismatch, ModelFormatError
from .linalg import _cholesky, _inverse, _symmetric_part
from .model import LadderModel
from .rake import _chunks

FORMAT_VERSION = "1"


@contextmanager
def _collector_paused():
    """Disable the cyclic garbage collector; re-enable it if it was enabled."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _require(cond, msg):
    if not cond:
        raise ModelFormatError(msg)


def _holds_bool(rows):
    """Whether any of the parsed JSON arrays ``rows`` holds a boolean."""
    return bool in map(type, chain.from_iterable(rows))


def _as_matrix(data, dim, what):
    try:
        m = np.asarray(data)
    except ValueError:  # ragged nesting
        m = np.asarray(None)
    # Only JSON numbers make an int or float array: strings, nulls and
    # objects make other dtypes, and so do booleans alone. Booleans among
    # numbers become 1 and 0, so the rows are searched for them too.
    _require(m.dtype.kind in "iuf", f"{what} is not a numeric matrix")
    m = m.astype(float)
    if m.shape != (dim, dim):
        raise DimensionMismatch(
            f"{what} has shape {m.shape}, expected ({dim}, {dim})"
        )
    _require(not _holds_bool(data), f"{what} is not a numeric matrix")
    if not np.all(np.isfinite(m)):
        raise ModelFormatError(f"{what} contains non-finite entries")
    return m


def model_from_dict(doc, may_hold_bool=True):
    """Build (LadderModel, metadata) from a parsed model-file dict.

    The blocks are searched for booleans only if ``may_hold_bool``.
    """
    _require(isinstance(doc, dict), "model file must be a JSON object")
    _require(
        doc.get("format_version") == FORMAT_VERSION,
        f"unsupported format_version {doc.get('format_version')!r}",
    )
    unknown = sorted(set(doc) - {"format_version", "k", "L", "blocks", "metadata"})
    _require(not unknown, f"unknown top-level keys {unknown}")
    k, L = doc.get("k"), doc.get("L")
    # type(...) is int: JSON true/false parse as bool, a subclass of int.
    _require(type(k) is int and k >= 1, f"k must be a positive integer, got {k!r}")
    _require(type(L) is int and L >= 1, f"L must be a positive integer, got {L!r}")
    blocks_doc = doc.get("blocks")
    _require(isinstance(blocks_doc, list), "blocks must be a list")
    _require(
        len(blocks_doc) == L, f"expected {L} blocks, found {len(blocks_doc)}"
    )

    kinds, matrices = [], []
    for ell, entry in enumerate(blocks_doc):
        _require(isinstance(entry, dict), f"block {ell} must be an object")
        has_cov = "covariance" in entry
        _require(
            has_cov != ("precision" in entry),
            f"block {ell} must have exactly one of 'covariance'/'precision'",
        )
        kind = "covariance" if has_cov else "precision"
        kinds.append(kind)
        matrices.append(entry[kind])

    dim = 2 * k
    try:
        blocks = np.asarray(matrices)
    except ValueError:  # ragged nesting
        blocks = None
    if not (
        blocks is not None
        and blocks.dtype.kind in "iuf"
        and blocks.shape == (L, dim, dim)
        and np.isfinite(blocks).all()
        and not (may_hold_bool and _holds_bool(chain.from_iterable(matrices)))
    ):
        # Some block is malformed: check one at a time to name the first.
        blocks = np.array(
            [
                _as_matrix(m, dim, f"block {ell} {kind}")
                for ell, (m, kind) in enumerate(zip(matrices, kinds))
            ]
        )
    blocks = blocks.astype(float, copy=False)
    prec = [ell for ell, kind in enumerate(kinds) if kind == "precision"]
    if prec:
        def label(i):
            return f"precision block {prec[i]}"

        sym = _symmetric_part(blocks[prec], label)
        blocks[prec] = _inverse(_cholesky(sym, label))

    metadata = doc.get("metadata")  # null is the same as absent
    _require(isinstance(metadata, (dict, type(None))), "metadata must be an object")
    return LadderModel(k, L, blocks), dict(metadata or {})


def _header(model, metadata):
    doc = {"format_version": FORMAT_VERSION, "k": model.k, "L": model.L}
    if metadata:
        doc["metadata"] = dict(metadata)
    return doc


def _read_json(path):
    """The parsed file, and whether its text may hold "true" or "false".

    A word is searched for only if a letter of it occurs where the
    schema has none: "u" is in no key and no number, and "f" only in
    "format_version", so a second "f" is needed. A file whose one "f" is
    in a "false" has no format_version and is rejected before its blocks
    are read. One letter is found at memchr speed: on a 17.3 MB file of
    numbers the scans take about 1 ms, and searching for both words 17.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        second_f = text.find("f", text.find("f") + 1) >= 0
        booleans = ("u" in text and "true" in text) or (
            second_f and "false" in text
        )
        return json.loads(text), booleans
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"{path}: not UTF-8 text ({exc})") from None
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ModelFormatError(f"{path}: invalid JSON ({exc})") from None


def load_model(path):
    """Read a model file; returns (LadderModel, metadata dict)."""
    # The parsed document is freed as model_from_dict returns, before the
    # collector resumes, so it never sees those objects.
    with _collector_paused():
        return model_from_dict(*_read_json(path))


_BLOCK_START = '    {"covariance": [['
_BLOCK_END = "]]}"


@cache
def _block_layout(m):
    """Where each entry of an m×m block's line comes from, and what follows it.

    Returns the rows and columns of the upper triangle, diagonal
    included, the index into them of each of the m² entries in row-major
    order, and the m² separators that follow the entries; the last one
    closes the block's line and opens the next. The arrays are shared
    between calls, and only read.
    """
    iu, ju = np.triu_indices(m)
    at = np.empty((m, m), dtype=np.intp)
    at[iu, ju] = at[ju, iu] = np.arange(iu.size)
    seps = np.full((m, m), ", ", dtype=object)
    seps[:, -1] = "], ["
    seps[-1, -1] = _BLOCK_END + ",\n" + _BLOCK_START
    return iu, ju, at.ravel(), seps.ravel()


def write_model(fh, model, metadata=None):
    """Write a model file to the text stream ``fh``, one block per line.

    The header is indented by 2; each block is one compact line, the
    text ``json.dumps`` gives for its nested list. That encoder writes a
    finite float as its ``repr``, and here ``repr`` runs once per distinct
    non-zero entry: the stack is exactly symmetric (`LadderModel`
    symmetrizes it), so only the upper triangle is formatted, and +0.0
    is the constant ``"0.0"``. Each chunk of blocks is then joined with
    the fixed separators by one ``str.join``.
    """
    head = json.dumps(_header(model, metadata), indent=2)
    fh.write(head[: -len("\n}")] + ',\n  "blocks": [\n' + _BLOCK_START)
    stack = model.sigma_blocks
    iu, ju, at, seps = _block_layout(stack.shape[-1])
    tokens = None  # each entry's text, then its separator
    with _collector_paused():
        for chunk in _chunks(stack):
            upper = stack[chunk][:, iu, ju]
            # −0.0 == 0, but its repr is "-0.0".
            formatted = (upper != 0) | np.signbit(upper)
            # The n-th formatted entry of the chunk is text n + 1.
            text = np.empty(np.count_nonzero(formatted) + 1, dtype=object)
            text[0] = "0.0"
            text[1:] = list(map(float.__repr__, upper[formatted].tolist()))
            where = np.cumsum(formatted).reshape(upper.shape) * formatted
            if tokens is None:  # the first chunk is the longest
                tokens = np.empty((len(upper), at.size, 2), dtype=object)
                tokens[..., 1] = seps
            part = tokens[: len(upper)]
            part[..., 0] = text[where[:, at]]
            if chunk.stop >= len(stack):
                part[-1, -1, 1] = _BLOCK_END
            fh.write("".join(part.ravel().tolist()))
    fh.write("\n  ]\n}\n")


def save_model(path, model, metadata=None):
    with open(path, "w") as fh:
        write_model(fh, model, metadata)


def dual_to_dict(dual):
    g = dual.dual_precision
    return {
        "format_version": FORMAT_VERSION,
        "k": dual.k,
        "L": dual.L,
        "n_dual": dual.n_dual,
        "pinned": dual.pinned.tolist(),
        "variable_map": dual.variable_map.tolist(),
        "dual_precision": {
            "diag": g.diag.tolist(),
            "edges": [
                [int(i), int(j), float(w)]
                for i, j, w in zip(g.rows, g.cols, g.vals)
            ],
        },
    }
