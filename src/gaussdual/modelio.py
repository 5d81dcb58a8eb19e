"""JSON serialization of ladder models, and the JSON dump of their duals.

Model files carry k, L and one matrix per block, given either as a
covariance or as a precision matrix; the precision blocks are inverted
at load, as one stack, so the in-memory form is always covariance.
Floats are written with full precision, so load → save → load is
value-identical.

Loading parses all blocks as one (L, 2k, 2k) array and checks it whole;
only when that check fails are the blocks checked one by one, to name
the first bad one. `save_model` writes the header indented and then one
block per line, which the C JSON encoder produces; any JSON layout of the
same schema loads.
"""

import json

import numpy as np

from .errors import DimensionMismatch, ModelFormatError
from .linalg import _cholesky, _inverse, _symmetric_part
from .model import LadderModel

FORMAT_VERSION = "1"


def _require(cond, msg):
    if not cond:
        raise ModelFormatError(msg)


def _as_matrix(data, dim, what):
    try:
        m = np.asarray(data)
    except ValueError:  # ragged nesting
        m = np.asarray(None)
    # Only JSON numbers make an int or float array: strings, booleans,
    # nulls and objects make other dtypes.
    _require(m.dtype.kind in "iuf", f"{what} is not a numeric matrix")
    m = m.astype(float)
    if m.shape != (dim, dim):
        raise DimensionMismatch(
            f"{what} has shape {m.shape}, expected ({dim}, {dim})"
        )
    if not np.all(np.isfinite(m)):
        raise ModelFormatError(f"{what} contains non-finite entries")
    return m


def model_from_dict(doc):
    """Build (LadderModel, metadata) from a parsed model-file dict."""
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

    metadata = doc.get("metadata") or {}
    _require(isinstance(metadata, dict), "metadata must be an object")
    return LadderModel(k, L, blocks), dict(metadata)


def _header(model, metadata):
    doc = {"format_version": FORMAT_VERSION, "k": model.k, "L": model.L}
    if metadata:
        doc["metadata"] = dict(metadata)
    return doc


def load_model(path):
    """Read a model file; returns (LadderModel, metadata dict)."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ModelFormatError(f"{path}: invalid JSON ({exc})") from None
    return model_from_dict(doc)


def write_model(fh, model, metadata=None):
    """Write a model file to the text stream ``fh``, one block per line.

    The header is indented by 2; each block is one compact line, so the
    C JSON encoder writes it (``indent`` forces the Python encoder).
    """
    head = json.dumps(_header(model, metadata), indent=2)
    fh.write(head[: -len("\n}")] + ',\n  "blocks": [\n')
    for ell, b in enumerate(model.sigma_blocks.tolist()):
        fh.write((",\n" if ell else "") + '    {"covariance": ' + json.dumps(b) + "}")
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
