"""JSON serialization of ladder models and their duals.

Model files carry k, L and one matrix per block, given either as a
covariance or as a precision matrix; precision input is inverted once at
load so the in-memory form is always covariance. Floats are written with
full precision, so load → save → load is value-identical.
"""

import json

import numpy as np

from .dual import LOG_2PI, DualModel
from .errors import DimensionMismatch, ModelFormatError
from .linalg import spd_inverse
from .model import LadderModel, SparseSymMatrix

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

    blocks = []
    for ell, entry in enumerate(blocks_doc):
        _require(isinstance(entry, dict), f"block {ell} must be an object")
        keys = set(entry) & {"covariance", "precision"}
        _require(
            len(keys) == 1,
            f"block {ell} must have exactly one of 'covariance'/'precision'",
        )
        kind = keys.pop()
        m = _as_matrix(entry[kind], 2 * k, f"block {ell} {kind}")
        blocks.append(spd_inverse(m) if kind == "precision" else m)

    metadata = doc.get("metadata") or {}
    _require(isinstance(metadata, dict), "metadata must be an object")
    return LadderModel(k, L, blocks), dict(metadata)


def model_to_dict(model, metadata=None):
    doc = {
        "format_version": FORMAT_VERSION,
        "k": model.k,
        "L": model.L,
        "blocks": [
            {"covariance": b.tolist()} for b in model.sigma_blocks
        ],
    }
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


def save_model(path, model, metadata=None):
    with open(path, "w") as fh:
        json.dump(model_to_dict(model, metadata), fh, indent=2)
        fh.write("\n")


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


def dual_from_dict(doc):
    _require(isinstance(doc, dict), "dual file must be a JSON object")
    try:
        k, L, n_dual = doc["k"], doc["L"], doc["n_dual"]
        gp = doc["dual_precision"]
        diag = np.asarray(gp["diag"], dtype=float)
        edges = gp["edges"]
        pinned = np.asarray(doc["pinned"], dtype=np.int64)
        variable_map = np.asarray(doc["variable_map"], dtype=np.int64)
    except KeyError as exc:
        raise ModelFormatError(f"dual file is missing key {exc}") from None
    rows = np.asarray([e[0] for e in edges], dtype=np.int64)
    cols = np.asarray([e[1] for e in edges], dtype=np.int64)
    vals = np.asarray([e[2] for e in edges], dtype=float)
    return DualModel(
        n_dual=n_dual,
        dual_precision=SparseSymMatrix(n_dual, diag, rows, cols, vals),
        variable_map=variable_map,
        pinned=pinned,
        log_boundary_constant=2.0 * k * LOG_2PI,
        k=k,
        L=L,
    )


def save_dual(path, dual):
    with open(path, "w") as fh:
        json.dump(dual_to_dict(dual), fh, indent=2)
        fh.write("\n")


def load_dual(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ModelFormatError(f"{path}: invalid JSON ({exc})") from None
    return dual_from_dict(doc)
