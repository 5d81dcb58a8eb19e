"""Shared fixtures-in-spirit: reference models and independent oracles.

The oracles here deliberately avoid the library's own code paths: the
determinant oracle is textbook cofactor expansion, and the random SPD
builders enforce positive definiteness by diagonal dominance rather
than by factorization.
"""

import pathlib

import numpy as np

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"

# Three-block ladder on 8 variables; det(Sigma) = 125/128 by hand.
LADDER1_BLOCK = np.array(
    [
        [2.0, 1.0, 1.0, 0.0],
        [1.0, 2.0, 0.0, 0.0],
        [1.0, 0.0, 2.0, 1.0],
        [0.0, 0.0, 1.0, 2.0],
    ]
)
LADDER1_DET = 125.0 / 128.0
LADDER1_DUAL_DENSE = np.array(
    [
        [4.0, 2.0, -1.0, 0.0],
        [2.0, 4.0, 0.0, 0.0],
        [-1.0, 0.0, 4.0, 2.0],
        [0.0, 0.0, 2.0, 4.0],
    ]
)
LADDER1_DUAL_DET = 128.0

# Two-block ladder on 9 variables; block determinants 44 and 33, dual
# determinant 124, hence det(Sigma) = 44 * 33 / 124.
LADDER2_S1 = np.array(
    [
        [3.0, 1.0, 0.0, 2.0, 0.0, 0.0],
        [1.0, 2.0, 1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 3.0, 0.0, 0.0, 0.0],
        [2.0, 0.0, 0.0, 3.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0, 2.0, 1.0],
        [0.0, 0.0, 0.0, 0.0, 1.0, 3.0],
    ]
)
LADDER2_S2 = np.array(
    [
        [4.0, 1.0, 0.0, -2.0, 0.0, 0.0],
        [1.0, 3.0, -1.0, 0.0, 0.0, 0.0],
        [0.0, -1.0, 1.0, 0.0, 0.0, 0.0],
        [-2.0, 0.0, 0.0, 4.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0, 3.0, -1.0],
        [0.0, 0.0, 0.0, 0.0, -1.0, 1.0],
    ]
)
LADDER2_DUAL_DENSE = np.array(
    [
        [7.0, 2.0, 0.0],
        [2.0, 5.0, 0.0],
        [0.0, 0.0, 4.0],
    ]
)
LADDER2_DET = 44.0 * 33.0 / 124.0


def ladder1_model():
    from gaussdual import LadderModel

    return LadderModel(2, 3, [LADDER1_BLOCK] * 3)


def ladder2_model():
    from gaussdual import LadderModel

    return LadderModel(3, 2, [LADDER2_S1, LADDER2_S2])


def margin_models():
    """Twenty k=3, L=6 random_tree models whose blocks are diagonally
    dominant by a margin of only 1e-8: each diagonal entry is its row's
    off-diagonal absolute sum plus 1e-8."""
    from gaussdual import GenSpec, LadderModel, generate

    models = []
    for seed in range(20):
        m = generate(GenSpec(k=3, L=6, seed=seed, structure="random_tree"))
        blocks = np.array(m.sigma_blocks)
        idx = np.arange(6)
        blocks[:, idx, idx] = 0.0
        blocks[:, idx, idx] = np.abs(blocks).sum(axis=2) + 1e-8
        models.append(LadderModel(3, 6, blocks))
    return models


def det_cofactor(m):
    """Determinant by first-row cofactor expansion. O(n!), n <= 8 or so."""
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    if n == 0:
        return 1.0
    if n == 1:
        return m[0, 0]
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        total += (-1.0) ** j * m[0, j] * det_cofactor(minor)
    return total


def random_forest_edges(n, rng, extra_isolated=True):
    """Random forest on n vertices: random parent links, some roots."""
    edges = []
    for v in range(1, n):
        if extra_isolated and rng.random() < 0.1:
            continue  # v starts its own component
        u = int(rng.integers(0, v))
        edges.append((u, v))
    return edges


def random_forest_spd(n, rng):
    """SPD matrix with forest sparsity, via diagonal dominance."""
    from gaussdual import SparseSymMatrix

    edges = random_forest_edges(n, rng)
    rows = np.array([e[0] for e in edges], dtype=np.int64)
    cols = np.array([e[1] for e in edges], dtype=np.int64)
    vals = rng.uniform(0.2, 1.5, size=len(edges)) * rng.choice(
        [-1.0, 1.0], size=len(edges)
    )
    diag = np.full(n, 0.0)
    for (i, j), w in zip(edges, vals):
        diag[i] += abs(w)
        diag[j] += abs(w)
    diag += rng.uniform(0.5, 1.5, size=n)
    return SparseSymMatrix(n, diag, rows, cols, vals)


def random_spd_dense(n, rng):
    """Dense SPD matrix: A @ A.T plus a ridge."""
    a = rng.normal(size=(n, n))
    return a @ a.T + n * np.eye(n)


def invert(stack):
    """Inverses of an (L, n, n) SPD stack through the package's kernel,
    `linalg._factor`, the path `load_model` takes for precision blocks."""
    from gaussdual.linalg import _BLOCK, _factor, _symmetric_part

    return _factor(_symmetric_part(stack, _BLOCK), _BLOCK, invert=True)[1]


class UnionFind:
    """Disjoint sets over 0..n-1 with path halving."""

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b):
        """Merge the sets of a and b; False if already joined."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def edge_list(m, zero_tol=0.0):
    """Sparsity graph of the symmetric matrix ``m``: its strictly-upper
    entries with |value| > zero_tol, row-major, as (i, j, value) tuples."""
    m = np.asarray(m)
    return [
        (i, j, float(m[i, j]))
        for i in range(m.shape[0])
        for j in range(i + 1, m.shape[0])
        if abs(m[i, j]) > zero_tol
    ]


def is_forest_union_find(n, edges):
    """Cycle test by union-find over (i, j, ...) edges on n vertices: an
    edge inside one set closes a cycle."""
    uf = UnionFind(n)
    return all(uf.union(i, j) for i, j, *_ in edges)


def validate_reference(model, zero_tol=0.0):
    """`validate` block by block: one edge list and one union-find pass
    per block, then one over the union. Oracle for the stacked component
    counts of `gaussdual.validate`."""
    from gaussdual import NotPositiveDefinite, ValidationReport

    messages = []

    a1 = True
    inverses = []
    for ell, b in enumerate(model.sigma_blocks):
        try:
            inverses.append(invert(b[None])[0])
        except NotPositiveDefinite as exc:
            a1 = False
            inverses = None
            messages.append(
                f"covariance block {ell} is not positive definite "
                f"(pivot {exc.pivot_index})"
            )
            break

    m = 2 * model.k
    a2 = False
    if inverses is not None:
        a2 = all(
            not is_forest_union_find(m, edge_list(inv, zero_tol))
            for inv in inverses
        )
        if not a2:
            messages.append(
                "some block precision graph is already cycle-free; "
                "dualization is unnecessary for it"
            )

    block_edges = [edge_list(b, zero_tol) for b in model.sigma_blocks]
    a3_blocks = True
    for ell, edges in enumerate(block_edges):
        if not is_forest_union_find(m, edges):
            a3_blocks = False
            messages.append(f"covariance block {ell} has a cycle")

    a3_union = False
    if a3_blocks:
        k = model.k
        union = {
            (i + ell * k, j + ell * k)
            for ell, edges in enumerate(block_edges)
            for i, j, _ in edges
        }
        a3_union = is_forest_union_find(model.N, union)
        if not a3_union:
            messages.append("union of block graphs has a cycle")

    return ValidationReport(
        assumption1_ok=a1,
        assumption2_cycles_present=a2,
        assumption3_blocks_acyclic=a3_blocks,
        assumption3_union_acyclic=a3_union,
        messages=messages,
    )


def write_model_reference(fh, model, metadata=None):
    """`modelio.write_model` as the C JSON encoder writes it: one
    ``json.dumps`` of each block's nested list. Oracle for the bytes of
    the writer that formats only each block's distinct entries."""
    import json

    from gaussdual.modelio import _header

    head = json.dumps(_header(model, metadata), indent=2)
    fh.write(head[: -len("\n}")] + ',\n  "blocks": [\n')
    for ell, b in enumerate(model.sigma_blocks.tolist()):
        sep = ",\n" if ell else ""
        fh.write(sep + '    {"covariance": ' + json.dumps(b) + "}")
    fh.write("\n  ]\n}\n")
