"""Random ladder-model generation for tests and benchmarks.

Every generated model is SPD by strict diagonal dominance and keeps all
block sparsity graphs, and their union over the ladder, cycle-free. The
union constraint is what makes generation non-obvious: consecutive
blocks see the same k boundary variables, so whatever edge structure one
block puts on a boundary group must be repeated, not resampled, by its
neighbor, or the two structures would union into a cycle.
"""

import bisect
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleStructure
from .model import LadderModel, _positive_int

STRUCTURES = ("star_pattern", "random_tree", "diagonal")


@dataclass(frozen=True)
class GenSpec:
    """Recipe for one random model.

    k and L are positive integers and seed a non-negative one, Python or
    numpy, not bool. weight_range is a pair (lo, hi) of real numbers, not
    bools, bounding the magnitude of off-diagonal weights; signs are
    random. Must be finite and must not straddle or touch zero.
    """

    k: int
    L: int
    seed: int
    structure: str = "star_pattern"
    weight_range: tuple = (0.2, 1.0)


def _check(spec):
    _positive_int("k", spec.k, InfeasibleStructure)
    _positive_int("L", spec.L, InfeasibleStructure)
    if spec.structure not in STRUCTURES:
        raise InfeasibleStructure(
            f"unknown structure {spec.structure!r}; choose from {STRUCTURES}"
        )
    seed = spec.seed
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InfeasibleStructure(f"seed must be a non-negative integer, got {seed!r}")
    pair = spec.weight_range
    reals = isinstance(pair, (tuple, list)) and len(pair) == 2 and all(
        isinstance(x, numbers.Real) and not isinstance(x, bool) for x in pair
    )
    if not (reals and 0.0 < pair[0] <= pair[1] < np.inf):
        raise InfeasibleStructure(
            f"weight_range must be two numbers with 0 < lo <= hi < inf, got {pair!r}"
        )


def _path_edges(k):
    return [(p, p + 1) for p in range(k - 1)]


def _repeat(edges, count):
    """One list of edges as a (count, E, 2) array of identical rows."""
    row = np.array(edges, dtype=np.int64).reshape(-1, 2)
    return np.broadcast_to(row, (count, *row.shape))


def _random_tree_edges(k, rng):
    """Uniform random labelled tree on k vertices (Prüfer decoding)."""
    if k <= 1:
        return []
    if k == 2:
        return [(0, 1)]
    prufer = rng.integers(0, k, size=k - 2)
    degree = np.ones(k, dtype=np.int64)
    for v in prufer:
        degree[v] += 1
    edges = []
    leaves = sorted(v for v in range(k) if degree[v] == 1)
    for v in prufer:
        leaf = leaves.pop(0)
        edges.append((min(leaf, int(v)), max(leaf, int(v))))
        degree[v] -= 1
        if degree[v] == 1:
            bisect.insort(leaves, int(v))
    edges.append((leaves[0], leaves[1]))
    return edges


def generate(spec):
    """Build the LadderModel a GenSpec describes; deterministic per seed.

    Structures:

    * ``star_pattern``: each half of every block carries a path
      0–1–…–(k−1), plus one cross edge joining vertex 0 of each half.
    * ``random_tree``: each of the L+1 boundary groups gets one random
      tree topology, shared by the two blocks that see it; same single
      cross edge. Weights are still drawn independently per block.
    * ``diagonal``: no off-diagonal entries at all.

    Diagonals are set to the absolute incident weight sum plus a margin,
    a draw from [0.5, 1.5] times max(1, hi) for the weight range (lo,
    hi), making every block strictly diagonally dominant and hence SPD.
    The margin grows with the weights: for hi ≥ 1 a block is hi times
    one with weights in [lo/hi, 1] and the margins of hi = 1, so its
    conditioning does not grow with hi. A diagonal entry that overflows
    raises InfeasibleStructure.
    """
    _check(spec)
    k, L = spec.k, spec.L
    rng = np.random.default_rng(spec.seed)

    # Edges of the L+1 boundary groups as an (L+1, E, 2) array.
    if spec.structure == "random_tree":
        trees = [_random_tree_edges(k, rng) for _ in range(L + 1)]
        groups = np.array(trees, dtype=np.int64).reshape(L + 1, k - 1, 2)
    else:
        path = _path_edges(k) if spec.structure == "star_pattern" else []
        groups = _repeat(path, L + 1)
    # Block ell: its left group, its right group shifted by k, and the one
    # cross edge (0, k) unless the structure is diagonal.
    cross = _repeat([] if spec.structure == "diagonal" else [(0, k)], L)
    edges = np.concatenate([groups[:-1], groups[1:] + k, cross], axis=1)
    ei, ej = edges[..., 0], edges[..., 1]

    blocks = np.zeros((L, 2 * k, 2 * k))
    n_edges = ei.shape[1]
    scale = 1.0  # of the margin; the default range has max(1, hi) = 1
    if n_edges:
        lo, hi = spec.weight_range
        scale = max(1.0, hi)
        mags = rng.uniform(lo, hi, size=(L, n_edges))
        signs = np.where(rng.random(size=(L, n_edges)) < 0.5, 1.0, -1.0)
        w = mags * signs
        li = np.arange(L)[:, None]
        blocks[li, ei, ej] = w
        blocks[li, ej, ei] = w

    # Weights near the float maximum can sum past it; such a diagonal is
    # rejected below.
    with np.errstate(over="ignore"):
        margin = rng.uniform(0.5, 1.5, size=(L, 2 * k)) * scale
        diag = np.abs(blocks).sum(axis=2) + margin
    if not np.isfinite(diag.max()):
        raise InfeasibleStructure(
            f"weight_range {spec.weight_range} overflows a diagonal entry"
        )
    d = np.arange(2 * k)
    blocks[:, d, d] = diag
    return LadderModel(k, L, blocks)
