"""Leaf raking on the zero pattern that all covariance blocks share.

Eliminating a leaf of a matrix's graph creates no fill (Parter, SIAM
Review 1961): its pivot is its current diagonal entry, and the diagonal
of its one neighbour drops by w²/pivot. The dual route meets two graphs
that come from the union of the blocks' exact non-zero patterns:

* the block graph on 2k vertices, whose elimination gives the local
  log-determinants;
* the periodic group graph of Σ′⁻¹ on k vertex classes. Its
  within-group edges come from the blocks' top-left and bottom-right
  corners, its cross edges from their top-right corner, which joins
  vertex a of group j to vertex b of group j + 1.

Each graph's leaves-first schedule is worked out once, on at most 2k
vertices, and each step then runs as a few vector operations over all
L blocks or all L − 1 groups. Only the survivors go to the unraked
kernels: `linalg._factor` on the (L, r, r) remainder, the banded
Cholesky on the r×r block-tridiagonal remainder. Every pivot, raked or
not, is judged against the floor of the unraked matrix. A part that has
nothing to rake, or a rejected pivot, returns None, and the caller runs
the unraked kernel, so values, errors and messages are then exactly its.
"""

import numpy as np

from .elimination import _banded_logdet
from .errors import NotPositiveDefinite
from .linalg import _BLOCK, _chunks, _factor, pivot_floor

# Below this many blocks the scan, the schedules and the extra numpy
# calls cost more than raking saves. On star_pattern, k=4, the dual route
# gains from about 256 blocks; duality_check, which rakes only Σ′⁻¹,
# from about 1024 (CHANGES.md has the timings).
_RAKE_MIN_BLOCKS = 1024


def _no_leaf(pattern, k):
    """Whether every vertex of both graphs has at least two neighbours."""
    if (pattern.sum(axis=1) - pattern.diagonal()).min() < 2:
        return False
    cross = pattern[:k, k:]
    within = pattern[:k, :k] | pattern[k:, k:]
    degree = within.sum(axis=1) - within.diagonal() + cross.sum(axis=1)
    return (degree + cross.sum(axis=0)).min() >= 2


def _scan(stack, k, local):
    """`_schedules` of the union of the blocks' patterns, scanned once.

    The pattern is the union of the blocks' exact non-zeros, so −0.0 is
    a zero. It only grows, so the scan stops as soon as neither graph is
    worth raking. A first block with no zeros settles that for k > 1,
    so a dense stack costs one block's scan; otherwise the rest is
    scanned a chunk at a time, and checked after each chunk that adds
    an edge.
    """
    pattern = stack[0] != 0
    if k > 1 and pattern.all():
        return None, None
    seen = -1
    for chunk in _chunks(stack, 1):
        pattern |= (stack[chunk] != 0).any(axis=0)
        count = np.count_nonzero(pattern)
        if count != seen:
            seen = count
            if _no_leaf(pattern, k):
                return None, None
            block, group = _schedules(pattern, k, local)
            if block is None and group is None:
                return None, None
    return block, group


def _schedules(pattern, k, local):
    """(steps, survivors) of the block graph and of the group graph.

    A graph is raked only when it has a leaf and at most half of its
    vertices survive; otherwise, or for the block graph when ``local``
    is false, its entry is None. Gathering r survivors costs L·r²
    scattered reads, about what factoring all 2k vertices costs once r
    nears 2k.
    """
    m = 2 * k
    # Edges (a, b, s) of both graphs, from the pattern's upper triangle.
    block_edges, group_edges = [], set()
    for i, row in enumerate(pattern.tolist()):
        for j in range(i + 1, m):
            if row[j]:
                block_edges.append((i, j, 0))
                if j < k or i >= k:
                    group_edges.add((i % k, j % k, 0))
                else:
                    group_edges.add((i, j - k, 1))
    block = _worth(_peel(m, block_edges), m) if local else None
    return block, _worth(_peel(k, group_edges), k)


def _worth(schedule, n):
    """``schedule``, or None if it rakes nothing or keeps over n/2 vertices."""
    steps, survivors = schedule
    return schedule if steps and 2 * len(survivors) <= n else None


def _peel(n, edges):
    """Leaves-first elimination of a graph on ``n`` vertex classes.

    ``edges`` holds triples (a, b, s): vertex a of group j is joined to
    vertex b of group j + s, s ∈ {−1, 0, 1}; the block graph has s = 0
    only. Returns the steps (v, u, s), one per eliminated class, where
    (u, s) is v's one live neighbour, u = −1 if it has none, and the
    survivors in ascending order.
    """
    nbrs = [set() for _ in range(n)]
    for a, b, s in edges:
        nbrs[a].add((b, s))
        nbrs[b].add((a, -s))
    leaves = [v for v in range(n) if len(nbrs[v]) <= 1]
    steps = []
    while leaves:
        v = leaves.pop()
        u, s = nbrs[v].pop() if nbrs[v] else (-1, 0)
        if u >= 0:
            nbrs[u].discard((v, -s))
            if len(nbrs[u]) == 1:
                leaves.append(u)
        steps.append((v, u, s))
    eliminated = {v for v, _, _ in steps}
    return steps, [v for v in range(n) if v not in eliminated]


def _rake_blocks(stack, steps, survivors, rows, at):
    """Length-L local log-dets by raking the block graph, or None."""
    d = rows[[at[i, i] for i in range(stack.shape[-1])]]
    floor = pivot_floor(d.T)
    for v, u, _ in steps:
        if u >= 0:
            w = rows[at[v, u]]
            d[u] -= w * (w / d[v])
    pivots = d[[v for v, _, _ in steps]]
    if not (pivots > floor).all():
        return None
    logdet = np.log(pivots).sum(axis=0)
    if survivors:
        r = np.asarray(survivors)
        rest = stack[:, r[:, None], r]
        i = np.arange(r.size)
        rest[:, i, i] = d[r].T
        try:
            logdet += _factor(rest, _BLOCK, floor)[0]
        except NotPositiveDefinite:
            return None
    return logdet


def _rake_groups(stack, k, steps, survivors, rows, at):
    """log det(Σ′⁻¹) by raking the periodic group graph, or None.

    Group g, g = 0 … L − 2, is the bottom-right corner of block g plus
    the top-left corner of block g + 1; the coupling between groups g
    and g + 1 is the top-right corner of block g + 1. A cross step
    leaves the last or the first group without a neighbour to update.
    """
    d = rows[[at[k + a, k + a] for a in range(k)], :-1]
    d += rows[[at[a, a] for a in range(k)], 1:]
    floor = pivot_floor(d.ravel())
    for v, u, s in steps:
        if u < 0:
            continue
        p = d[v]
        if s == 0:
            w = rows[at[k + v, k + u], :-1] + rows[at[v, u], 1:]
            d[u] -= w * (w / p)
        elif s == 1:
            w = rows[at[v, k + u], 1:-1]
            d[u, 1:] -= w * (w / p[:-1])
        else:
            w = rows[at[u, k + v], 1:-1]
            d[u, :-1] -= w * (w / p[1:])
    pivots = d[[v for v, _, _ in steps]]
    if not (pivots > floor).all():
        return None
    logdet = float(np.log(pivots).sum())
    if survivors:
        r = np.asarray(survivors)
        diag = stack[1:, r[:, None], r] + stack[:-1, k + r[:, None], k + r]
        i = np.arange(r.size)
        diag[:, i, i] = d[r].T
        off = stack[1:-1, r[:, None], k + r]
        try:
            logdet += _banded_logdet(diag, off, floor)
        except NotPositiveDefinite:
            return None
    return logdet


def _gather(stack, entries):
    """Entries (i, j) of every block, as one contiguous length-L row each.

    Returns the (n, L) rows and a dict from each entry to its row. The
    stack is read chunk by chunk, so each transpose stays in cache.
    """
    L, m, _ = stack.shape
    keys = sorted(set(entries))
    flat = stack.reshape(L, m * m)
    at = [i * m + j for i, j in keys]
    rows = np.empty((len(keys), L))
    for chunk in _chunks(stack):
        rows[:, chunk] = np.take(flat[chunk], at, axis=1).T
    return rows, {key: n for n, key in enumerate(keys)}


def raked_logdets(stack, k, local=True):
    """Local log-dets and log det(Σ′⁻¹) of a (L, 2k, 2k) stack by raking.

    Either value is None when its graph has too little to rake (see
    `_schedules`), a pivot is at or below its floor, or L <
    _RAKE_MIN_BLOCKS; the caller then runs the unraked kernel.
    ``local=False`` skips the block graph.
    """
    m = 2 * k
    # One block leaves Σ′⁻¹ empty, and its own log-det is one Cholesky.
    if len(stack) < max(_RAKE_MIN_BLOCKS, 2):
        return None, None
    block, group = _scan(stack, k, local)
    if block is None and group is None:
        return None, None
    block_steps, block_rest = block or ([], [])
    group_steps, group_rest = group or ([], [])

    # Every entry the two schedules read.
    entries = [(i, i) for i in range(m)]
    entries += [(v, u) for v, u, _ in block_steps if u >= 0]
    for v, u, s in group_steps:
        if u >= 0:
            if s == 0:
                entries += [(v, u), (k + v, k + u)]
            else:
                entries.append((v, k + u) if s == 1 else (u, k + v))
    rows, at = _gather(stack, entries)

    locals_ = ld = None
    # A pivot at or below its floor may divide by zero or overflow; the
    # pivot checks reject the result, NaN included, before any log.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if block_steps:
            locals_ = _rake_blocks(stack, block_steps, block_rest, rows, at)
        if group_steps:
            ld = _rake_groups(stack, k, group_steps, group_rest, rows, at)
    return locals_, ld
