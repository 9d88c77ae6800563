"""Exact-stability pipeline: minimize the diameter-to-separation ratio beta.

beta(C) is the cluster's diameter divided by its minimum distance to the
rest of the space (0 for C = X); every clustering is beta-stable for the
average objective.  When some clustering with beta < 1 exists, each of its
clusters appears as a node of the tree built by recursively deleting the
longest MST edge, so a dynamic program over that tree recovers a
k-clustering of minimum beta.

The pipeline reads the distances once, as the symmetric table
:meth:`MetricSpace.pairs` returns (n(n-1)/2 queries).  Prim's MST reads
that table row by row; the split tree is a merge table (the single-linkage
dendrogram) of n - 1 rows plus one leaf order in which every node is a
contiguous range, so it takes O(n) memory beside the table.  Each merge's
diameter comes from its children's and the cross block between them, and
the DP, a pass over plain lists in merge order, takes each node's beta from
its diameter and its parent's cut weight.  Only :func:`beta` queries the
space itself.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .clustering import Clustering, check_start
from .metric import MetricSpace, _row_tiles

__all__ = [
    "beta",
    "beta_clustering",
    "mst",
    "SplitTree",
    "create_tree",
    "dp_min_beta",
    "stable_cluster",
]


def _ratio(diam: float, sep: float) -> float:
    """diam / sep with 0/0 -> 0 and x/0 -> inf, the envy-ratio conventions;
    a scalar function, free of numpy call overhead on the per-node path."""
    if sep == 0.0:
        return 0.0 if diam == 0.0 else math.inf
    return diam / sep


def beta(space: MetricSpace, C) -> float:
    """diameter(C) / min distance from C to X \\ C; 0 for C = X, 0/0 -> 0.

    The blocks C x C and C x (X \\ C) are read in the row tiles of width n
    that bound every tiled read (see the README), as :func:`create_tree`
    reads its cross blocks; max and min are exact in any order, and the
    tiles charge |C|^2 + |C|(n - |C|) queries, as the whole blocks would."""
    C = np.asarray(C, dtype=np.intp)
    if len(C) == 0:
        raise ValueError("cluster must be non-empty")
    inside = np.zeros(space.n, dtype=bool)
    inside[C] = True
    if inside.all():
        return 0.0
    outside = np.nonzero(~inside)[0]
    diam, sep = 0.0, math.inf
    for tile in _row_tiles(len(C), space.n):
        rows = C[tile]
        if len(C) > 1:
            diam = max(diam, float(space.block(rows, C).max()))
        sep = min(sep, float(space.block(rows, outside).min()))
    return _ratio(diam, sep)


def beta_clustering(space: MetricSpace, clustering: Clustering) -> float:
    return max(beta(space, m) for m in clustering.members())


def mst(D: np.ndarray) -> list[tuple[int, int, float]]:
    """Minimum spanning tree edges ``(min, max, w)`` of the n x n table ``D``,
    sorted by (w, min, max).

    Dense Prim in O(n^2) time and O(n) extra memory: each step reads the row
    of the point that joined the tree, so ``D`` must be symmetric, as
    :meth:`MetricSpace.pairs` is.  Edges are compared by the strict order
    (weight, min endpoint, max endpoint), so the tree is the unique minimum
    of that order, the one Kruskal picks by the same key, also when weights
    tie.
    """
    n = len(D)
    if n == 1:
        return []
    outside = np.ones(n, dtype=bool)
    best_w = np.full(n, np.inf)  # per outside point: lightest edge into the tree (inf inside)
    best_u = np.zeros(n, dtype=np.intp)  # its tree endpoint
    closer = np.empty(n, dtype=bool)
    edges = []
    u = 0
    for _ in range(n - 1):
        outside[u] = False
        best_w[u] = np.inf
        row = D[u]
        np.less(row, best_w, out=closer)
        tied = row == best_w
        if np.count_nonzero(tied):
            # for a fixed outside point, equal weights tie-break on the smaller tree endpoint
            closer |= tied & (u < best_u)
        closer &= outside
        np.copyto(best_w, row, where=closer)
        np.copyto(best_u, u, where=closer)
        ties = np.flatnonzero(best_w == best_w[best_w.argmin()])
        if len(ties) > 1:
            lo = np.minimum(best_u[ties], ties)
            hi = np.maximum(best_u[ties], ties)
            ties = ties[np.lexsort((hi, lo))]
        u = int(ties[0])
        a, b = sorted((int(best_u[u]), u))
        edges.append((a, b, float(best_w[u])))
    edges.sort(key=lambda e: (e[2], e[0], e[1]))
    return edges


class SplitTree(NamedTuple):
    """The recursive max-edge split tree as a merge table.

    Nodes 0..n-1 are the points (leaves); merge ``j`` makes node ``n + j``
    from ``left[j]`` and ``right[j]``, so children come before parents and
    the root is node 2n - 2.  ``weight[j]`` is the length of the MST edge
    whose deletion splits the node; it is the separation of both children:
    by the MST cut property, the lightest MST edge leaving a child is also
    its minimum distance to the rest of the space.  ``diameter[v]`` is the
    largest distance between two of node v's points, read from the table
    the tree was built on (0 for a leaf).  Node v's points are
    ``order[start[v] : start[v] + size[v]]``.
    """

    left: list[int]
    right: list[int]
    weight: list[float]
    diameter: list[float]
    size: list[int]
    start: list[int]
    order: np.ndarray

    @property
    def root(self) -> int:
        return 2 * len(self.order) - 2

    def points(self, v: int) -> np.ndarray:
        """Node v's points, ascending."""
        lo = self.start[v]
        return np.sort(self.order[lo : lo + self.size[v]])


def create_tree(D: np.ndarray, mst_edges) -> SplitTree:
    """Split tree of the MST of the n x n table ``D``: each node is split by
    deleting its longest MST edge (ties go to the smallest (min, max)
    endpoints); ``left`` is the side of the edge's min endpoint.

    Built bottom-up as the single-linkage dendrogram: one union-find pass
    merges components along the edges in ascending order of the cut key.
    The node sizes then lay the points out in one order in which every node
    is a contiguous range.  A merged node's diameter is the largest of its
    children's and of the cross block between them; the cross blocks cover
    each pair once.  The block is gathered from ``D`` with the smaller side
    on the rows, since each row is copied whole first, so ``D`` must be
    symmetric, as :meth:`MetricSpace.pairs` is.  Its max is taken over the
    row tiles of width n that bound every tiled read (see the README).
    """
    n = len(D)
    if len(mst_edges) != n - 1:
        raise ValueError(f"a spanning tree of {n} points has {n - 1} edges, got {len(mst_edges)}")
    up = list(range(n))  # union-find over the nodes: a component's root is its newest node
    left, right, weight, size = [], [], [], [1] * n

    def find(x):
        while up[x] != x:
            up[x] = up[up[x]]
            x = up[x]
        return x

    for a, b, w in sorted(mst_edges, key=lambda e: (e[2], -e[0], -e[1])):
        ra, rb = find(a), find(b)
        if ra == rb:
            raise ValueError("MST edges contain a cycle")
        up[ra] = up[rb] = len(up)
        up.append(len(up))
        left.append(ra)
        right.append(rb)
        weight.append(w)
        size.append(size[ra] + size[rb])

    start = [0] * len(size)
    for j in reversed(range(n - 1)):  # parents before children
        start[left[j]] = start[n + j]
        start[right[j]] = start[n + j] + size[left[j]]
    order = np.empty(n, dtype=np.intp)
    order[start[:n]] = np.arange(n)

    diameter = [0.0] * n
    for l, r in zip(left, right):
        small, large = (l, r) if size[l] <= size[r] else (r, l)
        rows = order[start[small] : start[small] + size[small]]
        cols = order[start[large] : start[large] + size[large]]
        d = max(diameter[l], diameter[r])
        for tile in _row_tiles(len(rows), n):
            d = max(d, float(D.take(rows[tile], 0).take(cols, 1).max()))
        diameter.append(d)
    return SplitTree(left, right, weight, diameter, size, start, order)


def _merge_betas(tree: SplitTree) -> list[float]:
    """Each merge's node beta: its diameter over its separation, the parent's
    cut weight; beta(root) is 0 by convention.  No distance is read."""
    n = len(tree.order)
    sep = [0.0] * len(tree.size)
    for l, r, w in zip(tree.left, tree.right, tree.weight):
        sep[l] = sep[r] = w
    betas = [_ratio(d, s) for d, s in zip(tree.diameter[n:], sep[n:])]
    if betas:
        betas[-1] = 0.0
    return betas


def dp_min_beta(tree: SplitTree, k: int) -> Clustering:
    """Minimum-beta k-clustering among those induced by a :func:`create_tree` tree.

    DP over (node, parts) in merge order, children first: a node is either
    kept whole (one cluster, its own beta) or split along its children;
    candidate scores combine by max.  A node with s points holds only parts
    1..min(k, s), and a split pairs only the part counts both children can
    hold.  A leaf's row is the constant [0.0]: its diameter is 0, and 0/0 is
    0.  The k - 1 splits the answer takes are traced back from the root;
    ties break toward the smallest right-child part count.
    """
    n = len(tree.order)
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    score = [[0.0]] * n  # per node, indexed by parts-1: the least max beta
    for l, r, node_beta in zip(tree.left, tree.right, _merge_betas(tree)):
        short, long = sorted((score[l], score[r]), key=len)
        m = min(k, len(short) + len(long))
        row = [node_beta] + [math.inf] * (m - 1)
        for i, x in enumerate(short, 1):  # i parts on the short child, p + 1 - i on the long one
            for p, y in enumerate(long[: m - i], i):
                if x > y:
                    y = x
                if y < row[p]:
                    row[p] = y
        score.append(row)

    assignment = np.empty(n, dtype=np.intp)
    cid, stack = 0, [(tree.root, k)]
    while stack:
        v, parts = stack.pop()
        if parts == 1:
            assignment[tree.points(v)] = cid
            cid += 1
            continue
        l, r = tree.left[v - n], tree.right[v - n]
        left, right = score[l], score[r]
        i = max(1, parts - len(left))  # the first right-child count that reaches the score
        while max(right[i - 1], left[parts - i - 1]) != score[v][parts - 1]:
            i += 1
        stack.append((r, i))
        stack.append((l, parts - i))
    return Clustering(assignment, k)


def stable_cluster(space: MetricSpace, k: int) -> Clustering:
    """MST -> split tree -> DP.  If any clustering with beta < 1 exists, the
    output's beta matches the best achievable, hence the output is that
    beta-stable for avg.

    The three stages share one :meth:`MetricSpace.pairs` read: n(n-1)/2
    queries, each unordered pair once."""
    check_start(space.n, k)
    D = space.pairs()
    return dp_min_beta(create_tree(D, mst(D)), k)
