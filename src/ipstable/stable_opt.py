"""Exact-stability pipeline: minimize the diameter-to-separation ratio beta.

beta(C) is the cluster's diameter divided by its minimum distance to the
rest of the space (0 for C = X); every clustering is beta-stable for the
average objective.  When some clustering with beta < 1 exists, each of its
clusters appears as a node of the tree built by recursively deleting the
longest MST edge, so a dynamic program over that tree recovers a
k-clustering of minimum beta.

The pipeline reads the distances once, as the symmetric table
:meth:`MetricSpace.pairs` returns (n(n-1)/2 queries).  Prim's MST and the
split tree's node diameters are computed on that table, and the DP takes
each node's beta from its diameter and its parent's cut weight.  Only
:func:`beta` queries the space itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .clustering import Clustering, check_start
from .metric import _BLOCK_CHUNK_ELEMS, MetricSpace

__all__ = [
    "beta",
    "beta_clustering",
    "mst",
    "TreeNode",
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
    """diameter(C) / min distance from C to X \\ C; 0 for C = X, 0/0 -> 0."""
    C = np.asarray(C, dtype=np.intp)
    if len(C) == 0:
        raise ValueError("cluster must be non-empty")
    if len(C) == space.n:
        return 0.0
    inside = np.zeros(space.n, dtype=bool)
    inside[C] = True
    outside = np.nonzero(~inside)[0]
    diam = float(space.block(C, C).max()) if len(C) > 1 else 0.0
    sep = float(space.block(C, outside).min())
    return _ratio(diam, sep)


def beta_clustering(space: MetricSpace, clustering: Clustering) -> float:
    return max(beta(space, m) for m in clustering.members())


def mst(D: np.ndarray) -> list[tuple[int, int, float]]:
    """Minimum spanning tree edges ``(min, max, w)`` of the n x n table ``D``,
    sorted by (w, min, max).

    Dense Prim in O(n^2) time that reads only the upper triangle, so the
    weight of {a, b} is ``D[min, max]``; pass :meth:`MetricSpace.pairs`.
    Edges are compared by the strict order (weight, min endpoint, max
    endpoint), so the tree is the unique minimum of that order, the one
    Kruskal picks by the same key, also when weights tie.
    """
    n = len(D)
    if n == 1:
        return []
    in_tree = np.zeros(n, dtype=bool)
    best_w = np.full(n, np.inf)  # per outside point: lightest edge into the tree (inf inside)
    best_u = np.zeros(n, dtype=np.intp)  # its tree endpoint
    edges = []
    u = 0
    for _ in range(n - 1):
        in_tree[u] = True
        best_w[u] = np.inf
        w = D[u].copy()
        w[:u] = D[:u, u]
        # for a fixed outside point, equal weights tie-break on the smaller tree endpoint
        better = ~in_tree & ((w < best_w) | ((w == best_w) & (u < best_u)))
        best_w[better] = w[better]
        best_u[better] = u
        ties = np.flatnonzero(best_w == best_w.min())
        if len(ties) > 1:
            lo = np.minimum(best_u[ties], ties)
            hi = np.maximum(best_u[ties], ties)
            ties = ties[np.lexsort((hi, lo))]
        u = int(ties[0])
        a, b = sorted((int(best_u[u]), u))
        edges.append((a, b, float(best_w[u])))
    edges.sort(key=lambda e: (e[2], e[0], e[1]))
    return edges


@dataclass
class TreeNode:
    """Node of the recursive max-edge split tree; ``points`` is the represented set.

    ``weight`` is the length of the MST edge whose deletion splits the node
    into ``left`` and ``right`` (None for a leaf).  It is the separation of
    both children: by the MST cut property, the lightest MST edge leaving a
    child is also its minimum distance to the rest of the space.
    ``diameter`` is the largest distance between two of the node's points,
    read from the table the tree was built on (0 for a leaf).
    """

    points: np.ndarray
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None
    weight: Optional[float] = None
    diameter: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def nodes(self) -> list["TreeNode"]:
        """Every node of the subtree, each parent before its children."""
        out, stack = [], [self]
        while stack:
            u = stack.pop()
            out.append(u)
            if not u.is_leaf:
                stack.extend((u.left, u.right))
        return out


def create_tree(D: np.ndarray, mst_edges) -> TreeNode:
    """Split tree of the MST of the n x n table ``D``: each node is split by
    deleting its longest MST edge (ties go to the smallest (min, max)
    endpoints); ``left`` is the side of the edge's min endpoint.

    Built bottom-up as the single-linkage dendrogram: one union-find pass
    merges components along the edges in ascending order of the cut key.
    A merged node's diameter is the largest of its children's and of the
    cross block between them; the cross blocks cover each pair once.  The
    block is gathered from ``D`` with the smaller side on the rows, since
    each row is copied whole first, so ``D`` must be symmetric, as
    :meth:`MetricSpace.pairs` is.  Its max is taken over row chunks whose
    copied rows hold at most ``_BLOCK_CHUNK_ELEMS`` cells.
    """
    n = len(D)
    if len(mst_edges) != n - 1:
        raise ValueError(f"a spanning tree of {n} points has {n - 1} edges, got {len(mst_edges)}")
    step = max(1, _BLOCK_CHUNK_ELEMS // n)
    root_of = list(range(n))
    node = [TreeNode(np.array([p], dtype=np.intp)) for p in range(n)]  # by component root

    def find(x):
        while root_of[x] != x:
            root_of[x] = root_of[root_of[x]]
            x = root_of[x]
        return x

    for a, b, w in sorted(mst_edges, key=lambda e: (e[2], -e[0], -e[1])):
        ra, rb = find(a), find(b)
        if ra == rb:
            raise ValueError("MST edges contain a cycle")
        left, right = node[ra], node[rb]
        small, large = sorted((left.points, right.points), key=len)
        diameter = max(left.diameter, right.diameter)
        for lo in range(0, len(small), step):
            diameter = max(diameter, float(D.take(small[lo : lo + step], 0).take(large, 1).max()))
        points = np.sort(np.concatenate((left.points, right.points)), kind="stable")
        root_of[ra] = rb
        node[rb] = TreeNode(points, left, right, w, diameter)
    return node[find(0)]


def _bottom_up_betas(tree: TreeNode) -> list[tuple[TreeNode, float]]:
    """Every node of a :func:`create_tree` tree with its beta, children first.

    A node's beta is its diameter over its separation, the parent's cut
    weight; beta(root) is 0 by convention.  No distance is read.
    """
    nodes = tree.nodes()  # the root first
    sep = {}
    for u in nodes:
        if not u.is_leaf:
            sep[id(u.left)] = sep[id(u.right)] = u.weight
    out = [(u, _ratio(u.diameter, sep[id(u)])) for u in reversed(nodes[1:])]
    out.append((tree, 0.0))
    return out


def dp_min_beta(tree: TreeNode, k: int) -> Clustering:
    """Minimum-beta k-clustering among those induced by a :func:`create_tree` tree.

    DP over (node, parts): a node is either kept whole (one cluster, its own
    beta) or split along its children; candidate scores combine by max.
    Ties break toward the smallest right-child part count.  A node with s
    points holds only parts 1..min(k, s), and each split visits only the
    right-child counts both children can hold.
    """
    n = len(tree.points)
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    table: dict[int, list] = {}  # id(node) -> [(beta, i_right)] indexed by parts-1
    for u, node_beta in _bottom_up_betas(tree):
        row = [(node_beta, 0)]
        if not u.is_leaf:
            right, left = table[id(u.right)], table[id(u.left)]
            for parts in range(2, min(k, len(u.points)) + 1):
                best = None
                for i in range(max(1, parts - len(left)), min(parts - 1, len(right)) + 1):
                    score = max(right[i - 1][0], left[parts - i - 1][0])
                    if best is None or score < best[0]:
                        best = (score, i)
                row.append(best)
        table[id(u)] = row

    clusters: list[np.ndarray] = []
    stack = [(tree, k)]
    while stack:
        u, parts = stack.pop()
        if parts == 1:
            clusters.append(u.points)
            continue
        _, i = table[id(u)][parts - 1]
        stack.append((u.right, i))
        stack.append((u.left, parts - i))
    assignment = np.empty(n, dtype=np.intp)
    for cid, pts in enumerate(clusters):
        assignment[pts] = cid
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

