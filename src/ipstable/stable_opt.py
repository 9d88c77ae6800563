"""Exact-stability pipeline: minimize the diameter-to-separation ratio beta.

beta(C) is the cluster's diameter divided by its minimum distance to the
rest of the space (0 for C = X); every clustering is beta-stable for the
average objective.  When some clustering with beta < 1 exists, each of its
clusters appears as a node of the tree built by recursively deleting the
longest MST edge, so a dynamic program over that tree recovers a
k-clustering of minimum beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .clustering import Clustering, _ratio as _envy_ratio, check_start
from .metric import MetricSpace

__all__ = [
    "beta",
    "beta_clustering",
    "mst",
    "TreeNode",
    "create_tree",
    "dp_min_beta",
    "stable_cluster",
    "brute_force_min_beta",
]

BRUTE_FORCE_LIMIT = 10


def _ratio(diam: float, sep: float) -> float:
    """diam / sep with 0/0 -> 0 and x/0 -> inf; the scalar form of
    ``clustering._ratio``, free of numpy call overhead on the per-node path."""
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


def mst(space: MetricSpace) -> list[tuple[int, int, float]]:
    """Minimum spanning tree edges ``(min, max, w)``, sorted by (w, min, max).

    Dense Prim over ``space.full()``: O(n^2) time, n^2 queries.  Edges are
    compared by the strict order (weight, min endpoint, max endpoint), so the
    tree is the unique minimum of that order, the one Kruskal picks by the
    same key, also when weights tie.  The weight of {a, b} is d(min, max).
    """
    n = space.n
    if n == 1:
        return []
    D = space.full()
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
    """

    points: np.ndarray
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None
    weight: Optional[float] = None

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


def create_tree(space: MetricSpace, mst_edges) -> TreeNode:
    """Split tree of the MST: each node is split by deleting its longest MST
    edge (ties go to the smallest (min, max) endpoints); ``left`` is the side
    of the edge's min endpoint.

    Built bottom-up as the single-linkage dendrogram: one union-find pass
    merges components along the edges in ascending order of the cut key.
    """
    n = space.n
    if len(mst_edges) != n - 1:
        raise ValueError(f"a spanning tree of {n} points has {n - 1} edges, got {len(mst_edges)}")
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
        points = np.sort(np.concatenate((left.points, right.points)), kind="stable")
        root_of[ra] = rb
        node[rb] = TreeNode(points, left, right, w)
    return node[find(0)]


def _bottom_up_betas(space: MetricSpace, tree: TreeNode) -> list[tuple[TreeNode, float]]:
    """Every node of a :func:`create_tree` tree with its beta, children first.

    sep(child) is the parent's cut weight, and diam(u) is the max of the
    children's diameters and the largest distance across them.  beta(root)
    is 0 by convention, so the root's diameter is never needed and its cross
    block is not read.  The other cross blocks cover each pair not split at
    the root once, with the smaller side on the rows:
    n(n-1)/2 - |left(root)| * |right(root)| queries for the tree.
    """
    nodes = tree.nodes()  # the root first
    sep = {}
    for u in nodes:
        if not u.is_leaf:
            sep[id(u.left)] = sep[id(u.right)] = u.weight
    diam: dict[int, float] = {}
    out = []
    for u in reversed(nodes[1:]):
        if u.is_leaf:
            d = 0.0
        else:
            small, large = sorted((u.left.points, u.right.points), key=len)
            d = max(diam[id(u.left)], diam[id(u.right)], float(space.block(small, large).max()))
        diam[id(u)] = d
        out.append((u, _ratio(d, sep[id(u)])))
    out.append((tree, 0.0))
    return out


def dp_min_beta(space: MetricSpace, tree: TreeNode, k: int) -> Clustering:
    """Minimum-beta k-clustering among those induced by a :func:`create_tree` tree.

    DP over (node, parts): a node is either kept whole (one cluster, its own
    beta) or split along its children; candidate scores combine by max.
    Ties break toward the smallest right-child part count.  A node with s
    points holds only parts 1..min(k, s), and each split visits only the
    right-child counts both children can hold.
    """
    if not 1 <= k <= space.n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={space.n}")
    table: dict[int, list] = {}  # id(node) -> [(beta, i_right)] indexed by parts-1
    for u, node_beta in _bottom_up_betas(space, tree):
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
    assignment = np.empty(space.n, dtype=np.intp)
    for cid, pts in enumerate(clusters):
        assignment[pts] = cid
    return Clustering(assignment, k)


def stable_cluster(space: MetricSpace, k: int) -> Clustering:
    """MST -> split tree -> DP.  If any clustering with beta < 1 exists, the
    output's beta matches the best achievable, hence the output is that
    beta-stable for avg."""
    check_start(space.n, k)
    return dp_min_beta(space, create_tree(space, mst(space)), k)


@lru_cache(maxsize=32)
def _all_partitions(n: int, k: int) -> np.ndarray:
    """Every assignment of n items into exactly k non-empty blocks
    (restricted-growth strings), as a (#partitions, n) array."""
    out = []
    a = [0] * n

    def rec(i, used):
        if n - i < k - used:
            return
        if i == n:
            if used == k:
                out.append(tuple(a))
            return
        for c in range(min(used, k - 1) + 1):
            a[i] = c
            rec(i + 1, max(used, c + 1))

    rec(1, 1)
    return np.array(out, dtype=np.intp)


def brute_force_min_beta(space: MetricSpace, k: int) -> tuple[Clustering, float]:
    """Test oracle: enumerate every k-partition and keep the beta minimizer.

    beta of a partition is the max over clusters of diameter / separation,
    evaluated per cluster (not global max-diameter over global min-gap).
    """
    n = space.n
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force capped at n={BRUTE_FORCE_LIMIT}, got {n}")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}")
    if k == 1:
        return Clustering(np.zeros(n, dtype=np.intp), 1), 0.0
    parts = _all_partitions(n, k)
    D = space.full()
    iu, ju = np.triu_indices(n, k=1)
    dpair = D[iu, ju]
    left, right = parts[:, iu], parts[:, ju]
    worst = np.zeros(len(parts))
    for c in range(k):
        in_left, in_right = left == c, right == c
        same = in_left & in_right
        cross = in_left ^ in_right
        diam = np.where(same, dpair, 0.0).max(axis=1)
        sep = np.where(cross, dpair, np.inf).min(axis=1)
        worst = np.maximum(worst, _envy_ratio(diam, sep))
    best = int(np.argmin(worst))
    return Clustering(parts[best], k), float(worst[best])
