"""Median-stable clustering through the square-root-median potential.

The search certifies progress against the max-TSP potential under sqrt
distances without ever computing it: a swap of a point whose sqrt-median
envy exceeds c*alpha_base shrinks the potential by at least half the
removed term, and a merge-and-split step pays a merge cost bounded by
``median_merge_bound`` while the split recovers at least
sqrt(d_max/2), where d_max is the largest intra-cluster distance.
Squaring the final guarantee turns (c*alpha_base)-stability for
sqrt(median) into (c*alpha_base)^2-stability for median.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .clustering import Clustering, _ObjectiveTable, check_start
from .local_search import LsTrace, Step, search
from .merge_split import SplitResult, kcenter_init
from .metric import MetricSpace
from .potential import SQRT_MEDIAN_SCALE

__all__ = ["MedianConfig", "median_split", "median_merge_bound", "median_ip_cluster", "merge_bound_factor"]


@dataclass(frozen=True)
class MedianConfig:
    """c is the framework multiplier; alpha_base the sqrt-median sandwich
    constant (validated by the brute-force sweep before being frozen).
    The output targets (c*alpha_base)-stability for sqrt(median), hence
    (c*alpha_base)^2 for median."""

    c: float = 2.0
    alpha_base: float = 10.25
    max_steps: int = 10**6
    seed: int = 0  # unused: the search and its k-center start are deterministic

    def __post_init__(self):
        if self.c <= 1:
            raise ValueError("c must exceed 1")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")

    @property
    def sqrt_alpha(self) -> float:
        return self.c * self.alpha_base

    @property
    def median_alpha(self) -> float:
        return self.sqrt_alpha**2


def merge_bound_factor(n: int) -> float:
    """poly(n) factor of the merge bound, from the tour-surgery constants."""
    return (4.0 * n + 4.0) * SQRT_MEDIAN_SCALE


def _median_of_row(vals: np.ndarray) -> float:
    kth = (len(vals) + 1) // 2 - 1
    return float(np.partition(vals, kth)[kth])


def _merge_cost(n: int, med_a: float, med_b: float) -> float:
    """The merge bound from p's median distances to the two clusters."""
    return merge_bound_factor(n) * (math.sqrt(med_a) + math.sqrt(med_b))


def median_merge_bound(space: MetricSpace, C, C_other, p: int) -> float:
    """Computable upper bound on the sqrt-median potential increase of
    merging two disjoint clusters."""
    C = np.asarray(C, dtype=np.intp)
    C_other = np.asarray(C_other, dtype=np.intp)
    if len(C) == 0 or len(C_other) == 0:
        raise ValueError("clusters must be non-empty")
    return _merge_cost(space.n, _median_of_row(space.row(p, C)), _median_of_row(space.row(p, C_other)))


def _farthest_pair(block: np.ndarray, members: np.ndarray) -> tuple[int, int, float]:
    """Max-distance pair in a sorted member block, smaller index first, and
    the largest entry of the block; ties to smallest indices."""
    flat = int(np.argmax(block))
    i, j = sorted(divmod(flat, block.shape[1]))
    return int(members[i]), int(members[j]), float(block.flat[flat])


def _detach(row: Callable[[int, np.ndarray], np.ndarray], members: np.ndarray, i: int, j: int) -> int:
    """Of the farthest pair i < j, the endpoint with the larger median distance
    to the rest of the cluster (ties to i); ``row(p, idx)`` reads distances."""
    med_i = _median_of_row(row(i, members[members != i]))
    med_j = _median_of_row(row(j, members[members != j]))
    return i if med_i >= med_j else j


def median_split(space: MetricSpace, clustering: Clustering) -> SplitResult:
    """Detach the endpoint of the globally farthest intra-cluster pair with the
    larger median distance to the rest of its cluster.

    The returned halves are (cluster minus one point, singleton); potentials
    are sqrt-diameter surrogates.
    """
    best = None
    for cid, m in enumerate(clustering.members()):
        if len(m) < 2:
            continue
        block = space.block(m, m)
        i, j, d = _farthest_pair(block, m)
        if best is None or d > best[0]:
            best = (d, cid, m, i, j)
    if best is None:
        raise ValueError("no cluster with more than one point to split")
    d, cid, members, i, j = best
    detach = _detach(space.row, members, i, j)
    rest = members[members != detach]
    phi_star = math.sqrt(d)
    rest_block = space.block(rest, rest)
    phi_a = math.sqrt(float(rest_block.max())) if len(rest) > 1 else 0.0
    return SplitResult(cid, members, rest, np.array([detach], dtype=np.intp), phi_star, phi_a, 0.0, 1)


def _diameter(D: np.ndarray, members: np.ndarray) -> tuple[float, int, int]:
    """(d, i, j) of a cluster's farthest pair, ties to the smallest indices;
    (0, p, p) for a singleton {p}."""
    m = np.sort(members)
    if len(m) < 2:
        return 0.0, int(m[0]), int(m[0])
    i, j, d = _farthest_pair(D[np.ix_(m, m)], m)
    return d, i, j


def _split_sharpest(table: _ObjectiveTable) -> None:
    """Apply the deterministic one-point split to the widest cluster; ties go
    to the older one."""
    best = max((c for c, m in enumerate(table.members) if len(m) > 1), key=lambda c: (table.diameter_of(c), -c))
    m = np.sort(table.members[best])
    _, i, j = _diameter(table.D, m)
    detach = _detach(lambda q, idx: table.D[q, idx], m, i, j)
    table.split(best, m[m != detach], np.array([detach], dtype=np.intp))


def median_ip_cluster(
    space: MetricSpace,
    k: int,
    config: MedianConfig = MedianConfig(),
    initial: Clustering | None = None,
) -> tuple[Clustering, LsTrace]:
    """Merge-and-split local search for the median objective.

    Starts from the greedy k-center clustering unless ``initial`` overrides it.
    The objective table is the search's only state: the medians, and the
    diameters behind the sqrt-diameter surrogate and the split, are read
    from its sorted median blocks.
    """
    n = space.n
    check_start(n, k, initial)
    table = _ObjectiveTable(space, initial if initial is not None else kcenter_init(space, k), "median")

    def diameters():
        return [table.diameter_of(c) for c in range(table.k)]

    def step(p, src, dst, phi):
        gain = math.sqrt(max(diameters()) / 2.0) * SQRT_MEDIAN_SCALE
        # the table's medians count p's own zero, as median_merge_bound's reads do
        if _merge_cost(n, table.table[p, src], table.table[p, dst]) < gain / 2.0:
            table.merge(src, dst)
            _split_sharpest(table)
            kind = "merge_split"
        else:
            table.move(p, dst)
            kind = "swap"
        return Step(kind, p, src, dst, threshold=gain / 2.0)

    def surrogate_phi():
        return sum(math.sqrt(d) for d in diameters())

    # the violation threshold is in (un-rooted) median space
    return search(table, config.median_alpha, config.max_steps, step, surrogate_phi, ("swap", "merge_split"))
