"""Median-stable clustering through the square-root-median potential.

The search certifies progress against the max-TSP potential under sqrt
distances without ever computing it: a swap of a point whose sqrt-median
envy exceeds c*alpha_base shrinks the potential by at least half the
removed term, and a merge-and-split step pays a merge cost bounded by
poly(n) times the square roots of the violator's medians to the two merged
clusters (``_merge_cost``), while the one-point split of the widest
cluster recovers at least sqrt(d_max/2), where d_max is the largest
intra-cluster distance.
Squaring the final guarantee turns (c*alpha_base)-stability for
sqrt(median) into (c*alpha_base)^2-stability for median.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clustering import Clustering, _MedianTable, check_max_steps
from .local_search import DEFAULT_MAX_STEPS, LsTrace, Step, _begin, search
from .merge_split import kcenter_init
from .metric import MetricSpace
from .potential import SQRT_MEDIAN_SCALE

__all__ = ["MedianConfig", "median_ip_cluster", "merge_bound_factor"]


@dataclass(frozen=True)
class MedianConfig:
    """c is the framework multiplier; alpha_base the sqrt-median sandwich
    constant (validated by the brute-force sweep before being frozen).
    The output targets (c*alpha_base)-stability for sqrt(median), hence
    (c*alpha_base)^2 for median."""

    c: float = 2.0
    alpha_base: float = 10.25
    max_steps: int = DEFAULT_MAX_STEPS
    seed: int = 0  # unused: the search and its k-center start are deterministic

    def __post_init__(self):
        if not self.c > 1:  # NaN-safe
            raise ValueError("c must exceed 1")
        if not self.alpha_base > 0:
            raise ValueError("alpha_base must be positive")
        check_max_steps(self.max_steps)

    @property
    def sqrt_alpha(self) -> float:
        return self.c * self.alpha_base

    @property
    def median_alpha(self) -> float:
        return self.sqrt_alpha**2


def merge_bound_factor(n: int) -> float:
    """poly(n) factor of the merge bound, from the tour-surgery constants."""
    return (4.0 * n + 4.0) * SQRT_MEDIAN_SCALE


def _merge_cost(n: int, med_a: float, med_b: float) -> float:
    """The merge bound from p's median distances to the two clusters."""
    return merge_bound_factor(n) * (math.sqrt(med_a) + math.sqrt(med_b))


def _split_sharpest(table: _MedianTable) -> None:
    """Apply the deterministic one-point split to the widest cluster (ties go
    to the older one): of its farthest pair i < j, detach the endpoint with
    the larger median distance to the rest of the cluster (ties to i).  The
    pair is the first largest block entry in row-major order over sorted
    members: the first row whose maximum over the cluster (from its tiles) is
    the diameter, then that row's first largest entry, which lies at or after
    that row, as the table is symmetric.  The medians are the table's own."""
    best = max((c for c, m in enumerate(table.members) if len(m) > 1), key=lambda c: (table.diameter_of(c), -c))
    m = np.sort(table.members[best])
    for at, tile in table._tiles(best, m):
        hit = np.flatnonzero(tile.max(axis=0) == table.diameter_of(best))
        if len(hit):
            break
    i = at[hit[0]]
    j = m[np.argmax(table._dist(i, m))]
    detach = i if table._own[i] >= table._own[j] else j
    table.split(best, m[m != detach], np.array([detach], dtype=np.intp))


def median_ip_cluster(
    space: MetricSpace,
    k: int,
    config: MedianConfig = MedianConfig(),
    initial: Clustering | None = None,
) -> tuple[Clustering, LsTrace]:
    """Merge-and-split local search for the median objective.

    Starts from the greedy k-center clustering unless ``initial`` overrides it.
    The objective table is the search's only state: the medians are read
    from its windows of each row's sorted distances, and the split gain and
    the split from its one cached diameter per cluster.  The search computes
    no potential; its steps record their moves and thresholds.
    """
    n = space.n
    table = _MedianTable(space, _begin(space, k, initial, kcenter_init))

    def step(p, src, dst):
        gain = math.sqrt(max(table.diameter_of(c) for c in range(table.k)) / 2.0) * SQRT_MEDIAN_SCALE
        # p's median to its own cluster src counts p's own zero
        if _merge_cost(n, table.table[p, src], table.table[p, dst]) < gain / 2.0:
            table.merge(src, dst)
            _split_sharpest(table)
            kind = "merge_split"
        else:
            table.move(p, dst)
            kind = "swap"
        return Step(kind, p, src, dst, threshold=gain / 2.0)

    # the violation threshold is in (un-rooted) median space
    return search(table, config.median_alpha, config.max_steps, step, ("swap", "merge_split"))
