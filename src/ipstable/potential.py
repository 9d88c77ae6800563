"""Potential functions certifying termination of the local searches.

Two certificates live here, and the scale of a third:

* ``phi_avg``: log2|C| times the sum of within-cluster average distances.
  Adding a point p to a set S raises it by between avg(p, S) and
  2*log2(n)*avg(p, S), which is why local search with alpha >= 2*log2(n)
  strictly decreases the clustering total.  All logarithms are base 2.
* ``MaxIpSignature``: the bit string over distance-sorted clique edges
  (``edge_order``) marking same-cluster pairs; max-IP moves strictly
  decrease it lexicographically.
* ``SQRT_MEDIAN_SCALE``: 1/(2 - sqrt(2)), the factor of the median search's
  potential, the maximum-length travelling-salesman tour under
  square-rooted edge lengths.  Maximum TSP is intractable, so the search
  never computes it; it tracks the sqrt-diameter surrogate instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clustering import Clustering
from .metric import MetricSpace

__all__ = ["phi_avg", "phi_avg_clustering", "MaxIpSignature", "SQRT_MEDIAN_SCALE"]

SQRT_MEDIAN_SCALE = 1.0 / (2.0 - math.sqrt(2.0))


def phi_avg(space: MetricSpace, C) -> float:
    """(log2|C| / |C|) * sum of all ordered pairwise distances in C; 0 for singletons."""
    C = np.asarray(C, dtype=np.intp)
    m = len(C)
    if m == 0:
        raise ValueError("cluster must be non-empty")
    if m == 1:
        return 0.0
    pair_sum = space.block(C, C).sum()
    return math.log2(m) / m * float(pair_sum)


def phi_avg_clustering(space: MetricSpace, clustering: Clustering) -> float:
    return sum(phi_avg(space, m) for m in clustering.members())


@dataclass(frozen=True)
class MaxIpSignature:
    """Bit string over clique edges sorted by non-increasing length.

    Bit i is 1 iff both endpoints of the i-th edge share a cluster.  Packed
    big-endian, so byte-wise comparison is bit-lexicographic.
    """

    packed: bytes
    nbits: int

    def __lt__(self, other: "MaxIpSignature") -> bool:
        return self.packed < other.packed

    def bits(self) -> np.ndarray:
        return np.unpackbits(np.frombuffer(self.packed, dtype=np.uint8))[: self.nbits]


def edge_order(space: MetricSpace) -> tuple[np.ndarray, np.ndarray]:
    """Clique edges sorted by (-length, min endpoint, max endpoint); fixed per space."""
    n = space.n
    iu, ju = np.triu_indices(n, k=1)
    w = space.full()[iu, ju]
    order = np.lexsort((ju, iu, -w))
    return iu[order], ju[order]


def signature_from_order(iu: np.ndarray, ju: np.ndarray, assignment: np.ndarray) -> MaxIpSignature:
    """Signature against a precomputed edge order (saves re-sorting per step)."""
    same = assignment[iu] == assignment[ju]
    return MaxIpSignature(np.packbits(same).tobytes(), len(same))

