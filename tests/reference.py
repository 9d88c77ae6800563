"""Brute-force oracles and plain re-implementations of library procedures.

No algorithm calls these; the tests check the library against them.  Tests
import this module as they import ``conftest``, and pytest does not collect
it.  Every distance is read through the ``MetricSpace`` API (``row``,
``block``, ``full``), not from a search's objective table.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from ipstable.clustering import Clustering, _ratio
from ipstable.fast import _fast_split_core
from ipstable.median_ip import merge_bound_factor
from ipstable.merge_split import SplitResult, _split_core, split_accept_factor
from ipstable.metric import MetricSpace
from ipstable.potential import SQRT_MEDIAN_SCALE, MaxIpSignature, edge_order, phi_avg, signature_from_order

BRUTE_FORCE_TSP_LIMIT = 8
BRUTE_FORCE_LIMIT = 10


# -- point-to-set objectives ----------------------------------------------------


def _check_nonempty(S):
    S = np.asarray(S, dtype=np.intp)
    if S.size == 0:
        raise ValueError("point set must be non-empty")
    return S


def avg_dist(space: MetricSpace, p: int, S) -> float:
    """Mean of d(p, q) over q in S; the self-term contributes 0 when p is in S."""
    S = _check_nonempty(S)
    return float(space.row(p, S).mean())


def median_dist(space: MetricSpace, p: int, S) -> float:
    """The ceil(|S|/2)-th smallest of {d(p, q)}_{q in S} (1-indexed)."""
    S = _check_nonempty(S)
    return float(np.sort(space.row(p, S))[(len(S) + 1) // 2 - 1])


def max_dist(space: MetricSpace, p: int, S) -> float:
    S = _check_nonempty(S)
    return float(space.row(p, S).max())


OBJECTIVE_DIST = {"avg": avg_dist, "median": median_dist, "max": max_dist}


def most_envious(space: MetricSpace, clustering: Clustering, objective: str) -> tuple[int, int, float]:
    """(point, column, ratio) that ``_ObjectiveTable.most_envious`` returns,
    by plain loops: each point envies its nearest foreign cluster (ties to
    the smallest cluster id) by f(p, C(p)\\{p}) / f(p, C'), 0 for a point of
    a singleton cluster; the largest ratio wins, ties to the smallest point."""
    dist = OBJECTIVE_DIST[objective]
    members = clustering.members()
    best = None
    for p in range(space.n):
        own = clustering.assignment[p]
        rest = members[own][members[own] != p]
        own_f = dist(space, p, rest) if len(rest) else 0.0
        nearest = None
        for c in range(clustering.k):
            if c != own:
                f = dist(space, p, members[c])
                if nearest is None or f < nearest[1]:
                    nearest = (c, f)
        if nearest[1] == 0:
            ratio = math.inf if own_f > 0 else 0.0
        else:
            ratio = own_f / nearest[1]
        if best is None or ratio > best[2]:
            best = (p, nearest[0], ratio)
    return best


# -- potentials -----------------------------------------------------------------


def phi_sqrt_median_exact(space: MetricSpace, C, limit: int = BRUTE_FORCE_TSP_LIMIT) -> float:
    """Exact maximum-TSP potential under sqrt distances, |C| <= limit.

    A two-point tour takes its single edge twice.
    """
    C = np.asarray(C, dtype=np.intp)
    m = len(C)
    if m == 0:
        raise ValueError("cluster must be non-empty")
    if m > limit:
        raise ValueError(f"brute-force potential capped at {limit} points, got {m}")
    if m == 1:
        return 0.0
    W = np.sqrt(space.block(C, C))
    if m == 2:
        return SQRT_MEDIAN_SCALE * 2.0 * float(W[0, 1])
    best = 0.0
    for perm in itertools.permutations(range(1, m)):
        length = W[0, perm[0]] + W[perm[-1], 0]
        for a, b in zip(perm, perm[1:]):
            length += W[a, b]
        if length > best:
            best = length
    return SQRT_MEDIAN_SCALE * float(best)


def phi_sqrt_median_surrogate(space: MetricSpace, C) -> float:
    """sqrt(diameter(C)): a poly-factor under-approximation of the exact potential."""
    C = np.asarray(C, dtype=np.intp)
    if len(C) <= 1:
        return 0.0
    return math.sqrt(float(space.block(C, C).max()))


def max_ip_signature(space: MetricSpace, clustering: Clustering) -> MaxIpSignature:
    iu, ju = edge_order(space)
    return signature_from_order(iu, ju, clustering.assignment)


# -- splits and the median merge bound ------------------------------------------


def split(space: MetricSpace, clustering: Clustering, rng: np.random.Generator) -> SplitResult:
    """Randomized split of the highest-potential cluster (exact potentials)."""
    candidates = [(cid, m, phi_avg(space, m)) for cid, m in enumerate(clustering.members())]
    n = space.n
    return _split_core(n, candidates, lambda idx: phi_avg(space, idx), split_accept_factor(n), rng)


def fast_split(space: MetricSpace, clustering: Clustering, rng: np.random.Generator) -> SplitResult:
    """Randomized split of the cluster with the highest estimated potential."""
    return _fast_split_core(space, list(enumerate(clustering.members())), rng)


def median_merge_bound(space: MetricSpace, C, C_other, p: int) -> float:
    """Upper bound on the sqrt-median potential increase of merging two
    disjoint clusters, from p's medians to each (p's own zero counts)."""
    if len(C) == 0 or len(C_other) == 0:
        raise ValueError("clusters must be non-empty")
    return merge_bound_factor(space.n) * (
        math.sqrt(median_dist(space, p, C)) + math.sqrt(median_dist(space, p, C_other))
    )


def median_split(space: MetricSpace, clustering: Clustering) -> SplitResult:
    """Detach the endpoint of the globally farthest intra-cluster pair with the
    larger median distance to the rest of its cluster.

    The first cluster holding the largest distance is split; its farthest
    pair is the smallest (i, j), i < j, and i detaches when the medians tie.
    The returned halves are (cluster minus one point, singleton); potentials
    are sqrt-diameter surrogates.
    """
    best = None
    for cid, m in enumerate(clustering.members()):
        if len(m) < 2:
            continue
        block = space.block(m, m)
        flat = int(np.argmax(block))
        if best is None or block.flat[flat] > best[0]:
            i, j = sorted(divmod(flat, len(m)))
            best = (float(block.flat[flat]), cid, m, int(m[i]), int(m[j]))
    if best is None:
        raise ValueError("no cluster with more than one point to split")
    d, cid, members, i, j = best
    med_i = median_dist(space, i, members[members != i])
    med_j = median_dist(space, j, members[members != j])
    detach = i if med_i >= med_j else j
    rest = members[members != detach]
    return SplitResult(
        cid, members, rest, np.array([detach], dtype=np.intp),
        math.sqrt(d), phi_sqrt_median_surrogate(space, rest), 0.0, 1,
    )


# -- minimum beta by enumeration ------------------------------------------------


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
    """Enumerate every k-partition and keep the beta minimizer.

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
        worst = np.maximum(worst, _ratio(diam, sep))
    best = int(np.argmin(worst))
    return Clustering(parts[best], k), float(worst[best])
