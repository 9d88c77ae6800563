"""Brute-force oracles and plain re-implementations of library procedures.

No algorithm calls these; the tests check the library against them.  Tests
import this module as they import ``conftest``, and pytest does not collect
it.  Every distance is read through the ``MetricSpace`` API (``row``,
``block``, ``full``), not from a search's objective table; only
``envy_from_columns`` reads a table's columns, to re-derive the envy state
that the table keeps current.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from ipstable.clustering import Clustering
from ipstable.fast import _fast_split_core
from ipstable.median_ip import merge_bound_factor
from ipstable.merge_split import SplitResult, _split_core, split_accept_factor
from ipstable.metric import MetricSpace
from ipstable.potential import SQRT_MEDIAN_SCALE, MaxIpSignature, phi_avg

BRUTE_FORCE_TSP_LIMIT = 8
BRUTE_FORCE_LIMIT = 10


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Envy ratio with the conventions 0/0 = 0 and x/0 = +inf for x > 0,
    by masks."""
    zero_den = den == 0
    return np.where(
        zero_den,
        np.where(num > 0, np.inf, 0.0),
        num / np.where(zero_den, 1.0, den),
    )


# -- former library methods that only tests called ------------------------------


def distance(space: MetricSpace, i: int, j: int) -> float:
    """d(i, j); one query."""
    return float(space.block([i], [j])[0, 0])


def singletons(n: int) -> Clustering:
    return Clustering(np.arange(n), n)


def from_members(member_lists) -> Clustering:
    """Cluster c holds the indices in ``member_lists[c]``; together the
    lists must hold each of 0..n-1 exactly once."""
    sizes = [len(m) for m in member_lists]
    flat = np.concatenate([np.asarray(m, dtype=np.intp) for m in member_lists])
    if not np.array_equal(np.sort(flat), np.arange(flat.size)):
        raise ValueError("member lists must partition 0..n-1 (an index repeats, is missing or is out of range)")
    assignment = np.empty(flat.size, dtype=np.intp)
    assignment[flat] = np.repeat(np.arange(len(sizes)), sizes)
    return Clustering(assignment, len(sizes))


def bits(signature: MaxIpSignature) -> np.ndarray:
    """The signature's bits, unpacked."""
    return np.unpackbits(np.frombuffer(signature.packed, dtype=np.uint8))[: signature.nbits]


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
    """(point, column, ratio) that an objective table's ``most_envious`` returns,
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


def envy_from_columns(objective: str, table: np.ndarray, sizes, assign, D: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ratio, foreign) that an objective table's ``envy`` returns, derived in one
    vectorized pass from an objective table's columns (``table``: distance
    sums for avg, f(p, C_c) otherwise), its cluster sizes and its assignment;
    each point's own median comes from the distance table ``D``, at rank
    |C(p)| // 2 of its sorted row over C(p) (p's own zero shifts the rank).
    foreign is f(p, C_c) with each point's own column set to inf; the ratio
    is f(p, C(p)\\{p}) over the row minimum of foreign (0/0 = 0, x/0 = inf;
    0 for a point of a singleton cluster)."""
    n = len(assign)
    rows = np.arange(n)
    own_sizes = sizes[assign]
    multi = own_sizes > 1
    if objective == "avg":
        foreign = table / sizes
        own = np.divide(table[rows, assign], own_sizes - 1, out=np.zeros(n), where=multi)
    else:
        foreign = table.copy()
        if objective == "max":
            own = table[rows, assign]
        else:
            own = np.array([np.sort(D[p, assign == assign[p]])[own_sizes[p] // 2] for p in range(n)])
        own[~multi] = 0.0
    foreign[rows, assign] = np.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = own / foreign.min(axis=1)
    ratio[np.isnan(ratio)] = 0.0
    return ratio, foreign


def delete_sorted(block: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Delete the first copy of vals[r] from each sorted column r of the
    rank-major block, by ``np.delete`` at the flat positions of the copies
    in the transposed (row-major) block."""
    width, n = block.shape
    rows = block.T
    at = np.count_nonzero(rows < vals[:, None], axis=1)
    return np.delete(rows.ravel(), np.arange(n) * width + at).reshape(n, width - 1).T


def insert_sorted(block: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Insert vals[r] into each sorted column r of the rank-major block
    before its first entry not below vals[r], by ``np.insert`` at those flat
    positions in the transposed (row-major) block."""
    width, n = block.shape
    rows = block.T
    at = np.count_nonzero(rows < vals[:, None], axis=1)
    return np.insert(rows.ravel(), np.arange(n) * width + at, vals).reshape(n, width + 1).T


def gather_sums(space: MetricSpace, members) -> np.ndarray:
    """Each point's distance sum to ``members``, by the n x |C| column gather
    of the ``pairs()`` table: numpy returns the gather F-ordered, so each
    row adds the members left to right, in the order given."""
    return space.pairs()[:, members].sum(axis=1)


def gather_maxima(space: MetricSpace, members) -> np.ndarray:
    """Each point's largest distance to ``members``, by the same gather."""
    return space.pairs()[:, members].max(axis=1)


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


def max_ip_signature(space: MetricSpace, assignment) -> MaxIpSignature:
    """The max-IP edge signature by plain loops: the edges (i, j), i < j,
    sorted by (-d(i, j), i, j), one bit per edge, 1 iff i and j share a
    label; packed eight bits to a byte, the first edge in the high bit."""
    D = space.pairs()
    n = space.n
    edges = sorted((-float(D[i, j]), i, j) for i in range(n) for j in range(i + 1, n))
    bits = [int(assignment[i] == assignment[j]) for _, i, j in edges]
    packed = bytearray(-(-len(bits) // 8))
    for e, bit in enumerate(bits):
        packed[e // 8] |= bit << (7 - e % 8)
    return MaxIpSignature(bytes(packed), len(bits))


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
    D = space.pairs()
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
