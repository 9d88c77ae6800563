"""Greedy k-center seeding, the randomized cluster split, and merge-and-split search.

The search keeps exact avg(p, C) sums for every point and cluster.  When the
most envious point sits far from its cluster it swaps as in the natural
local search; when every violator is close to its cluster (envy below the
threshold T = Phi/(4*k*log2(n))/(5*n*log2(n))), swapping makes too little
progress, so the two involved clusters are merged and a high-potential
cluster is split instead.  Either step cuts the potential by a fixed
fraction, which bounds the total step count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .clustering import Clustering, _AvgTable
from .local_search import DEFAULT_MAX_STEPS, LsTrace, Step, _begin, search
from .metric import MetricSpace, rng_from_seed

__all__ = ["SplitResult", "kcenter_init", "merge_split_ls"]


def split_accept_factor(n: int) -> float:
    """Accepted splits must shed at least this fraction of the cluster potential."""
    return 1.0 / (4.0 * math.log2(max(n, 2)))


def default_split_attempts(n: int) -> int:
    return 64 * max(1, math.ceil(math.log2(max(n, 2))))


@dataclass
class SplitResult:
    cluster_id: int
    cluster: np.ndarray
    half_a: np.ndarray  # size ceil(|C*|/2)
    half_b: np.ndarray
    phi_cluster: float
    phi_a: float
    phi_b: float
    attempts: int


def kcenter_init(space: MetricSpace, k: int) -> Clustering:
    """Gonzalez greedy 2-approximation; deterministic.

    The first center is point 0; each next center is the point farthest from
    the chosen ones (ties to the smallest index); points go to their nearest
    center (ties to the smallest center index).  O(nk) distance queries.
    """
    n = space.n
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    centers = [0]
    rows = [space.row(0)]
    mind = rows[0].copy()
    for _ in range(1, k):
        mind[centers] = -np.inf
        nxt = int(np.argmax(mind))
        centers.append(nxt)
        rows.append(space.row(nxt))
        mind = np.minimum(mind, rows[-1])
    assignment = np.argmin(np.stack(rows), axis=0)
    for j, c in enumerate(centers):
        assignment[c] = j  # duplicates must not leave a center's cluster empty
    return Clustering(assignment, k)


def _split_core(
    n: int,
    candidates: list[tuple[int, np.ndarray, float]],
    phi: Callable[[np.ndarray], float],
    accept: float,
    rng: np.random.Generator,
) -> SplitResult:
    """Pick the max-potential splittable cluster (ties to the smallest id) and
    resample random halves, scored by ``phi``, until the two halves shed an
    ``accept`` fraction of its potential."""
    splittable = [(cid, m, phi_c) for cid, m, phi_c in candidates if len(m) > 1]
    if not splittable:
        raise ValueError("no cluster with more than one point to split")
    cid, members, phi_star = max(splittable, key=lambda t: (t[2], -t[0]))
    target = phi_star * (1.0 - accept)
    cap = default_split_attempts(n)
    m = len(members)
    half = (m + 1) // 2
    for attempt in range(1, cap + 1):
        perm = rng.permutation(m)
        ha, hb = members[perm[:half]], members[perm[half:]]
        phi_a = phi(ha)
        phi_b = phi(hb)
        if phi_a + phi_b <= target:
            return SplitResult(cid, members, ha, hb, phi_star, phi_a, phi_b, attempt)
    raise RuntimeError(
        f"split did not find an acceptable partition in {cap} attempts "
        "(probability polynomially small; indicates a bug or adversarial input)"
    )


def merge_split_ls(
    space: MetricSpace,
    k: int,
    seed: int = 0,
    max_steps: int = DEFAULT_MAX_STEPS,
    initial: Optional[Clustering] = None,
) -> tuple[Clustering, LsTrace]:
    """Merge-and-split local search; returns a 4*log2(n)-stable clustering for avg.

    Starts from the greedy k-center clustering unless ``initial`` overrides it.
    """
    n = space.n
    rng = rng_from_seed(seed)
    table = _AvgTable(space, _begin(space, k, initial, kcenter_init, max_steps))

    def pair_phi(idx: np.ndarray) -> float:
        return math.log2(len(idx)) / len(idx) * float(table._dist(*np.ix_(idx, idx)).sum())

    def step(p, src, dst):
        phi = table.phi()  # the last step's phi_after, summed from cached terms
        threshold = phi / (4.0 * k * math.log2(n)) / (5.0 * n * math.log2(n))
        # p's average distance to the rest of src (p is the most envious
        # point, so src is no singleton)
        if table._own[p] >= threshold:
            table.move(p, dst)
            return Step("swap", p, src, dst, phi, table.phi(), threshold)
        table.merge(src, dst)
        candidates = [(c, m, table.phi_of(c)) for c, m in enumerate(table.members)]
        result = _split_core(n, candidates, pair_phi, split_accept_factor(n), rng)
        table.split(result.cluster_id, result.half_a, result.half_b)
        return Step("merge_split", p, src, dst, phi, table.phi(), threshold)

    return search(table, 4.0 * math.log2(n), max_steps, step, ("swap", "merge_split"))
