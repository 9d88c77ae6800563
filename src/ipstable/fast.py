"""Near-linear-time stable clustering via importance-sampled average estimates.

``calc_average`` estimates avg(p, C) for a batch of query points from t
mixed samples per point: a weighted stream (probability proportional to the
distance from a central point) blended with a uniform stream.  Estimates
err one-sidedly: avg <= est <= (1+eps)*avg with high probability.

``epoch`` runs one phase of the local search on cached estimates, tracking
per-cluster additive error budgets and swap counts; clusters whose caches
drift too far are re-estimated.  Membership is read from the assignment
array alone.  Each swap takes the violator found by one O(n*k) scan of the
cached estimates, which makes no query.  The epoch also caches one
estimated potential per cluster: a re-estimate of C sets it from the new
averages at no extra cost, and a swap or a merge-and-split drops it for
every cluster whose members changed, so the potential check after a
re-estimate samples only those clusters.  An epoch either certifies
16*log2(n) stability or ends early having cut the true potential below 3/4
of its input value.  ``fast_ls`` chains epochs until an epoch's output
potential, read from its cache, is at least 7/8 of its input estimate.

Implementation note on sampling: per query point the t mixed samples are
i.i.d. over the cluster members, so the estimator is computed from a
multinomial draw of the per-member sample counts rather than a length-t
loop.  The distribution per query point is identical; the query counter is
charged t per query point, matching the sampled evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .clustering import Clustering, check_start
from .local_search import CONVERGED, LsTrace
from .merge_split import SplitResult, _split_core, kcenter_init
from .metric import MetricSpace, rng_from_seed

__all__ = [
    "calc_central_point",
    "calc_average",
    "calc_potential",
    "EpochState",
    "EpochResult",
    "epoch",
    "fast_ls",
    "IP_STABLE",
    "POTENTIAL_DROPPED",
]

IP_STABLE = "ip_stable"
POTENTIAL_DROPPED = "potential_dropped"

EPOCH_EPS = 0.1
EPOCH_STEP_CAP = 10**7

_CHUNK_CELLS = 2_000_000


def sample_count(n: int, eps: float) -> int:
    """Mixed samples per query point; the log factor buys a union bound over
    all query points and recomputations.  The constant may only be raised."""
    eps_prime = eps / 3.0
    return math.ceil(12.0 * math.log(3.0 * n**3) / (eps_prime * eps_prime))


def fast_split_eps(n: int) -> float:
    return 1.0 / (100.0 * math.log2(max(n, 2)))


def calc_central_point(space: MetricSpace, C, delta: float, rng: np.random.Generator) -> int:
    """A point of C whose average distance to C is within 2x of the cluster mean,
    with probability at least 1 - delta."""
    C = np.asarray(C, dtype=np.intp)
    if len(C) == 0:
        raise ValueError("cluster must be non-empty")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if len(C) == 1:
        return int(C[0])
    t = max(1, math.ceil(math.log2(1.0 / delta)))
    cand = rng.integers(0, len(C), size=t)
    avgs = space.block(C[cand], C).mean(axis=1)
    return int(C[cand[int(np.argmin(avgs))]])


def calc_average(
    space: MetricSpace,
    C,
    S,
    eps: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """One-sided (1+eps)-estimates of avg(p, C) for every p in S.

    O((|C| + |S|) * t) distance queries with t = sample_count(n, eps); the
    counter is charged t per query point for the sampled pair evaluations.
    """
    C = np.asarray(C, dtype=np.intp)
    S = np.asarray(S, dtype=np.intp)
    if len(C) == 0:
        raise ValueError("cluster must be non-empty")
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    n = space.n
    p_star = calc_central_point(space, C, 1.0 / n**2, rng)
    w = space.row(p_star, C)
    d_s = space.row(p_star, S)
    if np.all(w == 0):
        # the whole cluster sits at one location: distances to it are exact
        return d_s.copy()

    eps_prime = eps / 3.0
    t = sample_count(n, eps)
    space.charge(len(S) * t)
    avg_star = float(w.mean())
    pw = w / w.sum()
    inv_m = 1.0 / len(C)
    scale = 1.0 / (t * (1.0 - eps_prime))

    est = np.empty(len(S))
    chunk = max(1, _CHUNK_CELLS // max(1, len(C)))
    for lo in range(0, len(S), chunk):
        sl = slice(lo, min(lo + chunk, len(S)))
        ds_chunk = d_s[sl]
        lam = avg_star / (avg_star + ds_chunk)
        mu = lam[:, None] * pw[None, :] + (1.0 - lam)[:, None] * inv_m
        mu /= mu.sum(axis=1, keepdims=True)
        counts = rng.multinomial(t, mu)
        denom = w[None, :] + ds_chunk[:, None]
        bad = denom == 0
        if bad.any() and counts[bad].any():
            # zero denominators carry zero sampling mass outside the
            # all-coincident branch; they must never be sampled
            raise RuntimeError("sampled a zero-denominator cell")
        block = space.peek_block(S[sl], C)
        g = np.divide(block, denom, out=np.zeros_like(block), where=~bad)
        est[sl] = (avg_star + ds_chunk) * scale * (counts * g).sum(axis=1)
    return est


def calc_potential(space: MetricSpace, members, eps: float, rng: np.random.Generator) -> float:
    """One-sided (1+eps)-estimate of the clustering potential.

    Singleton clusters contribute exactly 0 (their log factor vanishes), so
    they are skipped rather than sampled.
    """
    return sum((_estimated_phi(space, m, eps, rng) for m in members), 0.0)


def _estimated_phi(space: MetricSpace, m, eps: float, rng: np.random.Generator) -> float:
    if len(m) <= 1:
        return 0.0
    return math.log2(len(m)) * float(calc_average(space, m, m, eps, rng).sum())


def _fast_split_core(
    space: MetricSpace,
    candidates: list[tuple[int, np.ndarray]],
    rng: np.random.Generator,
) -> SplitResult:
    """Split meta-procedure on estimated potentials: acceptance factor
    1/(5*log2(n)) against (1 + 1/(100*log2(n)))-accurate estimates still
    guarantees a true decrease of at least phi(C*)/(6*log2(n))."""
    n = space.n
    eps = fast_split_eps(n)
    # a singleton's estimate is 0 and draws nothing from rng
    phis = [(cid, m, _estimated_phi(space, m, eps, rng)) for cid, m in candidates]
    accept = 1.0 / (5.0 * math.log2(max(n, 2)))
    return _split_core(n, phis, lambda idx: _estimated_phi(space, idx, eps, rng), accept, rng)


# -- the epoch state machine ---------------------------------------------------


@dataclass
class EpochState:
    """All bookkeeping of one epoch.  ``assign`` is the only membership
    record: the live cids are its distinct values.  No cluster ever empties,
    so ``assign.max()`` never decreases and ``assign.max() + 1`` names each
    new cluster without reusing an id.  Beside it sit the cached estimates
    and potentials, each cluster's error budget and swap count, the
    recompute queue and the step counts.  The next violator is found by one
    scan over the cached estimates."""

    n: int
    eps: float
    alpha: float
    assign: np.ndarray
    phi_hat: float = 0.0
    t_star: float = 0.0
    est: dict = field(default_factory=dict)          # cid -> ndarray over all points
    error: dict = field(default_factory=dict)
    num_swaps: dict = field(default_factory=dict)
    size_hat: dict = field(default_factory=dict)
    phi: dict = field(default_factory=dict)          # cid -> estimated potential of its members
    recompute: dict = field(default_factory=dict)    # cids queued for re-estimation, in order
    counts: dict = field(default_factory=lambda: {"swap": 0, "recompute": 0, "merge_split": 0})

    def cids(self) -> list:
        """The live cids, ascending."""
        return np.unique(self.assign).tolist()

    def members(self, cid: int) -> np.ndarray:
        """The points of cluster cid, ascending."""
        return np.flatnonzero(self.assign == cid)

    def potential(self, space: MetricSpace, rng: np.random.Generator) -> float:
        """Sum of the cached potentials; only clusters without an entry are
        estimated (each entry is a one-sided (1+eps)-estimate)."""
        total = 0.0
        for cid in self.cids():
            if cid not in self.phi:
                self.phi[cid] = calc_potential(space, [self.members(cid)], self.eps, rng)
            total += self.phi[cid]
        return total

    def drop_cluster(self, cid: int) -> None:
        """Forget a dead cid: its queue slot and every cached value."""
        for d in (self.est, self.error, self.num_swaps, self.size_hat, self.phi, self.recompute):
            d.pop(cid, None)

    def find_violator(self):
        """(p, dst) for the cached violator with the lowest foreign/own ratio,
        the lowest p on ties, or None.

        A point p in a cluster of size m > 1 with own estimate own > 0 is a
        violator when (m/(m-1)) * own > (alpha/2) * foreign, where foreign is
        its nearest foreign estimate and dst that cluster (the lowest cid on
        ties).  Every live cluster has estimates here: the recompute queue is
        empty.  The scan reads |C| x n cached values and makes no query.
        """
        cids, row, sizes = np.unique(self.assign, return_inverse=True, return_counts=True)
        est = np.stack([self.est[cid] for cid in cids])
        pts = np.arange(self.n)
        own = est[row, pts]
        est[row, pts] = np.inf
        nearest = np.argmin(est, axis=0)
        foreign = est[nearest, pts]
        m = sizes[row]
        ok = np.flatnonzero((m > 1) & (own > 0))
        hit = ok[(m[ok] / (m[ok] - 1)) * own[ok] > (self.alpha / 2.0) * foreign[ok]]
        if len(hit) == 0:
            return None
        p = int(hit[np.argmin(foreign[hit] / own[hit])])
        return p, int(cids[nearest[p]])

    def clustering(self) -> Clustering:
        cids, dense = np.unique(self.assign, return_inverse=True)  # live cids in sorted order
        return Clustering(dense, len(cids))


@dataclass
class EpochResult:
    clustering: Clustering
    status: str
    counts: dict
    state: EpochState


def epoch(
    space: MetricSpace,
    clustering: Clustering,
    rng: np.random.Generator,
    step_cap: int = EPOCH_STEP_CAP,
    audit=None,
) -> EpochResult:
    """One epoch of the fast local search.

    Returns ``ip_stable`` when no cached violator remains (the clustering is
    then 16*log2(n)-stable for avg), or ``potential_dropped`` as soon as a
    re-estimate shows the potential fell below half its starting estimate
    (the true potential is then below 3/4 of the input's).  That check sums
    ``st.phi``, one cached estimate per cluster: a re-estimate of C sets
    ``phi[C] = log2|C| * sum of est[C] over C``, swaps and merge-and-splits
    drop the entries of the clusters they change, and the check estimates
    only the live clusters left without one.
    """
    n = space.n
    if clustering.n != n:
        raise ValueError("clustering does not match the space")
    k = clustering.k
    st = EpochState(n=n, eps=EPOCH_EPS, alpha=16.0 * math.log2(max(n, 2)), assign=clustering.assignment.copy())
    st.recompute = dict.fromkeys(range(k))

    all_points = np.arange(n)
    st.phi_hat = st.potential(space, rng)
    st.t_star = st.phi_hat / (24.0 * k * math.log2(max(n, 2)) ** 2)

    iteration = 0
    while True:
        iteration += 1
        if iteration > step_cap:
            raise RuntimeError("epoch exceeded its internal step cap; constants are off")
        if audit is not None:
            audit.every_iteration(space, st, iteration)

        if st.recompute:
            cid = next(iter(st.recompute))
            del st.recompute[cid]
            st.counts["recompute"] += 1
            members = st.members(cid)
            st.est[cid] = calc_average(space, members, all_points, st.eps, rng)
            st.error[cid] = 0.0
            st.size_hat[cid] = len(members)
            st.num_swaps[cid] = 0
            st.phi[cid] = math.log2(len(members)) * float(st.est[cid][members].sum())
            if audit is not None:
                audit.after_recompute(space, st, cid)

            if st.potential(space, rng) < (1.0 + st.eps) / 2.0 * st.phi_hat:
                return EpochResult(st.clustering(), POTENTIAL_DROPPED, st.counts, st)

            est_c = st.est[cid]
            for other in st.cids():
                if other == cid:
                    continue
                om = st.members(other)
                lhs = min(len(members), len(om)) / len(om) * float(est_c[om].sum())
                if lhs < st.t_star:
                    _merge_and_split(space, st, cid, other, rng)
                    break
        else:
            found = st.find_violator()
            if found is None:
                return EpochResult(st.clustering(), IP_STABLE, st.counts, st)
            p, dst = found
            src = int(st.assign[p])
            if audit is not None:
                audit.before_swap(space, st, p, src, dst)
            _swap(st, p, src, dst)


def _swap(st: EpochState, p: int, src: int, dst: int) -> None:
    st.counts["swap"] += 1
    st.assign[p] = dst
    st.phi.pop(src, None)
    st.phi.pop(dst, None)
    for cid in (src, dst):
        sz = len(st.members(cid))  # size after the move
        st.error[cid] += (float(st.est[cid][p]) + st.error[cid]) / sz
        st.num_swaps[cid] += 1
        if st.error[cid] > st.t_star / (100.0 * st.alpha * sz) or st.num_swaps[cid] > st.size_hat[cid] / 2.0:
            st.recompute[cid] = None


def _merge_and_split(space: MetricSpace, st: EpochState, cid: int, other: int, rng) -> None:
    """Merge cid and other, then split the cluster the split core picks."""
    st.counts["merge_split"] += 1
    merged = int(st.assign.max()) + 1
    st.assign[np.isin(st.assign, (cid, other))] = merged
    st.drop_cluster(cid)
    st.drop_cluster(other)
    st.recompute[merged] = None

    result = _fast_split_core(space, [(c, st.members(c)) for c in st.cids()], rng)
    for half in (result.half_a, result.half_b):
        new_cid = int(st.assign.max()) + 1
        st.assign[half] = new_cid
        st.recompute[new_cid] = None
    st.drop_cluster(result.cluster_id)


def fast_ls(space: MetricSpace, k: int, seed: int = 0) -> tuple[Clustering, LsTrace]:
    """Chain epochs from a k-center start until the potential stops dropping."""
    n = space.n
    check_start(n, k)
    rng = rng_from_seed(seed)
    current = kcenter_init(space, k)
    counts = {"swap": 0, "recompute": 0, "merge_split": 0, "epoch": 0}
    statuses = []
    epoch_cap = max(16, 8 * math.ceil(math.log2(n)))
    while True:
        counts["epoch"] += 1
        if counts["epoch"] > epoch_cap:
            raise RuntimeError("fast_ls exceeded its epoch cap; constants are off")
        result = epoch(space, current, rng)
        statuses.append(result.status)
        for key, val in result.counts.items():
            counts[key] += val
        current = result.clustering
        # the output potential from the epoch's cache against its input estimate
        if result.state.potential(space, rng) >= 7.0 / 8.0 * result.state.phi_hat:
            break
    counts["epoch_statuses"] = statuses
    return current, LsTrace(status=CONVERGED, counts=counts, alpha=result.state.alpha)
