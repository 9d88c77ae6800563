"""Near-linear-time stable clustering via importance-sampled average estimates.

``calc_average`` estimates avg(p, C) for a batch of query points from t
mixed samples per point: a weighted stream (probability proportional to the
distance from a central point) blended with a uniform stream.  Estimates
err one-sidedly: avg <= est <= (1+eps)*avg with high probability.

``epoch`` runs one phase of the local search on cached estimates, tracking
per-cluster additive error budgets and swap counts; clusters whose caches
drift too far are re-estimated.  It also caches one estimated potential per
cluster: a re-estimate of C sets it from the new averages at no extra cost,
and a swap or a merge-and-split drops it for every cluster whose members
changed, so the potential check after a re-estimate samples only those
clusters.  An epoch either certifies 16*log2(n) stability or ends early
having cut the true potential below 3/4 of its input value.  ``fast_ls``
chains epochs until the potential stops dropping; an epoch's output
potential estimate is the next epoch's input one.

Implementation note on sampling: per query point the t mixed samples are
i.i.d. over the cluster members, so the estimator is computed from a
multinomial draw of the per-member sample counts rather than a length-t
loop.  The distribution per query point is identical; the query counter is
charged t per query point, matching the sampled evaluations.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .clustering import Clustering, check_start
from .local_search import CONVERGED, LsTrace
from .merge_split import SplitResult, _split_core, kcenter_init
from .metric import MetricSpace, rng_from_seed

__all__ = [
    "calc_central_point",
    "calc_average",
    "calc_potential",
    "fast_split",
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
    max_attempts: Optional[int] = None,
) -> SplitResult:
    """Split meta-procedure on estimated potentials: acceptance factor
    1/(5*log2(n)) against (1 + 1/(100*log2(n)))-accurate estimates still
    guarantees a true decrease of at least phi(C*)/(6*log2(n))."""
    n = space.n
    eps = fast_split_eps(n)
    # a singleton's estimate is 0 and draws nothing from rng
    phis = [(cid, m, _estimated_phi(space, m, eps, rng)) for cid, m in candidates]
    accept = 1.0 / (5.0 * math.log2(max(n, 2)))
    return _split_core(n, phis, lambda idx: _estimated_phi(space, idx, eps, rng), accept, rng, max_attempts)


def fast_split(
    space: MetricSpace,
    clustering: Clustering,
    rng: np.random.Generator,
    max_attempts: Optional[int] = None,
) -> SplitResult:
    candidates = [(cid, m) for cid, m in enumerate(clustering.members())]
    return _fast_split_core(space, candidates, rng, max_attempts)


# -- the epoch state machine ---------------------------------------------------


@dataclass
class EpochState:
    """All bookkeeping of one epoch: cached estimates and potentials,
    per-cluster error and progress accounting, lazy heaps, and the recompute
    queue."""

    n: int
    k: int
    eps: float
    alpha: float
    phi_hat: float = 0.0
    t_star: float = 0.0
    assign: np.ndarray = None
    members: dict = field(default_factory=dict)      # cid -> set of points
    est: dict = field(default_factory=dict)          # cid -> ndarray over all points
    error: dict = field(default_factory=dict)
    progress: dict = field(default_factory=dict)
    num_swaps: dict = field(default_factory=dict)
    size_hat: dict = field(default_factory=dict)
    version: dict = field(default_factory=dict)
    phi: dict = field(default_factory=dict)          # cid -> estimated potential of its members
    recompute: deque = field(default_factory=deque)  # cids queued for re-estimation
    recompute_set: set = field(default_factory=set)
    point_heaps: list = field(default_factory=list)  # per point: (est, cid, version)
    main_heap: list = field(default_factory=list)    # (key, seq, point)
    main_seq: list = field(default_factory=list)     # per point: seq of its live main entry
    next_cid: int = 0
    swap_steps: int = 0
    recompute_steps: int = 0
    merge_split_steps: int = 0

    def size(self, cid: int) -> int:
        return len(self.members[cid])

    def live(self, cid: int) -> bool:
        return cid in self.members

    def member_array(self, cid: int) -> np.ndarray:
        return np.fromiter(self.members[cid], dtype=np.intp, count=len(self.members[cid]))

    def sorted_members(self, cid: int) -> np.ndarray:
        return np.sort(self.member_array(cid))

    def enqueue_recompute(self, cid: int) -> None:
        if cid not in self.recompute_set:
            self.recompute.append(cid)
            self.recompute_set.add(cid)

    def potential(self, space: MetricSpace, rng: np.random.Generator) -> float:
        """Sum of the cached potentials; only clusters without an entry are
        estimated (each entry is a one-sided (1+eps)-estimate)."""
        total = 0.0
        for cid in sorted(self.members):
            if cid not in self.phi:
                self.phi[cid] = calc_potential(space, [self.sorted_members(cid)], self.eps, rng)
            total += self.phi[cid]
        return total

    def drop_cluster(self, cid: int) -> None:
        """Forget a dead cid: its members, queue slot and every cached value."""
        if cid in self.recompute_set:
            self.recompute_set.discard(cid)
            self.recompute = deque(c for c in self.recompute if c != cid)
        del self.members[cid]
        for d in (self.est, self.error, self.progress, self.num_swaps, self.size_hat, self.version, self.phi):
            d.pop(cid, None)

    # -- lazy heap maintenance -------------------------------------------

    def push_point_entry(self, p: int, cid: int) -> None:
        heapq.heappush(self.point_heaps[p], (float(self.est[cid][p]), cid, self.version[cid]))

    def foreign_min(self, p: int):
        """(value, cid) of the nearest foreign cluster by cached estimate."""
        h = self.point_heaps[p]
        own = self.assign[p]
        while h:
            val, cid, ver = h[0]
            if not self.live(cid) or self.version.get(cid) != ver or cid == own:
                heapq.heappop(h)  # dead, outdated, or currently own: safe to drop
                continue
            return val, cid
        return None

    def push_main_entry(self, p: int) -> None:
        """Re-key p in the main heap, invalidating any prior entry; points that
        are currently ineligible (singleton or zero/unknown own estimate) end
        up with no live entry."""
        self.main_seq[p] += 1
        cid = self.assign[p]
        if self.size(cid) <= 1:
            return
        own_est = float(self.est[cid][p]) if cid in self.est else 0.0
        if own_est == 0.0:
            return
        fm = self.foreign_min(p)
        if fm is None:
            return
        heapq.heappush(self.main_heap, (fm[0] / own_est, self.main_seq[p], p))

    def find_violator(self):
        """Scan the main heap for a point whose cached envy exceeds alpha/2.

        Stored keys omit the |C|/(|C|-1) size factor (which lies in (1, 2]),
        so every candidate has key below 4/alpha; each popped candidate is
        verified against live sizes and estimates, and non-violators are
        re-inserted after the scan.
        """
        pending = []
        found = None
        cutoff = 4.0 / self.alpha
        while self.main_heap and self.main_heap[0][0] < cutoff:
            key, seq, p = heapq.heappop(self.main_heap)
            if seq != self.main_seq[p]:
                continue
            cid = self.assign[p]
            m = self.size(cid)
            if m <= 1:
                continue  # re-added if the cluster grows again
            own_est = float(self.est[cid][p])
            if own_est == 0.0:
                continue
            fm = self.foreign_min(p)
            if fm is None:
                continue
            pending.append((key, seq, p))
            if (m / (m - 1)) * own_est > (self.alpha / 2.0) * fm[0]:
                found = (p, fm[1])
                break
        for e in pending:
            heapq.heappush(self.main_heap, e)
        return found

    def counts(self) -> dict:
        return {
            "swap": self.swap_steps,
            "recompute": self.recompute_steps,
            "merge_split": self.merge_split_steps,
        }

    def clustering(self) -> Clustering:
        _, dense = np.unique(self.assign, return_inverse=True)  # live cids in sorted order
        return Clustering(dense, len(self.members))


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
    st = EpochState(n=n, k=k, eps=EPOCH_EPS, alpha=16.0 * math.log2(max(n, 2)))
    st.assign = clustering.assignment.copy()
    st.main_seq = [0] * n
    st.point_heaps = [[] for _ in range(n)]
    for cid, m in enumerate(clustering.members()):
        st.members[cid] = set(int(x) for x in m)
        st.version[cid] = 0
        st.enqueue_recompute(cid)
    st.next_cid = k

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
            cid = st.recompute.popleft()
            st.recompute_set.discard(cid)
            st.recompute_steps += 1
            members = st.sorted_members(cid)
            st.est[cid] = calc_average(space, members, all_points, st.eps, rng)
            st.error[cid] = 0.0
            st.progress[cid] = 0.0
            st.size_hat[cid] = len(members)
            st.num_swaps[cid] = 0
            st.version[cid] = st.version.get(cid, 0) + 1
            st.phi[cid] = math.log2(len(members)) * float(st.est[cid][members].sum())
            if audit is not None:
                audit.after_recompute(space, st, cid)
            ver = st.version[cid]
            for h, val in zip(st.point_heaps, st.est[cid].tolist()):
                heapq.heappush(h, (val, cid, ver))
            for p in range(n):
                st.push_main_entry(p)

            if st.potential(space, rng) < (1.0 + st.eps) / 2.0 * st.phi_hat:
                return EpochResult(st.clustering(), POTENTIAL_DROPPED, st.counts(), st)

            est_c = st.est[cid]
            size_c = st.size(cid)
            for other in sorted(st.members):
                if other == cid:
                    continue
                om = st.sorted_members(other)
                lhs = min(size_c, len(om)) / len(om) * float(est_c[om].sum())
                if lhs < st.t_star:
                    _merge_and_split(space, st, cid, other, rng)
                    break
        else:
            found = st.find_violator()
            if found is None:
                return EpochResult(st.clustering(), IP_STABLE, st.counts(), st)
            p, dst = found
            src = int(st.assign[p])
            if audit is not None:
                audit.before_swap(space, st, p, src, dst)
            _swap(st, p, src, dst)


def _swap(st: EpochState, p: int, src: int, dst: int) -> None:
    st.swap_steps += 1
    progress_inc = (float(st.est[src][p]) / (1.0 + st.eps) - st.error[src]) / 2.0
    st.members[src].discard(p)
    st.members[dst].add(p)
    st.assign[p] = dst
    st.phi.pop(src, None)
    st.phi.pop(dst, None)
    for cid in (src, dst):
        sz = st.size(cid)  # size after the move
        st.error[cid] += (float(st.est[cid][p]) + st.error[cid]) / sz
        st.progress[cid] += progress_inc
        st.num_swaps[cid] += 1
        if st.error[cid] > st.t_star / (100.0 * st.alpha * sz) or st.num_swaps[cid] > st.size_hat[cid] / 2.0:
            st.enqueue_recompute(cid)
    # src is foreign to p now; dst entries in p's heap go stale via the own-cluster check
    st.push_point_entry(p, src)
    st.push_main_entry(p)
    if st.size(dst) == 2:
        (other,) = st.members[dst] - {p}
        st.push_main_entry(other)  # newly eligible: its cluster stopped being a singleton


def _merge_and_split(space: MetricSpace, st: EpochState, cid: int, other: int, rng) -> None:
    st.merge_split_steps += 1
    merged = st.next_cid
    st.next_cid += 1
    st.members[merged] = st.members[cid] | st.members[other]
    st.version[merged] = 0
    marr = st.member_array(merged)
    st.assign[marr] = merged
    for dead in (cid, other):
        st.drop_cluster(dead)
    st.enqueue_recompute(merged)

    candidates = [(c, st.sorted_members(c)) for c in sorted(st.members)]
    result = _fast_split_core(space, candidates, rng)
    for half in (result.half_a, result.half_b):
        new_cid = st.next_cid
        st.next_cid += 1
        st.members[new_cid] = set(int(x) for x in half)
        st.version[new_cid] = 0
        st.assign[half] = new_cid
        st.enqueue_recompute(new_cid)
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
    old_pot = None
    while True:
        counts["epoch"] += 1
        if counts["epoch"] > epoch_cap:
            raise RuntimeError("fast_ls exceeded its epoch cap; constants are off")
        result = epoch(space, current, rng)
        statuses.append(result.status)
        for key, val in result.counts.items():
            counts[key] += val
        new_pot = calc_potential(space, result.clustering.members(), EPOCH_EPS, rng)
        if old_pot is None:  # later epochs start from the clustering of the last new_pot
            old_pot = calc_potential(space, current.members(), EPOCH_EPS, rng)
        current = result.clustering
        if new_pot >= 7.0 / 8.0 * old_pot:
            break
        old_pot = new_pot
    counts["epoch_statuses"] = statuses
    return current, LsTrace(status=CONVERGED, counts=counts, alpha=result.state.alpha)
