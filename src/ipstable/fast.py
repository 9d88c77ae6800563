"""Near-linear-time stable clustering via importance-sampled average estimates.

``calc_average`` estimates avg(p, C) for a batch of query points from t
mixed samples per point: a weighted stream (probability proportional to the
distance from a central point) blended with a uniform stream.  Estimates
err one-sidedly: avg <= est <= (1+eps)*avg with high probability.

``epoch`` runs one phase of the local search on cached estimates, tracking
per-cluster additive error budgets and swap counts; clusters whose caches
drift too far are re-estimated.  It runs the exact searches' loop,
``local_search.search``, on its state, which keeps one column per cluster
in creation order, as their objective table does; the cached estimates are
one n x k table.  The state's ``most_envious`` re-estimates the queued
columns, then returns the violator found by one O(n*k) scan of that table,
which makes no query, with ratio inf, or ratio 0, which ends the loop, once
none remains or the potential has dropped; each swap is a ``Step`` of the
trace.  One estimated potential is cached per column: a re-estimate sets it
at no extra cost, and a swap or a merge-and-split unsets it for every
column whose members changed, so the potential check after a re-estimate
samples only those clusters.  An epoch either certifies 16*log2(n)
stability or ends early having cut the true potential below 3/4 of its
input value.  ``fast_ls`` chains epochs until an epoch's output potential,
read from its cache, is at least 7/8 of its input estimate.

Implementation note on sampling: per query point the t mixed samples are
i.i.d. over the cluster members, so the estimator is computed from a
multinomial draw of the per-member sample counts rather than a length-t
loop.  The distribution per query point is identical; the query counter is
charged t per query point, matching the sampled evaluations.  The query
points are processed in the row tiles of width |C| that bound every tiled
read (see the README), so a call holds four tile-sized arrays whatever
|S| x |C| is.  ``multinomial`` draws the rows of its probability table in
order, so the random stream, and every estimate, is the same for any tile
height.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clustering import Clustering, _Columns
from .local_search import CONVERGED, LsTrace, Step, _begin, search
from .merge_split import SplitResult, _split_core, kcenter_init
from .metric import MetricSpace, _row_tiles, rng_from_seed

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
    p_star = calc_central_point(space, C, 1.0 / max(n, 2) ** 2, rng)
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
    for sl in _row_tiles(len(S), len(C)):
        ds_tile = d_s[sl]
        lam = avg_star / (avg_star + ds_tile)
        mu = lam[:, None] * pw
        mu += (1.0 - lam)[:, None] * inv_m
        mu /= mu.sum(axis=1, keepdims=True)
        counts = rng.multinomial(t, mu)
        # mu is spent once drawn: its buffer takes the denominators
        denom = np.add(w, ds_tile[:, None], out=mu)
        bad = denom == 0
        if bad.any() and counts[bad].any():
            # zero denominators carry zero sampling mass outside the
            # all-coincident branch; they must never be sampled
            raise RuntimeError("sampled a zero-denominator cell")
        denom[bad] = np.inf  # a finite distance over inf is 0: the cell adds nothing
        block = space.peek_block(S[sl], C)
        block /= denom
        block *= counts
        est[sl] = (avg_star + ds_tile) * scale * block.sum(axis=1)
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


class EpochState(_Columns):
    """All bookkeeping of one epoch, one column per cluster (``_Columns``).
    ``assign`` is the only membership record: ``members(c)`` reads it in
    ascending order, the order the estimator's and the split's draws run
    over.  ``est`` is the n x k column-major table of cached estimates;
    ``error``, ``num_swaps``, ``size_hat`` and ``phi`` (the cached potential)
    are lists indexed by column, ``None`` until a column's first estimate.
    ``sizes`` is kept on every swap, ``recompute`` is the queue of columns
    awaiting re-estimation, and ``status`` is how the epoch ends."""

    _carried = ("est", "error", "num_swaps", "size_hat", "phi")

    def __init__(self, space: MetricSpace, clustering: Clustering, rng, eps: float, alpha: float, audit=None):
        n, k = clustering.n, clustering.k
        self.space, self.rng, self.audit = space, rng, audit
        self.n, self.eps, self.alpha = n, eps, alpha
        self.assign = clustering.assignment.copy()
        self.sizes = clustering.sizes()
        self.est = np.empty((n, k), order="F")
        self.error, self.num_swaps, self.size_hat, self.phi = ([None] * k for _ in range(4))
        self.recompute = list(range(k))
        self.phi_hat = self.t_star = 0.0
        self.counts = {"swap": 0, "recompute": 0, "merge_split": 0}
        self.status = IP_STABLE

    def members(self, c: int) -> np.ndarray:
        """The points of column c, ascending."""
        return np.flatnonzero(self.assign == c)

    def _replace(self, dead, parts) -> int:
        """The column step; the queue drops the dead columns, keeps its order
        and takes the new columns last."""
        # a point of each queued survivor follows its column through the remap
        queued = [self.members(c)[0] for c in self.recompute if c not in dead]
        first = super()._replace(dead, parts)
        self.recompute = [int(self.assign[p]) for p in queued] + list(range(first, self.k))
        return first

    def potential(self) -> float:
        """Sum of the cached potentials in column order; only columns without
        one are estimated (each is a one-sided (1+eps)-estimate)."""
        for c in range(self.k):
            if self.phi[c] is None:
                self.phi[c] = calc_potential(self.space, [self.members(c)], self.eps, self.rng)
        return sum(self.phi)

    def most_envious(self) -> tuple[int, int, float]:
        """The epoch's turn of ``search``.  Each queued column is one iteration
        (re-estimate, potential check, merge trigger), and so is the scan
        after the queue drains: (p, dst, inf) for ``find_violator``'s pick,
        or a zero ratio, which stops ``search``, when there is none or the
        potential dropped (``status`` then says ``potential_dropped``)."""
        while True:
            iteration = self.counts["recompute"] + self.counts["swap"] + 1
            if iteration > EPOCH_STEP_CAP:
                raise RuntimeError("epoch exceeded its internal step cap; constants are off")
            if self.audit is not None:
                self.audit.every_iteration(self.space, self, iteration)
            if not self.recompute:
                break
            c = self.recompute.pop(0)
            self.counts["recompute"] += 1
            members = self.members(c)
            self.est[:, c] = est_c = calc_average(self.space, members, np.arange(self.n), self.eps, self.rng)
            self.error[c], self.size_hat[c], self.num_swaps[c] = 0.0, len(members), 0
            self.phi[c] = math.log2(len(members)) * float(est_c[members].sum())
            if self.audit is not None:
                self.audit.after_recompute(self.space, self, c)
            if self.potential() < (1.0 + self.eps) / 2.0 * self.phi_hat:
                self.status = POTENTIAL_DROPPED
                return 0, 0, 0.0
            for other in (o for o in range(self.k) if o != c):
                om = self.members(other)
                lhs = min(len(members), len(om)) / len(om) * float(est_c[om].sum())
                if lhs < self.t_star:
                    _merge_and_split(self, c, other)
                    break
        found = self.find_violator()
        return (0, 0, 0.0) if found is None else (*found, math.inf)

    def find_violator(self):
        """(p, dst) for the cached violator with the lowest foreign/own ratio,
        the lowest p on ties, or None.

        A point p in a cluster of size m > 1 with own estimate own > 0 is a
        violator when (m/(m-1)) * own > (alpha/2) * foreign, where foreign is
        its nearest foreign estimate and dst that column (the lowest on
        ties).  Every column has estimates here: the recompute queue is
        empty.  The scan reads the n x k cached values and makes no query.
        """
        pts = np.arange(self.n)
        est = self.est.copy(order="F")
        own = est[pts, self.assign]
        est[pts, self.assign] = np.inf
        nearest = np.argmin(est, axis=1)
        foreign = est[pts, nearest]
        m = self.sizes[self.assign]
        ok = np.flatnonzero((m > 1) & (own > 0))
        hit = ok[(m[ok] / (m[ok] - 1)) * own[ok] > (self.alpha / 2.0) * foreign[ok]]
        if len(hit) == 0:
            return None
        p = int(hit[np.argmin(foreign[hit] / own[hit])])
        return p, int(nearest[p])


@dataclass
class EpochResult:
    clustering: Clustering
    status: str
    counts: dict
    state: EpochState
    steps: list  # the epoch's swaps in order, as ``Step``s


def epoch(
    space: MetricSpace,
    clustering: Clustering,
    rng: np.random.Generator,
    audit=None,
) -> EpochResult:
    """One epoch of the fast local search, ``search`` on an ``EpochState``.

    Returns ``ip_stable`` when no cached violator remains (the clustering is
    then 16*log2(n)-stable for avg), or ``potential_dropped`` as soon as a
    re-estimate shows the potential fell below half its starting estimate
    (the true potential is then below 3/4 of the input's).  That check sums
    the cached potentials ``st.phi``, estimating only the columns left unset.
    """
    n = space.n
    if clustering.n != n:
        raise ValueError("clustering does not match the space")
    st = EpochState(space, clustering, rng, EPOCH_EPS, 16.0 * math.log2(max(n, 2)), audit)
    st.phi_hat = st.potential()
    st.t_star = st.phi_hat / (24.0 * clustering.k * math.log2(max(n, 2)) ** 2)
    # the queue starts full, so the state's cap check fires before search's
    out, trace = search(st, st.alpha, EPOCH_STEP_CAP, lambda p, src, dst: _swap(st, p, src, dst))
    return EpochResult(out, st.status, st.counts, st, trace.steps)


def _swap(st: EpochState, p: int, src: int, dst: int) -> Step:
    """The epoch's step: ``audit.before_swap``, then move p from src to dst."""
    if st.audit is not None:
        st.audit.before_swap(st.space, st, p, src, dst)
    st.counts["swap"] += 1
    st.assign[p] = dst
    st.sizes[src] -= 1
    st.sizes[dst] += 1
    st.phi[src] = st.phi[dst] = None
    for c in (src, dst):
        sz = int(st.sizes[c])  # size after the move
        st.error[c] += (float(st.est[p, c]) + st.error[c]) / sz
        st.num_swaps[c] += 1
        if st.error[c] > st.t_star / (100.0 * st.alpha * sz) or st.num_swaps[c] > st.size_hat[c] / 2.0:
            st.recompute.append(c)  # the queue is empty when a swap runs
    return Step("swap", p, src, dst)


def _merge_and_split(st: EpochState, c: int, other: int) -> None:
    """Merge columns c and other, then split the column the split core picks."""
    st.counts["merge_split"] += 1
    st._replace((c, other), [np.flatnonzero(np.isin(st.assign, (c, other)))])
    result = _fast_split_core(st.space, [(j, st.members(j)) for j in range(st.k)], st.rng)
    st._replace((result.cluster_id,), [result.half_a, result.half_b])


def fast_ls(space: MetricSpace, k: int, seed: int = 0) -> tuple[Clustering, LsTrace]:
    """Chain epochs from a k-center start until the potential stops dropping."""
    n = space.n
    rng = rng_from_seed(seed)
    current = _begin(space, k, None, kcenter_init)
    counts = {"swap": 0, "recompute": 0, "merge_split": 0, "epoch": 0}
    statuses, steps = [], []
    for _ in range(max(16, 8 * math.ceil(math.log2(n)))):
        result = epoch(space, current, rng)
        statuses.append(result.status)
        steps += result.steps
        for key, val in result.counts.items():
            counts[key] += val
        current = result.clustering
        # the output potential from the epoch's cache against its input estimate
        if result.state.potential() >= 7.0 / 8.0 * result.state.phi_hat:
            break
    else:
        raise RuntimeError("fast_ls exceeded its epoch cap; constants are off")
    counts["epoch"], counts["epoch_statuses"] = len(statuses), statuses
    return current, LsTrace(CONVERGED, steps, counts, result.state.alpha)
