"""Seeded instances, start clusterings and job lists for the three workloads.

A job is what ``ipstable cluster`` does after it has loaded an instance: one
algorithm call on a prepared start, then ``verify_stability`` of the output.
A workload's seed gives a pool of draw sets; each draw set holds the jobs of
one round, on instances drawn for it alone.  Everything the jobs consume is
made here from the workload seed, so one seed always gives the same
instances and the same starts.

The algorithm entry points are looked up on their modules at call time
(``local_search.natural_local_search`` and so on), so the span recorder in
``spans.py`` sees every call it patches.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ipstable import fast, local_search, median_ip, merge_split, stable_opt
from ipstable.clustering import Clustering
from ipstable.metric import GenSpec, MetricSpace, generate, rng_from_seed

WORKLOADS = ("exact-search", "fast-estimate", "dp-tree")

K = 10

# Instance sizes.  They are below the n=1000 the benchmark was first written
# for so that a run makes ten or more rounds: one round of 6-10 s at n=1000
# gave medians over three or four samples, too few to steady the timings on a
# shared machine.
EXACT_N = 700  # planted instance of exact-search
EXACT_MIX_N = 350  # mixtures of exact-search (round-robin start)
FAST_N = 400  # planted epoch and mixture of fast-estimate
FAST_PATHS_N = 400  # shortest-path instance of fast-estimate
DP_N = 500  # every dp-tree instance

# Draw sets per seed.  Rounds go through the pool in turn, so a run's figures
# average the cost of this many draws of each instance kind instead of
# resting on one draw whose tree shape or search path happens to be cheap.
POOL = {"exact-search": 4, "fast-estimate": 5, "dp-tree": 5}


@dataclass
class Job:
    """One algorithm call on one prepared instance, with what its oracle needs."""

    name: str
    algorithm: str  # natural | mergesplit | median | max | fast | epoch | dp
    space: MetricSpace
    call: Callable[[], tuple[Clustering, str]]  # returns (clustering, status)
    objective: str
    alpha: Optional[float]  # the paper's alpha; None for dp (checked against beta)
    start: Optional[Clustering] = None
    planted: Optional[Clustering] = None


def round_robin(n: int, k: int) -> Clustering:
    """Point i goes to cluster i mod k: the CLI's default start for natural and max."""
    return Clustering(np.arange(n) % k, k)


def perturbed_planted(n: int, k: int, separation: float, seed: int, moves: int):
    """Planted instance plus an adversarial start with ``moves`` points moved into cluster 0.

    Points are taken from groups 1..k-1 in turn (the first member of each, then
    the second, ...), leaving every group at least one point.  A moved point
    envies its own group by about 1/separation, far above any log-scale alpha,
    so every search has to take real steps.  Returns (space, planted, start).
    """
    gen = generate(GenSpec("planted_separated", n=n, k=k, separation=separation, seed=seed))
    groups = gen.planted.members()[1:]
    order = [g[d] for d in range(max(len(g) for g in groups)) for g in groups if d < len(g) - 1]
    if moves > len(order):
        raise ValueError(f"cannot move {moves} points out of groups 1..{k - 1}")
    assignment = gen.planted.assignment.copy()
    assignment[np.asarray(order[:moves], dtype=np.intp)] = 0
    return gen.space, gen.planted, Clustering(assignment, k)


def _ls_job(name, algorithm, space, start):
    config = local_search.LsConfig(init="given", initial=start)
    if algorithm == "natural":
        def call():
            out, trace = local_search.natural_local_search(space, K, config)
            return out, trace.status
        return Job(name, algorithm, space, call, "avg", 2.0 * math.log2(space.n), start)

    def call():
        out, trace = local_search.max_ip_local_search(space, K, config)
        return out, trace.status
    return Job(name, algorithm, space, call, "max", 1.0, start)


def _exact_search(seed: int) -> list[Job]:
    """One draw set: four searches on a planted start, natural and max on mixtures."""
    space, _, start = perturbed_planted(EXACT_N, K, 0.001, seed, moves=EXACT_N // 3)
    median_config = median_ip.MedianConfig(seed=seed)

    def mergesplit():
        out, trace = merge_split.merge_split_ls(space, K, seed, initial=start)
        return out, trace.status

    def median():
        out, trace = median_ip.median_ip_cluster(space, K, median_config, initial=start)
        return out, trace.status

    jobs = [
        _ls_job(f"planted/{seed}/natural", "natural", space, start),
        Job(f"planted/{seed}/mergesplit", "mergesplit", space, mergesplit, "avg", 4.0 * math.log2(space.n), start),
        Job(f"planted/{seed}/median", "median", space, median, "median", median_config.median_alpha, start),
        _ls_job(f"planted/{seed}/max", "max", space, start),
    ]
    # natural on three mixture draws puts three quick jobs below natural and
    # mergesplit on the planted start and three slow searches above them, so
    # the median job is in the middle of the planted pair, whose work does not
    # change from draw to draw; the tail job is one of the three slow searches.
    for i, sub in enumerate(range(3 * seed, 3 * seed + 3)):
        mix = generate(GenSpec("euclidean_mixture", n=EXACT_MIX_N, k=K, dim=4, seed=sub)).space
        rr = round_robin(mix.n, K)
        jobs.append(_ls_job(f"mixture/{sub}/natural", "natural", mix, rr))
        if i == 0:
            jobs.append(_ls_job(f"mixture/{sub}/max", "max", mix, rr))
    return jobs


def _fast_ls_job(name, space, seed):
    def call():
        out, trace = fast.fast_ls(space, K, seed)
        return out, trace.status
    return Job(name, "fast", space, call, "avg", 16.0 * math.log2(space.n))


def _fast_estimate(seed: int) -> list[Job]:
    """One draw set: a bare epoch, fast_ls on a coordinate and on a matrix space.

    With one job of each kind per round, the median job is one of the two
    fast_ls calls and the tail job an epoch.
    """
    planted_space, _, start = perturbed_planted(FAST_N, K, 0.001, seed, moves=FAST_N // 10)

    def one_epoch():
        result = fast.epoch(planted_space, start, rng_from_seed(seed))
        return result.clustering, result.status

    mix = generate(GenSpec("euclidean_mixture", n=FAST_N, k=K, dim=4, seed=seed)).space
    paths = generate(GenSpec("random_shortest_path", n=FAST_PATHS_N, seed=seed)).space
    return [
        Job(f"planted/{seed}/epoch", "epoch", planted_space, one_epoch, "avg",
            16.0 * math.log2(planted_space.n), start),
        _fast_ls_job(f"mixture/{seed}/fast", mix, seed),
        _fast_ls_job(f"paths/{seed}/fast", paths, seed),
    ]


def _dp_job(name, space, planted=None):
    def call():
        return stable_opt.stable_cluster(space, K), "converged"
    return Job(name, "dp", space, call, "avg", None, planted=planted)


def _dp_tree(seed: int) -> list[Job]:
    """One draw set: stable_cluster on three tree shapes.

    With one job of each kind per round, the median job is the shortest-path
    instance and the tail job the mixture.
    """
    planted = generate(GenSpec("planted_separated", n=DP_N, k=K, separation=0.05, seed=seed))
    # In 4 dimensions the split tree's depth, hence beta's cost, is heavy-tailed
    # across draws (quartile spread 60% of the median at n=1000); in 8 it is 3%.
    mix = generate(GenSpec("euclidean_mixture", n=DP_N, k=K, dim=8, seed=seed)).space
    paths = generate(GenSpec("random_shortest_path", n=DP_N, seed=seed)).space
    return [
        _dp_job(f"planted/{seed}/dp", planted.space, planted.planted),
        _dp_job(f"mixture/{seed}/dp", mix),
        _dp_job(f"paths/{seed}/dp", paths),
    ]


_BUILDERS = {"exact-search": _exact_search, "fast-estimate": _fast_estimate, "dp-tree": _dp_tree}


def build_pool(workload: str, seed: int) -> list[list[Job]]:
    """The run's draw sets, each the jobs of one round, made from the run seed alone."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    size = POOL[workload]
    return [_BUILDERS[workload](seed * size + i) for i in range(size)]


def fingerprint(pool: list[list[Job]]) -> str:
    """Digest of every instance and start the jobs receive."""
    h = hashlib.sha256()
    for job in (job for jobs in pool for job in jobs):
        h.update(job.name.encode())
        space = job.space
        if space.coords is not None:
            backing = space.coords
        else:
            idx = np.arange(space.n)
            backing = space.peek_block(idx, idx)  # uncharged read
        h.update(np.ascontiguousarray(backing).tobytes())
        for c in (job.start, job.planted):
            if c is not None:
                h.update(c.assignment.tobytes())
    return h.hexdigest()
