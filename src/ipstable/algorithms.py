"""The six algorithms by name.  ``ALGORITHMS[name].run(space, k, seed, max_steps)``
returns ``(clustering, trace)``, where ``trace.alpha`` is the stability level
certified for ``objective`` (None for dp, which certifies beta).  Only seeded
algorithms read ``seed``; fast and dp ignore ``max_steps``.  Natural's ``run``
also takes ``alpha``."""

from dataclasses import dataclass
from typing import Callable

from .fast import fast_ls
from .local_search import CONVERGED, LsConfig, LsTrace, max_ip_local_search, natural_local_search
from .median_ip import MedianConfig, median_ip_cluster
from .merge_split import merge_split_ls
from .stable_opt import stable_cluster

__all__ = ["Algorithm", "ALGORITHMS"]


@dataclass(frozen=True)
class Algorithm:
    objective: str
    seeded: bool
    run: Callable  # (space, k, seed, max_steps) -> (Clustering, LsTrace)


def _natural(space, k, seed, max_steps, alpha=None):
    return natural_local_search(space, k, LsConfig(alpha=alpha, max_steps=max_steps))


def _median(space, k, seed, max_steps):
    return median_ip_cluster(space, k, MedianConfig(max_steps=max_steps))


def _max(space, k, seed, max_steps):
    return max_ip_local_search(space, k, LsConfig(max_steps=max_steps))


ALGORITHMS = {
    "natural": Algorithm("avg", False, _natural),
    "mergesplit": Algorithm("avg", True, merge_split_ls),
    "fast": Algorithm("avg", True, lambda space, k, seed, max_steps: fast_ls(space, k, seed)),
    "dp": Algorithm("avg", False, lambda space, k, seed, max_steps: (stable_cluster(space, k), LsTrace(CONVERGED))),
    "median": Algorithm("median", False, _median),
    "max": Algorithm("max", False, _max),
}
