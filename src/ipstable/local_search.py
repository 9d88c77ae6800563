"""Swap-based local searches, and their certificates replayed on request.

``natural_local_search`` repeatedly moves the most envious point (for the
average objective) until no point's envy ratio exceeds alpha; each executed
move strictly decreases the clustering potential whenever
alpha >= 2*log2(n), which certifies termination.  The search computes no
potential, and its steps record their moves only; ``avg_potentials``
replays a run's potentials from its output and its steps.

``max_ip_local_search`` runs the same loop for the max objective with alpha
fixed at 1; each move strictly decreases the lexicographic edge signature,
so states never repeat even though no polynomial step bound is known.  The
step condition itself proves the decrease, so the search builds no
signature; ``max_ip_signatures`` rebuilds a run's signatures from its output
and its steps when something asks for them.

``search`` is that loop, shared with ``merge_split``, ``median_ip`` and
``fast.epoch``, which differ in their state and the step they take.  It
computes no certificate; mergesplit's step, which reads the potential,
records it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

import numpy as np

from .clustering import Clustering, _AvgTable, _Columns, _MaxTable, _Table, check_max_steps, check_start
from .metric import MetricSpace
from .potential import MaxIpSignature, edge_order, signature_from_order

__all__ = [
    "LsConfig", "LsTrace", "Step", "natural_local_search", "max_ip_local_search", "avg_potentials", "max_ip_signatures",
]

DEFAULT_MAX_STEPS = 10**6

CONVERGED = "converged"
CAP_EXCEEDED = "cap_exceeded"


@dataclass(frozen=True)
class LsConfig:
    """Knobs shared by the swap-based searches.

    ``alpha=None`` resolves to 2*log2(n) at run time.  A set ``initial`` is the
    start (round-robin otherwise); ``init="given"`` asserts that it is set.
    """

    alpha: Optional[float] = None
    max_steps: int = DEFAULT_MAX_STEPS
    init: str = "arbitrary_round_robin"
    initial: Optional[Clustering] = None

    def __post_init__(self):
        if self.alpha is not None and not self.alpha >= 1:
            raise ValueError("alpha must be at least 1")
        check_max_steps(self.max_steps)
        if self.init not in ("arbitrary_round_robin", "given"):
            raise ValueError(f"unknown init {self.init!r}")
        if self.init == "given" and self.initial is None:
            raise ValueError("init='given' requires an initial clustering")


@dataclass
class Step:
    """One exact-search step: ``point`` is the most envious point, ``source``
    its cluster and ``target`` the cluster it envies most.  ``kind`` is "swap"
    or "merge_split".  A search leaves the fields it does not record at their
    defaults: ``phi_*`` are recorded by mergesplit only, and ``threshold`` by
    mergesplit and median.
    """

    kind: str
    point: int
    source: int
    target: int
    phi_before: float = math.nan
    phi_after: float = math.nan
    threshold: float = math.nan


@dataclass
class LsTrace:
    status: str
    steps: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    alpha: Optional[float] = None  # the stability level the search certifies


def search(
    table: _Columns,
    alpha: float,
    max_steps: int,
    step: Callable[[int, int, int], Step],
    kinds: tuple = ("swap",),
) -> tuple[Clustering, LsTrace]:
    """The search loop: while the ratio of ``table.most_envious()`` exceeds
    ``alpha * table.slack``, call ``step(point, source, target)`` and record the
    ``Step`` it returns.  The trace certifies ``alpha``; ``counts`` holds one
    entry per kind.  ``table`` is an objective table or fast's ``EpochState``.
    """
    trace = LsTrace(status=CONVERGED, counts=dict.fromkeys(kinds, 0), alpha=alpha)
    for _ in range(max_steps):
        p, dst, ratio = table.most_envious()
        if not ratio > alpha * table.slack:
            break
        rec = step(p, int(table.assign[p]), dst)
        trace.counts[rec.kind] += 1
        trace.steps.append(rec)
    else:
        trace.status = CAP_EXCEEDED
    return table.clustering(), trace


def _begin(space: MetricSpace, k: int, initial: Optional[Clustering], default=None, max_steps=1) -> Clustering:
    """A search's start, ``initial`` or else ``default(space, k)`` (round-robin
    if None); k and ``initial`` are checked, then ``max_steps``, before any read."""
    check_start(space.n, k, initial)
    check_max_steps(max_steps)
    if initial is not None:
        return initial
    return Clustering(np.arange(space.n) % k, k) if default is None else default(space, k)


def _swap(table: _Table) -> Callable[[int, int, int], Step]:
    """The step natural and max share: move p to the cluster it envies most."""

    def swap(p, src, dst):
        table.move(p, dst)
        return Step("swap", p, src, dst)

    return swap


def natural_local_search(space: MetricSpace, k: int, config: LsConfig) -> tuple[Clustering, LsTrace]:
    """Move envious points until the clustering is alpha-stable for avg."""
    table = _AvgTable(space, _begin(space, k, config.initial))
    alpha = config.alpha if config.alpha is not None else 2.0 * math.log2(space.n)
    return search(table, alpha, config.max_steps, _swap(table))


def max_ip_local_search(space: MetricSpace, k: int, config: LsConfig) -> tuple[Clustering, LsTrace]:
    """Local search for the max objective at alpha = 1.

    Each move strictly lowers the edge signature over ``edge_order``.  A
    move of p from src to dst turns off p's edges to src\\{p} and turns on
    its edges to dst; no other bit changes.  The search moves p only when
    max d(p, src\\{p}) > max d(p, dst) (its ratio exceeds 1, and dst is its
    nearest foreign column), and that inequality is strict, so no tie
    between the two sides decides it.  The first changed bit in edge order
    is therefore an edge to src, and it turns off.  The argument reads each
    edge at one length, which the objective table's symmetric ``pairs()``
    read gives.

    So the search builds no signature, and its steps record their moves
    only; ``max_ip_signatures`` replays them.
    """
    if config.alpha not in (None, 1.0):
        raise ValueError("max runs at alpha = 1 only")
    table = _MaxTable(space, _begin(space, k, config.initial))
    return search(table, 1.0, config.max_steps, _swap(table))


def _start(clustering: Clustering, steps: list) -> np.ndarray:
    """The start labels of a swap-only run: its output with the steps undone."""
    labels = clustering.assignment.copy()
    for step in reversed(steps):
        labels[step.point] = step.source
    return labels


def avg_potentials(space: MetricSpace, clustering: Clustering, steps: list) -> Iterator[float]:
    """The avg potentials of a natural run's states, start first, as
    ``max_ip_signatures`` gives max's: an ``_AvgTable`` on the start (n(n-1)/2
    queries, on the first read) replays the steps' moves, so each value is
    the one the search's own table would sum."""
    table = _AvgTable(space, Clustering(_start(clustering, steps), clustering.k))
    yield table.phi()
    for step in steps:
        table.move(step.point, step.target)
        yield table.phi()


def max_ip_signatures(space: MetricSpace, clustering: Clustering, steps: list) -> Iterator[MaxIpSignature]:
    """The edge signatures of a max run's states, start first: len(steps) + 1
    of them, the last ``clustering``'s, for the run that returned
    ``clustering`` and ``steps``.

    The start is rebuilt by undoing the steps from the output, so the caller
    needs no start.  ``edge_order`` sorts ``space.pairs()`` once (n(n-1)/2
    queries) on the first read, and each state's signature is built when it
    is reached, from one label array that replays each step's move.
    """
    labels = _start(clustering, steps)
    order = edge_order(space.pairs())
    yield signature_from_order(order, labels)
    for step in steps:
        labels[step.point] = step.target
        yield signature_from_order(order, labels)
