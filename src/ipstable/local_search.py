"""Swap-based local searches with step-by-step certificates.

``natural_local_search`` repeatedly moves the most envious point (for the
average objective) until no point's envy ratio exceeds alpha; each executed
move strictly decreases the clustering potential whenever
alpha >= 2*log2(n), which certifies termination.

``max_ip_local_search`` runs the same loop for the max objective with alpha
fixed at 1; each move strictly decreases the lexicographic edge signature,
so states never repeat even though no polynomial step bound is known.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .clustering import Clustering, _ObjectiveTable
from .metric import MetricSpace
from .potential import MaxIpSignature, edge_order, signature_from_order

__all__ = ["LsConfig", "LsTrace", "StepRecord", "natural_local_search", "max_ip_local_search"]

# Multiplies the right-hand side of the avg envy comparison so exactly-tied
# averages do not ping-pong under floating rounding.
DEFAULT_SLACK = 1.0 + 1e-12
DEFAULT_MAX_STEPS = 10**6

CONVERGED = "converged"
CAP_EXCEEDED = "cap_exceeded"


@dataclass(frozen=True)
class LsConfig:
    """Knobs shared by the swap-based searches.

    ``alpha=None`` resolves to 2*log2(n) at run time.
    """

    alpha: Optional[float] = None
    max_steps: int = DEFAULT_MAX_STEPS
    init: str = "arbitrary_round_robin"
    initial: Optional[Clustering] = None

    def __post_init__(self):
        if self.alpha is not None and self.alpha < 1:
            raise ValueError("alpha must be at least 1")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")
        if self.init not in ("arbitrary_round_robin", "kcenter", "given"):
            raise ValueError(f"unknown init {self.init!r}")
        if self.init == "given" and self.initial is None:
            raise ValueError("init='given' requires an initial clustering")


@dataclass
class StepRecord:
    point: int
    source: int
    target: int
    phi_before: float = math.nan
    phi_after: float = math.nan
    sig_before: Optional[MaxIpSignature] = None
    sig_after: Optional[MaxIpSignature] = None


@dataclass
class LsTrace:
    status: str
    steps: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)


def _initial_clustering(space: MetricSpace, k: int, config: LsConfig) -> Clustering:
    if config.init == "given":
        if config.initial.n != space.n:
            raise ValueError("given clustering does not match the space")
        return config.initial
    if config.init == "kcenter":
        from .merge_split import kcenter_init

        return kcenter_init(space, k)
    return Clustering(np.arange(space.n) % k, k)


def natural_local_search(space: MetricSpace, k: int, config: LsConfig) -> tuple[Clustering, LsTrace]:
    """Move envious points until the clustering is alpha-stable for avg."""
    n = space.n
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    alpha = config.alpha if config.alpha is not None else 2.0 * math.log2(n)
    table = _ObjectiveTable(space, _initial_clustering(space, k, config), "avg")
    trace = LsTrace(status=CONVERGED)
    phi = table.phi()

    for _ in range(config.max_steps):
        p, target, ratio = table.most_envious()
        if not ratio > alpha * DEFAULT_SLACK:
            break
        rec = StepRecord(p, int(table.assign[p]), target, phi_before=phi)
        table.move(p, target)
        phi = rec.phi_after = table.phi()
        trace.steps.append(rec)
    else:
        trace.status = CAP_EXCEEDED

    trace.counts = {"swap": len(trace.steps)}
    return table.clustering(), trace


def max_ip_local_search(space: MetricSpace, k: int, config: LsConfig) -> tuple[Clustering, LsTrace]:
    """Local search for the max objective at alpha = 1; records signatures."""
    n = space.n
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    table = _ObjectiveTable(space, _initial_clustering(space, k, config), "max")
    iu, ju = edge_order(space)
    trace = LsTrace(status=CONVERGED)

    for _ in range(config.max_steps):
        p, target, ratio = table.most_envious()
        if not ratio > 1.0:
            break
        rec = StepRecord(p, int(table.assign[p]), target)
        rec.sig_before = signature_from_order(iu, ju, table.assign)
        table.move(p, target)
        rec.sig_after = signature_from_order(iu, ju, table.assign)
        trace.steps.append(rec)
    else:
        trace.status = CAP_EXCEEDED

    trace.counts = {"swap": len(trace.steps)}
    return table.clustering(), trace
