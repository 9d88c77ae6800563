"""Clusterings, the avg/median/max objectives, and the exact stability verifier.

A clustering is alpha-stable for an objective f when no point p with a
non-singleton cluster has f(p, C(p)\\{p}) > alpha * f(p, C') for any other
cluster C'.  The verifier reports the worst such envy ratio over all
(point, cluster) pairs; the median and max objectives use the same
exclude-self convention as avg.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .metric import MetricSpace

__all__ = [
    "Clustering",
    "StabilityReport",
    "avg_dist",
    "median_dist",
    "max_dist",
    "verify_stability",
]

OBJECTIVES = ("avg", "median", "max")


class Clustering:
    """A partition of point indices 0..n-1 into k non-empty clusters."""

    __slots__ = ("assignment", "k", "_members")

    def __init__(self, assignment, k: int | None = None):
        raw = np.asarray(assignment)
        if raw.dtype.kind not in "iub":
            values = raw.astype(np.float64)
            if not (np.isfinite(values).all() and np.array_equal(values, np.trunc(values))):
                raise ValueError("cluster ids must be integers")
        arr = raw.astype(np.intp)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("assignment must be a non-empty 1-D array")
        if k is None:
            k = int(arr.max()) + 1
        counts = np.bincount(arr, minlength=k)
        if arr.min() < 0 or arr.max() >= k:
            raise ValueError("cluster ids must lie in 0..k-1")
        if np.any(counts == 0):
            raise ValueError("every cluster must be non-empty")
        arr.flags.writeable = False
        self.assignment = arr
        self.k = int(k)
        self._members = None

    @property
    def n(self) -> int:
        return self.assignment.size

    def members(self) -> list[np.ndarray]:
        """Per-cluster index arrays, cached."""
        if self._members is None:
            order = np.argsort(self.assignment, kind="stable")
            bounds = np.searchsorted(self.assignment[order], np.arange(self.k + 1))
            self._members = [order[bounds[c] : bounds[c + 1]] for c in range(self.k)]
        return self._members

    def cluster_of(self, p: int) -> int:
        return int(self.assignment[p])

    def sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.k)

    @classmethod
    def from_members(cls, member_lists) -> "Clustering":
        n = sum(len(m) for m in member_lists)
        assignment = np.empty(n, dtype=np.intp)
        for cid, m in enumerate(member_lists):
            assignment[np.asarray(m, dtype=np.intp)] = cid
        return cls(assignment, len(member_lists))

    @classmethod
    def singletons(cls, n: int) -> "Clustering":
        return cls(np.arange(n), n)

    def __eq__(self, other):
        return isinstance(other, Clustering) and self.k == other.k and np.array_equal(
            self.assignment, other.assignment
        )

    def __repr__(self):
        return f"Clustering(k={self.k}, n={self.n})"

    def to_json(self) -> str:
        return json.dumps({"k": self.k, "assignment": self.assignment.tolist()})

    @classmethod
    def from_json(cls, text: str) -> "Clustering":
        obj = json.loads(text)
        return cls(obj["assignment"], obj["k"])


@dataclass
class StabilityReport:
    """Worst envy ratio for one objective, with the witness pair achieving it."""

    objective: str
    alpha_achieved: float
    witness: tuple[int, int] | None
    per_point: np.ndarray
    alpha_target: float | None = None
    passed: bool | None = field(default=None)

    def __post_init__(self):
        if self.alpha_target is not None and self.passed is None:
            self.passed = bool(self.alpha_achieved <= self.alpha_target)

    def to_dict(self) -> dict:
        return {
            "objective": self.objective,
            "alpha_achieved": self.alpha_achieved,
            "witness": list(self.witness) if self.witness is not None else None,
            "alpha_target": self.alpha_target,
            "passed": self.passed,
            "per_point": [float(v) for v in self.per_point],
        }

    def to_json(self) -> str:
        return strict_json(self.to_dict())


def _encode_inf(obj):
    if isinstance(obj, float) and obj == math.inf:
        return "inf"
    if isinstance(obj, dict):
        return {key: _encode_inf(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode_inf(val) for val in obj]
    return obj


def strict_json(obj, **kwargs) -> str:
    """Standard JSON text with +inf floats written as the string ``"inf"``.

    Any other non-finite float (NaN, -inf) raises ``ValueError``, so no
    emitted file carries the non-standard ``Infinity`` / ``NaN`` tokens.
    """
    return json.dumps(_encode_inf(obj), allow_nan=False, **kwargs)


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
    vals = space.row(p, S)
    kth = (len(S) + 1) // 2 - 1
    return float(np.partition(vals, kth)[kth])


def max_dist(space: MetricSpace, p: int, S) -> float:
    S = _check_nonempty(S)
    return float(space.row(p, S).max())


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Envy ratio with the conventions 0/0 = 0 and x/0 = +inf for x > 0."""
    num, den = np.broadcast_arrays(num, den)
    zero_den = den == 0
    return np.where(
        zero_den,
        np.where(num > 0, np.inf, 0.0),
        num / np.where(zero_den, 1.0, den),
    )


def _objective_table(space: MetricSpace, clustering: Clustering, objective: str):
    """(own_excl, foreign) where own_excl[p] = f(p, C(p)\\{p}) and
    foreign[p, c] = f(p, C_c) for every cluster c (own column filled too)."""
    n, k = clustering.n, clustering.k
    D = space.full()
    members = clustering.members()
    sizes = clustering.sizes()
    own = clustering.assignment
    foreign = np.empty((n, k))
    own_excl = np.zeros(n)

    if objective == "avg":
        for c in range(k):
            foreign[:, c] = D[:, members[c]].sum(axis=1) / sizes[c]
        sums_own = foreign[np.arange(n), own] * sizes[own]
        multi = sizes[own] > 1
        own_excl[multi] = sums_own[multi] / (sizes[own] - 1)[multi]
    elif objective == "max":
        for c in range(k):
            foreign[:, c] = D[:, members[c]].max(axis=1)
        # the self-distance 0 never determines a max over >= 2 points
        own_excl = foreign[np.arange(n), own]
        own_excl = np.where(sizes[own] > 1, own_excl, 0.0)
    elif objective == "median":
        for c in range(k):
            block = D[:, members[c]]
            m = sizes[c]
            kth = (m + 1) // 2 - 1
            foreign[:, c] = np.partition(block, kth, axis=1)[:, kth]
            mine = members[c]
            if m > 1:
                # removing the self-zero shifts the 1-indexed rank up by one
                kth_own = (m - 1 + 1) // 2 - 1 + 1
                own_excl[mine] = np.partition(block[mine], kth_own, axis=1)[:, kth_own]
    else:
        raise ValueError(f"unknown objective {objective!r}")
    return own_excl, foreign


def verify_stability(
    space: MetricSpace,
    clustering: Clustering,
    objective: str = "avg",
    alpha: float | None = None,
) -> StabilityReport:
    """Exact stability check: worst ratio f(p, C(p)\\{p}) / f(p, C') over all p, C'."""
    if clustering.n != space.n:
        raise ValueError("clustering size does not match the space")
    n, k = clustering.n, clustering.k
    own = clustering.assignment
    if k == 1:
        per_point = np.zeros(n)
        return StabilityReport(objective, 0.0, None, per_point, alpha)

    own_excl, foreign = _objective_table(space, clustering, objective)
    ratios = _ratio(own_excl[:, None], foreign)
    ratios[np.arange(n), own] = -np.inf  # mask the own column
    singleton = clustering.sizes()[own] == 1
    ratios[singleton, :] = -np.inf  # singleton clusters contribute ratio 0

    best_c = np.argmax(ratios, axis=1)
    per_point = ratios[np.arange(n), best_c]
    masked = np.isneginf(per_point)
    per_point = np.where(masked, 0.0, per_point)
    worst_p = int(np.argmax(per_point))
    witness = None if masked[worst_p] else (worst_p, int(best_c[worst_p]))
    return StabilityReport(objective, float(per_point[worst_p]), witness, per_point, alpha)
