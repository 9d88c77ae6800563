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

__all__ = ["Clustering", "StabilityReport", "verify_stability"]

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
        if arr.min() < 0 or arr.max() >= k:
            raise ValueError("cluster ids must lie in 0..k-1")
        # k > n leaves a cluster empty; checked first so a huge k allocates nothing
        if k > arr.size or np.any(np.bincount(arr, minlength=k) == 0):
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

    def sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.k)

    @classmethod
    def from_members(cls, member_lists) -> "Clustering":
        """Cluster c holds the indices in ``member_lists[c]``; together the
        lists must hold each of 0..n-1 exactly once."""
        sizes = [len(m) for m in member_lists]
        flat = np.concatenate([np.asarray(m, dtype=np.intp) for m in member_lists])
        if not np.array_equal(np.sort(flat), np.arange(flat.size)):
            raise ValueError("member lists must partition 0..n-1 (an index repeats, is missing or is out of range)")
        assignment = np.empty(flat.size, dtype=np.intp)
        assignment[flat] = np.repeat(np.arange(len(sizes)), sizes)
        return cls(assignment, len(sizes))

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


def check_start(n: int, k: int, initial: Clustering | None = None) -> None:
    """Reject a cluster count outside 2..n, and a given start clustering that
    is not a k-clustering of the n points."""
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    if initial is not None and (initial.n != n or initial.k != k):
        raise ValueError("initial clustering does not match the space or k")


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Envy ratio with the conventions 0/0 = 0 and x/0 = +inf for x > 0."""
    zero_den = den == 0
    return np.where(
        zero_den,
        np.where(num > 0, np.inf, 0.0),
        num / np.where(zero_den, 1.0, den),
    )


def _delete_sorted(block: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Delete one copy of vals[r] from each sorted row of block."""
    n, width = block.shape
    at = np.count_nonzero(block < vals[:, None], axis=1)
    return np.delete(block.ravel(), np.arange(n) * width + at).reshape(n, width - 1)


def _insert_sorted(block: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Insert vals[r] into each sorted row of block, keeping it sorted."""
    n, width = block.shape
    at = np.count_nonzero(block < vals[:, None], axis=1)
    return np.insert(block.ravel(), np.arange(n) * width + at, vals).reshape(n, width + 1)


class _ObjectiveTable:
    """f(p, C) for every point p and cluster C under one objective, kept exact
    while a search moves points, merges clusters and splits them.

    Built from one ``space.full()`` read.  Columns are the clusters in
    creation order: ``merge`` and ``split`` delete the dead columns and append
    the new ones, so every tie-break by column index is a tie-break by age.
    Member arrays keep insertion order (a moved point is appended, a merge
    concatenates), which is the order the randomized split permutes.

    A move of p updates the two columns it touches from the distances
    ``D[:, p]`` alone.  For avg the table holds distance sums (f = sums /
    size), which gain or lose that column.  For max the target column takes
    its elementwise maximum with it, and the source column is recomputed only
    on the rows whose maximum was d(r, p).  For median, every column keeps
    its distance block sorted along each row (``_sorted[c]``, n x |C|; one
    n x n array over all columns, built with the table); a move deletes
    d(r, p) from each source row and inserts it into each target row, a merge
    merges the two blocks, and the medians and diameters are read at their
    ranks.  A split, and a max merge, fill the new columns from the distance
    table.  Every stored value is an entry of the distance table picked by
    the same rank rule as a fresh fill, so the table equals a fresh one
    exactly.
    """

    def __init__(self, space: MetricSpace, clustering: Clustering, objective: str):
        if objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {objective!r}")
        self.objective = objective
        self.D = space.full()
        self.n = clustering.n
        self.assign = clustering.assignment.copy()
        self.members = list(clustering.members())
        self.sizes = clustering.sizes().astype(np.int64)
        self.table = np.empty((self.n, clustering.k))
        self._own_median = np.zeros(self.n)  # median(p, C(p)\{p}); median only
        self._sorted = [None] * clustering.k  # median only: row-sorted D[:, members[c]]
        for c in range(clustering.k):
            self._fill(c)

    @property
    def k(self) -> int:
        return len(self.members)

    def _fill(self, c: int) -> None:
        """Compute column c from the distance table."""
        block = self.D[:, self.members[c]]
        if self.objective == "avg":
            self.table[:, c] = block.sum(axis=1)
        elif self.objective == "max":
            self.table[:, c] = block.max(axis=1)
        else:
            self._sorted[c] = np.sort(block, axis=1)
            self._read_median(c)

    def _read_median(self, c: int) -> None:
        """Read column c and its members' own medians from its sorted block."""
        block, m = self._sorted[c], self.members[c]
        self.table[:, c] = block[:, (len(m) + 1) // 2 - 1]
        self._own_median[m] = block[m, len(m) // 2]  # rank shifted by the self-zero

    def move(self, p: int, dst: int) -> None:
        """Move point p into column dst."""
        src = self.assign[p]
        self.assign[p] = dst
        self.sizes[src] -= 1
        self.sizes[dst] += 1
        self.members[src] = self.members[src][self.members[src] != p]
        self.members[dst] = np.append(self.members[dst], p)
        dist = self.D[:, p]
        if self.objective == "avg":
            self.table[:, src] -= dist
            self.table[:, dst] += dist
            return
        if self.objective == "max":
            self.table[:, dst] = np.maximum(self.table[:, dst], dist)
            rows = np.flatnonzero(dist == self.table[:, src])
            self.table[rows, src] = self.D[np.ix_(rows, self.members[src])].max(axis=1)
            return
        for c, edit in ((src, _delete_sorted), (dst, _insert_sorted)):
            self._sorted[c] = edit(self._sorted[c], dist)
            self._read_median(c)

    def _replace(self, dead, parts) -> int:
        """Delete the ``dead`` columns, whose points are exactly those of
        ``parts``, and append one unfilled column per part; returns the first."""
        keep = np.setdiff1d(np.arange(self.k), dead)
        col_of = np.full(self.k, -1, dtype=np.intp)
        col_of[keep] = np.arange(len(keep))
        self.assign = col_of[self.assign]
        self.members = [self.members[c] for c in keep] + list(parts)
        self.sizes = np.append(self.sizes[keep], [len(m) for m in parts])
        self._sorted = [self._sorted[c] for c in keep] + [None] * len(parts)
        self.table = np.concatenate([self.table[:, keep], np.empty((self.n, len(parts)))], axis=1)
        for c in range(len(keep), self.k):
            self.assign[self.members[c]] = c
        return len(keep)

    def merge(self, a: int, b: int) -> None:
        """Replace columns a and b by one column for their union, appended last."""
        merged = np.concatenate([self.members[a], self.members[b]])
        sums = self.table[:, a] + self.table[:, b] if self.objective == "avg" else None
        blocks = (self._sorted[a], self._sorted[b])
        c = self._replace((a, b), [merged])
        if sums is not None:
            self.table[:, c] = sums
        elif self.objective == "median":
            # a stable sort of two sorted runs is a merge
            self._sorted[c] = np.sort(np.concatenate(blocks, axis=1), axis=1, kind="stable")
            self._read_median(c)
        else:
            self._fill(c)

    def split(self, c: int, half_a: np.ndarray, half_b: np.ndarray) -> None:
        """Replace column c by two columns, ``half_a`` then ``half_b``, appended last."""
        first = self._replace((c,), [half_a, half_b])
        self._fill(first)
        self._fill(first + 1)

    def values(self) -> np.ndarray:
        """f(p, C_c) for every point and column, own column included (a new array)."""
        if self.objective == "avg":
            return self.table / self.sizes
        return self.table.copy()

    def own_excl(self) -> np.ndarray:
        """f(p, C(p)\\{p}); 0 where the own cluster is a singleton."""
        rows = np.arange(self.n)
        own_sizes = self.sizes[self.assign]
        multi = own_sizes > 1
        if self.objective == "avg":
            out = np.zeros(self.n)
            out[multi] = self.table[rows[multi], self.assign[multi]] / (own_sizes[multi] - 1)
            return out
        # the self-distance 0 never determines a max over >= 2 points
        out = self.table[rows, self.assign] if self.objective == "max" else self._own_median.copy()
        out[~multi] = 0.0
        return out

    def most_envious(self) -> tuple[int, int, float]:
        """(point, column, ratio) of the largest envy ratio over foreign columns.

        Ties go to the smallest point, then the smallest column; points of
        singleton clusters have ratio 0, as their own_excl is 0.
        """
        rows = np.arange(self.n)
        foreign = self.values()
        foreign[rows, self.assign] = np.inf
        best = np.argmin(foreign, axis=1)
        ratio = _ratio(self.own_excl(), foreign[rows, best])
        p = int(np.argmax(ratio))
        return p, int(best[p]), float(ratio[p])

    def diameter_of(self, c: int) -> float:
        """median only: the largest distance within column c, read from its
        members' rows of the sorted block (0 for a singleton)."""
        return float(self._sorted[c][self.members[c], -1].max())

    def phi_of(self, c: int) -> float:
        """avg only: log2|C| / |C| times the sum of d over ordered pairs of column c."""
        m = self.members[c]
        if len(m) <= 1:
            return 0.0
        return math.log2(len(m)) / len(m) * float(self.table[m, c].sum())

    def phi(self) -> float:
        """avg only: the clustering potential, summed over columns in order."""
        return sum(self.phi_of(c) for c in range(self.k))

    def clustering(self) -> Clustering:
        return Clustering(self.assign.copy(), self.k)


def verify_stability(
    space: MetricSpace,
    clustering: Clustering,
    objective: str = "avg",
    alpha: float | None = None,
) -> StabilityReport:
    """Exact stability check: worst ratio f(p, C(p)\\{p}) / f(p, C') over all p, C'."""
    if clustering.n != space.n:
        raise ValueError("clustering size does not match the space")
    if objective not in OBJECTIVES:  # checked here too: k = 1 builds no table
        raise ValueError(f"unknown objective {objective!r}")
    n, k = clustering.n, clustering.k
    own = clustering.assignment
    if k == 1:
        per_point = np.zeros(n)
        return StabilityReport(objective, 0.0, None, per_point, alpha)

    table = _ObjectiveTable(space, clustering, objective)
    ratios = _ratio(table.own_excl()[:, None], table.values())
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
