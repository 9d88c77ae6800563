"""Clusterings, the avg/median/max objectives, and the exact stability verifier.

A clustering is alpha-stable for an objective f when no point p with a
non-singleton cluster has f(p, C(p)\\{p}) > alpha * f(p, C') for any other
cluster C'.  Each objective has one table class in ``TABLES``, which keeps
f(p, C) for every point and cluster while a search moves points; the
table's ``envy`` computes each point's envy ratio, for the searches and the
verifier alike.  The median and max objectives use the same exclude-self
convention as avg.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .metric import MetricSpace, _row_tiles

__all__ = ["Clustering", "StabilityReport", "verify_stability"]

class Clustering:
    """A partition of point indices 0..n-1 into k non-empty clusters."""

    __slots__ = ("assignment", "k", "_members")

    def __init__(self, assignment, k: int | None = None):
        raw = np.asarray(assignment)
        # booleans, strings and objects are not ids, though they may convert to integers
        if raw.dtype.kind not in "iu" and not (
            raw.dtype.kind == "f" and np.isfinite(raw).all() and np.array_equal(raw, np.trunc(raw))
        ):
            raise ValueError("cluster ids must be integers")
        # a float beyond the intp range would wrap in the cast; no such id lies in 0..k-1
        if raw.dtype.kind == "f" and (np.abs(raw) >= np.iinfo(np.intp).max).any():
            raise ValueError("cluster ids must lie in 0..k-1")
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
        k = obj["k"]
        if not (type(k) is int or type(k) is float and k.is_integer()):  # bool is not int here
            raise ValueError(f"k must be an integer, got {k!r}")
        ids = obj["assignment"]
        if isinstance(ids, list) and any(type(v) is bool for v in ids):  # numpy reads [true, 2] as [1, 2]
            raise ValueError("cluster ids must be integers")
        return cls(ids, int(k))


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


def _check_integer(name: str, value) -> None:
    """Reject a value that is not an integer (numpy integers are), before any
    work is charged for it."""
    try:
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def check_start(n: int, k: int, initial: Clustering | None = None) -> None:
    """Reject a cluster count that is not an integer in 2..n, and a given
    start clustering that is not a k-clustering of the n points."""
    _check_integer("k", k)
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    if initial is not None and (initial.n != n or initial.k != k):
        raise ValueError("initial clustering does not match the space or k")


def check_max_steps(max_steps: int) -> None:
    """Reject a step cap that is not an integer of at least 1."""
    _check_integer("max_steps", max_steps)
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")


# A median column wider than WINDOW_CAP keeps each row's sorted distances at
# WINDOW_CAP ranks only, around the median; one whose window a move has
# narrowed below WINDOW_FLOOR (at least 2, the median's two ranks) is
# filled afresh.  Both are read at call time.
WINDOW_CAP = 64
WINDOW_FLOOR = 16


def _delete_sorted(block: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Delete one copy of vals[r] from each sorted column r of the rank-major
    block: rank j keeps block[j] where that is below vals, else takes
    block[j + 1].  On a window of ranks it deletes from the whole row, keeping
    the window's first rank."""
    out = block[1:].copy()
    np.copyto(out, block[:-1], where=block[:-1] < vals)
    return out


def _insert_sorted(block: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Insert vals[r] into each sorted column r of the rank-major block:
    rank 0 takes min(block[0], vals), rank j max(min(block[j], vals),
    block[j - 1]) and the new last rank max(block[-1], vals).  Equal
    distances have equal bits (a ``MetricSpace`` holds no -0.0), so a tie
    gives the entry a shift would give."""
    width = len(block)
    out = np.empty((width + 1, block.shape[1]))
    np.minimum(block, vals, out=out[:width])
    np.maximum(out[1:width], block[:-1], out=out[1:width])
    np.maximum(block[-1], vals, out=out[width])
    return out


class _Columns:
    """Clusters as columns in creation order, beside ``assign`` (point ->
    column) and ``sizes``.  A merge or split deletes the dead columns and
    appends the new ones (``_replace``), so every tie-break by column index
    is a tie-break by age.  Each attribute named in ``_carried`` is an n x k
    column-major array or a list indexed by column; ``_replace`` keeps the
    surviving columns' entries of each and leaves the new columns unset
    (unwritten in an array, ``None`` in a list)."""

    _carried: tuple[str, ...] = ()
    slack = 1.0  # multiplies alpha in the search's stop test

    @property
    def k(self) -> int:
        return len(self.sizes)

    def _replace(self, dead, parts) -> int:
        """Delete the ``dead`` columns, whose points are exactly those of
        ``parts``, and append one column per part; returns the first new one."""
        keep = np.setdiff1d(np.arange(self.k), dead)
        self.assign = np.searchsorted(keep, self.assign)  # a survivor's rank; parts overwrite the rest
        for c, m in enumerate(parts, len(keep)):
            self.assign[m] = c
        self.sizes = np.append(self.sizes[keep], [len(m) for m in parts])
        for name in self._carried:
            old = getattr(self, name)
            if isinstance(old, np.ndarray):
                new = np.empty((old.shape[0], self.k), order="F")
                new[:, : len(keep)] = old[:, keep]
            else:
                new = [old[c] for c in keep] + [None] * len(parts)
            setattr(self, name, new)
        return len(keep)

    def clustering(self) -> Clustering:
        return Clustering(self.assign.copy(), self.k)


class _Table(_Columns):
    """f(p, C) for every point p and cluster C under one objective, kept exact
    while a search moves points, merges clusters and splits them; one
    subclass per objective (``TABLES``).

    Built on ``space.pairs()``, an exactly symmetric read-only table that a
    coordinate space keeps for its next read (the verifier's, say).
    Columns are the clusters in creation order, moved by the column step of
    ``_Columns``, which fast's ``EpochState`` shares.  Member arrays keep
    insertion order (a moved point is appended, a merge concatenates), which
    is the order the randomized split permutes.

    A subclass fills a column from the distance table (``_fill``), updates
    the two columns a move of p touches from p's row alone (``_move``), and
    reads f for every row (``_f``) and the members' own values (``_own_of``)
    from a column.  Every read of a column's member block, a fill's, a
    partial refill's or a diameter's, goes through ``_tiles``: the members'
    rows, in tiles of bounded size; every other read of ``D`` goes through
    ``_dist``.  Each name a subclass adds to ``_carried`` is a list with one
    entry per column, ``None`` until filled.  A merge or a split deletes the
    columns it replaces and fills each new one afresh from the distance
    table (``_renew``).

    The envy state is kept with the table.  ``_foreign`` (n x k, column-major)
    holds f(p, C_c) in column c, with each point's own entry set to inf;
    ``_own`` holds f(p, C(p)\\{p}), 0 for a point of a singleton cluster.
    ``_refresh(c)`` is their only writer: it rebuilds column c of
    ``_foreign`` and the ``_own`` entries of c's members, and runs on every
    column that a fill or move writes.  A merge or split keeps the
    surviving columns, so it costs one O(n x |C|) fill per new column; a
    search step costs one row-min and one divide over n x k plus two column
    refreshes.  ``envy`` returns the live ``_foreign``, which callers must
    treat as read-only.

    ``table`` is column-major (``order="F"``): a move's two column edits and
    refreshes, and a fill, read contiguous memory.
    """

    _carried = ("members", "table", "_foreign")

    def __init__(self, space: MetricSpace, clustering: Clustering):
        self.D = space.pairs()
        self.n = clustering.n
        self.assign = clustering.assignment.copy()
        self.members = list(clustering.members())
        self.sizes = clustering.sizes().astype(np.int64)
        self.table = np.empty((self.n, clustering.k), order="F")
        self._foreign = np.empty((self.n, clustering.k), order="F")
        self._own = np.zeros(self.n)
        for name in self._carried[len(_Table._carried) :]:
            setattr(self, name, [None] * clustering.k)
        for c in range(clustering.k):
            self._fill(c)
            self._refresh(c)

    def move(self, p: int, dst: int) -> None:
        """Move point p into column dst."""
        src = self.assign[p]
        self.assign[p] = dst
        self.sizes[src] -= 1
        self.sizes[dst] += 1
        self.members[src] = self.members[src][self.members[src] != p]
        self.members[dst] = np.concatenate((self.members[dst], [p]))
        self._move(src, dst, self._dist(p))
        self._refresh(src)
        self._refresh(dst)

    def _dist(self, rows, cols=slice(None)) -> np.ndarray:
        """``D[rows, cols]``: a moved point's row, or a search's own read."""
        return self.D[rows, cols]

    def _tiles(self, c: int, rows: np.ndarray | None = None):
        """Yield ``(at, tile)`` over every point (``rows`` None) or over the
        points ``rows``: ``tile`` is ``D[members[c]][:, at]``, member-major,
        so column j holds point at[j]'s distances to the members, gathered
        from the members' contiguous rows (the table is exactly symmetric).
        The tiles are the points' row tiles of width |C| (:func:`_row_tiles`),
        so no n x |C| block is built.

        Summed along axis 0, a tile adds the members left to right, as a
        running sum does, unless it covers one point: numpy sums that one
        pairwise.  So a cut between row tiles is kept only where both sides
        hold two points: a tile covers one point only when the read does, and
        a one-point remainder joins the tile before it."""
        m = self.members[c]
        count = self.n if rows is None else len(rows)
        start = 0
        for tile in _row_tiles(count, len(m)):
            stop = tile.stop
            if stop < count and (stop - start < 2 or count - stop < 2):
                continue
            if rows is None:
                at = slice(start, stop)
                yield at, self.D[m, at]
            else:
                at = rows[start:stop]
                yield at, self.D[m[:, None], at]
            start = stop

    def _refresh(self, c: int) -> None:
        """Rebuild column c of ``_foreign`` and its members' ``_own`` entries."""
        col, m = self._foreign[:, c], self.members[c]
        col[:] = self._f(c)
        col[m] = np.inf
        self._own[m] = self._own_of(c, m) if len(m) > 1 else 0.0

    def _f(self, c: int) -> np.ndarray:
        """f(r, C_c) for every row r: column c itself, unless a subclass
        stores something else there."""
        return self.table[:, c]

    def merge(self, a: int, b: int) -> None:
        """Replace columns a and b by one column, a's members then b's, appended last."""
        self._renew((a, b), [np.concatenate([self.members[a], self.members[b]])])

    def split(self, c: int, half_a: np.ndarray, half_b: np.ndarray) -> None:
        """Replace column c by two columns, ``half_a`` then ``half_b``, appended last."""
        self._renew((c,), [half_a, half_b])

    def _renew(self, dead, parts) -> None:
        """Replace the ``dead`` columns by one column per part, filled afresh."""
        for c, m in enumerate(parts, self._replace(dead, parts)):
            self.members[c] = m
            self._fill(c)
            self._refresh(c)

    def envy(self) -> tuple[np.ndarray, np.ndarray]:
        """(ratio, foreign): each point's worst envy ratio, ``_own`` over its
        smallest foreign value (0/0 = 0, x/0 = inf; 0 for a point of a
        singleton cluster, as its ``_own`` is 0), and ``_foreign`` itself
        (live: read it, do not write it)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = self._own / self._foreign.min(axis=1)  # x/0 = inf
        ratio[np.isnan(ratio)] = 0.0  # 0/0
        return ratio, self._foreign

    def most_envious(self) -> tuple[int, int, float]:
        """(point, nearest foreign column, ratio) of the largest envy ratio;
        ties go to the smallest point, then the smallest column."""
        ratio, foreign = self.envy()
        p = int(np.argmax(ratio))
        return p, int(foreign[p].argmin()), float(ratio[p])


class _AvgTable(_Table):
    """avg: column c holds each row's distance sum to C_c (f = sums / |C_c|),
    which a move changes by p's row; the sums agree with a fresh fill up to
    the rounding of the moves since the column's fill.  ``_phi`` caches each
    column's potential term (``phi_of``) on first use; a move drops the
    entries of its two columns."""

    objective = "avg"
    _carried = _Table._carried + ("_phi",)
    slack = 1.0 + 1e-12  # summed averages round: exactly tied ones must not ping-pong

    def _fill(self, c: int) -> None:
        for at, tile in self._tiles(c):
            self.table[at, c] = tile.sum(axis=0)

    def _move(self, src: int, dst: int, dist: np.ndarray) -> None:
        self.table[:, src] -= dist
        self.table[:, dst] += dist
        self._phi[src] = self._phi[dst] = None

    def _f(self, c: int) -> np.ndarray:
        return self.table[:, c] / self.sizes[c]

    def _own_of(self, c: int, m: np.ndarray) -> np.ndarray:
        return self.table[m, c] / (self.sizes[c] - 1)

    def phi_of(self, c: int) -> float:
        """log2|C| / |C| times the sum of d over ordered pairs of column c; cached."""
        if self._phi[c] is None:
            m = self.members[c]
            pair_sum = float(self.table[:, c][m].sum())
            self._phi[c] = math.log2(len(m)) / len(m) * pair_sum if len(m) > 1 else 0.0
        return self._phi[c]

    def phi(self) -> float:
        """The clustering potential, summed over columns in order."""
        return sum(self.phi_of(c) for c in range(self.k))


class _MaxTable(_Table):
    """max: column c holds each row's largest distance to C_c.  A move's
    target column takes its elementwise maximum with p's row, and the source
    column is recomputed only on the rows whose maximum was d(r, p), so every
    entry is the distance table's, as a fresh fill's is."""

    objective = "max"

    def _fill(self, c: int) -> None:
        for at, tile in self._tiles(c):
            self.table[at, c] = tile.max(axis=0)

    def _move(self, src: int, dst: int, dist: np.ndarray) -> None:
        at_src, at_dst = self.table[:, src], self.table[:, dst]
        np.maximum(at_dst, dist, out=at_dst)
        for at, tile in self._tiles(src, np.flatnonzero(dist == at_src)):
            at_src[at] = tile.max(axis=0)

    def _own_of(self, c: int, m: np.ndarray) -> np.ndarray:
        return self.table[m, c]  # the self-distance 0 never determines a max over >= 2 points


class _MedianTable(_Table):
    """median: every column keeps a window of each row's sorted distances to
    its members, rank-major (``_sorted[c]``, w x n, so a rank is one
    contiguous n-vector): the ranks ``_lo[c][r]`` to ``_lo[c][r] + w`` of
    row r, all |C| ranks while |C| <= ``WINDOW_CAP``, and at most
    ``WINDOW_CAP`` around the median above it, O(n x k x WINDOW_CAP) floats
    in all.  Column c of the table is read from the window at the median's
    rank, and a member's own value at that rank shifted by its self-zero.

    Beside them ``_diameter[c]`` holds column c's largest inner distance; a
    move raises the target's to p's largest distance there when that is
    larger and unsets the source's (``diameter_of`` reads it afresh) when p's
    largest distance to the rest equals it.  A move deletes d(r, p) from each
    source row's window and inserts it into each target row's (``_insert``),
    each an O(n x w) edit; a row whose median ranks leave its window is
    refilled from the distance table, and a whole column once its window has
    narrowed below ``WINDOW_FLOOR`` (``_recentre``).  Every stored value is
    an entry of the distance table picked by the same rank rule, or the same
    maximum, as a fresh fill's, so the table equals a fresh one exactly."""

    objective = "median"
    _carried = _Table._carried + ("_sorted", "_lo", "_diameter")

    def _fill(self, c: int) -> None:
        """Fill column c's window and diameter from the distance table, and
        read the column from the window: of each row's sorted distances to the
        members, at most ``WINDOW_CAP`` ranks centred on the median, sorted
        tile by tile; the diameter is the last rank's largest over the members."""
        m = self.members[c]
        width = min(len(m), WINDOW_CAP)
        first = (len(m) - width) // 2
        window, top = np.empty((width, self.n)), np.empty(self.n)
        for at, ranked in self._tiles(c):
            ranked.sort(axis=0)
            window[:, at] = ranked[first : first + width]
            top[at] = ranked[-1]
        self._sorted[c], self._diameter[c] = window, float(top[m].max())
        self._lo[c] = np.full(self.n, first)
        self._read_median(c)

    def _read_median(self, c: int) -> None:
        """Read column c from its window."""
        rank = (len(self.members[c]) + 1) // 2 - 1
        self.table[:, c] = self._sorted[c][rank - self._lo[c], np.arange(self.n)]

    def _insert(self, c: int, vals: np.ndarray) -> None:
        """Insert vals[r] into row r of column c's window, one rank wider.
        Once the window is ``WINDOW_CAP`` wide, or where vals[r] lies outside
        it on some row, each row drops one end instead: the left where
        vals[r] lies below the window, the right where above it, else the end
        farther from the median's two ranks."""
        block, lo = self._sorted[c], self._lo[c]
        size, width = len(self.members[c]), len(block)  # size counts the inserted point
        out = _insert_sorted(block, vals)
        below = (vals < block[0]) & (lo > 0)
        above = (vals > block[-1]) & (lo + width < size - 1)
        if width < WINDOW_CAP and not (below | above).any():
            self._sorted[c] = out
            return
        drop_left = below | ~above & (2 * lo + width < (size + 1) // 2 - 1 + size // 2)
        self._sorted[c] = np.where(drop_left, out[1:], out[:-1])
        self._lo[c] = lo + drop_left

    def _recentre(self, c: int) -> None:
        """Refill from the distance table the rows of column c's window that
        no longer hold the median's two ranks, at the window's width; the
        whole column once a window has narrowed below ``WINDOW_FLOOR``."""
        block, lo = self._sorted[c], self._lo[c]
        size, width = len(self.members[c]), len(block)
        if width < min(size, WINDOW_FLOOR):
            self._fill(c)
            return
        rows = np.flatnonzero((lo > (size + 1) // 2 - 1) | (lo + width <= size // 2))
        first = (size - width) // 2
        for at, ranked in self._tiles(c, rows):
            ranked.sort(axis=0)
            block[:, at] = ranked[first : first + width]
        lo[rows] = first

    def _move(self, src: int, dst: int, dist: np.ndarray) -> None:
        if dist[self.members[src]].max() == self._diameter[src]:  # p ended a farthest pair
            self._diameter[src] = None
        if self._diameter[dst] is not None:
            self._diameter[dst] = max(self._diameter[dst], float(dist[self.members[dst]].max()))
        self._sorted[src] = _delete_sorted(self._sorted[src], dist)
        self._insert(dst, dist)
        for c in (src, dst):
            self._recentre(c)
            self._read_median(c)

    def _own_of(self, c: int, m: np.ndarray) -> np.ndarray:
        return self._sorted[c][len(m) // 2 - self._lo[c][m], m]  # the median's rank shifted by the self-zero

    def diameter_of(self, c: int) -> float:
        """The largest distance within column c (0 for a singleton); an unset
        one is read from the members' block."""
        if self._diameter[c] is None:
            self._diameter[c] = float(max(tile.max() for _, tile in self._tiles(c, self.members[c])))
        return self._diameter[c]


TABLES = {"avg": _AvgTable, "median": _MedianTable, "max": _MaxTable}


def verify_stability(
    space: MetricSpace,
    clustering: Clustering,
    objective: str = "avg",
    alpha: float | None = None,
) -> StabilityReport:
    """Exact stability check: each point's worst ratio f(p, C(p)\\{p}) / f(p, C')
    from the searches' envy scan; the witness is the worst point and its
    nearest foreign cluster (``None`` if that point's cluster is a singleton)."""
    if clustering.n != space.n:
        raise ValueError("clustering size does not match the space")
    if objective not in TABLES:
        raise ValueError(f"unknown objective {objective!r}")
    if clustering.k == 1:  # stable, and no table is built
        return StabilityReport(objective, 0.0, None, np.zeros(clustering.n), alpha)

    table = TABLES[objective](space, clustering)
    per_point, foreign = table.envy()
    p = int(np.argmax(per_point))
    witness = None if table.sizes[table.assign[p]] == 1 else (p, int(foreign[p].argmin()))
    return StabilityReport(objective, float(per_point[p]), witness, per_point, alpha)
