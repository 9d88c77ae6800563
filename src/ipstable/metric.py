"""Metric spaces with a counted distance oracle, plus synthetic instance generators.

Every algorithm in this package accesses distances exclusively through a
:class:`MetricSpace`, whose query counter tallies how many distance
evaluations the algorithm requested.  Batched accessors charge the counter
by the number of evaluations in the batch; repeated requests for the same
pair count every time, because the counter measures oracle traffic, not
distinct pairs.  :meth:`MetricSpace.pairs` reads each unordered pair
once; a coordinate space keeps that table as an attribute, so a search and
its verifier share one read, and the module drops the one holder's table
(it keeps a weak reference to that space) before another space builds one.

Coordinates are stored dimension-major, as one ``(dim, n)`` array, and the
block kernel builds each cell from per-dimension terms, up to 8 dimensions
at a time, added in the order numpy's pairwise sum uses for a contiguous
axis.  Every distance thus equals, bit for bit, the one-row reduction
``(diff * diff).sum()`` of ``diff = x[j] - x[i]`` (``abs(diff).sum()`` for
l1), in whatever block it is read.

The shortest-path generator closes its table with a Floyd–Warshall written
in numpy.  The table stays exactly symmetric at every step, since
``d[i,k] + d[k,j]`` and ``d[j,k] + d[k,i]`` are the same float sum, so the
closure updates the upper triangle alone and mirrors it at the end; its
output is bit-identical to scipy's ``shortest_path(method="FW")``.  It
updates the upper part of each row tile packed contiguously at the front of
the tile's own rows in the table's buffer, so it needs O(n) memory and one
row tile besides the table.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "MetricSpace",
    "GenSpec",
    "Generated",
    "generate",
    "load_matrix_csv",
    "load_points_csv",
]

# Relative slack used when validating symmetry / triangle inequality.
TRIANGLE_RTOL = 1e-9

_TRIANGLE_EXHAUSTIVE_LIMIT = 64
_TRIANGLE_SAMPLED_TRIPLES = 100_000

# The cells in one row tile of _row_tiles (512 KiB as float64), the bound on
# every temporary that a tiled read makes.
_BLOCK_CHUNK_ELEMS = 1 << 16

# A weak reference to the coordinate space whose ``_pairs`` holds a table,
# or None, under _holder_lock; every query counter counts under _count_lock.
_holder = None
_holder_lock = threading.Lock()
_count_lock = threading.Lock()


def _row_tiles(count: int, width: int) -> list:
    """Slices over ``range(count)`` of ``_BLOCK_CHUNK_ELEMS // width`` rows
    each (at least one; the last may be shorter), the bound read at call
    time: every tiled loop of the package walks its rows in these."""
    step = max(1, _BLOCK_CHUNK_ELEMS // max(1, width))
    if count <= step:  # most reads: one tile, without the comprehension's cost
        return [slice(0, count)] if count else []
    return [slice(lo, min(count, lo + step)) for lo in range(0, count, step)]


class MetricSpace:
    """Immutable point set with a distance oracle and a query counter.

    Backed either by an explicit distance table, stored exactly symmetric as
    its upper triangle mirrored, or by a coordinate array with an L2/L1
    norm.  Every distance read goes through one block kernel; for
    coordinates it computes the block in bounded row tiles, so its
    temporaries stay small whatever the block size.  Every accessor
    rejects an index outside ``0..n-1`` with IndexError before it charges
    the counter.

    :meth:`pairs` returns a read-only table for both backings; a coordinate
    space keeps its own until another builds one, so at most one is kept.
    Safe to share across threads: the counter and the kept table change
    under module locks, so a space holds no lock, and copies and pickles.
    """

    def __init__(self, *, matrix=None, coords=None, norm="l2", validate=True, copy=True):
        if (matrix is None) == (coords is None):
            raise ValueError("provide exactly one of matrix= or coords=")
        self._queries = 0
        self._pairs = None
        if matrix is not None:
            mat = np.asarray(matrix, dtype=np.float64)
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise ValueError(f"distance table must be square, got {mat.shape}")
            if validate:
                _validate_table(mat)
            # one length per pair, d(min(i, j), max(i, j)); the diagonal and
            # any -0.0 become +0.0 (x / -0.0 is -inf); a handed-over table
            # is edited in place
            mat = np.array(mat, order="C") if copy else np.ascontiguousarray(mat)
            mat += 0.0
            _mirror_upper(mat)
            mat.flags.writeable = False
            self._matrix = mat
            self._xt = None
            self.n = mat.shape[0]
        else:
            pts = np.asarray(coords, dtype=np.float64)
            if pts.ndim != 2:
                raise ValueError("coords must be a 2-D array (n, dim)")
            if not np.isfinite(pts).all():
                raise ValueError("coordinates contain non-finite values")
            if norm not in ("l2", "l1"):
                raise ValueError(f"unknown norm {norm!r}")
            if len(pts) and _overflows(pts, norm):
                raise ValueError(f"coordinates lie too far apart: their {norm} distances could overflow float64")
            xt = np.array(pts.T, order="C")  # dimension-major copy; coords is its transpose
            xt.flags.writeable = False
            self._matrix = None
            self._xt = xt
            self.norm = norm
            self.n = pts.shape[0]
        if self.n < 1:
            raise ValueError("a metric space needs at least one point")

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_matrix(cls, matrix, validate=True, copy=True) -> "MetricSpace":
        """A space backed by the distance table ``matrix``.  With ``copy``
        False the caller hands over a writeable float64 array: the space
        mirrors it in place and keeps it read-only as its table, without a
        second n x n copy."""
        return cls(matrix=matrix, validate=validate, copy=copy)

    @classmethod
    def from_points(cls, coords, norm="l2") -> "MetricSpace":
        return cls(coords=coords, norm=norm)

    @property
    def coords(self):
        """Coordinate backing as a read-only (n, dim) view, or None for
        table-backed spaces."""
        return None if self._xt is None else self._xt.T

    # -- query counting -------------------------------------------------------

    @property
    def query_counter(self) -> int:
        return self._queries

    def charge(self, m: int) -> None:
        """Add ``m`` distance evaluations to the counter.

        Used by samplers that evaluate the same pair with multiplicity: the
        counter reflects every evaluation the algorithm requests, even when
        the backing value is fetched once.
        """
        if m < 0:
            raise ValueError("charge must be non-negative")
        with _count_lock:
            self._queries += m

    # -- distance access ------------------------------------------------------

    def row(self, i: int, idx=None) -> np.ndarray:
        """Distances from point i to idx (default: all points); one query each."""
        i = self._indices([i])
        idx = np.arange(self.n) if idx is None else self._indices(idx)
        self.charge(len(idx))
        return self._eval_block(i, idx)[0]

    def block(self, rows, cols) -> np.ndarray:
        """|rows| x |cols| distance block; charges |rows|*|cols| queries."""
        rows = self._indices(rows)
        cols = self._indices(cols)
        self.charge(len(rows) * len(cols))
        return self._eval_block(rows, cols)

    def full(self) -> np.ndarray:
        """The complete n x n table; charges n^2 queries."""
        idx = np.arange(self.n)
        return self.block(idx, idx)

    def pairs(self) -> np.ndarray:
        """The symmetric n x n table d(min(i, j), max(i, j)), 0 on the diagonal;
        charges n(n-1)/2 queries, one per unordered pair.

        The table is read-only for both backings.  A table-backed space
        returns its stored table.  A coordinate space evaluates only the
        upper triangle, in the row tiles of :func:`_row_tiles`, whose values
        equal :meth:`full`'s, and mirrors the lower triangle from it in
        place.  It keeps that table, and a later call returns it, still
        charging, until another coordinate space's ``pairs()`` drops it
        before building its own; it goes with the space otherwise.
        """
        global _holder
        n = self.n
        self.charge(n * (n - 1) // 2)
        if self._matrix is not None:
            return self._matrix
        with _holder_lock:
            if self._pairs is None:
                held = _holder and _holder()
                if held is not None:
                    held._pairs = None  # the previous space's table goes before this one is built
                idx = np.arange(n)
                out = np.empty((n, n))
                _mirror_upper(out, lambda t: self._eval_block(idx[t], idx[t.start :]))
                out.flags.writeable = False
                self._pairs, _holder = out, weakref.ref(self)
            return self._pairs

    def __getstate__(self):  # a copy or an unpickled space builds its own table
        return {**self.__dict__, "_pairs": None}

    def __setstate__(self, state):
        self.__dict__.update(state)
        (self._xt if self._matrix is None else self._matrix).flags.writeable = False

    def peek_block(self, rows, cols) -> np.ndarray:
        """Distance block without touching the counter.

        For samplers that evaluate pairs with multiplicity: they call
        :meth:`charge` with the number of sampled evaluations and fetch the
        distinct values here, so the counter reflects the sampling algorithm
        rather than the deduplicated physical reads.  The block is a new
        array, never a view of a stored table, so a caller may write to it.
        """
        return self._eval_block(self._indices(rows), self._indices(cols))

    def _indices(self, idx) -> np.ndarray:
        """``idx`` as an intp array; IndexError unless every entry is a point.
        A float or boolean entry names no point, even one that casts to an
        integer; an empty index (numpy reads ``[]`` as float64) names none."""
        idx = np.asarray(idx)
        if idx.size and idx.dtype.kind not in "iu":
            raise IndexError(f"point indices must be integers, got {idx.dtype}")
        idx = idx.astype(np.intp, copy=False)
        # read as unsigned, a negative index is a huge one: one max checks both ends
        if idx.view(np.uintp).max(initial=0) >= self.n:
            bad = idx[(idx < 0) | (idx >= self.n)]
            raise IndexError(f"point index out of range: {bad.flat[0]} with n={self.n}")
        return idx

    def _eval_block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Uncharged |rows| x |cols| block for in-range intp index arrays.

        A table is gathered by two ``take`` calls, each of whose
        intermediates holds at most ``_BLOCK_CHUNK_ELEMS`` cells: the columns
        first when that intermediate is the smaller one and fits, else the
        rows, in row tiles.  Columns listing every point in order
        (``full()``'s) are not gathered, so that read makes no second n x n
        array.

        A coordinate cell is the norm of ``coords[col] - coords[row]``, its
        per-dimension terms summed in the order numpy's pairwise sum gives a
        contiguous axis (see :func:`_sum_terms`), so every cell equals the
        single-row reduction ``(diff * diff).sum(axis=-1)`` bit for bit,
        whatever the block it is read in.  The terms come dimension by
        dimension from the ``(dim, n)`` coordinates, up to 8 at a time, for
        row tiles whose buffers hold at most ``_BLOCK_CHUNK_ELEMS`` elements.
        """
        if self._matrix is not None:
            table, n = self._matrix, self.n
            if len(cols) == n and np.array_equal(cols, np.arange(n)):
                return table.take(rows, axis=0)
            if len(cols) < len(rows) and n * len(cols) <= _BLOCK_CHUNK_ELEMS:
                return table.take(cols, axis=1).take(rows, axis=0)
            out = np.empty((len(rows), len(cols)))
            # the indices are checked, so "clip" clips nothing; "raise" would buffer out
            for t in _row_tiles(len(rows), n):
                table.take(rows[t], axis=0).take(cols, axis=1, out=out[t], mode="clip")
            return out
        dim = len(self._xt)
        at_cols = self._xt.take(cols, axis=1)[:, None, :]
        at_rows = self._xt.take(rows, axis=1)[:, :, None]
        fold = np.square if self.norm == "l2" else np.abs
        out = np.empty((len(rows), len(cols)))
        group = min(dim, 8)
        # a term buffer and running sums; one term is its own sum, 8 their own running sums
        nbufs = (dim != 1) + (dim > 8)
        tiles = _row_tiles(len(rows), nbufs * group * len(cols))
        bufs = np.empty((nbufs, group, tiles[0].stop if tiles else 0, len(cols)))
        for t in tiles:
            _sum_terms(at_cols, at_rows[:, t], fold, out[t], bufs[:, :, : t.stop - t.start])
        if self.norm == "l2":
            np.sqrt(out, out=out)
        return out


def _mirror_upper(out: np.ndarray, fill=None) -> None:
    """Make the square ``out`` exactly symmetric from its upper triangle, in
    place, with +0.0 on the diagonal.

    Rows go in the row tiles of :func:`_row_tiles`, top to bottom;
    ``fill(t)``, when given, first returns tile ``t``'s upper part
    ``out[t, t.start:]``.  A tile's lower cells are copied from the upper
    cells of the rows above it, already final, and from its own square, so
    no second n x n array is made.
    """
    n = len(out)
    for t in _row_tiles(n, n):
        lo, hi = t.start, t.stop
        if fill is not None:
            out[t, lo:] = fill(t)
        out[lo:hi, :lo] = out[:lo, lo:hi].T
        tile = out[lo:hi, lo:hi]
        np.copyto(tile, tile.T, where=np.tri(hi - lo, k=-1, dtype=bool))
    np.fill_diagonal(out, 0.0)


def _sum_terms(at_cols, at_rows, fold, res, bufs) -> None:
    """``res`` = the sum over d of the terms ``fold(at_cols[d] - at_rows[d])``,
    added in the order numpy's pairwise sum adds a contiguous axis.

    numpy sums m terms thus: under 8, in order; up to 128, in eight running
    sums ``r[j] += t[i + j]`` over the whole groups of 8, combined as
    ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, then the leftover terms in
    order; above 128, as the sums of the first ``m // 2`` terms (rounded down
    to a multiple of 8) and of the rest, added.  ``bufs[0]`` holds up to 8
    terms and ``bufs[-1]`` the running sums, one buffer when m is 8.
    """
    m = len(at_cols)

    def fill(a, b, buf):
        np.subtract(at_cols[a:b], at_rows[a:b], out=buf)
        fold(buf, out=buf)
        return buf

    if m == 1:
        fill(0, 1, res[None])
    elif m < 8:
        np.add.reduce(fill(0, m, bufs[0]), axis=0, out=res)
    elif m > 128:
        half = m // 2 - m // 2 % 8
        _sum_terms(at_cols[:half], at_rows[:half], fold, res, bufs)
        right = np.empty_like(res)
        _sum_terms(at_cols[half:], at_rows[half:], fold, right, bufs)
        res += right
    else:
        r = fill(0, 8, bufs[-1])
        whole = m - m % 8
        for d in range(8, whole, 8):
            r += fill(d, d + 8, bufs[0])
        r[0::2] += r[1::2]
        r[0::4] += r[2::4]
        np.add(r[0], r[4], out=res)
        if whole < m:
            for t in fill(whole, m, bufs[0, : m - whole]):
                res += t


def _overflows(pts: np.ndarray, norm: str) -> bool:
    """Whether the coordinate kernel could overflow on some pair of points.

    No pair is farther apart than the diagonal of the points' bounding box,
    so it suffices that the diagonal (l1), or its square (l2), is at most a
    quarter of the largest float; the margin covers the kernel's rounding.
    Each step is computed in a form that cannot itself overflow.
    """
    half_sides = pts.max(axis=0) / 2 - pts.min(axis=0) / 2
    top = half_sides.max(initial=0.0)
    if top == 0:
        return False
    rel = half_sides / top  # the diagonal is 2 * top * reach
    reach = np.sqrt(np.sum(rel * rel)) if norm == "l2" else np.sum(rel)
    limit = np.finfo(np.float64).max / 4
    return bool(top > (np.sqrt(limit) if norm == "l2" else limit) / (2 * reach))


def _validate_table(mat: np.ndarray) -> None:
    """Reject tables that are not symmetric non-negative metrics.

    Each cell check runs over the whole table before the next one starts, in
    the row tiles of :func:`_row_tiles`, so its temporaries stay small
    whatever n is.  Symmetry compares each upper cell with its mirror; the
    test reads the same for (i, j) and (j, i), so the upper triangle decides
    it.  Above 64 points, sampled triples are drawn and checked tile by tile:
    a Philox stream drawn in parts gives the triples of one whole draw.
    """
    n = mat.shape[0]
    tiles = _row_tiles(n, n)
    if not all(np.isfinite(mat[t]).all() for t in tiles):
        raise ValueError("distance table contains non-finite values")
    if any((mat[t] < 0).any() for t in tiles):
        raise ValueError("distance table contains negative values")
    if np.any(np.diag(mat) != 0):
        raise ValueError("distance table has non-zero diagonal entries")
    for t in tiles:
        upper, lower = mat[t, t.start :], mat[t.start :, t].T
        if np.any(np.abs(upper - lower) > TRIANGLE_RTOL * np.maximum(np.abs(upper), np.abs(lower))):
            raise ValueError("distance table is not symmetric")
    if n <= _TRIANGLE_EXHAUSTIVE_LIMIT:
        for x in range(n):
            through = mat[:, x : x + 1] + mat[x : x + 1, :]
            if np.any(mat > through * (1.0 + TRIANGLE_RTOL)):
                raise ValueError(f"triangle inequality violated via point {x}")
    else:
        rng = np.random.Generator(np.random.Philox(0))
        for t in _row_tiles(_TRIANGLE_SAMPLED_TRIPLES, 3):
            i, x, j = rng.integers(0, n, size=(t.stop - t.start, 3)).T
            if np.any(mat[i, j] > (mat[i, x] + mat[x, j]) * (1.0 + TRIANGLE_RTOL)):
                raise ValueError("triangle inequality violated (sampled check)")


# -- generators ---------------------------------------------------------------

_KINDS = ("euclidean_mixture", "random_shortest_path", "planted_separated")


@dataclass(frozen=True)
class GenSpec:
    """Parameters for a synthetic instance."""

    kind: str
    n: int
    k: int = 1
    dim: int = 2
    separation: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not np.isfinite(self.separation):
            raise ValueError(f"separation must be finite, got {self.separation}")
        if self.kind == "euclidean_mixture":
            if self.k < 1 or self.dim < 1:
                raise ValueError("euclidean_mixture needs k >= 1 and dim >= 1")
        if self.kind == "planted_separated":
            if self.separation <= 0:
                raise ValueError("planted_separated needs separation > 0")
            if self.k < 2:
                raise ValueError("planted_separated needs k >= 2")
            if self.n < self.k:
                raise ValueError("planted_separated needs n >= k")


@dataclass
class Generated:
    """Output of :func:`generate`; ``planted`` is set only for planted_separated."""

    space: MetricSpace
    planted: "object | None" = field(default=None)


def rng_from_seed(seed: int) -> np.random.Generator:
    """Counter-based (Philox) generator; splittable via ``.spawn()``."""
    return np.random.Generator(np.random.Philox(seed))


def _shortest_path_closure(d: np.ndarray) -> None:
    """Floyd–Warshall closure, in place, of the symmetric non-negative table
    whose upper triangle the C-contiguous ``d`` holds, inf for a missing
    edge; ``d`` is zero on the diagonal, and its cells below the diagonal
    are ignored.

    The closed table stays exactly symmetric at every step: the candidate
    ``d[i,k] + d[k,j]`` is the same float sum as ``d[j,k] + d[k,i]``.  So
    each step k reads its column from the upper triangle and updates only
    ``d[a:b, a:]`` for the row tiles ``[a, b)`` of :func:`_row_tiles`, whose
    height changes no bit; row and column k do not change
    during step k, as ``d[k,k] = 0``.  Every upper cell thus takes the same
    ``min(d_ij, d_ik + d_kj)`` sequence as the k-i-j loop over the full
    table (scipy's ``shortest_path(method="FW")``), and the result is
    bit-identical to it.  No candidate is read from a cell below the
    diagonal, and ``_mirror_upper`` overwrites those cells with the upper
    triangle at the end.

    The steps run on packed tiles: before the first, each tile's upper part
    ``d[a:b, a:]`` is moved, row by row in ascending order, to the front of
    the tile's own rows in ``d``'s buffer, as one contiguous
    ``(b - a) x (n - a)`` array.  A row's new place starts at or before its
    old one and ends before the next row's old one begins, so each move is a
    one-row copy.  Every update thus runs on contiguous memory, about twice
    as fast as on the strided staircase; after the last step the rows move
    back in descending order.

    A block's candidates ``vec[i] + vec[j]`` come from one product
    ``[vec, 1] @ [1; vec]``, about three times faster than a broadcast add.
    Each cell is the sum of the two products ``vec[i] * 1`` and
    ``1 * vec[j]``, both exact (inf stays inf), so every evaluation order,
    with or without a fused multiply-add, rounds it once, to the float
    ``vec[i] + vec[j]``.
    O(n^3) time; O(n) memory and one row tile besides the table.
    """
    n = len(d)
    flat = d.reshape(-1)  # a view: d is C-contiguous
    packed = []  # (a, b, tile a:b's upper part as a contiguous array in d's buffer)
    for t in _row_tiles(n, n):
        a, b = t.start, t.stop
        packed.append((a, b, flat[a * n : a * n + (b - a) * (n - a)].reshape(b - a, n - a)))
    for a, b, p in packed[1:]:  # the first tile starts at 0, already packed
        for r in range(b - a):
            p[r] = d[a + r, a:]
    lhs = np.ones((n, 2))  # column 0 is vec
    rhs = np.ones((2, n))  # row 1 is vec
    vec = rhs[1]
    tmp = np.empty(packed[0][2].size)
    home = 0  # the tile holding row k
    for k in range(n):
        while packed[home][1] <= k:
            home += 1
        for a, b, p in packed[:home]:
            vec[a:b] = p[:, k - a]
        a, _, p = packed[home]
        vec[a:k] = p[: k - a, k - a]
        vec[k:] = p[k - a, k - a :]
        lhs[:, 0] = vec
        for a, b, p in packed:
            cand = tmp[: p.size].reshape(p.shape)
            np.matmul(lhs[a:b], rhs[:, a:], out=cand)
            np.minimum(p, cand, out=p)
    for a, b, p in packed[1:]:
        for r in reversed(range(b - a)):
            d[a + r, a:] = p[r]
    _mirror_upper(d)


def generate(spec: GenSpec) -> Generated:
    """Build a synthetic metric space; deterministic for a fixed seed."""
    rng = rng_from_seed(spec.seed)
    if spec.kind == "euclidean_mixture":
        centers = rng.normal(0.0, 4.0, size=(spec.k, spec.dim))
        labels = rng.integers(0, spec.k, size=spec.n)
        coords = centers[labels] + rng.normal(0.0, 1.0, size=(spec.n, spec.dim))
        return Generated(MetricSpace.from_points(coords, norm="l2"))

    if spec.kind == "random_shortest_path":
        n = spec.n
        table = rng.random((n, n))
        np.subtract(1.0, table, out=table)  # edge weights in (0, 1] above the diagonal
        # scipy's dense-graph reader, which defined these instances, takes a
        # weight within 1e-8 of 0 for a missing edge (one draw in 10^8);
        # such an edge stays missing, so every seed keeps its instance
        table[table <= 1e-8] = np.inf
        np.fill_diagonal(table, 0.0)
        _shortest_path_closure(table)
        return Generated(MetricSpace.from_matrix(table, validate=False, copy=False))

    # planted_separated: k groups of intra diameter <= 1 spaced so that the
    # inter-group minimum distance is 1/separation, hence beta <= separation.
    from .clustering import Clustering

    n, k = spec.n, spec.k
    gap = 1.0 / spec.separation
    sizes = np.full(k, n // k)
    sizes[: n % k] += 1
    xs = []
    assignment = np.empty(n, dtype=np.intp)
    pos = 0
    for j in range(k):
        center = j * (gap + 1.0)
        xs.append(center + rng.uniform(-0.5, 0.5, size=sizes[j]))
        assignment[pos : pos + sizes[j]] = j
        pos += sizes[j]
    coords = np.concatenate(xs).reshape(-1, 1)
    space = MetricSpace.from_points(coords, norm="l2")
    return Generated(space, Clustering(assignment, k))


# -- file formats -------------------------------------------------------------


def _require_data(path, skiprows: int) -> None:
    """Reject a file with no data row after its first ``skiprows`` lines;
    numpy would only warn and return an empty array."""
    with open(path) as fh:
        for i, line in enumerate(fh):
            if i >= skiprows and line.split("#", 1)[0].strip():
                return
    raise ValueError("the file holds no data rows")


def load_matrix_csv(path) -> MetricSpace:
    """Header-free n x n CSV distance table; validated on load."""
    _require_data(path, 0)
    return MetricSpace.from_matrix(np.loadtxt(path, delimiter=",", ndmin=2), copy=False)


def load_points_csv(path, norm="l2") -> MetricSpace:
    """Points CSV with a header row x0..x{dim-1}.

    The header must name exactly the data's columns, so that a header-less
    file (a distance table, say) is rejected rather than losing its first row.
    """
    _require_data(path, 1)
    with open(path) as fh:
        header = [name.strip() for name in fh.readline().split(",")]
        coords = np.loadtxt(fh, delimiter=",", ndmin=2)
    expected = [f"x{i}" for i in range(coords.shape[1])]
    if header != expected:
        raise ValueError(f"the header row must be {','.join(expected)}, got {','.join(header)}")
    return MetricSpace.from_points(coords, norm=norm)


def save_matrix_csv(path, space: MetricSpace) -> None:
    np.savetxt(path, space.pairs(), delimiter=",", fmt="%.17g")


def save_points_csv(path, coords: np.ndarray) -> None:
    header = ",".join(f"x{i}" for i in range(coords.shape[1]))
    np.savetxt(path, coords, delimiter=",", fmt="%.17g", header=header, comments="")
