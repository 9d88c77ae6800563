"""Metric spaces with a counted distance oracle, plus synthetic instance generators.

Every algorithm in this package accesses distances exclusively through a
:class:`MetricSpace`, whose query counter tallies how many distance
evaluations the algorithm requested.  Batched accessors charge the counter
by the number of evaluations in the batch; repeated requests for the same
pair count every time, because the counter measures oracle traffic, not
distinct pairs.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.csgraph import shortest_path

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

# Coordinate blocks are reduced in row chunks whose (rows, cols, dim)
# difference buffer holds at most this many float64 elements (512 KiB).
_BLOCK_CHUNK_ELEMS = 1 << 16


class MetricSpace:
    """Immutable point set with a distance oracle and a query counter.

    Backed either by an explicit symmetric distance table or by a coordinate
    array with an L2/L1 norm.  Every distance read goes through one block
    kernel; for coordinates it computes the block in bounded row chunks, so
    its temporaries stay small whatever the block size.  The instance is
    safe to share across threads; the query counter is updated under a lock.
    """

    def __init__(self, *, matrix=None, coords=None, norm="l2", validate=True):
        if (matrix is None) == (coords is None):
            raise ValueError("provide exactly one of matrix= or coords=")
        self._lock = threading.Lock()
        self._queries = 0
        if matrix is not None:
            mat = np.asarray(matrix, dtype=np.float64)
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise ValueError(f"distance table must be square, got {mat.shape}")
            if validate:
                _validate_table(mat)
            mat = mat.copy()
            mat.flags.writeable = False
            self._matrix = mat
            self._coords = None
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
            pts = pts.copy()
            pts.flags.writeable = False
            self._matrix = None
            self._coords = pts
            self.norm = norm
            self.n = pts.shape[0]
        if self.n < 1:
            raise ValueError("a metric space needs at least one point")

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_matrix(cls, matrix, validate=True) -> "MetricSpace":
        return cls(matrix=matrix, validate=validate)

    @classmethod
    def from_points(cls, coords, norm="l2") -> "MetricSpace":
        return cls(coords=coords, norm=norm)

    @property
    def coords(self):
        """Coordinate backing, or None for table-backed spaces."""
        return self._coords

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
        with self._lock:
            self._queries += m

    # -- distance access ------------------------------------------------------

    def distance(self, i: int, j: int) -> float:
        """d(i, j); one query."""
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexError(f"point index out of range: ({i}, {j}) with n={self.n}")
        self.charge(1)
        return float(self._eval_block(np.array([i], dtype=np.intp), np.array([j], dtype=np.intp))[0, 0])

    def row(self, i: int, idx=None) -> np.ndarray:
        """Distances from point i to idx (default: all points); one query each."""
        if idx is None:
            idx = np.arange(self.n)
        else:
            idx = np.asarray(idx, dtype=np.intp)
        self.charge(len(idx))
        return self._eval_block(np.array([i], dtype=np.intp), idx)[0]

    def block(self, rows, cols) -> np.ndarray:
        """|rows| x |cols| distance block; charges |rows|*|cols| queries."""
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        self.charge(len(rows) * len(cols))
        return self._eval_block(rows, cols)

    def full(self) -> np.ndarray:
        """The complete n x n table; charges n^2 queries."""
        idx = np.arange(self.n)
        return self.block(idx, idx)

    def peek_block(self, rows, cols) -> np.ndarray:
        """Distance block without touching the counter.

        For samplers that evaluate pairs with multiplicity: they call
        :meth:`charge` with the number of sampled evaluations and fetch the
        distinct values here, so the counter reflects the sampling algorithm
        rather than the deduplicated physical reads.
        """
        return self._eval_block(np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp))

    def _eval_block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Uncharged |rows| x |cols| block for intp index arrays.

        Each coordinate cell is the norm of ``coords[col] - coords[row]``,
        reduced over the last axis as for a single row, so a cell's value
        does not depend on the block it is read in.
        """
        if self._matrix is not None:
            return self._matrix[np.ix_(rows, cols)]
        targets = self._coords[cols]
        out = np.empty((len(rows), len(cols)))
        step = max(1, min(len(rows), _BLOCK_CHUNK_ELEMS // max(1, targets.size)))
        buf = np.empty((step, *targets.shape))
        for lo in range(0, len(rows), step):
            diff = buf[: min(step, len(rows) - lo)]
            np.subtract(targets, self._coords[rows[lo : lo + step], None], out=diff)
            if self.norm == "l2":
                np.multiply(diff, diff, out=diff)
            else:
                np.abs(diff, out=diff)
            diff.sum(axis=2, out=out[lo : lo + len(diff)])
        if self.norm == "l2":
            np.sqrt(out, out=out)
        return out


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
    """Reject tables that are not symmetric non-negative metrics."""
    n = mat.shape[0]
    if np.any(~np.isfinite(mat)):
        raise ValueError("distance table contains non-finite values")
    if np.any(mat < 0):
        raise ValueError("distance table contains negative values")
    if np.any(np.diag(mat) != 0):
        raise ValueError("distance table has non-zero diagonal entries")
    scale = np.maximum(np.abs(mat), np.abs(mat.T))
    if np.any(np.abs(mat - mat.T) > TRIANGLE_RTOL * scale):
        raise ValueError("distance table is not symmetric")
    if n <= _TRIANGLE_EXHAUSTIVE_LIMIT:
        for x in range(n):
            through = mat[:, x : x + 1] + mat[x : x + 1, :]
            if np.any(mat > through * (1.0 + TRIANGLE_RTOL)):
                raise ValueError(f"triangle inequality violated via point {x}")
    else:
        rng = np.random.Generator(np.random.Philox(0))
        triples = rng.integers(0, n, size=(_TRIANGLE_SAMPLED_TRIPLES, 3))
        i, x, j = triples.T
        lhs = mat[i, j]
        rhs = mat[i, x] + mat[x, j]
        if np.any(lhs > rhs * (1.0 + TRIANGLE_RTOL)):
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
        upper = 1.0 - rng.random((n, n))  # values in (0, 1]
        table = np.triu(upper, 1)
        table = table + table.T
        closed = shortest_path(table, method="FW", directed=False)
        np.fill_diagonal(closed, 0.0)
        return Generated(MetricSpace.from_matrix(closed, validate=False))

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
    mat = np.loadtxt(path, delimiter=",", ndmin=2)
    return MetricSpace.from_matrix(mat)


def load_points_csv(path, norm="l2") -> MetricSpace:
    """Points CSV with a header row x0..x{dim-1}."""
    _require_data(path, 1)
    coords = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return MetricSpace.from_points(coords, norm=norm)


def save_matrix_csv(path, space: MetricSpace) -> None:
    np.savetxt(path, space.full(), delimiter=",", fmt="%.17g")


def save_points_csv(path, coords: np.ndarray) -> None:
    header = ",".join(f"x{i}" for i in range(coords.shape[1]))
    np.savetxt(path, coords, delimiter=",", fmt="%.17g", header=header, comments="")
