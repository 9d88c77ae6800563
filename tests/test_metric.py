import copy
import gc
import hashlib
import math
import os
import pickle
import subprocess
import sys
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.sparse.csgraph import shortest_path

from ipstable import metric
from ipstable.clustering import verify_stability
from ipstable.local_search import LsConfig, natural_local_search
from ipstable.metric import GenSpec, MetricSpace, generate, load_matrix_csv, save_matrix_csv
from ipstable.stable_opt import beta_clustering

from conftest import perturbed_planted, random_matrix_space, random_space
from reference import distance


class TestDistance:
    def test_self_distance_zero(self):
        sp = random_space(20, seed=3)
        for i in (0, 7, 19):
            assert distance(sp, i, i) == 0.0

    def test_pythagorean(self):
        sp = MetricSpace.from_points(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert distance(sp, 0, 1) == pytest.approx(5.0)

    def test_counter_increments_per_call(self):
        sp = random_space(15, seed=0)
        before = sp.query_counter
        for _ in range(10):
            distance(sp, 2, 5)
        assert sp.query_counter == before + 10

    def test_counter_counts_batches(self):
        sp = random_space(12, seed=0)
        before = sp.query_counter
        sp.row(0)
        assert sp.query_counter == before + 12
        sp.block(np.arange(3), np.arange(5))
        assert sp.query_counter == before + 12 + 15

    def test_out_of_range_index(self):
        sp = random_space(5, seed=0)
        with pytest.raises(IndexError):
            distance(sp, 0, 5)

    def test_l1_norm(self):
        sp = MetricSpace.from_points(np.array([[0.0, 0.0], [3.0, 4.0]]), norm="l1")
        assert distance(sp, 0, 1) == pytest.approx(7.0)


def _row_reference(space, i, idx):
    """Distances from i to idx as one row reduction (the pre-kernel code path)."""
    diff = space.coords[idx] - space.coords[i]
    if space.norm == "l2":
        return np.sqrt((diff * diff).sum(axis=1))
    return np.abs(diff).sum(axis=1)


def _block_reference(space, rows, cols):
    out = np.empty((len(rows), len(cols)))
    for r, i in enumerate(rows):
        out[r] = _row_reference(space, i, np.asarray(cols, dtype=np.intp))
    return out


def _assert_pairs_table(got, upper):
    """``got`` is pairs()'s table for ``upper``'s upper triangle: bitwise equal
    there, mirrored below it, 0 on the diagonal."""
    want = np.triu(upper, 1)
    assert np.array_equal(got, want + want.T)


def _coord_space(n, dim, norm, seed):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-3, 4, size=dim)  # mixed magnitudes stress the summation order
    return MetricSpace.from_points(rng.normal(size=(n, dim)) * scale, norm=norm)


def _digest_space(n, dim, norm):
    """Mixed-magnitude points drawn without libm calls, so that the data are
    the same bits on every platform."""
    rng = np.random.default_rng(dim)
    scale = np.array([1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3])[rng.integers(0, 7, size=dim)]
    return MetricSpace.from_points((rng.random((n, dim)) - 0.5) * scale, norm=norm)


class TestBlockKernel:
    @pytest.mark.parametrize("norm", ["l2", "l1"])
    # under 8 terms, 8 running sums with and without leftovers, and the
    # halving above 128 terms, once and twice
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 33, 64, 128, 129, 200, 300])
    def test_accessors_equal_row_reference(self, norm, dim):
        sp = _coord_space(70, dim, norm, seed=dim)
        rng = np.random.default_rng(dim + 100)
        rows = rng.integers(0, 70, size=23)
        cols = rng.integers(0, 70, size=41)
        want = _block_reference(sp, rows, cols)
        assert np.array_equal(sp.block(rows, cols), want)
        assert np.array_equal(sp.peek_block(rows, cols), want)
        table = _block_reference(sp, range(70), np.arange(70))
        assert np.array_equal(sp.full(), table)
        _assert_pairs_table(sp.pairs(), table)
        assert np.array_equal(sp.row(5, cols), _row_reference(sp, 5, cols))
        assert np.array_equal(sp.row(5), _row_reference(sp, 5, np.arange(70)))
        assert all(distance(sp, int(i), int(j)) == want[r, c] for r, i in enumerate(rows) for c, j in enumerate(cols))

    @pytest.mark.parametrize("norm", ["l2", "l1"])
    def test_empty_and_duplicate_indices(self, norm):
        sp = _coord_space(30, 4, norm, seed=1)
        empty = np.array([], dtype=np.intp)
        some = np.array([3, 3, 0, 29, 3])
        for rows, cols in ((empty, some), (some, empty), (empty, empty), (some, some)):
            got = sp.peek_block(rows, cols)
            assert got.shape == (len(rows), len(cols))
            assert np.array_equal(got, _block_reference(sp, rows, cols))
            assert np.array_equal(sp.block(rows, cols), got)
        assert sp.row(2, empty).shape == (0,)

    @pytest.mark.parametrize("norm", ["l2", "l1"])
    @pytest.mark.parametrize("chunk", [1, 3 * 7 * 9, 4 * 7 * 9 - 1])
    def test_rows_not_a_multiple_of_the_chunk(self, monkeypatch, norm, chunk):
        # 7 columns in 9 dimensions, two buffers of 8 terms: 1-, 1- and 2-row chunks over 10 rows
        self._check_chunked(monkeypatch, norm, 9, chunk)

    @pytest.mark.parametrize("norm", ["l2", "l1"])
    @pytest.mark.parametrize("dim", [3, 8, 17, 129])
    @pytest.mark.parametrize("rows", [1, 3])
    def test_chunks_on_every_summation_path(self, monkeypatch, norm, dim, rows):
        # 7 columns, min(dim, 8) terms a buffer, two buffers above 8
        # dimensions: 1- or 3-row chunks over 10 rows
        self._check_chunked(monkeypatch, norm, dim, rows * min(dim, 8) * 7 * (1 + (dim > 8)))

    @staticmethod
    def _check_chunked(monkeypatch, norm, dim, chunk):
        monkeypatch.setattr(metric, "_BLOCK_CHUNK_ELEMS", chunk)
        sp = _coord_space(40, dim, norm, seed=chunk)
        rows = np.arange(10) * 3
        cols = np.array([1, 5, 5, 8, 13, 21, 34])
        want = _block_reference(sp, rows, cols)
        assert np.array_equal(sp.peek_block(rows, cols), want)
        assert np.array_equal(sp.block(rows, cols), want)
        table = _block_reference(sp, range(40), np.arange(40))
        assert np.array_equal(sp.full(), table)
        _assert_pairs_table(sp.pairs(), table)

    def test_dimension_zero_gives_zero_distances(self):
        sp = MetricSpace.from_points(np.ones((6, 0)))
        zeros = np.zeros((6, 6))
        assert np.array_equal(sp.full(), zeros)
        assert np.array_equal(sp.pairs(), zeros)
        assert np.array_equal(sp.block([5, 0, 5], [2]), zeros[:3, :1])
        assert np.array_equal(sp.row(4), zeros[0])
        assert distance(sp, 1, 2) == 0.0

    @pytest.mark.parametrize("n, dim, norm, digest", [
        # sha256 of full()'s bytes, computed with the (rows, cols, dim)
        # kernel that reduced the last axis with ndarray.sum
        (50, 1, "l2", "e4d31380a5f1e480a2c47260c6eb821e471867979fe4f7ae262ec1eb3603ee8b"),
        (50, 2, "l1", "154020e24de20ffbc8e6aa5c08b2261937212235657b82836daed3be2da9d1a2"),
        (50, 4, "l2", "7d9f3dafba34138242f71d265eeba1e8405c505adb257051a760aa2d6d637141"),
        (50, 8, "l2", "d927bf7a4907d8cb15b6baf0b0fbb1ccba3f5b71258a3898fb697912b4c46408"),
        (50, 9, "l1", "0f88e6d0164bf16c2f9a7509f40fd56c7fe4b6dd07994689116cee0b6708b512"),
        (50, 17, "l2", "6220912e641641093c7de8a2f3cab4d4af3b61ea9aaa7c612d93b02d52e6dbdf"),
        (40, 64, "l1", "42e3fa18678f67183afa48b154cc034a1f2678702671efaba48bc64d53db3d1a"),
        (40, 129, "l2", "57477530f1896f15562098f5035926f81ef43ee7a5290866f59e72ce2c269329"),
        (40, 200, "l1", "2ba169a4a21b3ffd30f5e8e84c9fe3e36e0817585ed3a2cee403b3fac35afc91"),
    ])
    def test_full_table_digests(self, n, dim, norm, digest):
        # pins the values themselves, not only their agreement with numpy's
        # reduction order of the day
        assert hashlib.sha256(_digest_space(n, dim, norm).full().tobytes()).hexdigest() == digest

    def test_matrix_blocks_index_the_table(self, monkeypatch):
        sp = random_matrix_space(25, seed=4)
        table = sp.full()
        every = np.arange(25)
        some = (np.array([4, 0, 4, 24]), np.array([7, 7, 1]), np.array([], dtype=np.intp),
                every, every[::-1], np.concatenate((every, [3, 3])))
        # unsorted, duplicate, empty and full-range indices, on either side,
        # gathered whole or in chunks of 2 rows and of 1
        for chunk in (metric._BLOCK_CHUNK_ELEMS, 2 * 25 + 1, 1):
            monkeypatch.setattr(metric, "_BLOCK_CHUNK_ELEMS", chunk)
            for rows in some:
                for cols in some:
                    want = table[np.ix_(rows, cols)]
                    assert np.array_equal(sp.block(rows, cols), want)
                    assert np.array_equal(sp.peek_block(rows, cols), want)
        assert np.array_equal(sp.row(9, some[1]), table[9, some[1]])
        assert sp.peek_block(np.array([], dtype=np.intp), some[1]).shape == (0, 3)
        # tables are accepted with asymmetry up to a relative 1e-9: pairs()
        # reads the stored upper triangle into both triangles, in one tile and
        # in tiles of 7 rows (the last one partial); it never reads the diagonal
        skewed = (np.triu(table) * (1 + 1e-12) + np.tril(table), np.triu(table) + np.tril(table) * (1 + 1e-12))
        for chunk in (metric._BLOCK_CHUNK_ELEMS, 7 * 25):
            monkeypatch.setattr(metric, "_BLOCK_CHUNK_ELEMS", chunk)
            _assert_pairs_table(sp.pairs(), table)
            for upper in skewed:
                _assert_pairs_table(MetricSpace.from_matrix(upper).pairs(), upper)
            _assert_pairs_table(MetricSpace.from_matrix(table + np.eye(25), validate=False).pairs(), table)

    @pytest.mark.parametrize("make", [lambda: _coord_space(20, 9, "l2", 0), lambda: random_matrix_space(20, 0)])
    def test_query_charges(self, make):
        sp = make()
        start = sp.query_counter
        sp.block(np.arange(6), np.arange(7))
        assert sp.query_counter == start + 42
        sp.peek_block(np.arange(6), np.arange(7))
        assert sp.query_counter == start + 42
        sp.full()
        assert sp.query_counter == start + 42 + 400
        sp.row(3, [1, 1, 2])
        sp.row(3)
        assert sp.query_counter == start + 42 + 400 + 3 + 20
        sp.block([], np.arange(7))
        assert sp.query_counter == start + 42 + 400 + 3 + 20
        sp.pairs()
        assert sp.query_counter == start + 42 + 400 + 3 + 20 + 190
        single = MetricSpace.from_points(np.zeros((1, 3)))
        assert np.array_equal(single.pairs(), [[0.0]])
        assert single.query_counter == 0

    @pytest.mark.parametrize("make", [lambda: _coord_space(3, 2, "l2", 0), lambda: random_matrix_space(3, 0)])
    def test_out_of_range_reads_raise_and_charge_nothing(self, make):
        sp = make()
        for read in (lambda: sp.row(5), lambda: sp.row(-1), lambda: sp.row(3), lambda: sp.row(0, [1, 3]),
                     lambda: sp.row(0, [-1]), lambda: sp.block([0], [7]), lambda: sp.block([-1], [0, 1]),
                     lambda: sp.block([0, 3], []), lambda: sp.peek_block([0], [-3]),
                     lambda: sp.peek_block([3], [0]), lambda: distance(sp, 0, -1)):
            with pytest.raises(IndexError, match="out of range"):
                read()
        assert sp.query_counter == 0
        assert np.array_equal(sp.row(2), sp.full()[2])

    @pytest.mark.parametrize("make", [lambda: _coord_space(3, 2, "l2", 0), lambda: random_matrix_space(3, 0)])
    def test_non_integer_reads_raise_and_charge_nothing(self, make):
        # each of these casts to an in-range integer; booleans are not a mask either
        sp = make()
        for read in (lambda: sp.row(1.5), lambda: sp.row(True), lambda: sp.row(0, [0.5]),
                     lambda: sp.block([0.5], [1.7]), lambda: sp.block([True, False], [1]),
                     lambda: sp.peek_block([1.9], [0]), lambda: sp.peek_block([0], np.array([1.0]))):
            with pytest.raises(IndexError, match="integers"):
                read()
        assert sp.query_counter == 0
        # an empty list is still an empty index, though numpy reads it as float64
        assert sp.block([], [0, 1]).shape == (0, 2)
        assert sp.block([0], []).shape == (1, 0)
        assert sp.row(0, []).shape == (0,)
        assert sp.query_counter == 0


class TestTableLoad:
    @pytest.mark.parametrize("skew", ["upper", "lower", "cells"])
    def test_every_read_sees_the_mirrored_upper_triangle(self, skew):
        n = 25
        rng = np.random.default_rng(6)
        rel = {
            "upper": np.triu(np.full((n, n), 1e-10), 1),
            "lower": np.tril(np.full((n, n), 1e-10), -1),
            "cells": rng.uniform(-2.5e-10, 2.5e-10, size=(n, n)),
        }[skew]
        loaded = random_matrix_space(n, seed=6).full() * (1.0 + rel)
        sp = MetricSpace.from_matrix(loaded)  # within the loader's 1e-9
        want = np.triu(loaded, 1)
        want += want.T
        rows, cols = rng.integers(0, n, size=9), rng.integers(0, n, size=13)
        assert np.array_equal(sp.full(), want)
        assert np.array_equal(sp.pairs(), want)
        assert np.array_equal(sp.block(rows, cols), want[np.ix_(rows, cols)])
        assert np.array_equal(sp.peek_block(cols, rows), want[np.ix_(cols, rows)])
        assert all(np.array_equal(sp.row(i), want[i]) for i in range(n))
        assert all(np.array_equal(sp.row(i, cols), want[i, cols]) for i in range(n))

    def test_negative_zero_reads_as_positive_zero(self):
        D = np.array([[-0.0, -0.0, 5.0], [0.0, 0.0, 5.0], [5.0, 5.0, -0.0]])
        sp = MetricSpace.from_matrix(D)
        every = np.arange(3)
        for got in (sp.full(), sp.pairs(), sp.block(every, every), sp.peek_block(every, every)):
            assert np.array_equal(got, D) and not np.signbit(got).any()
        for i in every:
            assert np.array_equal(sp.row(i), D[i]) and not np.signbit(sp.row(i)).any()

    def test_pairs_returns_the_stored_table(self):
        # a coordinate space keeps the table it built for its next read
        for sp in (random_matrix_space(20, seed=2), random_space(20, seed=2)):
            before = sp.query_counter
            first = sp.pairs()
            assert sp.query_counter - before == 20 * 19 // 2
            second = sp.pairs()
            assert first is second and not first.flags.writeable
            assert sp.query_counter - before == 2 * (20 * 19 // 2)
            assert np.array_equal(first, sp.block(np.arange(20), np.arange(20)))
            with pytest.raises(ValueError, match="read-only"):
                first[0, 1] = 1.0


class TestKeptTable:
    """A coordinate space's ``pairs()`` table is kept until another space
    reads its own or the space is collected."""

    def test_pairs_on_another_space_releases_the_kept_table(self):
        first, second = random_space(30, seed=1), random_space(30, seed=2)
        kept = weakref.ref(first.pairs())
        gc.collect()
        assert kept() is not None
        table = second.pairs()
        gc.collect()
        assert kept() is None
        assert second.pairs() is table and first.pairs() is not table

    def test_collecting_the_space_releases_the_kept_table(self):
        sp = random_space(30, seed=4)
        kept = weakref.ref(sp.pairs())
        gc.collect()
        assert kept() is not None
        del sp
        gc.collect()
        assert kept() is None

    def test_threads_each_read_their_own_space(self):
        spaces = [random_space(40 + i, seed=i) for i in range(3)]
        want = [sp.block(np.arange(sp.n), np.arange(sp.n)) for sp in spaces]

        def read(i):
            return all(np.array_equal(spaces[i % 3].pairs(), want[i % 3]) for _ in range(20))

        with ThreadPoolExecutor(3) as pool:
            assert all(pool.map(read, range(12)))

    def test_verifier_after_a_search_evaluates_no_distance(self, monkeypatch):
        space, _, start = perturbed_planted(90, 3, 0.01, seed=2, moves=6)
        out, trace = natural_local_search(space, 3, LsConfig(initial=start))
        assert trace.steps
        cells = []
        kernel = MetricSpace._eval_block

        def counted(self, rows, cols):
            cells.append(len(rows) * len(cols))
            return kernel(self, rows, cols)

        monkeypatch.setattr(MetricSpace, "_eval_block", counted)
        before = space.query_counter
        alpha = 2 * math.log2(space.n)
        report = verify_stability(space, out, "avg", alpha)
        assert sum(cells) == 0 and space.query_counter - before == 90 * 89 // 2
        fresh = verify_stability(MetricSpace.from_points(space.coords), out, "avg", alpha)
        assert sum(cells) == 90 * 90
        assert report.alpha_achieved.hex() == fresh.alpha_achieved.hex()
        assert (report.witness, report.passed) == (fresh.witness, fresh.passed)
        assert report.per_point.tobytes() == fresh.per_point.tobytes()


class TestCopies:
    """A space holds no lock, so it deep-copies and pickles.  The copy reads
    the same bits; it keeps no table until it reads one, and its table and
    coordinates are read-only."""

    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda sp: pickle.loads(pickle.dumps(sp))], ids=["deepcopy", "pickle"])
    @pytest.mark.parametrize("make", [random_space, random_matrix_space], ids=["coords", "table"])
    def test_copy_reads_the_same_bits(self, make, clone):
        sp = make(30, seed=5)
        kept = sp.pairs()
        dup = clone(sp)
        assert (dup.n, dup.query_counter) == (sp.n, sp.query_counter)
        assert sp.pairs() is kept  # copying drops no table
        if sp.coords is None:
            assert dup.coords is None
        else:
            assert dup.coords.tobytes() == sp.coords.tobytes() and not dup.coords.flags.writeable
        table = dup.pairs()
        assert table is not kept and table.tobytes() == kept.tobytes()
        assert not table.flags.writeable and dup.pairs() is table
        with pytest.raises(ValueError, match="read-only"):
            table[0, 1] = 1.0
        assert (sp.query_counter, dup.query_counter) == (2 * 435, 3 * 435)  # each call charges
        assert sp.pairs().tobytes() == kept.tobytes()


class TestValidation:
    def test_tiled_checks_keep_their_order_and_slack(self, monkeypatch):
        # 3-row tiles over 12 points: each check runs over every tile before the next
        monkeypatch.setattr(metric, "_BLOCK_CHUNK_ELEMS", 3 * 12)
        base = random_space(12, seed=1).full()

        def load(*edits):
            mat = base.copy()
            for (i, j), value in edits:
                mat[i, j] = value
            return MetricSpace.from_matrix(mat)

        with pytest.raises(ValueError, match="non-finite"):
            load(((0, 1), -1.0), ((11, 10), math.nan))
        with pytest.raises(ValueError, match="negative"):
            load(((0, 1), 2 * base[0, 1]), ((10, 11), -1.0))
        for cell in ((0, 11), (11, 0), (10, 11), (4, 5)):
            with pytest.raises(ValueError, match="symmetric"):
                load((cell, base[cell] * (1 + 1e-8)))
            load((cell, base[cell] * (1 + 1e-10)))  # within the loader's 1e-9

    def test_validation_temporaries_stay_within_row_tiles(self):
        # the cell checks and the sampled triangle check's triples alike
        table = random_space(600, seed=4).full()
        tracemalloc.start()
        try:
            metric._validate_table(table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a few tiles of at most _BLOCK_CHUNK_ELEMS float64 cells; one n x n
        # temporary is 2.9 MB, and the 100,000 triples drawn at once 2.4 MB
        assert peak <= 6 * 8 * metric._BLOCK_CHUNK_ELEMS

    def test_sampled_triangle_check_rejects_in_any_tiles(self, monkeypatch):
        # above 64 points the triples come from one Philox(0) stream, drawn a
        # tile at a time; breaking the triangle of the last triple that one
        # whole draw gives is caught whatever the tiles are
        n = 300
        table = random_space(n, seed=6).full()
        triples = np.random.Generator(np.random.Philox(0)).integers(0, n, size=(metric._TRIANGLE_SAMPLED_TRIPLES, 3))
        i, x, j = next(t for t in triples[::-1] if len(set(t)) == 3)
        bad = table.copy()
        bad[i, j] = bad[j, i] = 3 * table.max()
        for chunk in (metric._BLOCK_CHUNK_ELEMS, 3 * 1000):
            monkeypatch.setattr(metric, "_BLOCK_CHUNK_ELEMS", chunk)
            with pytest.raises(ValueError, match="sampled check"):
                MetricSpace.from_matrix(bad)
            MetricSpace.from_matrix(table)

    def test_rejects_asymmetric(self):
        mat = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            MetricSpace.from_matrix(mat)

    def test_rejects_triangle_violation(self):
        mat = np.array([[0.0, 10.0, 1.0], [10.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        with pytest.raises(ValueError, match="triangle"):
            MetricSpace.from_matrix(mat)

    def test_rejects_negative(self):
        mat = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(ValueError):
            MetricSpace.from_matrix(mat)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_coords(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            MetricSpace.from_points(np.array([[0.0, 1.0], [bad, 2.0]]))

    def test_rejects_coords_whose_distances_overflow(self):
        big = np.finfo(np.float64).max
        with pytest.raises(ValueError, match="too far apart"):
            MetricSpace.from_points(np.array([[0.0], [2e200]]))
        assert distance(MetricSpace.from_points(np.array([[0.0], [2e200]]), norm="l1"), 0, 1) == 2e200
        with pytest.raises(ValueError, match="too far apart"):
            MetricSpace.from_points(np.array([[-big], [big]]), norm="l1")
        # half the largest squared distance is far from overflowing
        sp = MetricSpace.from_points(np.array([[0.0, 0.0], [4e153, 4e153]]))
        assert np.isfinite(sp.full()).all()

    def test_accepts_valid_with_rounding_slack(self):
        sp = random_space(30, seed=5)
        MetricSpace.from_matrix(sp.full())  # should not raise


def _triangle_ok(space, exhaustive_limit=64, samples=100_000):
    D = space.peek_block(np.arange(space.n), np.arange(space.n))
    n = space.n
    if n <= exhaustive_limit:
        for x in range(n):
            if np.any(D > (D[:, x : x + 1] + D[x : x + 1, :]) * (1 + 1e-9)):
                return False
        return True
    rng = np.random.default_rng(0)
    i, x, j = rng.integers(0, n, size=(3, samples))
    return not np.any(D[i, j] > (D[i, x] + D[x, j]) * (1 + 1e-9))


def _assert_closure_matches_scipy(n, seed):
    # scipy is the reference only
    rng = metric.rng_from_seed(seed)
    upper = np.triu(1.0 - rng.random((n, n)), 1)
    want = shortest_path(upper + upper.T, method="FW", directed=False)
    np.fill_diagonal(want, 0.0)
    got = generate(GenSpec("random_shortest_path", n=n, seed=seed)).space.full()
    assert np.array_equal(got, want)


class TestGenerate:
    @pytest.mark.parametrize("kind", ["euclidean_mixture", "random_shortest_path", "planted_separated"])
    def test_triangle_inequality(self, kind):
        spec = GenSpec(kind, n=40, k=3, dim=2, separation=0.2, seed=9)
        assert _triangle_ok(generate(spec).space)

    def test_triangle_inequality_large_sampled(self):
        sp = random_space(150, seed=2)
        assert _triangle_ok(sp)

    def test_determinism(self):
        a = generate(GenSpec("random_shortest_path", n=25, seed=42)).space
        b = generate(GenSpec("random_shortest_path", n=25, seed=42)).space
        assert np.array_equal(a.peek_block(np.arange(25), np.arange(25)),
                              b.peek_block(np.arange(25), np.arange(25)))

    @pytest.mark.parametrize("n, seed", [
        *((n, seed) for n in (1, 2, 3, 63, 64, 65, 130, 300) for seed in (0, 1, 7)),
        # these tables draw an edge within 1e-8 of 0, which scipy reads as missing
        (65, 16621), (130, 7224), (300, 871),
    ])
    def test_shortest_path_closure_matches_scipy(self, n, seed):
        # n = 300 crosses the closure's row tiles at the default bound (218 rows)
        _assert_closure_matches_scipy(n, seed)

    @pytest.mark.parametrize("n, rows", [(2, 1), (20, 1), (65, 7), (130, 64)])
    def test_shortest_path_closure_in_shrunk_row_tiles(self, n, rows, monkeypatch):
        # tiles of `rows` rows, the last one partial; the tile height changes no bit
        monkeypatch.setattr(metric, "_BLOCK_CHUNK_ELEMS", rows * n)
        _assert_closure_matches_scipy(n, seed=n)

    @pytest.mark.parametrize("n, rows, seed", [
        (64, 7, 64),  # the last tile is one row
        (65, 7, 16621),  # a weight within 1e-8 of 0, at (38, 45), is a missing edge (inf) in a packed tile
    ])
    def test_shortest_path_closure_in_packed_tile_edge_cases(self, n, rows, seed, monkeypatch):
        monkeypatch.setattr(metric, "_BLOCK_CHUNK_ELEMS", rows * n)
        _assert_closure_matches_scipy(n, seed)

    def test_shortest_path_closure_packs_its_tiles_in_place(self):
        n = 600
        table = np.triu(1.0 - metric.rng_from_seed(3).random((n, n)), 1)
        tracemalloc.start()
        try:
            metric._shortest_path_closure(table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one row tile (0.52 MB) and O(n) vectors beside the 2.88 MB table;
        # packing the tiles into a fresh n^2 / 2 array would take 1.44 MB
        assert peak <= 1_000_000

    def test_library_imports_no_scipy(self):
        code = ("import sys, ipstable, ipstable.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        env = {**os.environ, "PYTHONPATH": str(Path(metric.__file__).parents[1])}  # this package
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_single_point_mixture(self):
        sp = generate(GenSpec("euclidean_mixture", n=1, k=1, dim=2, seed=0)).space
        assert sp.n == 1
        assert np.array_equal(sp.full(), [[0.0]])

    def test_planted_beta_bounded(self):
        out = generate(GenSpec("planted_separated", n=30, k=3, separation=0.1, seed=1))
        assert out.planted is not None
        assert beta_clustering(out.space, out.planted) <= 0.1

    @given(st.integers(0, 10_000), st.integers(2, 5), st.sampled_from([0.05, 0.3, 0.9]))
    def test_planted_beta_bounded_property(self, seed, k, sep):
        out = generate(GenSpec("planted_separated", n=4 * k, k=k, separation=sep, seed=seed))
        assert beta_clustering(out.space, out.planted) <= sep

    def test_rsp_values_positive_offdiag(self):
        sp = random_matrix_space(20, seed=3)
        D = sp.peek_block(np.arange(20), np.arange(20))
        off = D[~np.eye(20, dtype=bool)]
        assert np.all(off > 0)

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            GenSpec("euclidean_mixture", n=0, seed=1)
        with pytest.raises(ValueError):
            GenSpec("planted_separated", n=10, k=1, separation=0.1, seed=1)
        with pytest.raises(ValueError):
            GenSpec("planted_separated", n=10, k=3, separation=0.0, seed=1)
        with pytest.raises(ValueError):
            GenSpec("no_such_kind", n=5, seed=1)


class TestFiles:
    def test_matrix_round_trip(self, tmp_path):
        sp = random_matrix_space(12, seed=8)
        path = tmp_path / "mat.csv"
        save_matrix_csv(path, sp)
        sp2 = load_matrix_csv(path)
        assert np.allclose(sp.peek_block(np.arange(12), np.arange(12)),
                           sp2.peek_block(np.arange(12), np.arange(12)))

    def test_bad_table_rejected_on_load(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,10,1\n10,0,1\n1,1,0\n")
        with pytest.raises(ValueError):
            load_matrix_csv(path)
