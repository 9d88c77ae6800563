import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ipstable.metric import GenSpec, MetricSpace, generate, load_matrix_csv, save_matrix_csv
from ipstable.stable_opt import beta_clustering

from conftest import random_matrix_space, random_space


class TestDistance:
    def test_self_distance_zero(self):
        sp = random_space(20, seed=3)
        for i in (0, 7, 19):
            assert sp.distance(i, i) == 0.0

    def test_pythagorean(self):
        sp = MetricSpace.from_points(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert sp.distance(0, 1) == pytest.approx(5.0)

    def test_counter_increments_per_call(self):
        sp = random_space(15, seed=0)
        before = sp.query_counter
        for _ in range(10):
            sp.distance(2, 5)
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
            sp.distance(0, 5)

    def test_l1_norm(self):
        sp = MetricSpace.from_points(np.array([[0.0, 0.0], [3.0, 4.0]]), norm="l1")
        assert sp.distance(0, 1) == pytest.approx(7.0)


class TestValidation:
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
