import math

import numpy as np
import pytest

from ipstable.clustering import Clustering
from ipstable.metric import MetricSpace
from ipstable.potential import SQRT_MEDIAN_SCALE, edge_order, phi_avg, phi_avg_clustering, signature_from_order

from conftest import line_space, random_matrix_space, random_space, skewed, table_spaces
from reference import bits, max_ip_signature, phi_sqrt_median_exact, phi_sqrt_median_surrogate


class TestPhiAvg:
    def test_singleton_zero(self):
        sp = line_space([0, 1])
        assert phi_avg(sp, [0]) == 0.0

    def test_pair_equals_distance(self):
        sp = line_space([0, 5])
        assert phi_avg(sp, [0, 1]) == pytest.approx(5.0)

    def test_equilateral_triple(self):
        mat = np.ones((3, 3)) - np.eye(3)
        sp = MetricSpace.from_matrix(mat)
        assert phi_avg(sp, [0, 1, 2]) == pytest.approx(2 * math.log2(3))

    def test_clustering_sums_clusters(self):
        sp = line_space([0, 5, 100, 101, 200])
        cl = Clustering([0, 0, 1, 1, 2], 3)
        assert phi_avg_clustering(sp, cl) == pytest.approx(5.0 + 1.0 + 0.0)

    def test_alternative_form(self):
        # log2|C(p)| * avg(p, C(p)) summed over points equals the cluster sum
        sp = random_space(24, seed=4)
        D = sp.peek_block(np.arange(24), np.arange(24))
        rng = np.random.default_rng(0)
        assign = rng.integers(0, 3, size=24)
        assign[:3] = [0, 1, 2]
        cl = Clustering(assign, 3)
        total = 0.0
        for p in range(24):
            own = np.nonzero(assign == assign[p])[0]
            total += math.log2(len(own)) * D[p, own].mean()
        assert phi_avg_clustering(sp, cl) == pytest.approx(total, rel=1e-12)


def _sandwich_holds(D, S, p, n):
    """avg(p,S) <= phi(S+p) - phi(S) <= 2 log2(n) avg(p,S), from raw pair sums."""

    def phi(idx):
        if len(idx) <= 1:
            return 0.0
        return math.log2(len(idx)) / len(idx) * D[np.ix_(idx, idx)].sum()

    avg = D[p, S].mean()
    delta = phi(np.append(S, p)) - phi(S)
    lo_ok = avg <= delta * (1 + 1e-9) + 1e-15
    hi_ok = delta <= 2 * math.log2(n) * avg * (1 + 1e-9) + 1e-15
    return lo_ok and hi_ok


class TestSandwich:
    def test_exhaustive_small(self):
        for n in range(3, 8):
            for seed in range(10):
                sp = random_space(n, seed=seed, dim=2)
                D = sp.peek_block(np.arange(n), np.arange(n))
                for mask in range(1, 1 << n):
                    S = np.array([i for i in range(n) if mask >> i & 1])
                    for p in range(n):
                        if mask >> p & 1:
                            continue
                        assert _sandwich_holds(D, S, p, n)

    def test_random_draws_larger(self):
        sp = random_matrix_space(64, seed=21)
        D = sp.peek_block(np.arange(64), np.arange(64))
        rng = np.random.default_rng(7)
        for _ in range(2000):
            size = int(rng.integers(1, 64))
            perm = rng.permutation(64)
            S, p = perm[:size], int(perm[size])
            assert _sandwich_holds(D, S, p, 64)


class TestChangeInAverage:
    def test_adding_a_point_moves_averages_little(self):
        # |avg(p', C+p) - avg(p', C)| <= avg(p, C) / (|C|+1)
        sp = random_space(40, seed=6)
        D = sp.peek_block(np.arange(40), np.arange(40))
        rng = np.random.default_rng(8)
        for _ in range(500):
            size = int(rng.integers(1, 39))
            perm = rng.permutation(40)
            C, p = perm[:size], int(perm[size])
            p2 = int(rng.integers(0, 40))
            before = D[p2, C].mean()
            after = D[p2, np.append(C, p)].mean()
            bound = D[p, C].mean() / (size + 1)
            assert abs(after - before) <= bound * (1 + 1e-9) + 1e-15


class TestMergeBound:
    def test_merge_increase_bounded(self):
        # phi(C u C') - phi(C) - phi(C') <= 2 log2(n) / max(sizes) * cross sum
        for seed in range(5):
            sp = random_space(30, seed=seed)
            D = sp.peek_block(np.arange(30), np.arange(30))
            rng = np.random.default_rng(seed)
            for _ in range(100):
                perm = rng.permutation(30)
                a = int(rng.integers(1, 15))
                b = int(rng.integers(1, 15))
                C, C2 = perm[:a], perm[a : a + b]
                merged = np.concatenate([C, C2])
                inc = (
                    phi_avg(sp, merged) - phi_avg(sp, C) - phi_avg(sp, C2)
                )
                cross = D[np.ix_(C, C2)].sum()
                bound = 2 * math.log2(30) / max(a, b) * cross
                assert inc <= bound * (1 + 1e-9) + 1e-12


class TestSqrtMedianPotential:
    def test_singleton(self):
        sp = line_space([0, 1])
        assert phi_sqrt_median_exact(sp, [0]) == 0.0

    def test_pair_counts_edge_twice(self):
        sp = line_space([0, 4])
        expected = SQRT_MEDIAN_SCALE * 2.0 * 2.0
        assert phi_sqrt_median_exact(sp, [0, 1]) == pytest.approx(expected)
        assert expected == pytest.approx(6.82842712474619)

    def test_unit_triple(self):
        mat = np.ones((3, 3)) - np.eye(3)
        sp = MetricSpace.from_matrix(mat)
        assert phi_sqrt_median_exact(sp, [0, 1, 2]) == pytest.approx(3 * SQRT_MEDIAN_SCALE)

    def test_size_cap(self):
        sp = random_space(12, seed=0)
        with pytest.raises(ValueError):
            phi_sqrt_median_exact(sp, list(range(9)))

    def test_surrogate_bounds(self):
        sp = line_space([0, 9])
        assert phi_sqrt_median_surrogate(sp, [0]) == 0.0
        assert phi_sqrt_median_surrogate(sp, [0, 1]) == pytest.approx(3.0)

    def test_surrogate_sandwiches_exact(self):
        rng = np.random.default_rng(3)
        for seed in range(20):
            m = int(rng.integers(2, 9))
            sp = random_space(m, seed=seed)
            C = list(range(m))
            lo = phi_sqrt_median_surrogate(sp, C)
            exact = phi_sqrt_median_exact(sp, C)
            hi = m * SQRT_MEDIAN_SCALE * lo
            assert lo <= exact * (1 + 1e-12)
            assert exact <= hi * (1 + 1e-12)


def _signature_spaces():
    """The table spaces and the tied line with either triangle skewed on the
    pairs of odd i + j only, so a pair read the wrong way round moves among
    its ties."""
    tied = table_spaces()[0]
    idx = np.arange(tied.n)
    odd = 1e-10 * (np.add.outer(idx, idx) % 2)
    return [*table_spaces(), skewed(tied, "upper", odd), skewed(tied, "lower", odd)]


class TestMaxIpSignature:
    def test_all_singletons_zero(self):
        sp = random_space(6, seed=1)
        sig = max_ip_signature(sp, np.arange(6))
        assert not any(bits(sig))

    def test_one_cluster_all_ones(self):
        sp = random_space(6, seed=1)
        sig = max_ip_signature(sp, np.zeros(6, dtype=int))
        assert all(bits(sig))

    def test_three_points_single_edge(self):
        sp = line_space([0, 1, 5])
        sig = max_ip_signature(sp, [0, 0, 1])
        # edges sorted by length descending: (0,2) d=5, (1,2) d=4, (0,1) d=1
        assert list(bits(sig)) == [0, 0, 1]

    def test_lexicographic_comparison(self):
        sp = line_space([0, 1, 5])
        one_cluster = max_ip_signature(sp, [0, 0, 0])
        split = max_ip_signature(sp, [0, 0, 1])
        singles = max_ip_signature(sp, [0, 1, 2])
        assert singles < split < one_cluster

    def test_edge_order_matches_three_key_sort(self):
        # the tied integer line: many equal lengths, so the endpoint keys decide
        space = table_spaces()[0]
        iu, ju = np.triu_indices(space.n, k=1)
        w = space.pairs()[iu, ju]
        order = np.lexsort((ju, iu, -w))
        assert np.array_equal(edge_order(space.pairs()), (iu * space.n + ju)[order])

    def test_kernel_matches_loop_oracle(self):
        rng = np.random.default_rng(8)
        for space in _signature_spaces():
            order = edge_order(space.pairs())
            for k in (1, 2, 3, space.n):
                labels = rng.permutation(np.arange(space.n) % k)
                assert signature_from_order(order, labels) == max_ip_signature(space, labels), k

    def test_kernel_matches_loop_oracle_on_wide_labels(self):
        # labels up to 255 fit the kernel's uint8 table, 256 and up need uint16
        rng = np.random.default_rng(9)
        line = MetricSpace.from_points(rng.integers(0, 20, size=(300, 1)).astype(float))
        order = edge_order(line.pairs())
        for k in (255, 256, 257, 300):
            labels = rng.permutation(np.arange(300) % k)
            assert signature_from_order(order, labels) == max_ip_signature(line, labels), k
