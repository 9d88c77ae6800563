import math

import numpy as np
import pytest

from ipstable.clustering import Clustering, verify_stability
from ipstable.local_search import CONVERGED
from ipstable import merge_split
from ipstable.merge_split import kcenter_init, merge_split_ls, split_accept_factor
from ipstable.metric import GenSpec, generate
from ipstable.potential import phi_avg, phi_avg_clustering

from conftest import line_space, random_matrix_space, random_space
from reference import split


def kcenter_radius(space, clustering, centers=None):
    D = space.peek_block(np.arange(space.n), np.arange(space.n))
    best = 0.0
    for m in clustering.members():
        radius = min(D[np.ix_([c], m)].max() for c in m)
        best = max(best, radius)
    return best


class TestKCenterInit:
    def test_k_equals_n_singletons(self):
        sp = random_space(8, seed=0)
        assert kcenter_init(sp, 8).sizes().tolist() == [1] * 8

    def test_four_point_line(self):
        sp = line_space([0, 1, 10, 11])
        cl = kcenter_init(sp, 2)
        assert {frozenset(map(int, m)) for m in cl.members()} == {
            frozenset({0, 1}),
            frozenset({2, 3}),
        }

    def test_two_approximation_on_planted(self):
        for seed in range(5):
            out = generate(GenSpec("planted_separated", n=40, k=4, separation=0.05, seed=seed))
            sp, planted = out.space, out.planted
            # groups are far apart, so the planted one-center-per-group
            # radius is optimal
            opt = kcenter_radius(sp, planted)
            got = kcenter_radius(sp, kcenter_init(sp, 4))
            assert got <= 2.0 * opt * (1 + 1e-9)

    def test_handles_duplicate_points(self):
        sp = line_space([0, 0, 0, 5])
        cl = kcenter_init(sp, 3)
        assert cl.k == 3  # every cluster keeps its own center even with ties

    def test_query_budget(self):
        sp = random_space(50, seed=1)
        before = sp.query_counter
        kcenter_init(sp, 5)
        assert sp.query_counter - before == 5 * 50


class TestSplit:
    def test_forced_choice(self, rng):
        sp = line_space([0, 1, 10, 11, 50])
        cl = Clustering([0, 0, 1, 1, 2], 3)
        # make cluster 1 the only splittable one? both 0 and 1 are pairs:
        # argmax potential picks the pair with larger internal distance
        result = split(sp, cl, rng)
        assert result.cluster_id in (0, 1)

    def test_only_nonsingleton_chosen(self, rng):
        sp = line_space([0, 1, 50])
        cl = Clustering([0, 0, 1], 2)
        result = split(sp, cl, rng)
        assert result.cluster_id == 0

    def test_partition_shapes_and_invariant(self, rng):
        for seed in range(8):
            sp = random_space(40, seed=seed)
            cl = kcenter_init(sp, 3)
            result = split(sp, cl, rng)
            m = len(result.cluster)
            assert len(result.half_a) == (m + 1) // 2
            assert sorted(np.concatenate([result.half_a, result.half_b])) == sorted(result.cluster)
            # accepted partitions shed the required potential fraction
            target = result.phi_cluster * (1 - split_accept_factor(sp.n))
            assert result.phi_a + result.phi_b <= target * (1 + 1e-12)
            # verify the reported potentials against direct recomputation
            assert result.phi_a == pytest.approx(phi_avg(sp, result.half_a), rel=1e-9, abs=1e-12)
            assert result.phi_b == pytest.approx(phi_avg(sp, result.half_b), rel=1e-9, abs=1e-12)

    def test_chosen_cluster_carries_kth_of_potential(self, rng):
        for seed in range(8):
            sp = random_matrix_space(30, seed=seed)
            cl = kcenter_init(sp, 4)
            result = split(sp, cl, rng)
            assert result.phi_cluster >= phi_avg_clustering(sp, cl) / cl.k * (1 - 1e-9)

    def test_no_splittable_cluster(self, rng):
        sp = line_space([0, 1])
        with pytest.raises(ValueError):
            split(sp, Clustering.singletons(2), rng)

    def test_attempt_cap_raises(self, rng, monkeypatch):
        monkeypatch.setattr(merge_split, "default_split_attempts", lambda n: 0)
        sp = line_space([0, 1, 5])
        with pytest.raises(RuntimeError):
            split(sp, Clustering([0, 0, 1], 2), rng)


class TestMergeSplitLs:
    def test_output_verifies_at_4log2n(self):
        for seed in range(6):
            n = 50 + 30 * seed
            sp = random_space(n, seed=seed, k=3)
            out, trace = merge_split_ls(sp, 5, seed=seed)
            assert trace.status == CONVERGED
            assert verify_stability(sp, out, "avg", 4 * math.log2(n)).passed
            assert out.k == 5

    def test_step_progress_bounds(self):
        # swap steps drop the potential by at least T/2; merge-and-split
        # steps by at least Phi/(8 k log2 n)
        for seed in range(4):
            sp = random_matrix_space(60, seed=seed)
            k = 4
            out, trace = merge_split_ls(sp, k, seed=seed)
            for rec in trace.steps:
                drop = rec.phi_before - rec.phi_after
                if rec.kind == "swap":
                    assert drop >= rec.threshold / 2 * (1 - 1e-9)
                else:
                    assert drop >= rec.phi_before / (8 * k * math.log2(sp.n)) * (1 - 1e-9)

    def test_stable_start_counts_zero_steps(self):
        sp = line_space([0, 1, 10, 11])
        out, trace = merge_split_ls(sp, 2, initial=Clustering([0, 0, 1, 1], 2))
        assert trace.counts == {"swap": 0, "merge_split": 0}
        assert list(trace.counts) == ["swap", "merge_split"]
        assert trace.steps == [] and out == Clustering([0, 0, 1, 1], 2)

    def test_round_cap_below_one_rejected(self):
        with pytest.raises(ValueError, match="max_steps"):
            merge_split_ls(random_matrix_space(10, seed=0), 2, max_steps=0)

    def test_round_cap_returns_cap_exceeded(self):
        from conftest import perturbed_planted
        from ipstable.local_search import CAP_EXCEEDED

        sp, _, bad = perturbed_planted(40, 4, 0.001, seed=5, moves=4)
        out, trace = merge_split_ls(sp, 4, seed=5, max_steps=1, initial=bad)
        assert trace.status == CAP_EXCEEDED
        assert out.k == 4  # the partial clustering is still returned

    def test_init_potential_poly_bounded(self):
        # the k-center start is within n^3 k log2 n of any reachable potential
        for seed in range(4):
            n = 40
            sp = random_space(n, seed=seed)
            start = kcenter_init(sp, 4)
            out, _ = merge_split_ls(sp, 4, seed=seed)
            phi0 = phi_avg_clustering(sp, start)
            phif = phi_avg_clustering(sp, out)
            if phif > 0:
                assert phi0 <= n**3 * 4 * math.log2(n) * phif
