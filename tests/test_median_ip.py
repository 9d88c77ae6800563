import itertools
import math
import tracemalloc

import numpy as np
import pytest

from ipstable import median_ip
from ipstable.clustering import TABLES, Clustering, verify_stability
from ipstable.local_search import CONVERGED
from ipstable.median_ip import (
    MedianConfig,
    _merge_cost,
    _split_sharpest,
    median_ip_cluster,
    merge_bound_factor,
)
from ipstable.metric import GenSpec, MetricSpace, generate

from conftest import line_space, perturbed_planted, random_matrix_space, random_space, skewed, table_spaces
from reference import median_merge_bound, median_split, phi_sqrt_median_exact, singletons


class TestMedianConfig:
    def test_defaults(self):
        cfg = MedianConfig()
        assert cfg.sqrt_alpha == pytest.approx(20.5)
        assert cfg.median_alpha == pytest.approx(20.5**2)

    def test_c_must_exceed_one(self):
        with pytest.raises(ValueError):
            MedianConfig(c=1.0)

    def test_nan_c_rejected(self):
        with pytest.raises(ValueError, match="c must exceed 1"):
            MedianConfig(c=math.nan)

    @pytest.mark.parametrize("alpha_base", [math.nan, 0.0, -1.0])
    def test_alpha_base_must_be_positive(self, alpha_base):
        # squaring would turn -1 into a median alpha of 4
        with pytest.raises(ValueError, match="alpha_base"):
            MedianConfig(alpha_base=alpha_base)

    def test_step_cap_below_one_rejected(self):
        with pytest.raises(ValueError, match="max_steps"):
            MedianConfig(max_steps=0)


class TestMedianSplit:
    def test_detaches_far_endpoint(self):
        sp = line_space([0, 0, 10])
        res = median_split(sp, Clustering([0, 0, 0], 1))
        assert sorted(map(int, res.half_a)) == [0, 1]
        assert list(map(int, res.half_b)) == [2]

    def test_pair_cluster(self):
        sp = line_space([0, 4, 100])
        res = median_split(sp, Clustering([0, 0, 1], 2))
        assert res.cluster_id == 0
        assert len(res.half_b) == 1
        # medians tie for a pair, so the smaller index detaches
        assert int(res.half_b[0]) == 0

    def test_no_splittable(self):
        sp = line_space([0, 1])
        with pytest.raises(ValueError):
            median_split(sp, singletons(2))

    def test_exact_potential_drop(self):
        # the brute-force potential drops by at least sqrt(d_max / 2)
        for seed in range(12):
            sp = random_space(8, seed=seed)
            cl = Clustering(np.array([0, 0, 0, 0, 1, 1, 1, 1]), 2)
            res = median_split(sp, cl)
            before = phi_sqrt_median_exact(sp, res.cluster)
            after = phi_sqrt_median_exact(sp, res.half_a) + phi_sqrt_median_exact(sp, res.half_b)
            d_max = float(sp.peek_block(res.cluster, res.cluster).max())
            assert before - after >= math.sqrt(d_max / 2.0) * (1 - 1e-9)


class TestMedianMergeBound:
    def test_zero_when_coincident(self):
        sp = line_space([0, 0, 0, 0, 5])
        bound = median_merge_bound(sp, [0, 1], [2, 3], 0)
        assert bound == 0.0
        inc = (
            phi_sqrt_median_exact(sp, [0, 1, 2, 3])
            - phi_sqrt_median_exact(sp, [0, 1])
            - phi_sqrt_median_exact(sp, [2, 3])
        )
        assert inc <= 1e-12

    def test_scales_linearly_in_n(self):
        assert merge_bound_factor(20) / merge_bound_factor(10) == pytest.approx(84 / 44)

    def test_bounds_exact_increase(self):
        rng = np.random.default_rng(5)
        for seed in range(40):
            m = int(rng.integers(4, 9))
            sp = random_space(m, seed=seed)
            a = int(rng.integers(1, m - 1))
            C, C2 = np.arange(a), np.arange(a, m)
            p = int(rng.integers(0, m))
            inc = (
                phi_sqrt_median_exact(sp, np.arange(m))
                - phi_sqrt_median_exact(sp, C)
                - phi_sqrt_median_exact(sp, C2)
            )
            assert inc <= median_merge_bound(sp, C, C2, p) * (1 + 1e-9) + 1e-12

    @pytest.mark.parametrize("share, kind", [(0.499, "merge_split"), (0.5, "swap")])
    def test_merges_below_half_the_split_gain(self, monkeypatch, share, kind):
        # the split gain sqrt(d_max / 2) / (2 - sqrt 2), d_max the start's
        # largest inner distance; a merge cost scripted to a share of it
        # merges below half the gain and swaps at half
        space, _, start = perturbed_planted(60, 4, 0.01, seed=0, moves=3)
        D = space.pairs()
        gain = math.sqrt(max(D[np.ix_(m, m)].max() for m in start.members()) / 2) / (2 - math.sqrt(2))
        monkeypatch.setattr(median_ip, "_merge_cost", lambda n, med_a, med_b: share * gain)
        _, trace = median_ip_cluster(space, 4, MedianConfig(max_steps=1), initial=start)
        assert [rec.kind for rec in trace.steps] == [kind]
        assert trace.steps[0].threshold == gain / 2


def _random_clusterings(count, seed):
    """(space, clustering) pairs on coordinate and shortest-path spaces."""
    rng = np.random.default_rng(seed)
    for trial in range(count):
        n = int(rng.integers(6, 30))
        k = int(rng.integers(2, 6))
        sp = random_space(n, seed=trial) if trial % 2 else random_matrix_space(n, seed=trial)
        a = np.concatenate([np.arange(k), rng.integers(0, k, n - k)])
        rng.shuffle(a)
        yield sp, Clustering(a, k)


class TestSearchSharesTheProcedures:
    """The search's merge cost and one-point split are the ones
    median_merge_bound and median_split compute."""

    def test_merge_cost_matches_median_merge_bound(self):
        for sp, cl in _random_clusterings(12, seed=3):
            table = TABLES["median"](sp, cl)
            members = cl.members()
            for p in range(sp.n):
                for a in range(cl.k):  # a = p's own cluster included
                    for b in range(cl.k):
                        if a != b:
                            cost = _merge_cost(sp.n, table.table[p, a], table.table[p, b])
                            assert cost == median_merge_bound(sp, members[a], members[b], p)

    def test_one_point_split_matches_median_split(self):
        # on the line both clusters have diameter 3 and each farthest pair's
        # medians tie, so both tie-breaks are exercised; on the 5-cycle's
        # shortest paths every cluster has tied farthest pairs; skewed tables
        # put the larger orientation of each pair in either triangle, or on
        # random cells, so the pick must be the first largest entry in
        # row-major order
        line = line_space(range(8))
        cycle = MetricSpace.from_matrix(np.array([[min(abs(a - b), 5 - abs(a - b)) for b in range(5)]
                                                  for a in range(5)], dtype=float))
        cases = [(line, Clustering([0, 0, 0, 0, 1, 1, 1, 1], 2)), (cycle, Clustering([0, 0, 0, 0, 1], 2)),
                 *_random_clusterings(20, seed=4)]
        rng = np.random.default_rng(7)
        for sp in [line, *table_spaces()]:
            n = sp.n
            cells = rng.uniform(0, 1e-10, size=(2, n, n)) * (rng.random((2, n, n)) < 0.5)
            random_cells = skewed(skewed(sp, "upper", cells[0]), "lower", cells[1])
            for space in (skewed(sp, "upper"), skewed(sp, "lower"), random_cells):
                for k in (2, 3):
                    a = np.concatenate([np.arange(k), rng.integers(0, k, n - k)])
                    rng.shuffle(a)
                    cases.append((space, Clustering(a, k)))
        for sp, cl in cases:
            if cl.sizes().max() < 2:
                continue
            table = TABLES["median"](sp, cl)
            _split_sharpest(table)
            res = median_split(sp, cl)
            kept = [m for c, m in enumerate(cl.members()) if c != res.cluster_id]
            assert table.k == cl.k + 1
            assert all(np.array_equal(np.sort(x), y) for x, y in zip(table.members[:-2], kept))
            assert np.array_equal(table.members[-2], res.half_a)
            assert np.array_equal(table.members[-1], res.half_b)


class TestMediansOfFarPoints:
    def test_pairwise_median_lower_bound(self):
        # medians to the rest of a shared cluster cover any pairwise distance
        for seed in range(10):
            sp = random_space(12, seed=seed)
            D = sp.peek_block(np.arange(12), np.arange(12))
            C = np.arange(12)
            for p, q in itertools.combinations(range(12), 2):
                med_p = _median(D[p, C[C != p]])
                med_q = _median(D[q, C[C != q]])
                assert med_p + med_q >= D[p, q] * (1 - 1e-9)


def _median(vals):
    vals = np.sort(vals)
    return vals[(len(vals) + 1) // 2 - 1]


class TestIncrementalDiameters:
    """After every step the diameters the search reads from its table are
    the largest entries of its clusters' distance blocks."""

    def _checked_run(self, monkeypatch, space, k, initial):
        checked = {"swap": 0, "merge_split": 0}
        real_search = median_ip.search

        def checking_search(table, alpha, max_steps, step, *rest):
            def checked_step(*args):
                rec = step(*args)
                fresh = [float(table.D[np.ix_(m, m)].max()) for m in table.members]
                assert [table.diameter_of(c) for c in range(table.k)] == fresh
                checked[rec.kind] += 1
                return rec

            return real_search(table, alpha, max_steps, checked_step, *rest)

        monkeypatch.setattr(median_ip, "search", checking_search)
        out, trace = median_ip_cluster(space, k, initial=initial)
        assert checked == trace.counts
        return out, trace

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_perturbed_planted(self, seed, monkeypatch):
        space, _, start = perturbed_planted(200, 5, 0.001, seed, moves=60)
        _, trace = self._checked_run(monkeypatch, space, 5, start)
        assert trace.counts["swap"] >= 60

    def test_coincident_points(self, monkeypatch):
        # values 0..2 on a line: clusters of coincident points (diameter 0)
        # are both the source and the target of swaps, and merge-splits occur
        space = MetricSpace.from_points(np.random.default_rng(5).integers(0, 3, size=(40, 1)).astype(float))
        _, trace = self._checked_run(monkeypatch, space, 4, Clustering(np.arange(40) % 4, 4))
        assert trace.counts["swap"] > 0 and trace.counts["merge_split"] > 0

    def test_asymmetric_table_recomputes(self, monkeypatch):
        # a table symmetric only up to rounding: the diameter is the larger
        # orientation of the farthest pair, read from the table and afresh
        sp, _, start = perturbed_planted(40, 4, 0.001, seed=1, moves=9)
        idx = np.arange(40)
        mat = sp.peek_block(idx, idx) * (1.0 + 1e-12 * np.triu(np.ones((40, 40)), 1))
        space = MetricSpace.from_matrix(mat)
        out, trace = self._checked_run(monkeypatch, space, 4, start)
        assert trace.counts["swap"] > 0
        assert verify_stability(space, out, "median", MedianConfig().median_alpha).passed

    def test_table_skewed_the_other_way(self, monkeypatch):
        # the lower triangle holds the larger orientation of each pair, so the
        # farthest pair is found below the diagonal; its diameter is still the
        # larger entry
        sp, _, start = perturbed_planted(40, 4, 0.001, seed=1, moves=9)
        idx = np.arange(40)
        mat = sp.peek_block(idx, idx) * (1.0 + 1e-12 * np.tril(np.ones((40, 40)), -1))
        _, trace = self._checked_run(monkeypatch, MetricSpace.from_matrix(mat), 4, start)
        assert trace.counts["swap"] > 0


class TestMedianIpCluster:
    def test_n_equals_k(self):
        sp = random_space(5, seed=0)
        out, trace = median_ip_cluster(sp, 5)
        assert out.sizes().tolist() == [1] * 5
        assert len(trace.steps) == 0

    def test_stable_start_counts_zero_steps(self):
        sp = line_space([0, 1, 10, 11])
        out, trace = median_ip_cluster(sp, 2, initial=Clustering([0, 0, 1, 1], 2))
        assert trace.counts == {"swap": 0, "merge_split": 0}
        assert list(trace.counts) == ["swap", "merge_split"]
        assert trace.steps == [] and out == Clustering([0, 0, 1, 1], 2)

    def test_outputs_verify(self):
        cfg = MedianConfig()
        for seed in range(5):
            n = 40 + 20 * seed
            sp = random_space(n, seed=seed, k=4)
            out, trace = median_ip_cluster(sp, 4, cfg)
            assert trace.status == CONVERGED
            assert verify_stability(sp, out, "median", cfg.median_alpha).passed

    def test_two_separated_groups(self):
        gen = generate(GenSpec("planted_separated", n=20, k=2, separation=0.001, seed=3))
        out, _ = median_ip_cluster(gen.space, 2)
        assert {frozenset(map(int, m)) for m in out.members()} == {
            frozenset(map(int, m)) for m in gen.planted.members()
        }

    def test_takes_steps_on_perturbed_instances(self):
        # force real envy: median ratios of the misplaced points exceed the
        # squared threshold
        moved = 0
        for seed in range(6):
            sp, planted, bad = perturbed_planted(40, 4, 1e-6, seed=seed, moves=3)
            # run from scratch (kcenter init): the instance is easy; instead
            # verify the verifier agrees the perturbed clustering is bad and
            # the search output is good
            rep = verify_stability(sp, bad, "median")
            assert rep.alpha_achieved > MedianConfig().median_alpha
            out, trace = median_ip_cluster(sp, 4)
            assert verify_stability(sp, out, "median", MedianConfig().median_alpha).passed
            moved += len(trace.steps)

    def test_merge_split_branch_decreases_exact_potential(self):
        # every cluster stays within the brute-force cap, so the true
        # max-TSP potential is computable before and after the step
        rng = np.random.default_rng(2)
        for trial in range(5):
            width = float(rng.uniform(1e5, 4e5))
            coords = [1e6 + width * i for i in range(6)]
            coords += [0.0, float(rng.uniform(0.5, 2.0))]
            coords += [0.001] * 4
            sp = MetricSpace.from_points(np.array(coords).reshape(-1, 1))
            bad = Clustering(np.array([0] * 6 + [1] * 2 + [2] * 4), 3)
            out, trace = median_ip_cluster(sp, 3, MedianConfig(), initial=bad)
            assert trace.counts["merge_split"] >= 1
            assert len(trace.steps) == 1  # single step: output is the post-step state
            before = sum(phi_sqrt_median_exact(sp, m) for m in bad.members())
            after = sum(phi_sqrt_median_exact(sp, m) for m in out.members())
            assert after < before

    def test_memory_stays_near_the_distance_table(self):
        # row-sorted n x |C| blocks would hold about the table again; the
        # windows hold O(n x k x WINDOW_CAP)
        n = 500
        sp = random_space(n, seed=1, k=4, dim=4)
        tracemalloc.start()
        try:
            _, trace = median_ip_cluster(sp, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.status == CONVERGED
        assert peak < 2 * n * n * 8

    def test_squaring_identity(self):
        # a clustering alpha-stable for sqrt(median) is alpha^2-stable for median
        sp = random_space(30, seed=7)
        out, _ = median_ip_cluster(sp, 3)
        rep = verify_stability(sp, out, "median")
        D = sp.peek_block(np.arange(30), np.arange(30))
        worst_sqrt = 0.0
        assign = out.assignment
        for p in range(30):
            own = [q for q in range(30) if assign[q] == assign[p] and q != p]
            if not own:
                continue
            for c in range(out.k):
                if c == assign[p]:
                    continue
                other = [q for q in range(30) if assign[q] == c]
                num = math.sqrt(_median(D[p, own]))
                den = math.sqrt(_median(D[p, other]))
                if den == 0:
                    ratio = 0.0 if num == 0 else math.inf
                else:
                    ratio = num / den
                worst_sqrt = max(worst_sqrt, ratio)
        assert rep.alpha_achieved == pytest.approx(worst_sqrt**2, rel=1e-9)
