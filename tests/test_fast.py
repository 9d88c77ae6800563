import copy
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from ipstable import fast, merge_split, metric
from ipstable.clustering import Clustering, verify_stability
from ipstable.fast import (
    IP_STABLE,
    POTENTIAL_DROPPED,
    calc_average,
    calc_central_point,
    calc_potential,
    EpochResult,
    EpochState,
    epoch,
    fast_ls,
    sample_count,
)
from ipstable.merge_split import kcenter_init
from ipstable.metric import MetricSpace, rng_from_seed
from ipstable.potential import phi_avg, phi_avg_clustering

from conftest import line_space, merge_heavy_instance, perturbed_planted, random_matrix_space, random_space
from reference import fast_split, singletons


def exact_avg(space, C, S):
    return space.peek_block(np.asarray(S), np.asarray(C)).mean(axis=1)


class TestCalcCentralPoint:
    def test_singleton(self, rng):
        sp = line_space([0, 5])
        assert calc_central_point(sp, [1], 0.1, rng) == 1

    def test_coincident(self, rng):
        sp = line_space([3, 3, 3])
        p = calc_central_point(sp, [0, 1, 2], 0.1, rng)
        assert exact_avg(sp, [0, 1, 2], [p])[0] == 0.0

    def test_two_approx_failure_rate(self):
        sp = random_space(100, seed=5)
        C = np.arange(100)
        mean_avg = exact_avg(sp, C, C).mean()
        delta = 0.25
        rng = rng_from_seed(99)
        failures = sum(
            exact_avg(sp, C, [calc_central_point(sp, C, delta, rng)])[0] > 2.0 * mean_avg
            for _ in range(1000)
        )
        sigma = math.sqrt(delta * (1 - delta) / 1000)
        assert failures / 1000 <= delta + 3 * sigma


    def test_matches_row_loop_reference(self):
        # one block read over all candidates: same point, same charge, same draws
        def by_rows(space, C, delta, rng):
            t = max(1, math.ceil(math.log2(1.0 / delta)))
            cand = rng.integers(0, len(C), size=t)
            avgs = [space.row(int(C[i]), C).mean() for i in cand]
            return int(C[cand[int(np.argmin(avgs))]])

        spaces = [random_space(90, seed=2, dim=d) for d in (1, 4, 9)] + [random_matrix_space(90, seed=2)]
        for sp in spaces:
            for size in (2, 17, 90):
                C = np.sort(np.random.default_rng(size).choice(90, size=size, replace=False))
                got_rng, ref_rng = rng_from_seed(size), rng_from_seed(size)
                q0 = sp.query_counter
                got = calc_central_point(sp, C, 1.0 / 90**2, got_rng)
                q1 = sp.query_counter
                ref = by_rows(sp, C, 1.0 / 90**2, ref_rng)
                assert got == ref
                assert q1 - q0 == sp.query_counter - q1
                assert got_rng.random() == ref_rng.random()


class TestCalcAverage:
    def test_single_point_cluster_exact(self, rng):
        sp = line_space([0, 1, 7])
        est = calc_average(sp, [2], [0, 1], 0.1, rng)
        np.testing.assert_allclose(est, [7.0, 6.0])

    def test_coincident_cluster_exact(self, rng):
        sp = line_space([7, 7, 7, 0])
        est = calc_average(sp, [0, 1, 2], [3], 0.1, rng)
        np.testing.assert_allclose(est, [7.0])

    def test_one_point_space(self, rng):
        # the central point's failure probability 1/n^2 must stay below 1 at n = 1
        assert calc_average(line_space([3.0]), [0], [0], 0.1, rng).tolist() == [0.0]

    def test_one_sided_sandwich_mostly(self):
        sp = random_space(220, seed=8)
        rng = rng_from_seed(17)
        C = np.arange(200)
        truth = exact_avg(sp, C, np.arange(220))
        bad = 0
        trials = 0
        for _ in range(30):
            est = calc_average(sp, C, np.arange(220), 0.1, rng)
            bad += int(np.sum((est < truth * (1 - 1e-9)) | (est > truth * 1.1 * (1 + 1e-9))))
            trials += 220
        assert bad / trials <= 0.01

    def test_sampled_zero_denominator_raises(self, rng):
        # S holds the central point, so one cell has w = d_s = 0; a sampler
        # that puts mass there must stop rather than divide by zero
        class EveryCell:
            def integers(self, *args, **kwargs):
                return rng.integers(*args, **kwargs)

            def multinomial(self, t, mu):
                return np.ones(mu.shape, dtype=np.int64)

        sp = line_space([0, 1, 5])
        with pytest.raises(RuntimeError, match="zero-denominator"):
            calc_average(sp, [0, 1], [0, 1], 0.5, EveryCell())

    def test_query_contract(self, rng):
        sp = random_space(50, seed=2)
        C, S = np.arange(30), np.arange(30, 50)
        before = sp.query_counter
        calc_average(sp, C, S, 0.5, rng)
        t = sample_count(50, 0.5)
        caps = math.ceil(math.log2(50**2))
        expected = caps * 30 + 30 + 20 + 20 * t
        assert sp.query_counter - before == expected

    def test_rejects_bad_eps(self, rng):
        sp = line_space([0, 1])
        with pytest.raises(ValueError):
            calc_average(sp, [0], [1], 0.0, rng)

    def test_memory_bounded_by_chunk(self):
        # S x C is 2000 x 1000, 16 MB per float array; a row chunk holds four
        # arrays of at most _BLOCK_CHUNK_ELEMS cells (512 KiB as float64)
        sp = random_space(2000, seed=1)
        tracemalloc.start()
        try:
            calc_average(sp, np.arange(1000), np.arange(2000), 0.1, rng_from_seed(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    @pytest.mark.parametrize(
        "sp",
        [
            # integer coordinates coincide often: zero-denominator cells occur
            MetricSpace.from_points(np.random.default_rng(3).integers(0, 4, size=(60, 2)).astype(float)),
            random_matrix_space(60, seed=2),
        ],
    )
    def test_chunk_size_changes_no_draw(self, sp, monkeypatch):
        # multinomial draws the rows in order, so 1-row, 7-row and one-chunk
        # runs give the same estimates and leave the generator in one state
        C, S = np.arange(0, 60, 3), np.arange(60)
        runs = []
        for rows in (1, 7, len(S)):
            monkeypatch.setattr(metric, "_BLOCK_CHUNK_ELEMS", rows * len(C))
            rng = rng_from_seed(9)
            est = calc_average(sp, C, S, 0.2, rng)
            runs.append((est.tobytes(), repr(rng.bit_generator.state)))  # Philox: small arrays
        assert runs[0] == runs[1] == runs[2]


def _literal_calc_average(space, C, S, eps, rng):
    """Reference implementation that draws every sample individually: two
    shared streams, per-query-point mixing, explicit length-t sums."""
    C = np.asarray(C)
    S = np.asarray(S)
    n = space.n
    from ipstable.fast import calc_central_point

    p_star = calc_central_point(space, C, 1.0 / n**2, rng)
    w = space.peek_block([p_star], C)[0]
    space.charge(len(C))
    d_s = space.peek_block([p_star], S)[0]
    space.charge(len(S))
    if np.all(w == 0):
        return d_s.copy()
    eps_prime = eps / 3.0
    t = sample_count(n, eps)
    avg_star = float(w.mean())
    weighted = rng.choice(len(C), size=t, p=w / w.sum())
    uniform = rng.integers(0, len(C), size=t)
    space.charge(len(S) * t)
    out = np.empty(len(S))
    for si, (s, ds) in enumerate(zip(S, d_s)):
        lam = avg_star / (avg_star + ds)
        use_weighted = rng.random(t) < lam
        picks = np.where(use_weighted, weighted, uniform)
        dist_to_s = space.peek_block([s], C)[0][picks]
        denom = w[picks] + ds
        out[si] = (avg_star + ds) / (t * (1 - eps_prime)) * float((dist_to_s / denom).sum())
    return out


class TestAggregatedSamplerMatchesLiteral:
    """The shipped estimator draws per-member multinomial counts instead of
    t individual samples; per query point the law is identical, so the two
    implementations must agree statistically."""

    def test_moments_agree(self):
        sp = random_space(16, seed=3)
        C = np.arange(10)
        S = np.array([12, 15])
        truth = exact_avg(sp, C, S)
        rng_a = rng_from_seed(1001)
        rng_b = rng_from_seed(2002)
        trials = 1200
        ours = np.array([calc_average(sp, C, S, 1.0, rng_a) for _ in range(trials)])
        ref = np.array([_literal_calc_average(sp, C, S, 1.0, rng_b) for _ in range(trials)])
        for col in range(len(S)):
            mu_ours, mu_ref = ours[:, col].mean(), ref[:, col].mean()
            sd_ours, sd_ref = ours[:, col].std(), ref[:, col].std()
            # both are (truth / (1 - eps')) in expectation
            assert mu_ours == pytest.approx(mu_ref, rel=0.02)
            assert mu_ours == pytest.approx(truth[col] / (1 - 1.0 / 3.0), rel=0.02)
            assert 0.7 <= sd_ours / max(sd_ref, 1e-12) <= 1.4

    def test_sample_law_matches_mixture(self):
        # aggregate counts across calls follow the advertised per-member pmf
        sp = random_space(12, seed=6)
        C = np.arange(8)
        s = 10
        w = sp.peek_block([9], C)[0]  # arbitrary reference weights, nonzero
        rng = rng_from_seed(7)
        from ipstable.fast import calc_central_point

        # reproduce the internal pmf for this (C, s) pair deterministically
        p_star = calc_central_point(sp, C, 1.0 / sp.n**2, rng_from_seed(7))
        w = sp.peek_block([p_star], C)[0]
        ds = sp.peek_block([p_star], [s])[0][0]
        lam = w.mean() / (w.mean() + ds)
        mu = lam * w / w.sum() + (1 - lam) / len(C)
        paper_law = (w + ds) / (w + ds).sum()
        np.testing.assert_allclose(mu / mu.sum(), paper_law, rtol=1e-9)


class TestCalcPotential:
    def test_all_singletons_zero(self, rng):
        sp = random_space(10, seed=1)
        assert calc_potential(sp, singletons(10).members(), 0.1, rng) == 0.0

    def test_pair_in_range(self, rng):
        sp = line_space([0, 5, 100])
        est = calc_potential(sp, [np.array([0, 1]), np.array([2])], 0.1, rng)
        assert 5.0 - 1e-9 <= est <= 5.5 + 1e-9

    def test_sandwich_vs_exact(self):
        rng = rng_from_seed(4)
        ok = 0
        for seed in range(50):
            sp = random_space(60, seed=seed)
            cl = kcenter_init(sp, 4)
            exact = phi_avg_clustering(sp, cl)
            est = calc_potential(sp, cl.members(), 0.1, rng)
            if exact * (1 - 1e-9) <= est <= 1.1 * exact * (1 + 1e-9):
                ok += 1
        assert ok >= 49


class TestFastSplit:
    def test_forced_choice(self, rng):
        sp = line_space([0, 1, 50])
        res = fast_split(sp, Clustering([0, 0, 1], 2), rng)
        assert res.cluster_id == 0

    def test_true_decrease(self):
        rng = rng_from_seed(11)
        for seed in range(6):
            sp = random_space(50, seed=seed)
            cl = kcenter_init(sp, 3)
            res = fast_split(sp, cl, rng)
            true_star = phi_avg(sp, res.cluster)
            true_a = phi_avg(sp, res.half_a)
            true_b = phi_avg(sp, res.half_b)
            need = true_star / (6.0 * math.log2(sp.n))
            assert true_star - true_a - true_b >= need * (1 - 1e-9)

    def test_attempt_cap_raises(self, rng, monkeypatch):
        monkeypatch.setattr(merge_split, "default_split_attempts", lambda n: 0)
        sp = random_space(20, seed=3)
        with pytest.raises(RuntimeError):
            fast_split(sp, kcenter_init(sp, 2), rng)

    def test_query_count_near_linear_at_scale(self, rng):
        # telemetry: one call at n = 10^4 stays within the sampled budget
        from ipstable.fast import fast_split_eps

        n = 10_000
        sp = random_space(n, seed=5, k=10, dim=3)
        cl = kcenter_init(sp, 10)
        before = sp.query_counter
        res = fast_split(sp, cl, rng)
        queries = sp.query_counter - before
        t = sample_count(n, fast_split_eps(n))
        cap = n * t * (2 + 2 * res.attempts)
        assert queries <= cap


class EpochAuditor:
    """Checks the cached-estimate invariants against exact recomputation.

    Its records are keyed by column.  A merge-and-split moves the columns,
    so each iteration first re-keys them: a surviving cluster keeps its exact
    member set, and a new column has no record until its first estimate."""

    def __init__(self, every=100, sample_points=8):
        self.every = every
        self.sample_points = sample_points
        self.tilde = {}
        self.progress = {}  # the paper's progress account, per cluster
        self.swap_checks = 0
        self.invariant_checks = 0
        self.assign = None  # the assignment at the previous iteration
        self.merge_splits = 0

    def _follow_columns(self, st):
        if st.counts["merge_split"] != self.merge_splits:
            self.merge_splits = st.counts["merge_split"]
            old, tilde, progress = self.assign, {}, {}
            for c in range(st.k):
                members = st.members(c)
                was = int(old[members[0]])
                if was in self.tilde and np.array_equal(np.flatnonzero(old == was), members):
                    tilde[c], progress[c] = self.tilde[was], self.progress[was]
            self.tilde, self.progress = tilde, progress
        self.assign = st.assign.copy()

    def after_recompute(self, space, st, cid):
        self.tilde[cid] = exact_avg(space, st.members(cid), np.arange(st.n))
        self.progress[cid] = 0.0

    def before_swap(self, space, st, p, src, dst):
        progress_inc = (float(st.est[p, src]) / (1.0 + st.eps) - st.error[src]) / 2.0
        self.progress[src] += progress_inc
        self.progress[dst] += progress_inc
        own = st.members(src)
        own = own[own != p]
        foreign = st.members(dst)
        own_avg = exact_avg(space, own, [p])[0]
        for_avg = exact_avg(space, foreign, [p])[0]
        assert own_avg > 4.0 * math.log2(space.n) * for_avg
        self.swap_checks += 1

    def every_iteration(self, space, st, iteration):
        self._follow_columns(st)
        if iteration % self.every:
            return
        self.invariant_checks += 1
        for cid in range(st.k):
            if cid in st.recompute or st.size_hat[cid] is None:
                continue
            members = st.members(cid)
            size = len(members)
            assert st.num_swaps[cid] <= st.size_hat[cid] / 2.0 + 1e-12
            assert st.error[cid] <= st.t_star / (100.0 * st.alpha * size) * (1 + 1e-9)
            assert abs(st.size_hat[cid] - size) <= st.num_swaps[cid]
            # the progress account dominates both drift meters
            assert st.error[cid] <= 80.0 / 9.0 * self.progress[cid] / st.size_hat[cid] * (1 + 1e-9) + 1e-15
            if st.t_star > 0:
                assert st.num_swaps[cid] <= 44.0 * self.progress[cid] * st.size_hat[cid] / st.t_star * (1 + 1e-9) + 1e-12
            pts = np.linspace(0, st.n - 1, self.sample_points, dtype=int)
            now = exact_avg(space, members, pts)
            drift = np.abs(self.tilde[cid][pts] - now)
            assert np.all(drift <= st.error[cid] * (1 + 1e-9) + 1e-12)


class TestEpoch:
    def test_stable_input_exits_ip_stable(self, rng):
        sp, planted, _ = perturbed_planted(30, 3, 0.01, seed=1, moves=0)
        res = epoch(sp, planted, rng)
        assert res.status == IP_STABLE
        assert res.counts["swap"] == 0
        assert res.clustering == planted

    def test_swaps_fix_perturbed_planted(self, rng):
        sp, planted, bad = perturbed_planted(60, 4, 0.005, seed=2, moves=6)
        audit = EpochAuditor(every=1)
        res = epoch(sp, bad, rng, audit=audit)
        assert res.counts["swap"] >= 1
        assert audit.swap_checks == res.counts["swap"]
        if res.status == IP_STABLE:
            assert verify_stability(sp, res.clustering, "avg", 16 * math.log2(sp.n)).passed
        else:
            assert phi_avg_clustering(sp, res.clustering) < 0.75 * phi_avg_clustering(sp, bad)

    def test_one_point_space(self, rng):
        res = epoch(line_space([3.0]), Clustering(np.array([0]), 1), rng)
        assert res.status == IP_STABLE
        assert res.state.est[:, 0].tolist() == [0.0]

    def test_merge_branch_runs(self, rng):
        sp, bad = merge_heavy_instance()
        res = epoch(sp, bad, rng)
        assert res.counts["merge_split"] >= 1
        assert res.clustering.k == 3

    def test_either_or_contract(self):
        rng = rng_from_seed(3)
        for seed in range(8):
            sp = random_space(80, seed=seed, k=6)
            start = kcenter_init(sp, 4)
            phi_in = phi_avg_clustering(sp, start)
            res = epoch(sp, start, rng)
            if res.status == POTENTIAL_DROPPED:
                assert phi_avg_clustering(sp, res.clustering) < 0.75 * phi_in
            else:
                assert verify_stability(sp, res.clustering, "avg", 16 * math.log2(sp.n)).passed

    def test_step_cap_is_a_hard_error(self, rng, monkeypatch):
        sp = random_space(30, seed=1)
        monkeypatch.setattr(fast, "EPOCH_STEP_CAP", 2)
        with pytest.raises(RuntimeError):
            epoch(sp, kcenter_init(sp, 4), rng)

    def test_potential_dropped_confirmed_exactly(self, rng):
        # with many misplaced points the potential collapses mid-epoch and
        # the early return fires; the exact potential confirms the 3/4 drop
        sp, planted, bad = perturbed_planted(120, 4, 1e-4, seed=2, moves=8)
        phi_in = phi_avg_clustering(sp, bad)
        res = epoch(sp, bad, rng)
        assert res.status == POTENTIAL_DROPPED
        assert phi_avg_clustering(sp, res.clustering) < 0.75 * phi_in
        # drift budgets forced re-estimates beyond the k initial ones
        assert res.counts["recompute"] > 4


class TestColumnStep:
    """The column step ``_Columns._replace`` on the epoch's state: survivors
    keep every cached value, the queue follows its columns."""

    def state(self):
        # five columns with distinct values everywhere; the column step reads
        # no space and draws nothing
        space = line_space(np.arange(12.0) ** 2)
        st = EpochState(space, Clustering(np.array([3, 0, 1, 4, 2, 1, 0, 3, 4, 1, 2, 0]), 5), rng_from_seed(0), 0.1, 20.0)
        st.est[:] = np.arange(12 * 5).reshape(12, 5) / 7.0
        st.error = [0.5 + c for c in range(5)]
        st.num_swaps = [10 + c for c in range(5)]
        st.size_hat = [20 + c for c in range(5)]
        st.phi = [30.25 + c for c in range(5)]
        st.recompute = [3, 0, 4, 1]
        return st

    def assert_carried(self, before, after, old, new):
        assert np.array_equal(after.members(new), before.members(old))
        assert after.est[:, new].tobytes() == before.est[:, old].tobytes()
        for name in ("error", "num_swaps", "size_hat", "phi"):
            value = getattr(after, name)[new]
            assert type(value) is type(getattr(before, name)[old]) and value == getattr(before, name)[old]

    def test_state_deep_copies(self):
        st = self.state()
        st.space.pairs()
        dup = copy.deepcopy(st)
        assert dup.space is not st.space and dup.space.coords.tobytes() == st.space.coords.tobytes()
        assert dup.space.pairs().tobytes() == st.space.pairs().tobytes()
        assert dup.rng.random(4).tobytes() == st.rng.random(4).tobytes()
        for old in range(5):
            self.assert_carried(st, dup, old, old)
        assert dup.recompute == st.recompute and dup.recompute is not st.recompute

    def test_merge_then_split(self):
        before = self.state()
        st = self.state()
        union = np.flatnonzero(np.isin(st.assign, (1, 3)))
        assert st._replace((1, 3), [union]) == 3
        for old, new in ((0, 0), (2, 1), (4, 2)):
            self.assert_carried(before, st, old, new)
        assert st.recompute == [0, 2, 3]
        assert np.array_equal(st.members(3), union)
        assert st.sizes.tolist() == np.bincount(st.assign).tolist()

        # the merged column is estimated before the split moves it
        st.est[:, 3] = -np.arange(12) / 3.0
        st.error[3], st.num_swaps[3], st.size_hat[3], st.phi[3] = 0.0, 0, len(union), 1.75
        before = copy.deepcopy(st)
        half_a, half_b = st.members(0)[:1], st.members(0)[1:]
        assert st._replace((0,), [half_a, half_b]) == 3
        for old, new in ((1, 0), (2, 1), (3, 2)):
            self.assert_carried(before, st, old, new)
        assert st.recompute == [1, 2, 3, 4]
        assert np.array_equal(st.members(3), half_a) and np.array_equal(st.members(4), half_b)
        assert st.sizes.tolist() == np.bincount(st.assign).tolist()
        assert st.est.flags.f_contiguous and st.est.shape == (12, 5)
        assert st.phi[3] is None and st.phi[4] is None

    def test_swap_after_merge_and_split_matches_a_fresh_state(self):
        # a swap on columns that a merge-and-split renumbered changes the
        # books exactly as on a state built fresh from the post-split labels
        space = line_space(np.arange(12.0) ** 2)
        st = EpochState(space, Clustering(np.array([3, 0, 1, 4, 2, 1, 0, 3, 4, 1, 2, 0]), 5), rng_from_seed(0), 0.1, 20.0)
        st.recompute = []
        for c in range(st.k):
            _estimate(space, st, c)
        st.t_star = 100.0 * st.alpha  # a column is queued once its error exceeds 1/|C|
        columns = [frozenset(st.members(c)) for c in range(st.k)]
        fast._merge_and_split(st, 1, 3)
        assert st.counts["merge_split"] == 1 and st.recompute
        while st.recompute:  # the epoch's re-estimates of the queued columns
            _estimate(space, st, st.recompute.pop(0))

        # p sits in a surviving column that the remap renumbered; dst is new
        src = next(c for c in range(st.k) if frozenset(st.members(c)) in columns[c + 1 :])
        p, dst = int(st.members(src)[0]), st.k - 1
        assert len(st.members(src)) > 1 and dst != src
        st.est[:] = 1.0  # no point violates: (m / (m - 1)) * 1 <= (alpha / 2) * 1
        st.est[p, src], st.est[p, dst] = 5.0, 0.5

        # every column estimated afresh: the survivors' carried books must match
        fresh = EpochState(space, Clustering(st.assign, st.k), st.rng, st.eps, st.alpha)
        fresh.recompute, fresh.t_star = [], st.t_star
        for c in range(fresh.k):
            _estimate(space, fresh, c)
        fresh.est[:] = st.est
        names = ("error", "num_swaps", "size_hat", "phi")
        assert [getattr(st, name) for name in names] == [getattr(fresh, name) for name in names]
        assert st.sizes.tolist() == fresh.sizes.tolist()
        assert st.find_violator() == fresh.find_violator() == (p, dst)
        for state in (st, fresh):
            fast._swap(state, p, src, dst)
        assert np.array_equal(st.assign, fresh.assign) and st.assign[p] == dst
        assert st.sizes.tolist() == fresh.sizes.tolist() == np.bincount(st.assign).tolist()
        for name in ("error", "num_swaps", "phi", "recompute"):
            assert getattr(st, name) == getattr(fresh, name), name
        # src's error 5/|src| passes 1/|src|; dst's 0.5/|dst| does not
        assert st.recompute == [src]
        assert st.phi[src] is None and st.phi[dst] is None

    def test_auditor_follows_the_columns(self):
        # EpochAuditor keys its records by column; a merge-and-split moves them
        st = self.state()
        audit = EpochAuditor(every=10**9)
        audit.tilde = {c: f"tilde {c}" for c in range(5)}
        audit.progress = {c: float(c) for c in range(5)}
        audit.every_iteration(None, st, 1)
        st._replace((1, 3), [np.flatnonzero(np.isin(st.assign, (1, 3)))])
        st._replace((0,), [st.members(0)[:1], st.members(0)[1:]])
        st.counts["merge_split"] += 1
        audit.every_iteration(None, st, 2)
        assert audit.tilde == {0: "tilde 2", 1: "tilde 4"}
        assert audit.progress == {0: 2.0, 1: 4.0}


def _estimate(space, st, c):
    """Re-estimate column c as an epoch does, with exact averages."""
    members = st.members(c)
    st.est[:, c] = exact_avg(space, members, np.arange(st.n))
    st.error[c], st.size_hat[c], st.num_swaps[c] = 0.0, len(members), 0
    st.phi[c] = math.log2(len(members)) * float(st.est[members, c].sum())


class PhiCacheAuditor:
    """Checks every cached potential against the exact potential of its
    cluster's current members; meaningful once estimates are exact."""

    def __init__(self):
        self.entries_checked = 0

    def after_recompute(self, space, st, cid):
        pass

    def before_swap(self, space, st, p, src, dst):
        pass

    def every_iteration(self, space, st, iteration):
        for cid, value in enumerate(st.phi):
            if value is None:
                continue
            assert cid in range(st.k)
            assert value == pytest.approx(phi_avg(space, st.members(cid)), rel=1e-9)
            self.entries_checked += 1


def _exact_calc_average(monkeypatch):
    """Make fast.calc_average return exact means; the real call still runs
    first, so queries are charged and rng draws taken the same way."""
    real = fast.calc_average

    def exact(space, C, S, eps, rng):
        real(space, C, S, eps, rng)
        return exact_avg(space, C, S)

    monkeypatch.setattr(fast, "calc_average", exact)


def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(fast, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(fast, name, counted)
    return calls


class TestPotentialCache:
    def test_entries_track_members_through_swaps(self, monkeypatch, rng):
        _exact_calc_average(monkeypatch)
        sp, _, bad = perturbed_planted(60, 4, 0.005, seed=2, moves=6)
        audit = PhiCacheAuditor()
        res = epoch(sp, bad, rng, audit=audit)
        assert res.state.phi_hat == pytest.approx(phi_avg_clustering(sp, bad), rel=1e-9)
        assert res.counts["swap"] >= 1
        assert audit.entries_checked > 0

    def test_entries_track_members_through_merge_and_split(self, monkeypatch, rng):
        _exact_calc_average(monkeypatch)
        sp, bad = merge_heavy_instance()
        audit = PhiCacheAuditor()
        res = epoch(sp, bad, rng, audit=audit)
        assert res.counts["merge_split"] >= 1
        assert audit.entries_checked > 0

    def test_stable_epoch_estimates_each_cluster_twice(self, monkeypatch, rng):
        # k averages for phi_hat, k for the recomputes, none for the checks
        sp, planted, _ = perturbed_planted(30, 3, 0.01, seed=1, moves=0)
        calls = _count_calls(monkeypatch, "calc_average")
        res = epoch(sp, planted, rng)
        assert res.status == IP_STABLE
        assert res.counts["recompute"] == 3
        assert len(calls) == 2 * 3

    def test_fast_ls_estimates_only_uncached_potentials(self, monkeypatch):
        # k-center starts rarely need a second epoch; an adversarial start does
        sp, _, bad = perturbed_planted(60, 4, 0.001, seed=5, moves=8)
        monkeypatch.setattr(fast, "kcenter_init", lambda space, k: bad)
        potentials = _count_calls(monkeypatch, "calc_potential")
        real_epoch = fast.epoch
        inside, uncached = [], []

        def counted_epoch(*args, **kwargs):
            before = len(potentials)
            result = real_epoch(*args, **kwargs)
            inside.append(len(potentials) - before)
            uncached.append(result.state.phi.count(None))
            return result

        monkeypatch.setattr(fast, "epoch", counted_epoch)
        _, trace = fast_ls(sp, 4, seed=0)
        assert trace.counts["epoch"] >= 2
        # after each epoch fast_ls estimates only the clusters its cache lacks;
        # here every epoch ends just after a check that filled the whole cache
        assert len(potentials) - sum(inside) == sum(uncached) == 0


def _reference_violators(st):
    """Every cached violator as (foreign/own, p, dst), by a plain loop."""
    found = []
    cids = range(st.k)
    for cid in cids:
        members = st.members(cid).tolist()
        m = len(members)
        if m <= 1:
            continue
        for p in members:
            own = float(st.est[p, cid])
            if own == 0.0:
                continue
            foreign, dst = min((float(st.est[p, c]), c) for c in cids if c != cid)
            if (m / (m - 1)) * own > (st.alpha / 2.0) * foreign:
                found.append((foreign / own, p, dst))
    return found


class SwapChoiceAuditor:
    """Checks that each swap moves the lowest-(key, p) cached violator to its
    nearest foreign cluster, and that no violator is missed when none is found."""

    def __init__(self):
        self.swaps = 0
        self.ties = 0
        self.empty_scans = 0

    def after_recompute(self, space, st, cid):
        pass

    def every_iteration(self, space, st, iteration):
        if st.recompute:
            return
        # this iteration scans: it must find a violator exactly when one exists
        found = _reference_violators(st)
        assert (st.find_violator() is None) == (not found)
        self.empty_scans += not found

    def before_swap(self, space, st, p, src, dst):
        found = _reference_violators(st)
        key, q, near = min(found)
        assert (p, src, dst) == (q, st.assign[q], near)
        self.swaps += 1
        self.ties += sum(f[0] == key for f in found) > 1


class TestSwapChoice:
    @pytest.mark.parametrize("exact", [True, False])
    def test_doubled_points(self, monkeypatch, exact):
        # exact estimates give both copies of a point the same key
        if exact:
            _exact_calc_average(monkeypatch)
        sp, _, bad = perturbed_planted(40, 4, 0.005, seed=2, moves=6)
        twice = np.repeat(np.arange(sp.n), 2)
        doubled = MetricSpace.from_matrix(sp.peek_block(twice, twice), validate=False)
        audit = SwapChoiceAuditor()
        res = epoch(doubled, Clustering(bad.assignment[twice], 4), rng_from_seed(0), audit=audit)
        assert audit.swaps == res.counts["swap"] >= 2
        if exact:
            assert audit.ties >= 1

    def test_size_factor_and_cluster_ties(self, monkeypatch, rng):
        # alpha = 16 log2 6 > 41: point 2 lies 1 from two clumps and 24 from its
        # partner, so its own average 12 is a violation only after the
        # |C|/(|C|-1) factor doubles it; the clumps tie and the lower cid wins
        _exact_calc_average(monkeypatch)
        sp = line_space([-1, -1, 0, 24, 1, 1])
        audit = SwapChoiceAuditor()
        res = epoch(sp, Clustering(np.array([0, 0, 1, 1, 2, 2]), 3), rng, audit=audit)
        assert audit.swaps == res.counts["swap"] == 1
        assert res.clustering.assignment.tolist() == [0, 0, 0, 1, 2, 2]

    def test_merge_heavy(self, rng):
        sp, bad = merge_heavy_instance()
        audit = SwapChoiceAuditor()
        res = epoch(sp, bad, rng, audit=audit)
        assert res.counts["merge_split"] >= 1
        assert audit.swaps == res.counts["swap"]
        assert res.status == IP_STABLE and audit.empty_scans >= 1


def _replay(start, steps):
    """The labels that ``steps``' moves make of ``start``, each checked to
    leave the cluster it records."""
    labels = start.assignment.copy()
    for step in steps:
        assert step.kind == "swap" and labels[step.point] == step.source
        labels[step.point] = step.target
    return labels


class TestSteps:
    """An epoch's swaps are the ``Step``s of ``search``'s trace."""

    @pytest.mark.parametrize("seed", range(3))
    def test_epoch_steps_replay_to_its_output(self, seed):
        sp, _, bad = perturbed_planted(120, 4, 0.01, seed=seed, moves=4)
        res = epoch(sp, bad, rng_from_seed(seed))
        assert res.counts["swap"] == 2 and res.counts["merge_split"] == 0
        assert len(res.steps) == res.counts["swap"]
        assert np.array_equal(_replay(bad, res.steps), res.clustering.assignment)

    def test_fast_ls_steps_are_every_epochs_swaps(self, monkeypatch):
        # an adversarial start: five epochs, eight swaps, no merge-and-split
        sp, _, bad = perturbed_planted(60, 4, 0.001, seed=5, moves=8)
        monkeypatch.setattr(fast, "kcenter_init", lambda space, k: bad)
        out, trace = fast_ls(sp, 4, seed=0)
        assert trace.counts["epoch"] >= 2 and trace.counts["merge_split"] == 0
        assert len(trace.steps) == trace.counts["swap"] >= 2
        assert np.array_equal(_replay(bad, trace.steps), out.assignment)


class PotentialCheckAuditor:
    """Reads the sum each passed potential check compared, at the iteration
    after its re-estimate: the check leaves every column's cached potential
    set, and only a merge-and-split since then unsets one (that check is
    skipped)."""

    def __init__(self):
        self.passed = []
        self.checked = False
        self.merge_splits = 0

    def after_recompute(self, space, st, cid):
        self.checked = True

    def before_swap(self, space, st, p, src, dst):
        pass

    def every_iteration(self, space, st, iteration):
        if self.checked and st.counts["merge_split"] == self.merge_splits:
            self.passed.append(sum(st.phi))
        self.checked, self.merge_splits = False, st.counts["merge_split"]


class MergeTriggerAuditor:
    """After each re-estimate of a column c, computes every other column's
    pull lhs = min(|C|, |C'|) / |C'| * (sum of est[C', c]) against the
    paper's t* = phi_hat / (24 k log2^2 n), written here, and checks at the
    next hook that the epoch merged c exactly when some pull is below t*
    (unless its potential check ended the epoch first)."""

    def __init__(self, k):
        self.k = k
        self.pulls = []  # lhs / t* for every pair the trigger compares
        self.expect = None  # the merge-and-split count the next hook must see

    def after_recompute(self, space, st, cid):
        t_star = st.phi_hat / (24.0 * self.k * math.log2(st.n) ** 2)
        m, lhs = st.members(cid), []
        for other in range(st.k):
            om = st.members(other)
            if other != cid:
                lhs.append(min(len(m), len(om)) / len(om) * float(st.est[om, cid].sum()))
        self.pulls += [value / t_star for value in lhs]
        self.expect = st.counts["merge_split"] + any(value < t_star for value in lhs)

    def before_swap(self, space, st, p, src, dst):
        self.every_iteration(space, st, None)

    def every_iteration(self, space, st, iteration):
        if self.expect is not None:
            assert st.counts["merge_split"] == self.expect
            self.expect = None


class TestPaperBounds:
    """The decisions that no output check reaches, the epoch's and
    ``fast_ls``'s, against bounds written from the paper's formulas rather
    than read from the state."""

    @pytest.mark.parametrize("seed", range(3))
    def test_potential_check_at_half_of_one_plus_eps(self, seed):
        # two swaps; six checks pass, the lowest at about 0.59 phi_hat, and the seventh reads 0.31
        sp, _, bad = perturbed_planted(120, 4, 0.01, seed=seed, moves=4)
        audit = PotentialCheckAuditor()
        res = epoch(sp, bad, rng_from_seed(seed), audit=audit)
        bound = (1 + 0.1) / 2 * res.state.phi_hat
        assert res.status == POTENTIAL_DROPPED
        assert len(audit.passed) == res.counts["recompute"] - 1  # every check but the last
        assert min(audit.passed) >= bound
        assert sum(res.state.phi) < bound

    def test_merge_trigger_at_t_star(self):
        # the gadget's pair and clump pull each other at about 3/4 of t*
        sp, bad = merge_heavy_instance(width=1.9)
        audit = MergeTriggerAuditor(bad.k)
        res = epoch(sp, bad, rng_from_seed(0), audit=audit)
        assert res.status == IP_STABLE and audit.expect is None
        assert res.counts["merge_split"] == 1
        assert [pull for pull in audit.pulls if pull < 1] == pytest.approx([0.745], abs=0.05)

    def test_swap_budget_is_half_the_estimated_size(self):
        # t* = inf switches the error budget off, so a swap queues a column
        # exactly when the column's swap count passes size_hat / 2
        st = EpochState(line_space(np.arange(14.0)), Clustering(np.repeat([0, 1], [6, 8]), 2), rng_from_seed(0), 0.1, 20.0)
        st.recompute, st.t_star = [], math.inf
        st.est[:] = 1.0
        st.error, st.num_swaps, st.size_hat = [0.0, 0.0], [0, 0], [6, 8]
        for swaps in range(1, 11):  # point 0 goes back and forth: each swap counts on both columns
            src = 1 - swaps % 2
            fast._swap(st, 0, src, 1 - src)
            assert st.recompute == [c for c in (src, 1 - src) if swaps > [6, 8][c] / 2]
            st.recompute = []

    def test_split_halves_must_shed_a_fifth_over_log2_n(self, monkeypatch, rng):
        # estimated potentials scripted: the whole cluster's is 1, and the
        # first attempt's halves shed 1/(5.5 log2 n) of it, the second's
        # 1/(3 log2 n); the paper's factor 1/(5 log2 n) lies between
        n = 64
        log_n = math.log2(n)
        assert 1 / (5.5 * log_n) < 1 / (5 * log_n) < 1 / (3 * log_n)
        halves = iter(share for shed in (1 / (5.5 * log_n), 1 / (3 * log_n)) for share in 2 * [(1 - shed) / 2])
        monkeypatch.setattr(fast, "_estimated_phi", lambda space, m, eps, rng: 1.0 if len(m) == n else next(halves))
        result = fast._fast_split_core(random_space(n, seed=0), [(0, np.arange(n))], rng)
        assert result.attempts == 2

    def test_fast_ls_stops_once_an_epoch_keeps_seven_eighths(self, monkeypatch):
        # scripted epochs whose outputs keep 0.80 and then 0.90 of their input
        # estimates: fast_ls stops after the first that keeps at least 7/8
        assert 0.80 < 7 / 8 < 0.90
        kept = iter([0.80, 0.90])
        calls = []

        def scripted(space, clustering, rng):
            calls.append(clustering)
            share = next(kept)
            state = SimpleNamespace(phi_hat=64.0, alpha=16 * math.log2(space.n), potential=lambda: share * 64.0)
            return EpochResult(clustering, POTENTIAL_DROPPED, {"swap": 0, "recompute": 0, "merge_split": 0}, state, [])

        monkeypatch.setattr(fast, "epoch", scripted)
        out, trace = fast_ls(random_space(30, seed=1), 3)
        assert len(calls) == trace.counts["epoch"] == 2
        assert trace.counts["epoch_statuses"] == [POTENTIAL_DROPPED] * 2 and out == calls[0]


class TestFastLs:
    def test_n_equals_k_singletons(self):
        sp = random_space(6, seed=0)
        out, trace = fast_ls(sp, 6, seed=1)
        assert out.sizes().tolist() == [1] * 6
        assert trace.counts["epoch"] == 1

    def test_outputs_verify(self):
        for seed in range(4):
            n = 80 + seed * 40
            sp = random_space(n, seed=seed, k=5)
            out, trace = fast_ls(sp, 5, seed=seed)
            assert verify_stability(sp, out, "avg", 16 * math.log2(n)).passed
            assert out.k == 5

    def test_epoch_count_logarithmic(self):
        sp = random_space(120, seed=9)
        _, trace = fast_ls(sp, 8, seed=4)
        assert trace.counts["epoch"] <= 4 * math.log2(120)

    def test_deterministic_given_seed(self):
        sp1 = random_space(70, seed=13)
        sp2 = random_space(70, seed=13)
        out1, _ = fast_ls(sp1, 5, seed=7)
        out2, _ = fast_ls(sp2, 5, seed=7)
        assert out1 == out2


def _as_matrix(space):
    """The same metric rebuilt as a table; its entries equal the coordinate reads."""
    return MetricSpace.from_matrix(space.peek_block(np.arange(space.n), np.arange(space.n)), validate=False)


class TestBackingIndependence:
    def test_fast_ls_same_on_table(self):
        for seed, dim in ((0, 1), (1, 4), (2, 9)):
            coords = random_space(90, seed=seed, k=5, dim=dim)
            table = _as_matrix(coords)
            out_c, trace_c = fast_ls(coords, 5, seed=seed)
            out_t, trace_t = fast_ls(table, 5, seed=seed)
            assert out_c == out_t
            assert trace_c.counts == trace_t.counts
            assert coords.query_counter == table.query_counter

    def test_epoch_same_on_table(self):
        coords, _, bad = perturbed_planted(80, 4, 0.01, seed=3, moves=10)
        table = _as_matrix(coords)
        res_c = epoch(coords, bad, rng_from_seed(5))
        res_t = epoch(table, bad, rng_from_seed(5))
        assert res_c.clustering == res_t.clustering
        assert res_c.status == res_t.status
        assert res_c.counts == res_t.counts
        assert res_c.counts["swap"] >= 1
        assert coords.query_counter == table.query_counter
