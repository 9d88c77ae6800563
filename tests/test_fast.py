import math

import numpy as np
import pytest

from ipstable import fast, merge_split
from ipstable.clustering import Clustering, verify_stability
from ipstable.fast import (
    IP_STABLE,
    POTENTIAL_DROPPED,
    calc_average,
    calc_central_point,
    calc_potential,
    epoch,
    fast_ls,
    sample_count,
)
from ipstable.merge_split import kcenter_init
from ipstable.metric import MetricSpace, rng_from_seed
from ipstable.potential import phi_avg, phi_avg_clustering

from conftest import line_space, merge_heavy_instance, perturbed_planted, random_matrix_space, random_space
from reference import fast_split


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
        assert calc_potential(sp, Clustering.singletons(10).members(), 0.1, rng) == 0.0

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
    """Checks the cached-estimate invariants against exact recomputation."""

    def __init__(self, every=100, sample_points=8):
        self.every = every
        self.sample_points = sample_points
        self.tilde = {}
        self.progress = {}  # the paper's progress account, per cluster
        self.swap_checks = 0
        self.invariant_checks = 0

    def after_recompute(self, space, st, cid):
        self.tilde[cid] = exact_avg(space, st.members(cid), np.arange(st.n))
        self.progress[cid] = 0.0

    def before_swap(self, space, st, p, src, dst):
        progress_inc = (float(st.est[src][p]) / (1.0 + st.eps) - st.error[src]) / 2.0
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
        if iteration % self.every:
            return
        self.invariant_checks += 1
        for cid in st.cids():
            if cid in st.recompute or cid not in st.est:
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

    def test_step_cap_is_a_hard_error(self, rng):
        sp = random_space(30, seed=1)
        with pytest.raises(RuntimeError):
            epoch(sp, kcenter_init(sp, 4), rng, step_cap=2)

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
        for cid, value in st.phi.items():
            assert cid in st.cids()
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
            uncached.append(len(set(result.state.cids()) - set(result.state.phi)))
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
    cids = st.cids()
    for cid in cids:
        members = st.members(cid).tolist()
        m = len(members)
        if m <= 1:
            continue
        for p in members:
            own = float(st.est[cid][p])
            if own == 0.0:
                continue
            foreign, dst = min((float(st.est[c][p]), c) for c in cids if c != cid)
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
