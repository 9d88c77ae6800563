import math
import tracemalloc

import pytest

from ipstable import local_search
from ipstable.clustering import Clustering, _AvgTable, verify_stability
from ipstable.local_search import (
    CAP_EXCEEDED,
    CONVERGED,
    LsConfig,
    avg_potentials,
    max_ip_local_search,
    max_ip_signatures,
    natural_local_search,
)
from ipstable.merge_split import kcenter_init
from ipstable.potential import phi_avg_clustering

from conftest import line_space, perturbed_planted, random_matrix_space, random_space


def members_as_sets(clustering):
    return {frozenset(int(x) for x in m) for m in clustering.members()}


class TestNaturalLocalSearch:
    def test_stable_input_unchanged(self):
        sp = line_space([0, 1, 10, 11])
        start = Clustering([0, 0, 1, 1], 2)
        out, trace = natural_local_search(sp, 2, LsConfig(alpha=2.0, init="given", initial=start))
        assert trace.status == CONVERGED
        assert len(trace.steps) == 0
        assert out == start

    def test_exact_tie_is_not_a_violation(self):
        # starting from the interleaved clusters, the worst envy ratio is
        # exactly 2, so alpha=2 already accepts the start
        sp = line_space([0, 1, 10, 11])
        start = Clustering([0, 1, 0, 1], 2)
        assert verify_stability(sp, start, "avg").alpha_achieved == pytest.approx(2.0)
        out, trace = natural_local_search(sp, 2, LsConfig(alpha=2.0, init="given", initial=start))
        assert len(trace.steps) == 0
        assert out == start

    def test_four_point_line_converges(self):
        sp = line_space([0, 1, 10, 11])
        start = Clustering([0, 1, 0, 1], 2)
        out, trace = natural_local_search(sp, 2, LsConfig(alpha=1.9, init="given", initial=start))
        assert trace.status == CONVERGED
        assert members_as_sets(out) == {frozenset({0, 1}), frozenset({2, 3})}
        assert verify_stability(sp, out, "avg").alpha_achieved < 1.9

    def test_potential_strictly_decreases_at_guaranteed_alpha(self):
        # the decrease certificate needs alpha >= 2 log2(n); below that a
        # move may raise the potential
        saw_steps = False
        for seed in range(8):
            sp = random_matrix_space(40, seed=seed)
            out, trace = natural_local_search(sp, 5, LsConfig(init="given", initial=kcenter_init(sp, 5)))
            assert trace.status == CONVERGED
            phis = list(avg_potentials(sp, out, trace.steps))
            for before, after in zip(phis, phis[1:]):
                assert after < before
            if trace.steps:
                saw_steps = True
                # replayed values match an independent recomputation
                assert phi_avg_clustering(sp, out) == pytest.approx(phis[-1], rel=1e-9)
        interleaved = random_matrix_space(40, seed=100)
        out, trace = natural_local_search(interleaved, 5, LsConfig())
        phis = list(avg_potentials(interleaved, out, trace.steps))
        for before, after in zip(phis, phis[1:]):
            assert after < before
        saw_steps = saw_steps or bool(trace.steps)
        # the runs above may all stop at their start; an adversarial one takes 5 steps
        sp, _, start = perturbed_planted(60, 4, 0.01, seed=1, moves=5)
        out, trace = natural_local_search(sp, 4, LsConfig(initial=start))
        assert trace.status == CONVERGED
        phis = list(avg_potentials(sp, out, trace.steps))
        for before, after in zip(phis, phis[1:]):
            assert after < before
        assert phi_avg_clustering(sp, out) == pytest.approx(phis[-1], rel=1e-9)
        saw_steps = saw_steps or bool(trace.steps)
        assert saw_steps

    def test_potentials_are_replayed_only_when_read(self):
        sp, _, start = perturbed_planted(60, 4, 0.01, seed=1, moves=5)
        out, trace = natural_local_search(sp, 4, LsConfig(initial=start))
        assert len(trace.steps) > 1
        # the replay builds its table on the start, charging each pair once, on the first read
        before = sp.query_counter
        phis = avg_potentials(sp, out, trace.steps)
        assert sp.query_counter == before
        first = next(phis)
        assert sp.query_counter - before == 60 * 59 // 2
        assert len([first, *phis]) == len(trace.steps) + 1
        assert sp.query_counter - before == 60 * 59 // 2
        assert first == _AvgTable(sp, start).phi()

    def test_converges_at_guaranteed_alpha(self):
        for seed in range(5):
            sp = random_space(60, seed=seed)
            out, trace = natural_local_search(sp, 4, LsConfig())
            assert trace.status == CONVERGED
            alpha = 2 * math.log2(60)
            assert verify_stability(sp, out, "avg", alpha).passed

    def test_cluster_count_preserved(self):
        sp = random_matrix_space(30, seed=9)
        out, _ = natural_local_search(sp, 7, LsConfig(alpha=1.0))
        assert out.k == 7

    def test_degenerate_two_points(self):
        sp = line_space([0, 3])
        out, trace = natural_local_search(sp, 2, LsConfig(alpha=1.0))
        assert len(trace.steps) == 0
        assert out.k == 2

    def test_k_out_of_range(self):
        sp = line_space([0, 1, 2])
        with pytest.raises(ValueError):
            natural_local_search(sp, 1, LsConfig())
        with pytest.raises(ValueError):
            natural_local_search(sp, 4, LsConfig())

    def test_given_start_with_wrong_k_rejected(self):
        sp = line_space([0, 1, 2, 3, 4, 5])
        start = Clustering([0, 1, 2, 3, 0, 1], 4)
        with pytest.raises(ValueError, match="does not match"):
            natural_local_search(sp, 3, LsConfig(init="given", initial=start))

    def test_cap_status(self):
        sp = random_matrix_space(40, seed=3)
        out, trace = natural_local_search(sp, 5, LsConfig(alpha=1.0, max_steps=1))
        assert trace.status in (CONVERGED, CAP_EXCEEDED)
        assert out.k == 5

    def test_infinite_envy_moves_to_coincident_cluster(self):
        # a point coincident with a whole foreign cluster has unbounded envy
        from conftest import line_space

        sp = line_space([0, 0, 0, 9, 9])
        start = Clustering([1, 0, 0, 1, 1], 2)
        out, trace = natural_local_search(
            sp, 2, LsConfig(alpha=100.0, init="given", initial=start)
        )
        assert trace.steps[0].point == 0
        assert members_as_sets(out) == {frozenset({0, 1, 2}), frozenset({3, 4})}


class TestLsConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            LsConfig(alpha=0.5)
        with pytest.raises(ValueError):
            LsConfig(alpha=math.nan)
        with pytest.raises(ValueError):
            LsConfig(max_steps=0)
        with pytest.raises(ValueError):
            LsConfig(init="given")

    @pytest.mark.parametrize("search", [natural_local_search, max_ip_local_search])
    def test_initial_alone_picks_the_start(self, search):
        # without init="given" the start used to be ignored for round-robin
        sp = line_space([0, 1, 10, 11])
        start = Clustering([0, 0, 1, 1], 2)
        out, trace = search(sp, 2, LsConfig(initial=start, alpha=1.0))
        assert trace.counts == {"swap": 0} and trace.steps == []
        assert out == start


class TestMaxIpLocalSearch:
    @pytest.mark.parametrize("alpha", [5.0, 1.5])
    def test_alpha_other_than_one_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha = 1"):
            max_ip_local_search(line_space([0, 1, 10, 11]), 2, LsConfig(alpha=alpha))

    def test_four_point_line(self):
        sp = line_space([0, 1, 10, 11])
        start = Clustering([0, 1, 0, 1], 2)
        out, trace = max_ip_local_search(sp, 2, LsConfig(init="given", initial=start))
        assert trace.status == CONVERGED
        assert members_as_sets(out) == {frozenset({0, 1}), frozenset({2, 3})}
        assert verify_stability(sp, out, "max", 1.0).passed

    def test_stable_input_zero_steps(self):
        sp = line_space([0, 1, 10, 11])
        start = Clustering([0, 0, 1, 1], 2)
        out, trace = max_ip_local_search(sp, 2, LsConfig(init="given", initial=start))
        assert len(trace.steps) == 0

    def test_given_start_with_wrong_k_rejected(self):
        sp = line_space([0, 1, 2, 3, 4, 5])
        start = Clustering([0, 1, 2, 3, 0, 1], 4)
        with pytest.raises(ValueError, match="does not match"):
            max_ip_local_search(sp, 3, LsConfig(init="given", initial=start))

    def test_signature_strictly_decreases(self):
        for seed in range(6):
            sp = random_space(30, seed=seed, k=3)
            out, trace = max_ip_local_search(sp, 3, LsConfig())
            assert trace.status == CONVERGED
            sigs = list(max_ip_signatures(sp, out, trace.steps))
            for before, after in zip(sigs, sigs[1:]):
                assert after < before
            assert verify_stability(sp, out, "max", 1.0).passed

    def test_signatures_are_built_only_when_read(self, monkeypatch):
        calls = {"edge_order": 0, "signature_from_order": 0}
        for name in calls:

            def counted(*args, name=name, real=getattr(local_search, name)):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(local_search, name, counted)
        sp = random_space(30, seed=0, k=3)
        out, trace = max_ip_local_search(sp, 3, LsConfig())
        assert trace.counts["swap"] > 1
        assert calls == {"edge_order": 0, "signature_from_order": 0}
        # reading the replay sorts the edges once and builds each state's signature once
        before = sp.query_counter
        sigs = list(max_ip_signatures(sp, out, trace.steps))
        assert len(sigs) == len(trace.steps) + 1
        assert calls == {"edge_order": 1, "signature_from_order": len(trace.steps) + 1}
        assert sp.query_counter - before == 30 * 29 // 2

    def test_memory_stays_near_the_distance_table(self):
        # 1,027 steps from round-robin; a label copy per step would hold
        # about twice the table again
        n = 500
        sp = random_space(n, seed=1, k=10, dim=4)
        tracemalloc.start()
        try:
            _, trace = max_ip_local_search(sp, 10, LsConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.status == CONVERGED and len(trace.steps) > 1000
        assert peak < 2 * n * n * 8

    def test_identical_runs_give_equal_steps(self):
        sp = random_space(30, seed=0, k=3)
        _, first = max_ip_local_search(sp, 3, LsConfig())
        _, second = max_ip_local_search(sp, 3, LsConfig())
        assert len(first.steps) > 1 and first.steps == second.steps
        assert first.steps[0] != first.steps[1]

    def test_no_state_repeats(self):
        sp = random_matrix_space(25, seed=2)
        out, trace = max_ip_local_search(sp, 4, LsConfig())
        seen = [sig.packed for sig in max_ip_signatures(sp, out, trace.steps)]
        assert len(seen) == len(set(seen))
