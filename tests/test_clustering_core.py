import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ipstable import clustering, metric
from ipstable.clustering import (
    TABLES,
    Clustering,
    _delete_sorted,
    _insert_sorted,
    verify_stability,
)
from ipstable.metric import MetricSpace

from conftest import line_space, random_space, table_spaces
from reference import (
    avg_dist,
    delete_sorted,
    envy_from_columns,
    from_members,
    gather_maxima,
    gather_sums,
    insert_sorted,
    max_dist,
    median_dist,
    most_envious,
    _ratio,
    singletons,
)


class TestClusteringType:
    def test_rejects_empty_cluster(self):
        with pytest.raises(ValueError):
            Clustering([0, 0, 2], 3)

    @pytest.mark.parametrize("ids", [[0, 1.5, 0], [0, 1, math.nan], [0, 1, math.inf], ["0", "1", "1"]])
    def test_rejects_non_integral_ids(self, ids):
        with pytest.raises(ValueError, match="integers"):
            Clustering(ids)

    @pytest.mark.parametrize("ids", [[0, 1, 1e23], [0, 1, -1e23]])
    def test_rejects_float_ids_beyond_intp(self, ids):
        # the cast to intp would wrap them, with a RuntimeWarning, before the range check
        with pytest.raises(ValueError, match="0..k-1"):
            Clustering(ids)

    @pytest.mark.parametrize("k", [None, 2])
    def test_rejects_boolean_ids(self, k):
        # True and False convert to 1 and 0, but they are not cluster ids
        with pytest.raises(ValueError, match="cluster ids must be integers"):
            Clustering([True, False, True], k)
        with pytest.raises(ValueError, match="cluster ids must be integers"):
            Clustering(np.array([True, False]), k)

    @pytest.mark.parametrize("k", [3, 10**12, 10**23])
    def test_rejects_k_above_n(self, k):
        # k > n leaves a cluster empty; a huge k must not size any array
        with pytest.raises(ValueError, match="non-empty"):
            Clustering([0, 1], k)

    def test_from_members(self):
        assert from_members([[1, 3], [0, 2]]) == Clustering([1, 0, 1, 0], 2)

    @pytest.mark.parametrize("lists", [[[0, 0], [1]], [[0, 2], [3]], [[0, 1], [-1]], [[0], [1, 5]]])
    def test_from_members_rejects_non_partitions(self, lists):
        # a repeated, missing, negative or out-of-range index
        with pytest.raises(ValueError, match="partition"):
            from_members(lists)

    def test_accepts_integral_floats(self):
        assert Clustering([0.0, 1.0, 0.0], 2) == Clustering([0, 1, 0], 2)

    def test_members_agree_with_assignment(self):
        cl = Clustering([0, 1, 0, 2, 1], 3)
        assert [sorted(m) for m in cl.members()] == [[0, 2], [1, 4], [3]]

    def test_json_round_trip(self):
        cl = Clustering([0, 1, 0, 1], 2)
        again = Clustering.from_json(cl.to_json())
        assert again == cl
        payload = json.loads(cl.to_json())
        assert payload == {"k": 2, "assignment": [0, 1, 0, 1]}

    @given(st.lists(st.integers(0, 3), min_size=4, max_size=12))
    def test_round_trip_property(self, raw):
        raw = list(range(4)) + raw  # ensure ids 0..3 all appear
        cl = Clustering(raw, 4)
        assert Clustering.from_json(cl.to_json()) == cl


class TestPointToSetDistances:
    def test_avg_arithmetic(self):
        sp = line_space([0, 1, 2, 6])
        assert avg_dist(sp, 0, [1, 2, 3]) == pytest.approx(3.0)

    def test_avg_self_only(self):
        sp = line_space([5.0, 9.0])
        assert avg_dist(sp, 0, [0]) == 0.0

    def test_avg_matches_double_loop(self):
        sp = random_space(30, seed=7)
        rng = np.random.default_rng(0)
        for _ in range(20):
            S = rng.choice(30, size=rng.integers(1, 30), replace=False)
            p = int(rng.integers(0, 30))
            oracle = sum(sp.peek_block([p], [q])[0, 0] for q in S) / len(S)
            assert avg_dist(sp, p, S) == pytest.approx(oracle, rel=1e-12)

    def test_median_by_definition(self):
        sp = line_space([0, 1, 2, 6, 9])
        # distances from point 0 to {1,2,6,9} are {1,2,6,9}: 2nd smallest = 2
        assert median_dist(sp, 0, [1, 2, 3, 4]) == pytest.approx(2.0)

    def test_median_single(self):
        sp = line_space([0, 5])
        assert median_dist(sp, 0, [1]) == pytest.approx(5.0)

    def test_median_duplicates(self):
        sp = line_space([0, 10, 10])
        assert median_dist(sp, 0, [1, 2]) == pytest.approx(10.0)

    def test_median_matches_sort_oracle(self):
        sp = random_space(25, seed=9)
        rng = np.random.default_rng(1)
        for _ in range(25):
            S = rng.choice(25, size=rng.integers(1, 25), replace=False)
            p = int(rng.integers(0, 25))
            vals = sorted(sp.peek_block([p], S)[0])
            oracle = vals[(len(S) + 1) // 2 - 1]
            assert median_dist(sp, p, S) == pytest.approx(oracle, rel=1e-12)

    def test_max_scan(self):
        sp = line_space([0, 1, 2, 6])
        assert max_dist(sp, 0, [1, 2, 3]) == pytest.approx(6.0)
        assert max_dist(sp, 0, [0]) == 0.0

    def test_empty_set_rejected(self):
        sp = line_space([0, 1])
        for fn in (avg_dist, median_dist, max_dist):
            with pytest.raises(ValueError):
                fn(sp, 0, [])


class TestVerifyStability:
    def test_four_point_line_avg(self):
        # points at 0, 1, 10, 11; clusters {0,1} and {10,11}.
        # Inner points are worst: point 1 has own envy 1 vs foreign (9+10)/2,
        # giving 2/19; outer points give 2/21.
        sp = line_space([0, 1, 10, 11])
        cl = Clustering([0, 0, 1, 1], 2)
        rep = verify_stability(sp, cl, "avg")
        assert rep.alpha_achieved == pytest.approx(2.0 / 19.0)
        assert rep.witness == (1, 1)
        assert rep.per_point[0] == pytest.approx(2.0 / 21.0)
        assert rep.per_point[3] == pytest.approx(2.0 / 21.0)

    def test_all_singletons(self):
        sp = random_space(6, seed=0)
        rep = verify_stability(sp, singletons(6), "avg")
        assert rep.alpha_achieved == 0.0

    def test_duplicate_points_infinite_envy(self):
        # points 0 and 1 coincide; 1 sits alone in its cluster, so point 0
        # sees avg(0, {1}) = 0 while its own cluster holds distant points.
        mat = np.array(
            [
                [0.0, 0.0, 5.0, 5.0],
                [0.0, 0.0, 5.0, 5.0],
                [5.0, 5.0, 0.0, 2.0],
                [5.0, 5.0, 2.0, 0.0],
            ]
        )
        sp = MetricSpace.from_matrix(mat)
        cl = Clustering([0, 1, 0, 0], 2)
        rep = verify_stability(sp, cl, "avg")
        assert rep.alpha_achieved == math.inf
        assert rep.witness == (0, 1)
        for objective in ("avg", "max", "median"):  # the search's scan: x/0 = inf
            assert TABLES[objective](sp, cl).most_envious() == (0, 1, math.inf)

    def test_alpha_gate(self):
        sp = line_space([0, 1, 10, 11])
        cl = Clustering([0, 0, 1, 1], 2)
        assert verify_stability(sp, cl, "avg", alpha=0.2).passed
        assert not verify_stability(sp, cl, "avg", alpha=0.1).passed

    @pytest.mark.parametrize("objective", ["avg", "median", "max"])
    def test_matches_naive_oracle(self, objective):
        sp = random_space(18, seed=11)
        rng = np.random.default_rng(5)
        D = sp.peek_block(np.arange(18), np.arange(18))
        for trial in range(10):
            assign = rng.integers(0, 4, size=18)
            assign[:4] = [0, 1, 2, 3]  # keep every cluster non-empty
            cl = Clustering(assign, 4)
            rep = verify_stability(sp, cl, objective)
            oracle = 0.0
            for p in range(18):
                own = [q for q in range(18) if assign[q] == assign[p] and q != p]
                if not own:
                    continue
                for c in range(4):
                    if c == assign[p]:
                        continue
                    other = [q for q in range(18) if assign[q] == c]
                    f_own = _objective_value(D, p, own, objective)
                    f_for = _objective_value(D, p, other, objective)
                    if f_for == 0:
                        r = 0.0 if f_own == 0 else math.inf
                    else:
                        r = f_own / f_for
                    oracle = max(oracle, r)
            assert rep.alpha_achieved == pytest.approx(oracle, rel=1e-12)


def _objective_value(D, p, S, objective):
    vals = sorted(D[p, q] for q in S)
    if objective == "avg":
        return sum(vals) / len(vals)
    if objective == "max":
        return vals[-1]
    return vals[(len(vals) + 1) // 2 - 1]


class TestAveragingFacts:
    def test_mean_of_averages_at_most_twice_any(self):
        # exhaustive over all non-empty S and every p, for small spaces
        for seed in range(6):
            sp = random_space(8, seed=seed)
            D = sp.peek_block(np.arange(8), np.arange(8))
            for mask in range(1, 256):
                S = [i for i in range(8) if mask >> i & 1]
                block = D[np.ix_(S, S)]
                lhs = block.mean()
                for p in range(8):
                    rhs = 2.0 * D[p, S].mean()
                    assert lhs <= rhs * (1 + 1e-9) + 1e-15

    def test_mean_of_averages_random_large(self):
        n = 256
        sp = random_space(n, seed=13)
        D = sp.peek_block(np.arange(n), np.arange(n))
        rng = np.random.default_rng(2)
        for _ in range(10_000):
            S = rng.choice(n, size=rng.integers(1, n), replace=False)
            p = int(rng.integers(0, n))
            lhs = D[np.ix_(S, S)].mean()
            assert lhs <= 2.0 * D[p, S].mean() * (1 + 1e-9) + 1e-15

    def test_cross_mean_at_most_sum_of_averages(self):
        sp = random_space(60, seed=17)
        D = sp.peek_block(np.arange(60), np.arange(60))
        rng = np.random.default_rng(3)
        for _ in range(500):
            perm = rng.permutation(60)
            a = rng.integers(1, 30)
            b = rng.integers(1, 30)
            S1, S2 = perm[:a], perm[a : a + b]
            p = int(rng.integers(0, 60))
            cross = D[np.ix_(S1, S2)].mean()
            assert cross <= (D[p, S1].mean() + D[p, S2].mean()) * (1 + 1e-9) + 1e-15


def _assert_matches_fresh(space, table):
    fresh = TABLES[table.objective](space, table.clustering())
    assert np.array_equal(table.assign, fresh.assign)
    assert np.array_equal(table.sizes, fresh.sizes)
    assert [sorted(m.tolist()) for m in table.members] == [m.tolist() for m in fresh.members]
    # each carried name holds one entry per column, and a table holds its own objective's state only
    for name in type(table)._carried:
        held = getattr(table, name)
        assert (held.shape[1] if isinstance(held, np.ndarray) else len(held)) == table.k
    own_state = {"avg": {"_phi"}, "max": set(), "median": {"_sorted", "_lo", "_diameter"}}
    assert own_state[table.objective] <= set(type(table)._carried)
    for objective, names in own_state.items():
        assert all(hasattr(table, name) == (objective == table.objective) for name in names)
    # the kept envy state against a derivation from the current columns, bit for bit
    ratio, foreign = table.envy()
    want_ratio, want_foreign = envy_from_columns(table.objective, table.table, table.sizes, table.assign, space.pairs())
    assert np.array_equal(ratio, want_ratio) and np.array_equal(foreign, want_foreign)
    if table.objective == "avg":
        np.testing.assert_allclose(table.table, fresh.table, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(table._own, fresh._own, rtol=1e-9, atol=1e-9)
        # the cached column potentials against the formula on the current table
        terms = [
            math.log2(len(m)) / len(m) * float(table.table[m, c].sum()) if len(m) > 1 else 0.0
            for c, m in enumerate(table.members)
        ]
        assert [table.phi_of(c) for c in range(table.k)] == terms
        assert table.phi() == sum(terms)
    else:
        assert np.array_equal(table.table, fresh.table)
        assert np.array_equal(table._own, fresh._own)
        assert table.most_envious() == most_envious(space, table.clustering(), table.objective)
    if table.objective == "median":
        # each diameter a move kept is unset or the members' block maximum, bit for bit
        for c, m in enumerate(table.members):
            kept = table._diameter[c]
            assert kept is None or kept == float(space.pairs()[np.ix_(m, m)].max())
        assert [table.diameter_of(c) for c in range(table.k)] == [fresh.diameter_of(c) for c in range(table.k)]
        # each window holds its rows' sorted distances at their ranks, bit for bit
        for c, m in enumerate(table.members):
            window, lo = table._sorted[c], table._lo[c]
            assert 0 <= lo and lo + len(window) <= len(m)
            ranked = np.sort(space.pairs()[:, m], axis=1)
            assert np.array_equal(window.view(np.uint64), ranked[:, lo : lo + len(window)].T.view(np.uint64))
    ratio = table.most_envious()[2]
    alpha = verify_stability(space, fresh.clustering(), table.objective).alpha_achieved
    assert ratio == pytest.approx(alpha, rel=1e-9) or ratio == alpha


class TestObjectiveTable:
    @pytest.mark.parametrize("objective", ["avg", "max", "median"])
    def test_operations_match_fresh_table(self, objective):
        for seed, space in enumerate(table_spaces()):
            rng = np.random.default_rng(seed)
            n = space.n
            table = TABLES[objective](space, Clustering(np.arange(n) % 4, 4))
            for _ in range(60):
                op = rng.choice(["move", "move", "merge", "split"])
                k = table.k
                if op == "merge" and k > 2:
                    a, b = rng.choice(k, size=2, replace=False)
                    union = sorted(table.members[a].tolist() + table.members[b].tolist())
                    table.merge(int(a), int(b))
                    assert sorted(table.members[-1].tolist()) == union
                elif op == "split" and k < 8 and table.sizes.max() > 1:
                    c = int(rng.choice(np.flatnonzero(table.sizes > 1)))
                    perm = rng.permutation(table.members[c])
                    cut = int(rng.integers(1, len(perm)))
                    table.split(c, perm[:cut], perm[cut:])
                    assert table.members[-2].tolist() == perm[:cut].tolist()
                    assert table.members[-1].tolist() == perm[cut:].tolist()
                else:
                    p = int(rng.choice(np.flatnonzero(table.sizes[table.assign] > 1)))
                    dst = int(rng.choice([c for c in range(k) if c != table.assign[p]]))
                    table.move(p, dst)
                    assert table.assign[p] == dst and table.members[dst][-1] == p
                _assert_matches_fresh(space, table)

    @pytest.mark.parametrize("objective", ["avg", "max", "median"])
    def test_long_move_sequence_matches_fresh_table(self, objective):
        # moves only, so the median columns edit their windows, and
        # every objective refreshes its envy columns, hundreds of times
        # between fills
        for seed, space in enumerate(table_spaces()):
            rng = np.random.default_rng(100 + seed)
            table = TABLES[objective](space, Clustering(np.arange(space.n) % 4, 4))
            for _ in range(400):
                p = int(rng.choice(np.flatnonzero(table.sizes[table.assign] > 1)))
                dst = int(rng.choice([c for c in range(table.k) if c != table.assign[p]]))
                table.move(p, dst)
                _assert_matches_fresh(space, table)
            if objective == "median":  # rank-major: each rank is one contiguous n-vector
                assert all(window.shape[1] == space.n and window.flags.c_contiguous for window in table._sorted)

    @pytest.mark.parametrize("cap", [2, 3, 4])
    def test_narrow_median_windows_match_fresh_table(self, cap, monkeypatch):
        # table_spaces() has at most about 8 points per column, below the
        # unpatched WINDOW_CAP; windows of 2 to 4 ranks make the moves refill
        # rows and whole columns, drop forced ends and meet ties at the edges
        monkeypatch.setattr(clustering, "WINDOW_CAP", cap)
        monkeypatch.setattr(clustering, "WINDOW_FLOOR", 2)
        self.test_long_move_sequence_matches_fresh_table("median")
        self.test_operations_match_fresh_table("median")
        self.test_merged_column_is_a_fresh_fill("median")

    def test_window_width_grows_as_the_root_of_the_cluster(self):
        # about 2.5 sqrt|C| ranks, never fewer than WINDOW_FLOOR nor more
        # than WINDOW_CAP or |C|
        sizes = [1, 16, 40, 41, 303, 636, 5000]
        want = [min(size, 64, max(16, math.ceil(2.5 * math.sqrt(size)))) for size in sizes]
        assert want == [1, 16, 16, 17, 44, 64, 64]
        assert [clustering._window_width(size) for size in sizes] == want
        # a 303-point column's fill: 44 ranks centred on the median's rank,
        # 151, each row's bit for bit a fresh sort's
        space = random_space(310, seed=3)
        table = TABLES["median"](space, Clustering((np.arange(310) < 7).astype(int), 2))
        m, window, lo = table.members[0], table._sorted[0], table._lo[0]
        assert len(m) == 303 and len(window) == 44 and lo == (303 - 44) // 2 and lo + 44 // 2 == 151
        ranked = np.sort(space.pairs()[:, m], axis=1)
        assert np.array_equal(window.view(np.uint64), ranked[:, lo : lo + 44].T.view(np.uint64))
        assert np.array_equal(table.table[:, 0], ranked[:, 151])

    def test_wide_median_columns_match_fresh_table(self):
        # two columns of about 150 points on a tied integer line, each
        # filled at its rule's width, a window narrower than the column
        space = line_space(np.random.default_rng(7).integers(0, 20, size=300))
        rng = np.random.default_rng(8)
        table = TABLES["median"](space, Clustering(np.arange(300) % 2, 2))
        widths = [clustering._window_width(len(m)) for m in table.members]
        assert [len(window) for window in table._sorted] == widths and max(widths) < 150
        for _ in range(300):
            p = int(rng.integers(300))
            table.move(p, 1 - table.assign[p])
            _assert_matches_fresh(space, table)

    def test_insert_past_both_ends_of_a_wide_window(self):
        # 200 members on a line, a window of their rule's width; p = -300
        # joins them.  d(r, p) lies below the window of p's own row and of
        # -600's, inside -100's and above every member's, so the window drops
        # both ends: one rank narrower, one rank higher
        space = line_space(list(range(200)) + [-300, -100, -600])
        table = TABLES["median"](space, Clustering([0] * 200 + [1] * 3, 2))
        window, lo, width = table._sorted[0], table._lo[0], clustering._window_width(200)
        assert len(window) == width < 200 and lo > 0
        dist = space.pairs()[200]
        below, above = dist < window[0], dist > window[-1]
        assert below.any() and above.any() and (~below & ~above).any()
        table.move(200, 0)
        window = table._sorted[0]
        assert table._lo[0] == lo + 1 and len(window) == width - 1
        ranked = np.sort(space.pairs()[:, table.members[0]], axis=1)
        assert np.array_equal(window.view(np.uint64), ranked[:, lo + 1 : lo + width].T.view(np.uint64))
        _assert_matches_fresh(space, table)

    @pytest.mark.parametrize("objective", ["avg", "max", "median"])
    def test_columns_equal_the_column_gather_bit_for_bit(self, objective, monkeypatch):
        # Every member block is read in tiles of the members' rows.  With the
        # bound shrunk, each column's fill spans several tiles, and avg's fill
        # of one column ends in a one-point remainder, which must join the
        # tile before it: numpy sums a one-point tile pairwise, not member by
        # member.  Below 8 members numpy adds in order either way, so every
        # column here has more.  The other table tests compare a table with
        # its own fill, so only this one sees a change of bits.
        bound = 300
        monkeypatch.setattr(metric, "_BLOCK_CHUNK_ELEMS", bound)
        monkeypatch.setattr(clustering, "WINDOW_CAP", 8)  # median's moves refill rows in tiles too
        space = random_space(151, seed=9)
        n = space.n
        rng = np.random.default_rng(9)
        table = TABLES[objective](space, Clustering(np.arange(n) % 3, 3))
        for p in rng.choice(n, 30, replace=False):
            table.move(int(p), int(table.assign[p] + 1) % 3)
        table.merge(0, 1)
        perm = rng.permutation(table.members[-1])
        table.split(table.k - 1, perm[:40], perm[40:])
        for p in rng.choice(n, 30, replace=False):
            if table.sizes[table.assign[p]] > 9:
                table.move(int(p), int(table.assign[p] + 1) % 3)
        _assert_matches_fresh(space, table)
        sizes = [len(m) for m in table.members]
        assert min(sizes) > 8 and all(n > bound // size for size in sizes)
        assert any(n % (bound // size) == 1 for size in sizes)
        for c, m in enumerate(table.members):  # members in insertion order: moved points last
            if objective == "avg":
                table._fill(c)  # the moves' running sums, refilled from the members
                got, want = table.table[:, c], gather_sums(space, m)
            elif objective == "max":
                got, want = table.table[:, c], gather_maxima(space, m)
            else:
                got, want = np.float64(table.diameter_of(c)), gather_maxima(space, m)[m].max()
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_phi_fills_missing_terms_and_sums_in_order(self):
        space = table_spaces()[1]
        start = Clustering(np.arange(space.n) % 5, 5)
        table, twin = TABLES["avg"](space, start), TABLES["avg"](space, start)
        for t in (table, twin):
            t.phi()
            t.move(0, 3)  # drops the cached terms of columns 0 and 3
        assert [term is None for term in table._phi] == [True, False, False, True, False]
        assert table.phi() == sum(twin.phi_of(c) for c in range(twin.k))
        assert None not in table._phi

    def test_sorted_row_edits_match_delete_and_insert(self):
        # rank-major blocks of small integers, so most values repeat within a
        # row and between a row and the value deleted or inserted; each edit
        # must equal the reference and a fresh sort of the edited multiset
        rng = np.random.default_rng(6)
        for width in range(1, 9):
            rows = np.sort(rng.integers(0, 4, size=(2000, width)).astype(float), axis=1)
            block = np.ascontiguousarray(rows.T)
            at = rng.integers(0, width, size=2000)
            member = rows[np.arange(2000), at]
            other = rng.integers(0, 5, size=2000).astype(float)
            kept = rows[np.arange(width) != at[:, None]].reshape(2000, width - 1)
            for got, want, fresh in (
                (_delete_sorted(block, member), delete_sorted(block, member), kept),
                (_insert_sorted(block, other), insert_sorted(block, other), np.column_stack((rows, other))),
            ):
                fresh = np.sort(fresh, axis=1).T
                assert got.shape == want.shape == fresh.shape
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
                assert np.array_equal(got.view(np.uint64), fresh.view(np.uint64))

    def test_merge_of_two_sorted_blocks(self):
        for space in table_spaces():
            table = TABLES["median"](space, Clustering(np.arange(space.n) % 4, 4))
            table.move(0, 1)  # edits the windows of columns 0 and 1
            table.merge(0, 1)
            merged = table.members[-1]
            assert np.array_equal(table._sorted[-1], np.sort(table.D[:, merged], axis=1).T)
            assert table._lo[-1] == 0
            _assert_matches_fresh(space, table)
            table.move(int(merged[0]), 0)  # the merged window keeps serving moves
            _assert_matches_fresh(space, table)

    @pytest.mark.parametrize("objective", ["avg", "max", "median"])
    def test_merged_column_is_a_fresh_fill(self, objective):
        # 40 moves leave avg's running sums a rounding away from a fresh sum;
        # the merge fills its column from the distance table, as a split does
        for seed, space in enumerate(table_spaces()):
            rng = np.random.default_rng(200 + seed)
            table = TABLES[objective](space, Clustering(np.arange(space.n) % 4, 4))
            for _ in range(40):
                p = int(rng.choice(np.flatnonzero(table.sizes[table.assign] > 1)))
                dst = int(rng.choice([c for c in range(table.k) if c != table.assign[p]]))
                table.move(p, dst)
            table.merge(0, 1)
            if objective == "avg":
                want = table.D[:, table.members[-1]].sum(axis=1)
            else:
                want = TABLES[objective](space, table.clustering()).table[:, -1]
            assert np.array_equal(table.table[:, -1].view(np.uint64), want.view(np.uint64))

    def test_surviving_columns_keep_their_order(self):
        space = line_space(range(10))
        table = TABLES["avg"](space, Clustering(np.arange(10) % 5, 5))
        table.merge(3, 1)
        assert [m.tolist() for m in table.members] == [[0, 5], [2, 7], [4, 9], [3, 8, 1, 6]]
        table.split(0, np.array([5]), np.array([0]))
        assert [m.tolist() for m in table.members] == [[2, 7], [4, 9], [3, 8, 1, 6], [5], [0]]
        assert table.clustering() == Clustering([4, 2, 0, 2, 1, 3, 2, 0, 2, 1], 5)

    def test_most_envious_ties(self):
        # points 0..3 on a line, clusters {0, 3} and {1, 2}: points 0 and 3
        # are equally envious, point 0 wins
        table = TABLES["avg"](line_space([0, 1, 2, 3]), Clustering([0, 1, 1, 0], 2))
        assert table.most_envious() == (0, 1, 2.0)

    @pytest.mark.parametrize("objective", ["avg", "max", "median"])
    def test_most_envious_zero_over_zero_is_zero(self, objective):
        # four coincident points: every own and foreign value is 0
        table = TABLES[objective](line_space([2, 2, 2, 2]), Clustering([0, 0, 1, 1], 2))
        assert table.most_envious() == (0, 1, 0.0)

    def test_unknown_objective(self):
        with pytest.raises(ValueError, match="unknown objective"):
            verify_stability(line_space([0, 1]), Clustering([0, 1], 2), "mean")

    def test_unknown_objective_with_one_cluster(self):
        # k = 1 is stable without a table, but the objective is still checked
        with pytest.raises(ValueError, match="unknown objective"):
            verify_stability(line_space([0, 1]), Clustering([0, 0], 1), "bogus")


def _reference_objective_table(space, clustering, objective):
    """The verifier's table before the searches and the verifier shared one:
    (own_excl, foreign) with foreign[p, c] = f(p, C_c)."""
    n, k = clustering.n, clustering.k
    D = space.pairs()
    members = clustering.members()
    sizes = clustering.sizes()
    own = clustering.assignment
    foreign = np.empty((n, k))
    own_excl = np.zeros(n)
    if objective == "avg":
        for c in range(k):
            foreign[:, c] = D[:, members[c]].sum(axis=1) / sizes[c]
        sums_own = foreign[np.arange(n), own] * sizes[own]
        multi = sizes[own] > 1
        own_excl[multi] = sums_own[multi] / (sizes[own] - 1)[multi]
    elif objective == "max":
        for c in range(k):
            foreign[:, c] = D[:, members[c]].max(axis=1)
        own_excl = foreign[np.arange(n), own]
        own_excl = np.where(sizes[own] > 1, own_excl, 0.0)
    else:
        for c in range(k):
            block = D[:, members[c]]
            m = sizes[c]
            kth = (m + 1) // 2 - 1
            foreign[:, c] = np.partition(block, kth, axis=1)[:, kth]
            mine = members[c]
            if m > 1:
                kth_own = (m - 1 + 1) // 2 - 1 + 1
                own_excl[mine] = np.partition(block[mine], kth_own, axis=1)[:, kth_own]
    return own_excl, foreign


def _reference_verify(space, clustering, objective):
    """(alpha, per_point): each point's largest ratio over every foreign
    cluster, by masks over the full ratio matrix."""
    n, own = clustering.n, clustering.assignment
    own_excl, foreign = _reference_objective_table(space, clustering, objective)
    ratios = _ratio(own_excl[:, None], foreign)
    ratios[np.arange(n), own] = -np.inf
    ratios[clustering.sizes()[own] == 1, :] = -np.inf
    per_point = ratios.max(axis=1)
    per_point[np.isneginf(per_point)] = 0.0
    return float(per_point.max()), per_point


def _reference_witness(space, clustering, objective):
    """The plain-loop most envious point and its nearest foreign cluster,
    None when that point's cluster is a singleton."""
    p, c, _ = most_envious(space, clustering, objective)
    return None if clustering.sizes()[clustering.assignment[p]] == 1 else (p, c)


class TestVerifyAgainstReferenceTable:
    @pytest.mark.parametrize("objective", ["avg", "median", "max"])
    def test_same_witness_and_ratios(self, objective):
        dup = MetricSpace.from_matrix(np.array([[0.0, 0.0, 5.0, 5.0], [0.0, 0.0, 5.0, 5.0],
                                                [5.0, 5.0, 0.0, 2.0], [5.0, 5.0, 2.0, 0.0]]))
        for space in table_spaces() + [dup]:
            rng = np.random.default_rng(space.n)
            for k in (2, 3, space.n // 2, space.n):
                for _ in range(3):
                    assign = rng.integers(0, k, size=space.n)
                    assign[rng.permutation(space.n)[:k]] = np.arange(k)
                    cl = Clustering(assign, k)
                    rep = verify_stability(space, cl, objective)
                    alpha, per_point = _reference_verify(space, cl, objective)
                    assert rep.witness == _reference_witness(space, cl, objective)
                    assert rep.alpha_achieved == alpha or rep.alpha_achieved == pytest.approx(alpha, rel=1e-12)
                    finite = np.isfinite(per_point)
                    assert np.array_equal(np.isfinite(rep.per_point), finite)
                    np.testing.assert_allclose(rep.per_point[finite], per_point[finite], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("objective", ["avg", "median", "max"])
    def test_witness_is_the_nearest_foreign_cluster(self, objective):
        # no point envies (alpha 0): the witness is still point 0 and its
        # nearest foreign cluster, {5} (cluster 2), not the first, {9}
        rep = verify_stability(line_space([0, 0, 5, 9]), Clustering([0, 0, 2, 1], 3), objective)
        assert rep.alpha_achieved == 0.0
        assert rep.witness == (0, 2)
