import math

import numpy as np
import pytest

from ipstable.clustering import Clustering, verify_stability
from ipstable.metric import GenSpec, MetricSpace, generate
from ipstable.stable_opt import (
    _bottom_up_betas,
    beta,
    beta_clustering,
    create_tree,
    dp_min_beta,
    mst,
    stable_cluster,
)

from conftest import line_space, random_matrix_space, random_space
from reference import _all_partitions, brute_force_min_beta


class TestBeta:
    def test_whole_space_zero(self):
        sp = line_space([0, 1, 5])
        assert beta(sp, [0, 1, 2]) == 0.0

    def test_pair_with_outsider(self):
        sp = line_space([0, 1, 5])
        assert beta(sp, [0, 1]) == pytest.approx(0.25)

    def test_singleton(self):
        sp = line_space([0, 1, 5])
        assert beta(sp, [0]) == 0.0

    def test_zero_separation_conventions(self):
        sp = line_space([0, 0, 3])
        assert beta(sp, [0]) == 0.0  # 0/0
        assert beta(sp, [0, 2]) == math.inf  # positive diameter, zero gap

    def test_bounds_avg_stability(self):
        # any clustering is beta-stable for avg
        rng = np.random.default_rng(0)
        for seed in range(10):
            sp = random_space(20, seed=seed)
            assign = rng.integers(0, 3, size=20)
            assign[:3] = [0, 1, 2]
            cl = Clustering(assign, 3)
            rep = verify_stability(sp, cl, "avg")
            assert rep.alpha_achieved <= beta_clustering(sp, cl) * (1 + 1e-9)


def _prim_mst_weight(D):
    """Independent check: Prim's algorithm, total weight only."""
    n = D.shape[0]
    in_tree = [0]
    key = D[0].copy()
    key[0] = np.inf
    total = 0.0
    for _ in range(n - 1):
        nxt = int(np.argmin(key))
        total += key[nxt]
        key[nxt] = np.inf
        in_tree.append(nxt)
        key = np.minimum(key, np.where(np.isinf(key), np.inf, D[nxt]))
        key[in_tree] = np.inf
    return total


def _kruskal(space):
    """Reference: Kruskal over edges sorted by (w, min, max), w = d(min, max)."""
    n = space.n
    D = space.peek_block(np.arange(n), np.arange(n))
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    edges = []
    for w, a, b in sorted((float(D[a, b]), a, b) for a in range(n) for b in range(a + 1, n)):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            edges.append((a, b, w))
    return edges


def _tied_and_random_spaces():
    rng = np.random.default_rng(11)
    for seed in range(8):
        # integer coordinates and weights tie often, zeros included
        yield line_space(rng.integers(0, 5, size=int(rng.integers(2, 25))))
        yield MetricSpace.from_points(rng.integers(0, 3, size=(20, 2)), norm="l1")
        yield random_matrix_space(int(rng.integers(2, 30)), seed=seed)
        yield random_space(int(rng.integers(2, 30)), seed=seed, dim=4)
        m = rng.integers(1, 3, size=(12, 12)).astype(float)
        m = np.minimum(m, m.T)  # weights 1 and 2 always satisfy the triangle inequality
        np.fill_diagonal(m, 0.0)
        yield MetricSpace.from_matrix(m)
    yield line_space([0, 0, 3])  # zero separation next to a positive diameter
    yield line_space([2, 2, 2])  # every distance zero


class TestMst:
    def test_single_point(self):
        assert mst(line_space([0])) == []

    def test_line(self):
        edges = mst(line_space([0, 1, 5]))
        assert sorted((a, b) for a, b, _ in edges) == [(0, 1), (1, 2)]

    def test_weight_matches_prim(self):
        for seed in range(8):
            sp = random_matrix_space(25, seed=seed)
            D = sp.peek_block(np.arange(25), np.arange(25))
            ours = sum(w for _, _, w in mst(sp))
            assert ours == pytest.approx(_prim_mst_weight(D), rel=1e-9)

    def test_matches_kruskal_reference(self):
        for sp in _tied_and_random_spaces():
            assert mst(sp) == _kruskal(sp)

    def test_weight_read_from_upper_triangle(self):
        # tables are accepted with asymmetry up to a relative 1e-9
        D = random_matrix_space(20, seed=3).full()
        sp = MetricSpace.from_matrix(np.triu(D) * (1 + 1e-12) + np.tril(D))
        assert mst(sp) == _kruskal(sp)


def _top_down_tree(points, edges):
    """Reference split tree as nested tuples (points, left, right): delete the
    edge with the largest (w, -min, -max) key; left holds its min endpoint."""
    if len(points) == 1:
        return (points,)
    cut = max(edges, key=lambda e: (e[2], -e[0], -e[1]))
    rest = [e for e in edges if e != cut]
    side = {cut[0]}
    grown = True
    while grown:
        grown = False
        for a, b, _ in rest:
            if (a in side) != (b in side):
                side |= {a, b}
                grown = True
    left = sorted(side)
    right = sorted(set(points) - side)
    return (
        points,
        _top_down_tree(left, [e for e in rest if e[0] in side]),
        _top_down_tree(right, [e for e in rest if e[0] not in side]),
    )


def _as_tuples(node):
    points = [int(p) for p in node.points]
    if node.is_leaf:
        return (points,)
    return (points, _as_tuples(node.left), _as_tuples(node.right))


class TestCreateTree:
    def test_matches_top_down_reference(self):
        # tied weights make the (min, max) tie-break and the left/right
        # orientation matter; the DP's tie-break depends on both
        for sp in _tied_and_random_spaces():
            edges = mst(sp)
            tree = create_tree(sp, edges)
            assert _as_tuples(tree) == _top_down_tree(list(range(sp.n)), edges)

    def test_single_point_leaf(self):
        sp = line_space([0])
        tree = create_tree(sp, mst(sp))
        assert tree.is_leaf and list(tree.points) == [0]

    def test_line_structure(self):
        sp = line_space([0, 1, 5])
        tree = create_tree(sp, mst(sp))
        assert sorted(tree.points) == [0, 1, 2]
        kids = {tuple(sorted(tree.left.points)), tuple(sorted(tree.right.points))}
        assert kids == {(0, 1), (2,)}

    def test_children_partition_parent(self):
        for seed in range(6):
            sp = random_space(18, seed=seed)
            tree = create_tree(sp, mst(sp))
            for node in tree.nodes():
                if not node.is_leaf:
                    union = sorted(np.concatenate([node.left.points, node.right.points]))
                    assert union == sorted(node.points)
            leaves = [n for n in tree.nodes() if n.is_leaf]
            assert len(leaves) == 18


class TestNodeBetas:
    def test_equal_to_beta_on_every_node(self):
        for sp in _tied_and_random_spaces():
            tree = create_tree(sp, mst(sp))
            pairs = _bottom_up_betas(sp, tree)
            assert len(pairs) == 2 * sp.n - 1
            for node, value in pairs:
                assert value == beta(sp, node.points)

    def test_children_before_parents(self):
        sp = random_space(20, seed=4)
        seen = set()
        for node, _ in _bottom_up_betas(sp, create_tree(sp, mst(sp))):
            if not node.is_leaf:
                assert id(node.left) in seen and id(node.right) in seen
            seen.add(id(node))

    def test_weight_is_children_separation(self):
        sp = random_matrix_space(15, seed=2)
        D = sp.peek_block(np.arange(15), np.arange(15))
        for node in create_tree(sp, mst(sp)).nodes():
            if node.is_leaf:
                assert node.weight is None
                continue
            assert node.weight == D[np.ix_(node.left.points, node.right.points)].min()


class TestDpMinBeta:
    def test_k_equals_n(self):
        sp = random_space(7, seed=1)
        out = dp_min_beta(sp, create_tree(sp, mst(sp)), 7)
        assert out.sizes().tolist() == [1] * 7
        assert beta_clustering(sp, out) == 0.0

    def test_three_group_line(self):
        coords = [0 - 0.1, 0 + 0.1, 100 - 0.1, 100 + 0.1, 200 - 0.1, 200 + 0.1]
        sp = line_space(coords)
        out = dp_min_beta(sp, create_tree(sp, mst(sp)), 3)
        groups = {frozenset(map(int, m)) for m in out.members()}
        assert groups == {frozenset({0, 1}), frozenset({2, 3}), frozenset({4, 5})}
        assert beta_clustering(sp, out) <= 0.2 / 99.8 + 1e-12

    def test_matches_exhaustive_tree_enumeration(self):
        # independent oracle: expand every clustering the tree induces and
        # take the best beta, with no separation assumption at all
        def induced(u, parts):
            if parts == 1:
                return [[u.points]]
            if u.is_leaf:
                return []
            out = []
            for i in range(1, parts):
                for right in induced(u.right, i):
                    for left in induced(u.left, parts - i):
                        out.append(right + left)
            return out

        for seed in range(25):
            n, k = 8, 3
            sp = random_matrix_space(n, seed=seed)
            tree = create_tree(sp, mst(sp))
            got = dp_min_beta(sp, tree, k)
            best = min(
                max(beta(sp, c) for c in clusters)
                for clusters in induced(tree, k)
            )
            assert beta_clustering(sp, got) == pytest.approx(best, rel=1e-12)

    def test_matches_dp_over_every_part_count(self):
        # reference: the DP that fills all k part counts for every node and
        # skips the infeasible (None) entries inside the loop
        def dp_all_counts(sp, tree, k):
            table = {}
            for u, node_beta in _bottom_up_betas(sp, tree):
                row = [None] * k
                row[0] = (node_beta, 0)
                if not u.is_leaf:
                    right, left = table[id(u.right)], table[id(u.left)]
                    for parts in range(2, k + 1):
                        best = None
                        for i in range(1, parts):
                            r, l = right[i - 1], left[parts - i - 1]
                            if r is None or l is None:
                                continue
                            if best is None or max(r[0], l[0]) < best[0]:
                                best = (max(r[0], l[0]), i)
                        row[parts - 1] = best
                table[id(u)] = row
            clusters, stack = [], [(tree, k)]
            while stack:
                u, parts = stack.pop()
                if parts == 1:
                    clusters.append(u.points)
                    continue
                i = table[id(u)][parts - 1][1]
                stack += [(u.right, i), (u.left, parts - i)]
            return Clustering.from_members(clusters)

        for sp in _tied_and_random_spaces():
            tree = create_tree(sp, mst(sp))
            for k in range(1, min(6, sp.n) + 1):
                assert dp_min_beta(sp, tree, k) == dp_all_counts(sp, tree, k)

    def test_matches_brute_force_when_separated(self):
        hits = 0
        for seed in range(60):
            out = generate(GenSpec("planted_separated", n=9, k=3, separation=0.6, seed=seed))
            sp = out.space
            tree = create_tree(sp, mst(sp))
            got = dp_min_beta(sp, tree, 3)
            _, best = brute_force_min_beta(sp, 3)
            if best < 1:
                hits += 1
                assert beta_clustering(sp, got) <= best * (1 + 1e-9)
        assert hits >= 50  # the planted construction should nearly always separate


class TestStableCluster:
    def test_k_equals_n(self):
        sp = random_space(6, seed=2)
        out = stable_cluster(sp, 6)
        assert out.sizes().tolist() == [1] * 6

    def test_query_count(self):
        # n^2 for the MST, n(n-1)/2 for the cross blocks of the split tree
        # less the root's, which beta(root) = 0 never needs
        for sp in (random_space(40, seed=1), random_matrix_space(40, seed=1), line_space([0, 0, 1, 1, 2])):
            n = sp.n
            root = create_tree(sp, mst(sp))
            root_block = len(root.left.points) * len(root.right.points)
            before = sp.query_counter
            stable_cluster(sp, 2)
            assert sp.query_counter - before == n * n + n * (n - 1) // 2 - root_block

    def test_recovers_planted(self):
        out = generate(GenSpec("planted_separated", n=30, k=3, separation=0.1, seed=4))
        got = stable_cluster(out.space, 3)
        assert {frozenset(map(int, m)) for m in got.members()} == {
            frozenset(map(int, m)) for m in out.planted.members()
        }

    def test_triple_alpha_guarantee_on_planted(self):
        # instances engineered to admit an alpha*-stable clustering with
        # alpha* <= separation; the output must verify at 3 * alpha*
        for seed in range(6):
            sep = 1e-4
            gen = generate(GenSpec("planted_separated", n=24, k=3, separation=sep, seed=seed))
            sp, planted = gen.space, gen.planted
            alpha_star = verify_stability(sp, planted, "avg").alpha_achieved
            assert alpha_star < 0.001
            got = stable_cluster(sp, 3)
            assert verify_stability(sp, got, "avg", 3 * alpha_star).passed

    def test_planted_clusters_appear_in_tree(self):
        for seed in range(6):
            gen = generate(GenSpec("planted_separated", n=20, k=4, separation=0.5, seed=seed))
            sp, planted = gen.space, gen.planted
            if beta_clustering(sp, planted) >= 1:
                continue
            tree = create_tree(sp, mst(sp))
            node_sets = {frozenset(map(int, u.points)) for u in tree.nodes()}
            for m in planted.members():
                assert frozenset(map(int, m)) in node_sets


class TestBruteForce:
    def test_partition_count_small(self):
        sp = line_space([0, 1, 5])
        assert len(_all_partitions(3, 2)) == 3

    def test_limit(self):
        sp = random_space(11, seed=0)
        with pytest.raises(ValueError):
            brute_force_min_beta(sp, 2)

    def test_agrees_with_dp_on_planted(self):
        for seed in range(10):
            gen = generate(GenSpec("planted_separated", n=8, k=2, separation=0.4, seed=seed))
            sp = gen.space
            _, best = brute_force_min_beta(sp, 2)
            got = stable_cluster(sp, 2)
            if best < 1:
                assert beta_clustering(sp, got) == pytest.approx(best, rel=1e-12)

    def test_per_cluster_ratio_not_global(self):
        # beta must be evaluated cluster by cluster: here the global
        # max-diameter / min-gap ratio would pick a different partition
        coords = [0.0, 10.0, 100.0, 101.0, 140.0, 141.0]
        sp = line_space(coords)
        cl, value = brute_force_min_beta(sp, 3)
        oracle = min(
            (
                max(
                    (
                        beta(sp, m)
                        for m in Clustering(np.array(a), 3).members()
                    )
                )
                for a in _enumerate_assignments(6, 3)
            )
        )
        assert value == pytest.approx(oracle, rel=1e-12)


def _enumerate_assignments(n, k):
    return _all_partitions(n, k)
