import math
import tracemalloc

import numpy as np
import pytest

from ipstable import metric, stable_opt
from ipstable.clustering import Clustering, verify_stability
from ipstable.metric import GenSpec, MetricSpace, generate
from ipstable.stable_opt import (
    _merge_betas,
    beta,
    beta_clustering,
    create_tree,
    dp_min_beta,
    mst,
    stable_cluster,
)

from conftest import line_space, random_matrix_space, random_space
from reference import _all_partitions, brute_force_min_beta, from_members


class TestBeta:
    def test_whole_space_zero(self):
        sp = line_space([0, 1, 5])
        assert beta(sp, [0, 1, 2]) == 0.0

    def test_repeated_indices_are_not_the_whole_space(self):
        # five entries on five points, but only three points: the gap to point 3 counts
        sp = line_space([0, 1, 2, 3, 4])
        assert beta(sp, [0, 0, 1, 1, 2]) == beta(sp, [0, 1, 2]) == 2.0

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

    def test_row_tiles_keep_values_and_queries(self, monkeypatch):
        # with the bound shrunk to three rows a tile, each block read stays
        # within it, and the value and the queries charged are the whole
        # blocks': |C|^2 (none for a singleton) plus |C|(n - |C|)
        for sp in (random_space(40, seed=3), random_matrix_space(35, seed=4)):
            n, D = sp.n, sp.pairs()
            bound = 3 * n
            monkeypatch.setattr(metric, "_BLOCK_CHUNK_ELEMS", bound)
            cells = []
            read = sp.block

            def block(rows, cols):
                out = read(rows, cols)
                cells.append(out.size)
                return out

            monkeypatch.setattr(sp, "block", block)
            rng = np.random.default_rng(n)
            for size in (1, 2, 7, 20, n - 1):
                C = rng.choice(n, size, replace=False)
                outside = np.setdiff1d(np.arange(n), C)
                diam = D[np.ix_(C, C)].max() if size > 1 else 0.0
                want = stable_opt._ratio(float(diam), float(D[np.ix_(C, outside)].min()))
                cells.clear()
                q0 = sp.query_counter
                assert beta(sp, C) == want
                assert sp.query_counter - q0 == (size * size if size > 1 else 0) + size * (n - size)
                assert len(cells) == (2 if size > 1 else 1) * -(-size // 3)
                assert max(cells) <= bound


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


def _tree(sp):
    D = sp.pairs()
    return create_tree(D, mst(D))


def _children(tree, v):
    """Node v's (left, right) in the merge table; None for a leaf."""
    n = len(tree.order)
    return None if v < n else (tree.left[v - n], tree.right[v - n])


def _nodes(tree):
    """Every node reachable from the root, each parent before its children."""
    out, stack = [], [tree.root]
    while stack:
        v = stack.pop()
        out.append(v)
        stack.extend(_children(tree, v) or ())
    return out


class TestMst:
    def test_single_point(self):
        assert mst(line_space([0]).pairs()) == []

    def test_line(self):
        edges = mst(line_space([0, 1, 5]).pairs())
        assert sorted((a, b) for a, b, _ in edges) == [(0, 1), (1, 2)]

    def test_weight_matches_prim(self):
        for seed in range(8):
            sp = random_matrix_space(25, seed=seed)
            D = sp.peek_block(np.arange(25), np.arange(25))
            ours = sum(w for _, _, w in mst(sp.pairs()))
            assert ours == pytest.approx(_prim_mst_weight(D), rel=1e-9)

    def test_matches_kruskal_reference(self):
        for sp in _tied_and_random_spaces():
            assert mst(sp.pairs()) == _kruskal(sp)

    def test_weight_read_from_upper_triangle(self):
        # tables are accepted with asymmetry up to a relative 1e-9
        D = random_matrix_space(20, seed=3).pairs()
        sp = MetricSpace.from_matrix(np.triu(D) * (1 + 1e-12) + np.tril(D))
        assert mst(sp.pairs()) == _kruskal(sp)


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


def _as_tuples(tree, v):
    points = [int(p) for p in tree.points(v)]
    kids = _children(tree, v)
    if kids is None:
        return (points,)
    return (points, _as_tuples(tree, kids[0]), _as_tuples(tree, kids[1]))


class TestCreateTree:
    def test_matches_top_down_reference(self):
        # tied weights make the (min, max) tie-break and the left/right
        # orientation matter; the DP's tie-break depends on both
        for sp in _tied_and_random_spaces():
            D = sp.pairs()
            edges = mst(D)
            tree = create_tree(D, edges)
            assert _as_tuples(tree, tree.root) == _top_down_tree(list(range(sp.n)), edges)

    def test_memory_bounded_by_chunk(self):
        # a cross block's rows are copied whole from the n x n table, at most
        # _BLOCK_CHUNK_ELEMS // n of them at a time; the largest block here has
        # 397 rows, 4.8 MB if copied at once (the tree itself holds 1.4 MB)
        D = random_space(1500, seed=1).pairs()
        edges = mst(D)
        tracemalloc.start()
        try:
            create_tree(D, edges)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6

    def test_memory_linear_on_a_chain(self):
        # geometric gaps make the tree a chain of n nested node sets; the leaf
        # order holds them all in O(n), where a sorted copy per node took 9.3 MB
        D = line_space(1.001 ** np.arange(1500)).pairs()
        edges = mst(D)
        tracemalloc.start()
        try:
            dp_min_beta(create_tree(D, edges), 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    @pytest.mark.parametrize("chunk_cells", [1, 40])
    def test_diameter_read_in_row_chunks(self, chunk_cells, monkeypatch):
        # one row per chunk, or 40 // n rows: the max over the chunks is the block's
        monkeypatch.setattr(metric, "_BLOCK_CHUNK_ELEMS", chunk_cells)
        for sp in _tied_and_random_spaces():
            table = sp.peek_block(np.arange(sp.n), np.arange(sp.n))
            tree = _tree(sp)
            for v in _nodes(tree):
                pts = tree.points(v)  # ascending, so the upper triangle holds d(min, max)
                assert tree.diameter[v] == np.triu(table[np.ix_(pts, pts)], 1).max()

    def test_single_point_leaf(self):
        sp = line_space([0])
        tree = _tree(sp)
        assert tree.root == 0 and _children(tree, 0) is None and list(tree.points(0)) == [0]

    def test_line_structure(self):
        sp = line_space([0, 1, 5])
        tree = _tree(sp)
        assert list(tree.points(tree.root)) == [0, 1, 2]
        kids = {tuple(tree.points(c)) for c in _children(tree, tree.root)}
        assert kids == {(0, 1), (2,)}

    def test_children_partition_parent(self):
        for seed in range(6):
            sp = random_space(18, seed=seed)
            tree = _tree(sp)
            for v in _nodes(tree):
                if _children(tree, v) is not None:
                    union = sorted(np.concatenate([tree.points(c) for c in _children(tree, v)]))
                    assert union == list(tree.points(v))
            leaves = [v for v in _nodes(tree) if _children(tree, v) is None]
            assert len(leaves) == 18


class TestNodeBetas:
    def test_equal_to_beta_on_every_node(self):
        # tables are accepted with asymmetry up to a relative 1e-9; beta()
        # reads both triangles, so it is the reference on symmetric spaces,
        # and a node's diameter is the largest d(min, max) on every space
        D = random_matrix_space(20, seed=3).pairs()
        skewed = [
            MetricSpace.from_matrix(np.triu(D) * (1 + 1e-12) + np.tril(D)),
            MetricSpace.from_matrix(np.triu(D) + np.tril(D) * (1 + 1e-12)),
        ]
        for sp in [*_tied_and_random_spaces(), *skewed]:
            table = sp.peek_block(np.arange(sp.n), np.arange(sp.n))
            tree = _tree(sp)
            betas = _merge_betas(tree)
            assert len(betas) == sp.n - 1
            for v in _nodes(tree):
                pts = tree.points(v)  # ascending, so the upper triangle holds d(min, max)
                assert tree.diameter[v] == np.triu(table[np.ix_(pts, pts)], 1).max()
                if v < sp.n:
                    assert tree.diameter[v] == 0.0
                # a leaf's beta is the DP's constant 0.0
                value = betas[v - sp.n] if v >= sp.n else 0.0
                if sp not in skewed:
                    assert value == beta(sp, pts)

    def test_children_before_parents(self):
        # the DP walks the merges in table order over the leaves
        sp = random_space(20, seed=4)
        tree = _tree(sp)
        seen = set(range(sp.n))
        for j, (left, right) in enumerate(zip(tree.left, tree.right)):
            assert left in seen and right in seen
            seen.add(sp.n + j)
        assert tree.root == sp.n + len(tree.left) - 1

    def test_weight_is_children_separation(self):
        sp = random_matrix_space(15, seed=2)
        D = sp.peek_block(np.arange(15), np.arange(15))
        tree = _tree(sp)
        assert len(tree.weight) == 14  # one per merge, none for a leaf
        for v in _nodes(tree):
            if _children(tree, v) is not None:
                left, right = (tree.points(c) for c in _children(tree, v))
                assert tree.weight[v - sp.n] == D[np.ix_(left, right)].min()


class TestDpMinBeta:
    def test_k_equals_n(self):
        sp = random_space(7, seed=1)
        out = dp_min_beta(_tree(sp), 7)
        assert out.sizes().tolist() == [1] * 7
        assert beta_clustering(sp, out) == 0.0

    def test_three_group_line(self):
        coords = [0 - 0.1, 0 + 0.1, 100 - 0.1, 100 + 0.1, 200 - 0.1, 200 + 0.1]
        sp = line_space(coords)
        out = dp_min_beta(_tree(sp), 3)
        groups = {frozenset(map(int, m)) for m in out.members()}
        assert groups == {frozenset({0, 1}), frozenset({2, 3}), frozenset({4, 5})}
        assert beta_clustering(sp, out) <= 0.2 / 99.8 + 1e-12

    def test_matches_exhaustive_tree_enumeration(self):
        # independent oracle: expand every clustering the tree induces and
        # take the best beta, with no separation assumption at all
        def induced(tree, v, parts):
            if parts == 1:
                return [[tree.points(v)]]
            if _children(tree, v) is None:
                return []
            out = []
            for i in range(1, parts):
                for right in induced(tree, _children(tree, v)[1], i):
                    for left in induced(tree, _children(tree, v)[0], parts - i):
                        out.append(right + left)
            return out

        for seed in range(25):
            n, k = 8, 3
            sp = random_matrix_space(n, seed=seed)
            tree = _tree(sp)
            got = dp_min_beta(tree, k)
            best = min(
                max(beta(sp, c) for c in clusters)
                for clusters in induced(tree, tree.root, k)
            )
            assert beta_clustering(sp, got) == pytest.approx(best, rel=1e-12)

    def test_matches_dp_over_every_part_count(self):
        # reference: the DP that fills all k part counts for every node and
        # skips the infeasible (None) entries inside the loop
        def dp_all_counts(sp, tree, k):
            # a leaf's row from beta() itself, the merges' from their table order
            table = [[(beta(sp, [p]), 0)] + [None] * (k - 1) for p in range(sp.n)]
            for left_id, right_id, node_beta in zip(tree.left, tree.right, _merge_betas(tree)):
                row = [None] * k
                row[0] = (node_beta, 0)
                right, left = table[right_id], table[left_id]
                for parts in range(2, k + 1):
                    best = None
                    for i in range(1, parts):
                        r, l = right[i - 1], left[parts - i - 1]
                        if r is None or l is None:
                            continue
                        if best is None or max(r[0], l[0]) < best[0]:
                            best = (max(r[0], l[0]), i)
                    row[parts - 1] = best
                table.append(row)
            clusters, stack = [], [(tree.root, k)]
            while stack:
                v, parts = stack.pop()
                if parts == 1:
                    clusters.append(tree.points(v))
                    continue
                i = table[v][parts - 1][1]
                left_id, right_id = _children(tree, v)
                stack += [(right_id, i), (left_id, parts - i)]
            return from_members(clusters)

        for sp in _tied_and_random_spaces():
            tree = _tree(sp)
            for k in range(1, min(6, sp.n) + 1):
                assert dp_min_beta(tree, k) == dp_all_counts(sp, tree, k)

    def test_matches_brute_force_when_separated(self):
        hits = 0
        for seed in range(60):
            out = generate(GenSpec("planted_separated", n=9, k=3, separation=0.6, seed=seed))
            sp = out.space
            tree = _tree(sp)
            got = dp_min_beta(tree, 3)
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
        # one pairs() read shared by the MST and the split tree's diameters
        for sp in (random_space(40, seed=1), random_matrix_space(40, seed=1), line_space([0, 0, 1, 1, 2])):
            n = sp.n
            before = sp.query_counter
            stable_cluster(sp, 2)
            assert sp.query_counter - before == n * (n - 1) // 2

    def test_stages_called_once_through_the_module(self, monkeypatch):
        # stage timers (perfbench's spans) patch these module attributes
        sp = random_space(30, seed=2)
        expected = stable_cluster(sp, 3)
        calls = []
        for name in ("mst", "create_tree", "dp_min_beta"):
            stage = getattr(stable_opt, name)
            monkeypatch.setattr(stable_opt, name, lambda *a, _s=stage, _n=name: calls.append(_n) or _s(*a))
        assert stable_cluster(sp, 3) == expected
        assert calls == ["mst", "create_tree", "dp_min_beta"]

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
            tree = _tree(sp)
            node_sets = {frozenset(map(int, tree.points(v))) for v in _nodes(tree)}
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
