"""The algorithm registry that ``ipstable cluster`` and ``bench`` run."""

import argparse
import math

import numpy as np
from hypothesis import given, settings, strategies as st
from scipy.sparse.csgraph import shortest_path

from ipstable import ALGORITHMS, Clustering, MetricSpace, cli, create_tree, mst, verify_stability
from ipstable.clustering import _ObjectiveTable
from ipstable.stable_opt import beta_clustering

from conftest import random_space
from reference import brute_force_min_beta, most_envious


def test_registry_matches_cli_and_pins_each_certified_alpha():
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    alg_flag = next(a for a in commands["cluster"]._actions if a.dest == "alg")
    assert list(alg_flag.choices) == list(ALGORITHMS)

    n = 40
    expected = {
        "natural": 2 * math.log2(n),
        "mergesplit": 4 * math.log2(n),
        "fast": 16 * math.log2(n),
        "dp": None,
        "median": (2 * 10.25) ** 2,
        "max": 1.0,
    }
    assert set(expected) == set(ALGORITHMS)
    sp = random_space(n, seed=7)
    for name, alg in ALGORITHMS.items():
        out, trace = alg.run(sp, 3, 1, 10**6)
        assert trace.alpha == expected[name], name
        assert trace.status == "converged", name
        if trace.alpha is not None:
            assert verify_stability(sp, out, alg.objective, trace.alpha).passed, name


@st.composite
def small_instances(draw):
    """(space, k, seed) with n = 3..9: integer-tied l1 lines, Gaussian points,
    all-coincident-but-one sets or integer shortest-path tables, the tables
    optionally skewed within the 1e-9 symmetry tolerance (either triangle)."""
    n = draw(st.integers(3, 9))
    k = draw(st.integers(2, n))
    kind = draw(st.sampled_from(["line", "gauss", "coincident", "paths"]))
    skew = draw(st.sampled_from([None, "upper", "lower"]))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    if kind == "line":
        space = MetricSpace.from_points(rng.integers(0, 4, size=(n, 1)).astype(float), norm="l1")
    elif kind == "gauss":
        space = MetricSpace.from_points(rng.normal(size=(n, 2)))
    elif kind == "coincident":
        space = MetricSpace.from_points(np.eye(n, 1))
    else:
        weights = np.triu(rng.integers(1, 4, size=(n, n)), 1).astype(float)
        space = MetricSpace.from_matrix(shortest_path(weights + weights.T, directed=False))
    if skew is not None:
        D = space.full()
        tri = np.triu(np.ones((n, n)), 1) if skew == "upper" else np.tril(np.ones((n, n)), -1)
        space = MetricSpace.from_matrix(D * (1.0 + 1e-10 * tri))
    return space, k, seed


@settings(max_examples=200, derandomize=True, deadline=None)
@given(small_instances())
def test_every_algorithm_is_deterministic_and_stable_on_small_instances(instance):
    space, k, seed = instance
    n = space.n
    root = create_tree(space, mst(space))
    # dp reads the table for the MST and every cross block of the split tree but the root's
    dp_queries = n * n + n * (n - 1) // 2 - len(root.left.points) * len(root.right.points)
    for name, alg in ALGORITHMS.items():
        runs = []
        for _ in range(2):
            before = space.query_counter
            out, trace = alg.run(space, k, seed, 10**6)
            runs.append((out, trace.counts, trace.status, space.query_counter - before))
        assert runs[0] == runs[1], name
        out, _, status, queries = runs[0]
        assert out.k == k and out.n == space.n, name
        assert status == "converged", name
        if name == "natural":
            assert queries == n**2
        if name == "dp":
            assert queries == dp_queries
            _, best = brute_force_min_beta(space, k)
            if best < 1:
                assert math.isclose(beta_clustering(space, out), best, rel_tol=1e-9)
        if trace.alpha is not None:
            assert verify_stability(space, out, alg.objective, trace.alpha).passed, name

    # the searches' tie-breaks: the most envious point and the cluster it envies
    start = Clustering(np.arange(n) % k, k)
    for objective in ("avg", "median", "max"):
        table = _ObjectiveTable(space, start, objective)
        assert table.most_envious() == most_envious(space, start, objective), objective
