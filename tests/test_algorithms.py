"""The algorithm registry that ``ipstable cluster`` and ``bench`` run."""

import argparse
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse.csgraph import shortest_path

from ipstable import ALGORITHMS, Clustering, MetricSpace, cli, metric, verify_stability
from ipstable.clustering import TABLES
from ipstable.local_search import DEFAULT_MAX_STEPS, LsConfig, max_ip_local_search, max_ip_signatures, natural_local_search
from ipstable.median_ip import median_ip_cluster
from ipstable.merge_split import merge_split_ls
from ipstable.metric import GenSpec, generate
from ipstable.potential import edge_order
from ipstable.stable_opt import beta_clustering

from conftest import perturbed_planted, random_space, skewed
from reference import bits, brute_force_min_beta, max_ip_signature, most_envious


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


@pytest.mark.parametrize("name", list(ALGORITHMS))
def test_non_integer_k_rejected_before_any_query(name):
    sp = random_space(20, seed=0)
    for k in (2.5, 3.0):
        with pytest.raises(ValueError, match="k must be an integer"):
            ALGORITHMS[name].run(sp, k, 1, 10**6)
    assert sp.query_counter == 0
    out, _ = ALGORITHMS[name].run(sp, np.int64(3), 1, 10**6)
    assert out.k == 3


@pytest.mark.parametrize("name", ["natural", "mergesplit", "median", "max"])
def test_non_integer_max_steps_rejected_before_any_query(name):
    sp = random_space(20, seed=0)
    with pytest.raises(ValueError, match="max_steps must be an integer"):
        ALGORITHMS[name].run(sp, 3, 1, 1.5)
    assert sp.query_counter == 0
    out, _ = ALGORITHMS[name].run(sp, 3, 1, np.int64(10**6))
    assert out.k == 3


SEARCHES = {
    "natural": lambda sp, k, start: natural_local_search(sp, k, LsConfig(initial=start)),
    "mergesplit": lambda sp, k, start: merge_split_ls(sp, k, initial=start),
    "median": lambda sp, k, start: median_ip_cluster(sp, k, initial=start),
    "max": lambda sp, k, start: max_ip_local_search(sp, k, LsConfig(initial=start)),
}


@pytest.mark.parametrize("name", list(SEARCHES))
def test_only_mergesplit_steps_record_the_potential(name):
    sp, _, start = perturbed_planted(60, 4, 0.01, seed=1, moves=5)
    _, trace = SEARCHES[name](sp, 4, start)
    assert len(trace.steps) > 1
    before = [step.phi_before for step in trace.steps]
    after = [step.phi_after for step in trace.steps]
    if name != "mergesplit":
        assert all(math.isnan(phi) for phi in before + after)
        return
    # the step reads the potential its table holds, the one the step before left
    assert before[0] == TABLES["avg"](sp, start).phi()
    assert before[1:] == after[:-1]
    assert all(a < b for b, a in zip(before, after))


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
        space = skewed(space, skew)
    return space, k, seed


def _check_signature_certificate(space, start, out, steps):
    """Check max's decrease argument on every step along the path from the
    ``start`` labels.  The witness is p's first changed edge in edge order,
    the longest of its edges to src\\{p} and to dst (ties by (i, j)), found
    from |src| + |dst| table entries: it is the first bit where the loop
    oracle's signatures before and after the move differ, and it goes to
    src, so that bit turns off and the signature falls.  The step condition,
    read from p's row as the search reads it, is strict.  The signatures
    ``max_ip_signatures`` replays from the output ``out`` equal the oracle's
    at every state, the start and the output included."""
    n = space.n
    D = space.pairs()
    rank = np.empty(n * n, dtype=np.intp)
    rank[edge_order(D)] = np.arange(n * (n - 1) // 2)
    labels = np.array(start)
    replayed = list(max_ip_signatures(space, out, steps))
    assert len(replayed) == len(steps) + 1
    assert replayed[0] == max_ip_signature(space, labels)
    for step, replayed_after in zip(steps, replayed[1:]):
        p = step.point
        src = [q for q in np.flatnonzero(labels == step.source) if q != p]
        dst = np.flatnonzero(labels == step.target)
        assert max(D[p, src]) > max(D[p, dst])
        _, i, j, to_src = min(
            (-D[min(p, q), max(p, q)], min(p, q), max(p, q), side == "src")
            for side, part in (("src", src), ("dst", dst))
            for q in part
        )
        before = max_ip_signature(space, labels)
        labels[p] = step.target
        after = max_ip_signature(space, labels)
        was, now = bits(before), bits(after)
        first = np.flatnonzero(was != now)[0]
        assert rank[i * n + j] == first
        assert was[first] == to_src and now[first] == (not to_src)
        assert to_src and after < before
        assert replayed_after == after
    assert np.array_equal(labels, out.assignment)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(small_instances())
def test_every_algorithm_is_deterministic_and_stable_on_small_instances(instance):
    space, k, seed = instance
    n = space.n
    # dp reads each unordered pair once, for the MST and the split tree's diameters
    dp_queries = n * (n - 1) // 2
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
            assert queries == n * (n - 1) // 2
        if name == "max":
            assert queries == n * (n - 1) // 2  # the table's pairs(); the search sorts no edges
            _check_signature_certificate(space, np.arange(n) % k, out, trace.steps)
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
        table = TABLES[objective](space, start)
        assert table.most_envious() == most_envious(space, start, objective), objective


def test_max_certificate_holds_on_a_table_skewed_within_the_tolerance():
    # points 1, 2, 3 on an l1 line with the upper triangle scaled by 1 + 1e-10:
    # the loader keeps that triangle in both, so each edge has one length.
    # Read in two orientations, d(1, 2) exceeded d(1, 0) and the search moved
    # point 1 to point 0's cluster, raising the signature
    space = skewed(MetricSpace.from_points(np.array([[1.0], [2.0], [3.0]]), norm="l1"), "upper")
    start = [0, 1, 1]
    out, trace = max_ip_local_search(space, 2, LsConfig(initial=Clustering(start, 2)))
    _check_signature_certificate(space, start, out, trace.steps)
    assert verify_stability(space, out, "max", 1.0).passed


def _spy_row_tiles(monkeypatch):
    """Route every module's ``_row_tiles`` through a spy; returns the set of
    the names of the functions that called it."""
    callers = set()
    real = metric._row_tiles

    def spy(count, width):
        callers.add(sys._getframe(1).f_code.co_name)
        return real(count, width)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "ipstable" and getattr(module, "_row_tiles", None) is real:
            monkeypatch.setattr(module, "_row_tiles", spy)
    return callers


def _runs_and_reports(make):
    """Every algorithm's output, trace counts and queries on a fresh space,
    the exact searches' also from ``make``'s start when it gives one, and
    each objective's verifier report on every output, as bytes."""
    runs = [(name, lambda sp, alg=alg: alg.run(sp, 3, 1, DEFAULT_MAX_STEPS)) for name, alg in ALGORITHMS.items()]
    start = make()[1]
    if start is not None:
        runs += [
            ("natural from start", lambda sp: natural_local_search(sp, 3, LsConfig(initial=start))),
            ("mergesplit from start", lambda sp: merge_split_ls(sp, 3, 1, initial=start)),
            ("median from start", lambda sp: median_ip_cluster(sp, 3, initial=start)),
            ("max from start", lambda sp: max_ip_local_search(sp, 3, LsConfig(initial=start))),
        ]
    out = []
    for name, run in runs:
        space = make()[0]
        got, trace = run(space)
        out.append((name, got.assignment.tobytes(), trace.counts, space.query_counter))
        for objective in ("avg", "median", "max"):
            r = verify_stability(space, got, objective)
            out.append((r.alpha_achieved.hex(), r.witness, r.per_point.tobytes(), r.passed))
    space = make()[0]
    idx = np.arange(space.n)
    out.append(space.peek_block(idx, idx).tobytes())
    return out


@pytest.mark.parametrize("bound", [3 * 90, 1])
def test_a_shrunk_tile_bound_changes_no_output(bound, monkeypatch):
    # With every row tile a few rows high, or one (two points for the
    # objective table), each algorithm and each verifier reads the same
    # bits, charges the same queries and takes the same steps.  The spy shows
    # that the table fill, the estimator, the split tree, the kernel, the
    # mirror and the shortest-path closure all read through the walk.
    makers = (
        lambda: perturbed_planted(90, 3, 0.01, seed=2, moves=6)[::2],
        lambda: (generate(GenSpec("random_shortest_path", n=90, seed=2)).space, None),
    )
    want = [_runs_and_reports(make) for make in makers]
    callers = _spy_row_tiles(monkeypatch)
    monkeypatch.setattr(metric, "_BLOCK_CHUNK_ELEMS", bound)
    assert [_runs_and_reports(make) for make in makers] == want
    assert {"_tiles", "calc_average", "create_tree", "_eval_block", "_mirror_upper", "_shortest_path_closure"} <= callers
