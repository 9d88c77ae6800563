"""Degenerate inputs every algorithm must survive: coincident points,
heavy duplicates, and the smallest legal sizes."""

import numpy as np
import pytest

from ipstable import ALGORITHMS, Clustering, LsConfig, max_ip_local_search, median_ip_cluster, verify_stability
from ipstable.metric import MetricSpace

# every registered algorithm, seeded with 1 where it draws random numbers
ALGS = [(name, lambda sp, k, alg=alg: alg.run(sp, k, 1, 10**6)[0]) for name, alg in ALGORITHMS.items()]


@pytest.mark.parametrize("name,run", ALGS)
def test_all_points_coincident(name, run):
    sp = MetricSpace.from_points(np.zeros((12, 2)))
    out = run(sp, 3)
    assert out.k == 3
    for objective in ("avg", "median", "max"):
        assert verify_stability(sp, out, objective).alpha_achieved == 0.0


@pytest.mark.parametrize("name,run", ALGS)
def test_duplicate_locations(name, run):
    sp = MetricSpace.from_points(np.array([[0.0], [0.0], [0.0], [5.0], [5.0], [9.0]]))
    out = run(sp, 4)
    assert out.k == 4
    assert all(s >= 1 for s in out.sizes())


@pytest.mark.parametrize("name,run", ALGS)
def test_minimum_size(name, run):
    sp = MetricSpace.from_points(np.array([[0.0], [3.0]]))
    out = run(sp, 2)
    assert out.sizes().tolist() == [1, 1]


@pytest.mark.parametrize("name,run", ALGS)
def test_l1_norm_backing(name, run):
    rng = np.random.default_rng(4)
    sp = MetricSpace.from_points(rng.normal(0, 3, (40, 3)), norm="l1")
    out = run(sp, 3)
    assert out.k == 3
    assert np.isfinite(verify_stability(sp, out, "avg").alpha_achieved)


def test_negative_zero_distances_read_as_zero():
    # points 0 and 1 coincide, their distance written -0.0: from the start
    # {0, 2, 3}, {1} point 0 envies the singleton {1} infinitely
    D = np.array([[0, -0.0, 5, 5], [-0.0, 0, 5, 5], [5, 5, 0, 1], [5, 5, 1, 0]])
    sp = MetricSpace.from_matrix(D)
    assert not np.signbit(sp.pairs()).any()
    start = Clustering([0, 1, 0, 0], 2)
    for objective, (out, trace) in (
        ("max", max_ip_local_search(sp, 2, LsConfig(initial=start))),
        ("median", median_ip_cluster(sp, 2, initial=start)),
    ):
        assert verify_stability(sp, out, objective, trace.alpha).passed, objective
