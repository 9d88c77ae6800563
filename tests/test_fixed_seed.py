"""Fixed-seed outputs of all six algorithms, pinned so refactors keep them.

Assignments are written one digit per point.  The planted instance starts
the exact searches from an adversarial clustering (eight points moved into
cluster 0); the shortest-path table runs natural at alpha = 1 and median at
a tight alpha so the searches take steps there too.  The merge-heavy cases
take one merge-and-split step each, and each exact search splits the older
of two clusters that tie on the split key; the fast epoch's merge-and-split
is pinned on the first of them.  The gadget line takes four merge-and-split
steps in each exact search and seven in the fast epoch; its 628-digit
assignments are pinned by digest.
"""

import hashlib

import numpy as np
import pytest

from ipstable import (
    Clustering,
    LsConfig,
    MedianConfig,
    MetricSpace,
    fast_ls,
    max_ip_local_search,
    median_ip_cluster,
    merge_split_ls,
    natural_local_search,
    stable_cluster,
)
from ipstable.fast import IP_STABLE, epoch
from ipstable.metric import GenSpec, generate, rng_from_seed

from conftest import gadget_line, perturbed_planted, skewed

PLANTED = {
    "natural": "000000000000000111111111111111222222222222222333333333333333",
    "mergesplit": "000000000000000111111111111111222222222222222333333333333333",
    "fast": "000000000000000333333333333333222222222222222111111111111111",
    "dp": "000000000000000111111111111111222222222222222333333333333333",
    "median": "000000000000000111111111111111222222222222222333333333333333",
    "max": "000000000000000111111111111111222222222222222333333333333333",
}

PATHS = {
    "natural": "0130313101233131011113301313111133330033",
    "mergesplit": "0030003000000030000123300000001000000000",
    "fast": "0030003000000030000123300000001000000000",
    "dp": "1111111111011111111131111111112111111111",
    "median": "0320012131222121233312231132113122220020",
    "max": "3313331230233310133101133131322333113313",
}


def _digits(clustering):
    return "".join(map(str, clustering.assignment))


def _digest(clustering):
    return hashlib.sha256(_digits(clustering).encode()).hexdigest()


def _planted_runs():
    sp, _, start = perturbed_planted(60, 4, 0.001, seed=5, moves=8)
    given = LsConfig(init="given", initial=start)
    return {
        "natural": lambda: natural_local_search(sp, 4, given)[0],
        "mergesplit": lambda: merge_split_ls(sp, 4, seed=3, initial=start)[0],
        "fast": lambda: fast_ls(sp, 4, seed=3)[0],
        "dp": lambda: stable_cluster(sp, 4),
        "median": lambda: median_ip_cluster(sp, 4, initial=start)[0],
        "max": lambda: max_ip_local_search(sp, 4, given)[0],
    }


def _paths_runs():
    sp = generate(GenSpec("random_shortest_path", n=40, seed=3)).space
    round_robin = Clustering(np.arange(40) % 4, 4)
    tight = MedianConfig(c=1.01, alpha_base=1.0)
    return {
        "natural": lambda: natural_local_search(sp, 4, LsConfig(alpha=1.0))[0],
        "mergesplit": lambda: merge_split_ls(sp, 4, seed=3)[0],
        "fast": lambda: fast_ls(sp, 4, seed=3)[0],
        "dp": lambda: stable_cluster(sp, 4),
        "median": lambda: median_ip_cluster(sp, 4, tight, initial=round_robin)[0],
        "max": lambda: max_ip_local_search(sp, 4, LsConfig())[0],
    }


@pytest.mark.parametrize("alg", list(PLANTED))
def test_planted_points(alg):
    assert _digits(_planted_runs()[alg]()) == PLANTED[alg]


@pytest.mark.parametrize("alg", list(PATHS))
def test_shortest_path_table(alg):
    assert _digits(_paths_runs()[alg]()) == PATHS[alg]


def test_merge_heavy_steps():
    # merge_heavy_instance plus a far copy of its wide cluster: the two wide
    # clusters have the same potential and the split takes the older one
    coords = [1000.0 + 200.0 * i for i in range(20)] + [0.0, 0.5] + [0.001] * 5
    coords += [1e5 + 200.0 * i for i in range(20)]
    sp = MetricSpace.from_points(np.array(coords).reshape(-1, 1))
    bad = Clustering(np.array([0] * 20 + [1] * 2 + [2] * 5 + [3] * 20), 4)
    out, trace = merge_split_ls(sp, 4, seed=0, initial=bad)
    assert trace.counts == {"swap": 0, "merge_split": 1}
    assert _digits(out) == "33223332232223323232111111100000000000000000000"
    res = epoch(sp, bad, rng_from_seed(1))
    assert res.status == IP_STABLE
    assert res.counts == {"swap": 0, "recompute": 6, "merge_split": 1}
    assert _digits(res.clustering) == "33323232333322322222111111100000000000000000000"
    assert sp.query_counter == 28287680360  # merge_split_ls's n(n-1)/2 = 1081, then the epoch's

    # clusters 0 and 3 have the same diameter: the split detaches a point of
    # the older one, cluster 0
    coords = [1e6 + 2e5 * i for i in range(6)] + [0.0, 1.0] + [0.001] * 4
    coords += [3e6 + 2e5 * i for i in range(6)]
    sp = MetricSpace.from_points(np.array(coords).reshape(-1, 1))
    bad = Clustering(np.array([0] * 6 + [1] * 2 + [2] * 4 + [3] * 6), 4)
    out, trace = median_ip_cluster(sp, 4, MedianConfig(), initial=bad)
    assert trace.counts == {"swap": 0, "merge_split": 1}
    assert _digits(out) == "322222111111000000"


def test_gadget_line():
    # 600 wide points and 4 gadgets (n = 628, k = 9): each gadget forces a
    # merge-and-split step, in both searches
    sp, start = gadget_line(600, 4)
    out, trace = merge_split_ls(sp, 9, seed=0, initial=start)
    assert trace.counts == {"swap": 8, "merge_split": 4}
    assert _digest(out) == "af3f1d3d548f283672d947f9c706389e77e9818dbdc12e43ad3f4913461da05d"

    sp, start = gadget_line(600, 4)
    out, trace = median_ip_cluster(sp, 9, initial=start)
    assert trace.counts == {"swap": 0, "merge_split": 4}
    assert _digest(out) == "3029057f57b593837983c95c16b68e430a602a072083a009db160b8576c0dd36"

    # the fast epoch takes seven merge-and-split steps and no swap
    sp, start = gadget_line(600, 4)
    res = epoch(sp, start, rng_from_seed(0))
    assert res.status == IP_STABLE
    assert res.counts == {"swap": 0, "recompute": 19, "merge_split": 7}
    assert _digest(res.clustering) == "ec7fc41f2c749acc6558ab9f3262d5ed27b338372adcd75fe39a91685c272bfb"
    assert sp.query_counter == 11754292465358


def test_median_on_asymmetric_table():
    # values 0..2 on a line: coincident points, swaps and merge-splits
    line = MetricSpace.from_points(np.random.default_rng(5).integers(0, 3, size=(40, 1)).astype(float))
    out, trace = median_ip_cluster(skewed(line), 4, initial=Clustering(np.arange(40) % 4, 4))
    assert trace.counts == {"swap": 20, "merge_split": 2}
    assert _digits(out) == "1121000212200022222120322021211120000102"

    paths = skewed(generate(GenSpec("random_shortest_path", n=40, seed=3)).space)
    tight = MedianConfig(c=1.01, alpha_base=1.0)
    out, trace = median_ip_cluster(paths, 4, tight, initial=Clustering(np.arange(40) % 4, 4))
    assert trace.counts == {"swap": 28, "merge_split": 0}
    assert _digits(out) == PATHS["median"]
