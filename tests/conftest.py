import numpy as np
import pytest
from hypothesis import settings

from ipstable.metric import GenSpec, MetricSpace, generate, rng_from_seed

settings.register_profile("suite", deadline=None, max_examples=40)
settings.load_profile("suite")


def line_space(coords):
    """1-D euclidean space from a list of coordinates."""
    return MetricSpace.from_points(np.asarray(coords, dtype=float).reshape(-1, 1))


def random_space(n, seed, kind="euclidean_mixture", k=4, dim=3):
    return generate(GenSpec(kind, n=n, k=min(k, n), dim=dim, seed=seed)).space


def random_matrix_space(n, seed):
    return generate(GenSpec("random_shortest_path", n=n, seed=seed)).space


def table_spaces():
    """A tied integer line (many equal distances, coincident points), random
    coordinates and a shortest-path table."""
    tied = MetricSpace.from_points(np.random.default_rng(3).integers(0, 5, size=(24, 1)).astype(float))
    return [tied, random_space(30, seed=4), random_matrix_space(26, seed=5)]


def skewed(space, triangle="upper", rel=1e-10):
    """space's distance table with one triangle ("upper" or "lower") scaled
    by 1 + rel, rel a scalar or an n x n array, loaded as a table: symmetric
    only within the loader's 1e-9 tolerance.  The loader keeps the upper
    triangle in both, so every read sees one length per pair: a skewed lower
    triangle loads the unskewed table, and a skewed upper one a scaled
    table."""
    n = space.n
    idx = np.arange(n)
    tri = np.triu(np.ones((n, n)), 1) if triangle == "upper" else np.tril(np.ones((n, n)), -1)
    return MetricSpace.from_matrix(space.peek_block(idx, idx) * (1.0 + rel * tri))


@pytest.fixture
def rng():
    return rng_from_seed(1234)


def perturbed_planted(n, k, separation, seed, moves=3):
    """Well-separated instance plus a clustering with a few points reassigned
    into cluster 0; their envy ratio is about 1/separation, far above any
    log-scale alpha, so local searches must take real steps."""
    from ipstable.clustering import Clustering

    out = generate(GenSpec("planted_separated", n=n, k=k, separation=separation, seed=seed))
    a = out.planted.assignment.copy()
    groups = out.planted.members()
    moved = 0
    for depth in range(n):
        for g in range(1, k):
            if moved >= moves:
                break
            if depth < len(groups[g]) and (a == g).sum() > 1:
                a[groups[g][depth]] = 0
                moved += 1
        if moved >= moves:
            break
    return out.space, out.planted, Clustering(a, k)


def gadget_line(w, g, width=200.0):
    """w points ``width`` apart on a line from 1000 hold nearly all the
    potential, and each of g gadgets forces a merge-and-split step: gadget
    j is a tight pair at -100j and -100j + 0.5 whose violator envies a clump
    of 5 coincident points at -100j + 0.001, while its own average sits
    below the swap threshold.  The start labels the wide points 0 and
    gadget j's pair and clump 1 + 2j and 2 + 2j, so n = w + 7g and
    k = 1 + 2g."""
    from ipstable.clustering import Clustering

    coords, labels = [1000.0 + width * i for i in range(w)], [0] * w
    for j in range(g):
        coords += [x - 100.0 * j for x in (0.0, 0.5) + (0.001,) * 5]
        labels += [1 + 2 * j] * 2 + [2 + 2 * j] * 5
    space = MetricSpace.from_points(np.array(coords).reshape(-1, 1))
    return space, Clustering(np.array(labels), 1 + 2 * g)


def merge_heavy_instance(width=200.0):
    """The smallest gadget line: 20 wide points and one gadget."""
    return gadget_line(20, 1, width)
