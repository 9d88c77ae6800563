"""The names ``ipstable`` exports: what the six algorithms, the verifier and
the CLI use.  The test oracles live in ``tests/reference.py``."""

import importlib

import ipstable
from ipstable.clustering import Clustering
from ipstable.metric import MetricSpace
from ipstable.potential import MaxIpSignature

PUBLIC = [
    "ALGORITHMS",
    "MetricSpace",
    "GenSpec",
    "Generated",
    "generate",
    "Clustering",
    "StabilityReport",
    "verify_stability",
    "phi_avg",
    "phi_avg_clustering",
    "LsConfig",
    "LsTrace",
    "Step",
    "natural_local_search",
    "max_ip_local_search",
    "avg_potentials",
    "max_ip_signatures",
    "kcenter_init",
    "merge_split_ls",
    "calc_central_point",
    "calc_average",
    "calc_potential",
    "epoch",
    "fast_ls",
    "beta",
    "mst",
    "create_tree",
    "dp_min_beta",
    "stable_cluster",
    "MedianConfig",
    "median_ip_cluster",
]

# name -> the module that defined it before it moved to tests/reference.py
MOVED = {
    "avg_dist": "clustering",
    "median_dist": "clustering",
    "max_dist": "clustering",
    "phi_sqrt_median_exact": "potential",
    "phi_sqrt_median_surrogate": "potential",
    "max_ip_signature": "potential",
    "split": "merge_split",
    "fast_split": "fast",
    "brute_force_min_beta": "stable_opt",
    "median_split": "median_ip",
    "median_merge_bound": "median_ip",
}


def test_all_lists_exactly_the_public_names():
    assert ipstable.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(ipstable, name) is not None, name


def test_oracles_are_not_in_the_library():
    for name, module in MOVED.items():
        assert not hasattr(ipstable, name), name
        assert not hasattr(importlib.import_module(f"ipstable.{module}"), name), name
    # SplitResult stays in merge_split, whose split cores return it, unexported
    assert not hasattr(ipstable, "SplitResult")
    # methods only tests called are plain functions there too
    for owner, name in ((MetricSpace, "distance"), (Clustering, "singletons"), (Clustering, "from_members"),
                        (MaxIpSignature, "bits")):
        assert not hasattr(owner, name), name
