"""Individually preference-stable clustering algorithms and verifiers."""

from .algorithms import ALGORITHMS
from .clustering import Clustering, StabilityReport, avg_dist, max_dist, median_dist, verify_stability
from .fast import calc_average, calc_central_point, calc_potential, epoch, fast_ls, fast_split
from .local_search import LsConfig, LsTrace, Step, max_ip_local_search, natural_local_search
from .median_ip import MedianConfig, median_ip_cluster, median_merge_bound, median_split
from .merge_split import SplitResult, kcenter_init, merge_split_ls, split
from .metric import GenSpec, Generated, MetricSpace, generate
from .potential import (
    max_ip_signature,
    phi_avg,
    phi_avg_clustering,
    phi_sqrt_median_exact,
    phi_sqrt_median_surrogate,
)
from .stable_opt import beta, brute_force_min_beta, create_tree, dp_min_beta, mst, stable_cluster

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "MetricSpace",
    "GenSpec",
    "Generated",
    "generate",
    "Clustering",
    "StabilityReport",
    "avg_dist",
    "median_dist",
    "max_dist",
    "verify_stability",
    "phi_avg",
    "phi_avg_clustering",
    "phi_sqrt_median_exact",
    "phi_sqrt_median_surrogate",
    "max_ip_signature",
    "LsConfig",
    "LsTrace",
    "Step",
    "natural_local_search",
    "max_ip_local_search",
    "SplitResult",
    "kcenter_init",
    "split",
    "merge_split_ls",
    "calc_central_point",
    "calc_average",
    "calc_potential",
    "fast_split",
    "epoch",
    "fast_ls",
    "beta",
    "mst",
    "create_tree",
    "dp_min_beta",
    "stable_cluster",
    "brute_force_min_beta",
    "MedianConfig",
    "median_split",
    "median_merge_bound",
    "median_ip_cluster",
]
