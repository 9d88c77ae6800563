"""Individually preference-stable clustering algorithms and verifiers."""

from .algorithms import ALGORITHMS
from .clustering import Clustering, StabilityReport, verify_stability
from .fast import calc_average, calc_central_point, calc_potential, epoch, fast_ls
from .local_search import (
    LsConfig, LsTrace, Step, avg_potentials, max_ip_local_search, max_ip_signatures, natural_local_search,
)
from .median_ip import MedianConfig, median_ip_cluster
from .merge_split import kcenter_init, merge_split_ls
from .metric import GenSpec, Generated, MetricSpace, generate
from .potential import phi_avg, phi_avg_clustering
from .stable_opt import beta, create_tree, dp_min_beta, mst, stable_cluster

__version__ = "0.1.0"

__all__ = [
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
