"""Output checks for one job, run outside the timed interval.

Each check states the guarantee the paper gives for the job's algorithm:

* natural, mergesplit, fast, median, max: the output passes the stability
  gate at the algorithm's alpha (the job's own ``verify_stability`` report);
* dp: the output's avg alpha is at most its beta, and a planted clustering is
  recovered exactly;
* a bare epoch: the either-or contract.  ``ip_stable`` means the output is
  16*log2(n)-stable; ``potential_dropped`` means the exact potential fell
  below 3/4 of the input's.

``check`` returns the list of failed checks (empty when the job passed) and
the job's alpha ratio: alpha_achieved over the paper's alpha, or over the
output's beta for dp.  A ``potential_dropped`` epoch gets its ratio too; it
says how far from 16*log2(n)-stable the epoch stopped.
"""

from __future__ import annotations

from ipstable.clustering import Clustering, StabilityReport
from ipstable.fast import IP_STABLE, POTENTIAL_DROPPED
from ipstable.local_search import CAP_EXCEEDED
from ipstable.potential import phi_avg_clustering
from ipstable.stable_opt import beta_clustering

from workloads import Job

# avg <= diam and foreign avg >= separation make alpha <= beta exact in real
# arithmetic; the slack only absorbs rounding in the averages.
BETA_SLACK = 1.0 + 1e-9


def same_partition(a: Clustering, b: Clustering) -> bool:
    """Equal as partitions of the points, whatever the cluster labels."""
    return {frozenset(m.tolist()) for m in a.members()} == {frozenset(m.tolist()) for m in b.members()}


def check(job: Job, out: Clustering, status: str, report: StabilityReport) -> tuple[list[str], float | None]:
    space = job.space
    if out.n != space.n:
        return [f"output has {out.n} points, instance has {space.n}"], None
    if status == CAP_EXCEEDED:
        return ["step cap exceeded"], None

    if job.algorithm == "dp":
        beta = beta_clustering(space, out)
        failures = []
        if not report.alpha_achieved <= beta * BETA_SLACK:
            failures.append(f"avg alpha {report.alpha_achieved!r} exceeds beta {beta!r}")
        if job.planted is not None and not same_partition(out, job.planted):
            failures.append("planted clustering not recovered")
        return failures, (report.alpha_achieved / beta if beta > 0 else None)

    ratio = report.alpha_achieved / job.alpha
    if job.algorithm == "epoch" and status == POTENTIAL_DROPPED:
        before = phi_avg_clustering(space, job.start)
        after = phi_avg_clustering(space, out)
        return ([] if after < 0.75 * before else [f"potential_dropped but phi {after!r} >= 3/4 of {before!r}"]), ratio
    if job.algorithm == "epoch" and status != IP_STABLE:
        return [f"unknown epoch status {status!r}"], None
    return ([] if report.passed else [f"alpha {report.alpha_achieved!r} above the gate {job.alpha!r}"]), ratio
