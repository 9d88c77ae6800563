"""ipstable benchmark: closed-loop clustering jobs on three seeded workloads.

Run from the repository root:

    python3 perfbench/run.py --workload exact-search --seed 0 --seconds 20 --trace 0

One process runs one caller: each job starts after the previous one ends.  A
job is one algorithm call on a prepared instance and start, then
``verify_stability`` of its output at the paper's alpha for that algorithm.
The seed fixes a pool of draw sets, each the job list of one round on its
own instances.  A run first makes one untimed warm-up round, then goes
through the pool in turn for a number of rounds set by ``--seconds`` (about
that many seconds of jobs at the commit that defined the benchmark, on two
cores), so every commit does the same work.  The first round of each draw
set goes through the output oracle and later rounds of the set must repeat
it exactly; both checks run outside the timed interval.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run (see
``spans.py``), which alternates untraced and traced rounds so that it can
also report the tracing overhead.  Lines before it give the job table, the
span table and provenance.  Exit code 0: all jobs passed; 1: a job failed
(the result still prints, with ``correct`` false); 2: bad arguments or no
``src/ipstable`` in the working directory (nothing prints).
"""

import time

_T0 = time.perf_counter()  # setup_s counts the imports below

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread: the loop has one caller, and runs stay steady on a shared machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

EXIT_OK, EXIT_FAILED, EXIT_USAGE = 0, 1, 2
SETUP_TRIALS = 3

# About the seconds one round took at the commit that defined the benchmark
# (2 vCPUs of a shared machine, one BLAS thread, while the machine ran at the
# slow end of its speed).  Rounds per run = --seconds / this, at least the
# pool size: at --seconds 30, 12, 25 and 20 rounds, or 96, 75 and 60 timed
# jobs, three to five rounds per draw set.  The counts put the median and
# tail jobs inside a group of jobs of one kind, not on the gap between two.
ROUND_S = {"exact-search": 2.5, "fast-estimate": 1.2, "dp-tree": 1.5}

END_TO_END = {
    "wall_s": "s",
    "job_s.p50": "s",
    "job_s.tail": "s",
    "queries": "count",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "pass_frac": "ratio",
    "alpha_ratio.max": "ratio",
}


def _layer_names():
    names = {}
    for call in ("full", "block", "row"):
        for stat, unit in (("calls", "count"), ("self_s", "s"), ("queries", "count")):
            names[f"metric.{call}.{stat}"] = unit
    names.update({
        "metric.peek_block.calls": "count", "metric.peek_block.self_s": "s", "metric.peek_block.cells": "count",
        "metric.full.per_job": "1/job",
        "clustering.verify_stability.calls": "count", "clustering.verify_stability.self_s": "s",
        "clustering.verify_stability.queries": "count",
        "local_search.natural_local_search.self_s": "s", "local_search.natural_local_search.swaps": "count",
        "local_search.max_ip_local_search.self_s": "s", "local_search.max_ip_local_search.swaps": "count",
        "potential.signature_from_order.calls": "count", "potential.signature_from_order.self_s": "s",
        "potential.edge_order.calls": "count", "potential.edge_order.self_s": "s",
        "potential.edge_order.queries": "count",
        "merge_split.kcenter_init.calls": "count", "merge_split.kcenter_init.self_s": "s",
        "merge_split.kcenter_init.queries": "count",
        "merge_split.merge_split_ls.self_s": "s", "merge_split.merge_split_ls.swaps": "count",
        "merge_split.merge_split_ls.merge_splits": "count",
        "median_ip.median_ip_cluster.self_s": "s", "median_ip.median_ip_cluster.swaps": "count",
        "median_ip.median_ip_cluster.merge_splits": "count",
    })
    for fn in ("calc_average", "calc_central_point", "calc_potential"):
        for stat, unit in (("calls", "count"), ("self_s", "s"), ("queries", "count")):
            names[f"fast.{fn}.{stat}"] = unit
    names.update({
        "fast.epoch.self_s": "s", "fast.epoch.swaps": "count", "fast.epoch.recomputes": "count",
        "fast.epoch.merge_splits": "count",
        "fast.fast_ls.self_s": "s", "fast.fast_ls.epochs": "count",
        "fast.calc_average.per_recompute": "1/recompute",
        "fast.charged_per_cell_read": "query/cell",
        "stable_opt.mst.self_s": "s", "stable_opt.mst.queries": "count",
        "stable_opt.create_tree.self_s": "s",
        "stable_opt.beta.calls": "count", "stable_opt.beta.self_s": "s", "stable_opt.beta.queries": "count",
        "stable_opt.dp_min_beta.self_s": "s",
        "stable_opt.queries_per_n2": "query/n2",
        "bench.job.self_s": "s",
        "bench.traced_wall_s": "s",
        "bench.trace_overhead_s": "s",
    })
    return names


PER_LAYER = _layer_names()


@dataclass
class JobRun:
    name: str
    seconds: float
    queries: int
    status: str = ""
    failures: list = field(default_factory=list)
    alpha_ratio: float | None = None
    assignment: bytes = b""


def tail(times):
    """(value, percentile): the highest percentile with at least 10 samples beyond it.

    With fewer than 11 samples no such percentile exists; the maximum is
    returned with percentile 100.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    rank = n - 10  # 1-based: exactly 10 samples lie beyond it
    return ordered[rank - 1], 100.0 * rank / n


def _run_job(job, clustering_mod, recorder=None):
    """Time the algorithm call plus its verification; count the call's queries."""
    space = job.space
    span = contextlib.nullcontext()
    if recorder is not None:
        recorder.space = space
        span = recorder.span("bench.job")
    with span:
        t0 = time.perf_counter()
        q0 = space.query_counter
        out, status = job.call()
        queries = space.query_counter - q0
        report = clustering_mod.verify_stability(space, out, job.objective, job.alpha)
        seconds = time.perf_counter() - t0
    return out, status, report, JobRun(job.name, seconds, queries, status, assignment=out.assignment.tobytes())


def run_round(jobs, first=None, recorder=None):
    """Run every job once.  Without ``first`` the outputs go through the
    oracle; with it they must reproduce its outputs and query counts exactly."""
    import oracle
    from ipstable import clustering as clustering_mod

    runs = []
    for i, job in enumerate(jobs):
        t0 = time.perf_counter()
        try:
            out, status, report, run = _run_job(job, clustering_mod, recorder)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            runs.append(JobRun(job.name, time.perf_counter() - t0, 0, "error", ["exception"]))
            continue
        if first is None:
            run.failures, run.alpha_ratio = oracle.check(job, out, status, report)
        else:
            ref = first[i]
            run.alpha_ratio = ref.alpha_ratio
            if (run.assignment, run.queries, run.status) != (ref.assignment, ref.queries, ref.status):
                run.failures = ["output or query count differs from the first round"]
        runs.append(run)
    return runs


def _median_stats(per_round):
    """Median over rounds of every (span, stat) value."""
    keys = {(name, stat) for stats in per_round for name, st in stats.items() for stat in st}
    return {
        key: statistics.median(stats.get(key[0], {}).get(key[1], 0.0) for stats in per_round)
        for key in keys
    }


def layer_metrics(stats, jobs_per_round, traced_wall, untraced_wall):
    """Per-layer metric values, per round, from the (span, stat) medians."""

    def get(span, stat):
        return stats.get((span, stat), 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    values = {}
    for name in PER_LAYER:
        span, _, stat = name.rpartition(".")
        values[name] = get(span, stat)
    values["metric.full.per_job"] = ratio(get("metric.full", "calls"), jobs_per_round)
    values["fast.calc_average.per_recompute"] = ratio(get("fast.calc_average", "calls"),
                                                      get("fast.epoch", "recomputes"))
    values["fast.charged_per_cell_read"] = ratio(get("fast.calc_average", "queries"),
                                                 get("metric.peek_block", "cells"))
    values["stable_opt.queries_per_n2"] = ratio(get("stable_opt.stable_cluster", "queries"),
                                                get("stable_opt.stable_cluster", "n2"))
    values["bench.traced_wall_s"] = traced_wall
    values["bench.trace_overhead_s"] = traced_wall - untraced_wall
    return values


def _commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_threads():
    """Threads of the OpenBLAS that numpy loaded, or None when it cannot be asked."""
    import ctypes

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(root: Path) -> dict:
    import numpy
    import scipy

    return {
        "commit": _commit(root),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
    }


def setup(workload, seed):
    """Build the draw sets SETUP_TRIALS times; (pool, median seconds, digests)."""
    import workloads

    times, digests, pool = [], [], None
    for _ in range(SETUP_TRIALS):
        pool = None
        gc.collect()
        t0 = time.perf_counter()
        pool = workloads.build_pool(workload, seed)
        times.append(time.perf_counter() - t0)
        digests.append(workloads.fingerprint(pool))
    return pool, statistics.median(times), digests


def run_workload(workload, seed, rounds, trace=False, import_s=0.0):
    """Set up, warm up, run the rounds, and return (metrics, report, attempted, failed).

    Round r runs draw set r mod the pool size.  The first round of each draw
    set goes through the oracle; every later round of that set must match it.
    A traced run makes pairs of rounds, untraced then traced, on one draw set.
    """
    import spans

    pool, setup_s, digests = setup(workload, seed)
    if trace:
        plan = [(i % len(pool), traced) for i in range(max(1, rounds // 2)) for traced in (False, True)]
    else:
        plan = [(r % len(pool), False) for r in range(rounds)]

    gc.collect()
    warm = run_round(pool[0])  # untimed warm-up of draw set 0, through the oracle
    first = {0: warm}  # draw set -> its oracle-checked round
    rounds_run = []  # (draw set, traced, runs, span stats)
    for d, traced in plan:
        gc.collect()
        if traced:
            recorder = spans.SpanRecorder()
            with spans.traced(recorder):
                runs = run_round(pool[d], first.get(d), recorder)
            stats = {name: dict(st) for name, st in recorder.stats.items()}
        else:
            runs, stats = run_round(pool[d], first.get(d)), None
        first.setdefault(d, runs)
        rounds_run.append((d, traced, runs, stats))

    all_runs = warm + [r for _, _, runs, _ in rounds_run for r in runs]
    attempted = len(all_runs)
    failed = sum(1 for r in all_runs if r.failures)
    if len(set(digests)) != 1:
        failed = attempted
        print(f"error: setups of one seed gave different instances: {digests}", file=sys.stderr)

    def round_wall(runs):
        return sum(r.seconds for r in runs)

    def mean_wall(want_traced):
        """The run's job time over its rounds.  A mean, not a median: the
        machine's speed shifts between states for seconds at a time, and a
        median jumps from one state to the other where a mean moves smoothly."""
        return statistics.fmean(round_wall(runs) for _, traced, runs, _ in rounds_run if traced == want_traced)

    untraced = [(d, runs) for d, traced, runs, _ in rounds_run if not traced]
    job_medians = {
        (d, i): statistics.median(runs[i].seconds for d_, runs in untraced if d_ == d)
        for d in {d for d, _ in untraced}
        for i in range(len(pool[d]))
    }
    times = [r.seconds for _, runs in untraced for r in runs]
    tail_s, tail_pct = tail(times)
    checked = [r for d in sorted(first) for r in first[d]]
    ratios = [r.alpha_ratio for r in checked if r.alpha_ratio is not None]
    untraced_wall = mean_wall(False)
    metrics = {
        "wall_s": untraced_wall,
        "job_s.p50": statistics.median(times),
        "job_s.tail": tail_s,
        "queries": sum(r.queries for r in checked),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": import_s + setup_s,
        "pass_frac": (attempted - failed) / attempted,
        "alpha_ratio.max": max(ratios) if ratios else 0.0,
    }
    report = {
        "workload": workload,
        "seed": seed,
        "rounds": len(untraced),
        "draw_sets_run": len(first),
        "round_wall_s": [round_wall(runs) for _, runs in untraced],
        "jobs_per_round": len(pool[0]),
        "job_s.tail": {"percentile": tail_pct, "jobs": len(times)},
        "import_s": import_s,
        "instances": digests[0],
        "jobs": [
            {
                "name": ref.name,
                "median_s": job_medians.get((d, i)),
                "queries": ref.queries,
                "status": ref.status,
                "alpha_ratio": ref.alpha_ratio,
                "failures": sorted(set(ref.failures).union(
                    *(runs[i].failures for d_, _, runs, _ in rounds_run if d_ == d))),
            }
            for d in sorted(first)
            for i, ref in enumerate(first[d])
        ],
    }
    if trace:
        traced_stats = [stats for _, traced, _, stats in rounds_run if traced]
        traced_wall = mean_wall(True)
        med = _median_stats(traced_stats)
        metrics = layer_metrics(med, len(pool[0]), traced_wall, untraced_wall)
        span_table = {}
        for (name, stat), value in sorted(med.items()):
            span_table.setdefault(name, {})[stat] = value
        report["spans"] = span_table
        report["self_s_total"] = sum(st.get("self_s", 0.0) for st in span_table.values())
        report["dominant"] = sorted(
            (name for name in span_table if name != "bench.job"),
            key=lambda name: -span_table[name].get("self_s", 0.0),
        )[:5]
    return metrics, report, attempted, failed


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("exact-search", "fast-estimate", "dp-tree"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "ipstable" / "__init__.py").is_file():
        print(f"error: no src/ipstable under {root}; run from the repository root", file=sys.stderr)
        return EXIT_USAGE
    sys.path.insert(0, str(src))  # perfbench/ itself is already on the path
    import ipstable

    if Path(ipstable.__file__).resolve().parent != (src / "ipstable").resolve():
        print(f"error: imported ipstable from {ipstable.__file__}, not from {src}", file=sys.stderr)
        return EXIT_USAGE
    import workloads

    import_s = time.perf_counter() - _T0
    rounds = max(workloads.POOL[args.workload], round(args.seconds / ROUND_S[args.workload]))
    metrics, report, attempted, failed = run_workload(
        args.workload, args.seed, rounds, trace=bool(args.trace), import_s=import_s
    )
    units = PER_LAYER if args.trace else END_TO_END
    report["provenance"] = provenance(root)
    for name, value in metrics.items():
        print(f"{name:45s} {value:>16.6g} {units[name]}")
    print("report " + json.dumps(report, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return EXIT_OK if failed == 0 else EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
