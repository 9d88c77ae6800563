"""Tests of the benchmark's own machinery.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import numpy as np  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from ipstable import local_search  # noqa: E402
from ipstable.metric import MetricSpace  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_seed_gives_the_same_instances_and_queries(workload):
    first = workloads.build_pool(workload, 3)
    second = workloads.build_pool(workload, 3)
    assert len(first) == workloads.POOL[workload]
    assert workloads.fingerprint(first) == workloads.fingerprint(second)
    assert workloads.fingerprint(workloads.build_pool(workload, 4)) != workloads.fingerprint(first)
    names = [job.name for jobs in first for job in jobs]
    assert len(set(names)) == len(names)  # every draw set has instances of its own

    runs_a = run.run_round(first[-1])
    runs_b = run.run_round(second[-1])
    assert all(not r.failures for r in runs_a + runs_b)
    assert [r.queries for r in runs_a] == [r.queries for r in runs_b]
    assert all(r.queries > 0 for r in runs_a)
    assert [r.assignment for r in runs_a] == [r.assignment for r in runs_b]


def test_perturbed_planted_moves_points_into_cluster_zero():
    space, planted, start = workloads.perturbed_planted(40, 4, 0.01, seed=2, moves=9)
    moved = np.flatnonzero(start.assignment != planted.assignment)
    assert len(moved) == 9
    assert np.all(start.assignment[moved] == 0)
    assert np.all(start.sizes() >= 1)
    # groups 1..3 give up points in turn
    assert np.bincount(planted.assignment[moved], minlength=4).tolist() == [0, 3, 3, 3]


def test_self_time_arithmetic_on_a_toy_nested_call():
    ticks = iter(range(100))
    recorder = spans.SpanRecorder(clock=lambda: float(next(ticks)))
    recorder.space = MetricSpace.from_points(np.zeros((3, 1)))

    def inner():
        recorder.space.charge(7)

    def outer():
        wrapped_inner()
        wrapped_inner()

    wrapped_inner = spans._wrap(recorder, "toy.inner", inner)
    spans._wrap(recorder, "toy.outer", outer)()
    # clock reads: outer enters at 0, inner runs 1..2 and 3..4, outer exits at 5
    assert recorder.stats["toy.inner"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0, "queries": 14}
    assert recorder.stats["toy.outer"] == {"calls": 1, "total_s": 5.0, "self_s": 3.0, "queries": 14}
    total_self = sum(st["self_s"] for st in recorder.stats.values())
    assert total_self == recorder.stats["toy.outer"]["total_s"]


def _lookup_sites():
    return {(owner, attr): owner.__dict__[attr] for owner, attr, _ in spans.patch_points()}


def test_traced_run_puts_every_patched_attribute_back():
    before = _lookup_sites()
    names = {(getattr(owner, "__name__", ""), attr) for owner, attr in before}
    for module in ("ipstable.merge_split", "ipstable.fast", "ipstable.median_ip"):
        assert (module, "kcenter_init") in names
    assert ("ipstable.local_search", "signature_from_order") in names

    space, _, start = workloads.perturbed_planted(60, 3, 0.01, seed=1, moves=4)
    recorder = spans.SpanRecorder()
    recorder.space = space
    with spans.traced(recorder):
        assert all(owner.__dict__[attr] is not fn for (owner, attr), fn in before.items())
        config = local_search.LsConfig(init="given", initial=start)
        local_search.max_ip_local_search(space, 3, config)
    assert _lookup_sites() == before
    assert all(owner.__dict__[attr] is fn for (owner, attr), fn in before.items())

    stats = recorder.stats
    assert stats["local_search.max_ip_local_search"]["swaps"] == 4
    assert stats["potential.signature_from_order"]["calls"] == 8
    assert stats["metric.full"]["queries"] == 2 * 60 * 60
    assert "metric.block" not in stats  # full()'s own read is not a separate span

    with pytest.raises(RuntimeError):
        with spans.traced(spans.SpanRecorder()):
            raise RuntimeError("boom")
    assert _lookup_sites() == before


def test_traced_workload_accounts_for_the_job_time():
    metrics, report, attempted, failed = run.run_workload("exact-search", 0, rounds=2, trace=True)
    assert failed == 0 and attempted == 3 * report["jobs_per_round"]  # warm-up, one untraced, one traced round
    assert set(metrics) == set(run.PER_LAYER)
    assert report["dominant"][0] == "potential.signature_from_order"
    assert math.isclose(report["self_s_total"], report["spans"]["bench.job"]["total_s"], rel_tol=1e-9)
    assert metrics["metric.full.per_job"] > 1
    assert metrics["local_search.max_ip_local_search.swaps"] > 0


def test_oracle_counts_an_unstable_output_as_failed():
    space, _, start = workloads.perturbed_planted(60, 3, 0.01, seed=1, moves=4)
    job = workloads.Job("toy/start", "natural", space, lambda: (start, "converged"), "avg", 2.0 * math.log2(60), start)
    (bad,) = run.run_round([job])
    assert bad.failures and bad.alpha_ratio > 1

    dropped = workloads.Job("toy/epoch", "epoch", space, lambda: (start, "potential_dropped"), "avg", 1.0, start)
    (bad,) = run.run_round([dropped])
    assert len(bad.failures) == 1 and bad.failures[0].startswith("potential_dropped")


def test_tail_leaves_ten_samples_beyond_it():
    assert run.tail(list(range(1, 41))) == (30, 75.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_benchmark_json_lists_the_metrics_run_py_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "dp-tree", "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == run.EXIT_USAGE
    assert proc.stdout == ""
