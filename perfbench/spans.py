"""Outside-in span recorder: wraps ipstable's public functions from outside.

``traced(recorder)`` replaces each traced function at every module attribute
where callers look it up (``kcenter_init`` lives in merge_split, fast and
median_ip, for example), plus the ``MetricSpace`` distance accessors, and
puts every original back on exit, also when the body raises.

For each span name the recorder keeps, in memory:

* ``calls``: completed calls;
* ``total_s``: wall time including child spans;
* ``self_s``: wall time minus the time its child spans cover;
* ``queries``: ``query_counter`` delta of the job's space over the call,
  children included;
* extra counts read off the call's arguments or result (``swaps``,
  ``recomputes``, ``cells``, ...).

Span names are ``<module>.<function>``; the ``MetricSpace`` methods are
``metric.<method>``.  The program itself is not changed.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from ipstable.metric import MetricSpace  # the package import loads every submodule

METHODS = ("full", "block", "row", "peek_block")

FUNCTIONS = {
    "clustering": ("verify_stability",),
    "local_search": ("natural_local_search", "max_ip_local_search"),
    "potential": ("signature_from_order", "edge_order"),
    "merge_split": ("kcenter_init", "merge_split_ls"),
    "median_ip": ("median_ip_cluster",),
    "fast": ("calc_average", "calc_central_point", "calc_potential", "epoch", "fast_ls"),
    "stable_opt": ("mst", "create_tree", "beta", "dp_min_beta", "stable_cluster"),
}


def _search_counts(args, result):
    counts = result[1].counts
    return {"swaps": counts["swap"], "merge_splits": counts.get("merge_split", 0)}


# Extra counts per span, from (positional args, result).
TALLIES = {
    "metric.peek_block": lambda args, result: {"cells": np.size(args[1]) * np.size(args[2])},
    "local_search.natural_local_search": _search_counts,
    "local_search.max_ip_local_search": _search_counts,
    "merge_split.merge_split_ls": _search_counts,
    "median_ip.median_ip_cluster": _search_counts,
    "fast.epoch": lambda args, result: {
        "swaps": result.counts["swap"],
        "recomputes": result.counts["recompute"],
        "merge_splits": result.counts["merge_split"],
    },
    "fast.fast_ls": lambda args, result: {"epochs": result[1].counts["epoch"]},
    "stable_opt.stable_cluster": lambda args, result: {"n2": args[0].n ** 2},
}

# full() reads its table through block(); that read is full's own work.
ABSORBED = {"metric.block": "metric.full"}


class SpanRecorder:
    """Per-name span statistics, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.space = None  # the space whose query counter spans read
        self.stats = defaultdict(lambda: defaultdict(float))
        self._stack = []  # [name, start, child_s, queries_at_start]

    @property
    def current(self):
        return self._stack[-1][0] if self._stack else None

    def _queries(self):
        return self.space.query_counter if self.space is not None else 0

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0, self._queries()])

    def exit(self, counts=None) -> None:
        name, start, child_s, q0 = self._stack.pop()
        duration = self.clock() - start
        st = self.stats[name]
        st["calls"] += 1
        st["total_s"] += duration
        st["self_s"] += duration - child_s
        st["queries"] += self._queries() - q0
        for key, value in (counts or {}).items():
            st[key] += value
        if self._stack:
            self._stack[-1][2] += duration

    @contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()


def _wrap(recorder: SpanRecorder, name: str, fn):
    tally = TALLIES.get(name)
    absorbed_by = ABSORBED.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if absorbed_by is not None and recorder.current == absorbed_by:
            return fn(*args, **kwargs)
        recorder.enter(name)
        counts = None
        try:
            result = fn(*args, **kwargs)
            if tally is not None:
                counts = tally(args, result)
            return result
        finally:
            recorder.exit(counts)

    return wrapper


def patch_points():
    """(owner, attribute, span name) for every lookup site that ``traced`` replaces."""
    points = [(MetricSpace, m, f"metric.{m}") for m in METHODS]
    modules = [m for key, m in sorted(sys.modules.items()) if key == "ipstable" or key.startswith("ipstable.")]
    for module_name, names in FUNCTIONS.items():
        home = sys.modules[f"ipstable.{module_name}"]
        for name in names:
            original = getattr(home, name)
            for module in modules:
                if module.__dict__.get(name) is original:
                    points.append((module, name, f"{module_name}.{name}"))
    return points


@contextmanager
def traced(recorder: SpanRecorder):
    """Route every traced function through ``recorder`` for the duration of the block."""
    saved = []
    wrappers = {}
    try:
        for owner, attr, name in patch_points():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            if id(original) not in wrappers:
                wrappers[id(original)] = _wrap(recorder, name, original)
            setattr(owner, attr, wrappers[id(original)])
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
