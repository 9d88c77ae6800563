"""The searches' fixed-seed outputs, one canonical record per case of a named grid.

    python tests/outputs.py --against CHECKOUT   # compare with another checkout, case by case
    python tests/outputs.py --digests            # rewrite tests/outputs.sha256 from this checkout

``--against`` runs this file's grid, ``CASES``, in one interpreter per checkout
with its ``src`` and ``perfbench`` first on the path, and prints one ``DIFFERS``
line per differing case (exit 1).  Floats are recorded by ``float.hex``, so equal
records mean equal bits.  ``tests/test_outputs.py`` checks ``TIER1``'s digests.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path
from unittest.mock import patch

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tests" / "outputs.sha256"


def canonical(x):
    """x as plain JSON values, every float by its ``.hex()``."""
    if isinstance(x, dict):
        return {str(key): canonical(val) for key, val in x.items()}
    if dataclasses.is_dataclass(x):  # a Step
        x = dataclasses.astuple(x)
    if isinstance(x, (list, tuple, np.ndarray)):
        return [canonical(val) for val in x]
    if isinstance(x, (float, np.floating)):
        return float(x).hex()
    return x.item() if isinstance(x, np.generic) else x


def digest(record) -> str:
    return hashlib.sha256(json.dumps(record, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


@contextlib.contextmanager
def _returns():
    """Patch the searches' entry points so that each call appends what it
    returns: perfbench's jobs hand over only the status."""
    from ipstable import fast, local_search, median_ip, merge_split

    outs = []
    with contextlib.ExitStack() as stack:
        for module, name in [(local_search, "natural_local_search"), (local_search, "max_ip_local_search"),
                             (merge_split, "merge_split_ls"), (median_ip, "median_ip_cluster"),
                             (fast, "fast_ls"), (fast, "epoch")]:
            fn = getattr(module, name)
            stack.enter_context(patch.object(module, name, lambda *a, f=fn, **k: outs.append(f(*a, **k)) or outs[-1]))
        yield outs


def _search(space, run, objective, alpha):
    """Record of ``run() -> (clustering, status)``: its output and queries, the outermost
    search's counts and steps, the output's verify report bits, and beta for dp."""
    from ipstable import stable_opt, verify_stability

    before = space.query_counter
    with _returns() as outs:
        clustering, status = run()
    record = {"assignment": clustering.assignment, "status": status, "queries": space.query_counter - before}
    if outs:  # the outermost call returns last
        trace = outs[-1][1] if isinstance(outs[-1], tuple) else outs[-1]
        record.update(counts=trace.counts, steps=trace.steps)
    report = verify_stability(space, clustering, objective, alpha)
    record.update(alpha_achieved=report.alpha_achieved, witness=report.witness, passed=report.passed,
                  per_point=report.per_point)
    if alpha is None:
        record["beta"] = stable_opt.beta_clustering(space, clustering)
    return canonical(record)


def _pool(workload, seed):
    from workloads import build_pool, fingerprint

    pool = build_pool(workload, seed)
    jobs = {job.name: _search(job.space, job.call, job.objective, job.alpha) for draw in pool for job in draw}
    return {"fingerprint": fingerprint(pool), **jobs}


def _median(seed=None):
    """median from ``perturbed_planted(2000, 10, 0.001, seed, moves=666)``'s
    start, or from the gadget line's, where it takes 4 merge-and-splits."""
    from conftest import gadget_line
    from ipstable import median_ip
    from workloads import perturbed_planted

    space, start = gadget_line(600, 4) if seed is None else perturbed_planted(2000, 10, 0.001, seed, moves=666)[::2]

    def run():
        clustering, trace = median_ip.median_ip_cluster(space, start.k, initial=start)
        return clustering, trace.status

    record = _search(space, run, "median", median_ip.MedianConfig().median_alpha)
    assert seed is not None or record["counts"]["merge_split"] == 4, record["counts"]
    return record


def _cli(gen, cluster=None):
    """``ipstable gen`` and, given cluster's arguments, ``cluster`` and ``verify``
    for every objective: the instance files' sha256 and every output's text."""
    from ipstable.cli import main

    def call(*argv):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main([str(arg) for arg in argv])
        return code, out.getvalue()

    with tempfile.TemporaryDirectory() as tmp:
        inst, run = Path(tmp, "inst"), Path(tmp, "run")
        call("gen", *gen.split(), "--out", inst)
        record = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in inst.iterdir()}
        src = inst / ("points.csv" if "points.csv" in record else "matrix.csv")
        if cluster is not None:
            record["exit"] = call("cluster", "--in", src, *cluster.split(), "--no-time", "--out", run)[0]
            record.update({name: (run / name).read_text() for name in ("clustering.json", "report.json")})
            for obj in ("avg", "median", "max"):  # each verify's exit code and output
                record[obj] = call("verify", "--in", src, "--clustering", run / "clustering.json", "--objective", obj)
    return record


ALGORITHMS = ("natural", "mergesplit", "fast", "dp", "median", "max")
PLANTED = "--kind planted_separated --separation 0.05 --n"
INSTANCES = {
    "planted": f"{PLANTED} 60 --k 4 --seed 1",
    "mixture": "--kind euclidean_mixture --n 80 --k 4 --seed 1",
    "paths": "--kind random_shortest_path --n 60 --seed 1",
    "wide": f"{PLANTED} 400 --k 4 --seed 1",  # median columns wider than their windows
    "tiled": f"{PLANTED} 1200 --k 4 --seed 1",  # column fills in several row tiles
    "paths700": "--kind random_shortest_path --n 700 --seed 1",  # the closure in 93-row tiles
    "paths721": "--kind random_shortest_path --n 721 --seed 1",  # a last tile of one row
    "line": f"{PLANTED} 1000 --k 10 --seed 2",
}
RUNS = [(inst, "--k 4 --seed 1", alg) for inst in ("planted", "mixture", "paths") for alg in ALGORITHMS]
RUNS += [("wide", "--k 4 --seed 1", "median"), ("paths700", "--k 4", "dp"), ("paths721", None, "gen")]
RUNS += [("tiled", "--k 4 --seed 1", alg) for alg in ALGORITHMS if alg != "fast"]
RUNS += [("line", "--k 10 --seed 1", alg) for alg in ("max", "median")]

WORKLOADS = ("exact-search", "fast-estimate", "dp-tree")
CASES = {
    **{f"{w}/{seed}": partial(_pool, w, seed) for w in WORKLOADS for seed in range(4)},
    **{f"median/n2000/{seed}": partial(_median, seed) for seed in (1, 2)},
    "median/gadget": _median,
    **{f"cli/{inst}/{alg}": partial(_cli, INSTANCES[inst], args and f"{args} --alg {alg}") for inst, args, alg in RUNS},
}

# The cases only --against runs: the pools' later seeds and the three slowest
# CLI runs.  Tier-1 recomputes the rest, in about 5 s on a 2-vCPU VM.
AGAINST_ONLY = {f"{w}/{seed}" for w in WORKLOADS for seed in (1, 2, 3)}
AGAINST_ONLY |= {"cli/tiled/max", "cli/paths700/dp", "cli/paths721/gen"}
TIER1 = [name for name in CASES if name not in AGAINST_ONLY]


def _dump(root: Path) -> dict:
    """The checkout's records, from an interpreter of its own."""
    env = dict(os.environ, PYTHONPATH=f"{root / 'src'}{os.pathsep}{root / 'perfbench'}")
    cmd = [sys.executable, __file__, "--dump"]
    return json.loads(subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True, check=True).stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--against", metavar="CHECKOUT", help="root of the checkout to compare against")
    mode.add_argument("--digests", action="store_true", help=f"rewrite {DIGESTS.relative_to(ROOT)}")
    mode.add_argument("--dump", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.dump:
        import ipstable

        json.dump({"library": ipstable.__file__, "cases": {name: case() for name, case in CASES.items()}}, sys.stdout)
    elif args.digests:
        records = _dump(ROOT)["cases"]
        DIGESTS.write_text("".join(f"{digest(records[name])}  {name}\n" for name in CASES))
    else:
        mine, theirs = ThreadPoolExecutor(2).map(_dump, (ROOT, Path(args.against).resolve()))
        differ = {name: [key for key in sorted(mine["cases"][name].keys() | theirs["cases"][name].keys())
                         if mine["cases"][name].get(key) != theirs["cases"][name].get(key)] for name in CASES}
        for name, keys in differ.items():
            if keys:
                print(f"DIFFERS {name}: {', '.join(keys[:5])}{' ...' if len(keys) > 5 else ''}")
        print(f"{sum(not keys for keys in differ.values())} of {len(CASES)} cases identical "
              f"({mine['library']} against {theirs['library']})")
        return 1 if any(differ.values()) else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
