"""Compare a benchmark workload's pool job by job between two checkouts.

    python tests/compare_exact_pool.py OTHER_CHECKOUT [--workload NAME] [--seeds 0 1 2 3]

Runs every job of the given workload's pools (exact-search, the default,
fast-estimate or dp-tree) for the given benchmark seeds twice, once on this
checkout and once on OTHER_CHECKOUT, each in its own interpreter with that
checkout's ``src`` and ``perfbench`` first on the path.  For each seed it
compares the pool's ``workloads.fingerprint``, a digest of every instance
and start, so that a generator change shows as differing instances and not
only as differing jobs.  For each job it compares the output assignment,
the status and the distance queries the job made, and the
``verify_stability`` report of the output that the benchmark makes right
after the job: the bits of ``alpha_achieved``, the witness and ``passed``.
Prints one line per differing seed or job and a summary; exits 0 when every
fingerprint and every job agree and 1 otherwise.

Use it to check that a change meant to leave the searches' outputs alone
(a speed-up, a refactor) really does.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
WORKLOADS = ("exact-search", "fast-estimate", "dp-tree")


def dump(workload: str, seeds: list[int]) -> None:
    """Run the pools on the checkout first on the path; print each seed's
    fingerprint and a record per job as JSON."""
    import ipstable
    from ipstable.clustering import verify_stability
    from workloads import build_pool, fingerprint

    fingerprints, jobs = {}, {}
    for seed in seeds:
        pool = build_pool(workload, seed)
        fingerprints[seed] = fingerprint(pool)
        for draw in pool:
            for job in draw:
                before = job.space.query_counter
                clustering, status = job.call()
                queries = job.space.query_counter - before
                report = verify_stability(job.space, clustering, job.objective, job.alpha)
                jobs[f"{seed}:{job.name}"] = {
                    "assignment": clustering.assignment.tolist(),
                    "status": status,
                    "queries": queries,
                    "alpha_achieved": report.alpha_achieved.hex(),
                    "witness": report.witness and list(report.witness),
                    "passed": report.passed,
                }
    json.dump({"library": ipstable.__file__, "fingerprints": fingerprints, "jobs": jobs}, sys.stdout)


def run_checkout(root: Path, workload: str, seeds: list[int]) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "perfbench")]))
    script = str(Path(__file__).resolve())
    cmd = [sys.executable, script, "--dump", "--workload", workload, "--seeds", *map(str, seeds)]
    out = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True, cwd=root).stdout
    return json.loads(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("other", nargs="?", help="root of the checkout to compare against")
    parser.add_argument("--workload", choices=WORKLOADS, default="exact-search")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3])
    parser.add_argument("--dump", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.dump:
        dump(args.workload, args.seeds)
        return 0
    if args.other is None:
        parser.error("the other checkout is required")
    mine = run_checkout(HERE, args.workload, args.seeds)
    theirs = run_checkout(Path(args.other).resolve(), args.workload, args.seeds)
    print(f"this:  {mine['library']}\nother: {theirs['library']}")
    seeds = sorted(mine["fingerprints"].keys() | theirs["fingerprints"].keys(), key=int)
    moved = [seed for seed in seeds if mine["fingerprints"].get(seed) != theirs["fingerprints"].get(seed)]
    for seed in moved:
        print(f"DIFFERS seed {seed}: instances differ (workloads.fingerprint)")
    names = sorted(mine["jobs"].keys() | theirs["jobs"].keys())
    differ = 0
    for name in names:
        a, b = mine["jobs"].get(name), theirs["jobs"].get(name)
        fields = ["job"] if a is None or b is None else [key for key in a if a[key] != b[key]]
        if fields:
            differ += 1
            print(f"DIFFERS {name}: {', '.join(fields)}")
    print(f"{len(seeds) - len(moved)} of {len(seeds)} seeds' instances identical (fingerprint)")
    print(f"{len(names) - differ} of {len(names)} jobs identical (assignment, status, queries, verify report)")
    return 1 if differ or moved else 0


if __name__ == "__main__":
    sys.exit(main())
