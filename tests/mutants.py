"""Mutant sweep: does tier-1 fail when a guarantee-bearing line changes?

    python tests/mutants.py [--scratch DIR] [--only M7 M9 ...]

Each mutant in ``MUTANTS`` is (name, file, old line, new line).  For each,
the script copies ``src``, ``tests`` and ``pyproject.toml`` into a fresh
directory under DIR (a temporary directory by default), replaces the one
line of the file whose stripped text is the old line by the new line, with
the old line's indentation, and runs the tier-1 suite there with ``-x``.
It prints one line per mutant: ``caught`` with the first failing test, or
``SURVIVED``.  Exits 2 if an old line is not found exactly once (the
mutant no longer points at the code), 1 if any mutant survived, else 0.

The first twelve are the constants and comparisons behind the paper's
guarantees that ROADMAP item 18 lists; M13 is a bug the searches and the
verifier would share, as both read the objective table's ``_own_of``.
M14 lowers the constant that ``sample_count`` says may only be raised;
M15 to M17 weaken the alphas that fast's epoch, natural and mergesplit
certify.  M18 and M19 break the median table's kept diameters, which set
the median search's split gain and its split: a move's source keeps its
diameter when it should drop it, and a move's target never grows it.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MUTANTS = [
    ("M1", "src/ipstable/merge_split.py",
     "if table._own[p] >= threshold:",
     "if table._own[p] > threshold:"),
    ("M2", "src/ipstable/merge_split.py",
     "threshold = phi / (4.0 * k * math.log2(n)) / (5.0 * n * math.log2(n))",
     "threshold = 2.0 * phi / (4.0 * k * math.log2(n)) / (5.0 * n * math.log2(n))"),
    ("M3", "src/ipstable/fast.py",
     "st.error[c] += (float(st.est[p, c]) + st.error[c]) / sz",
     "st.error[c] += 0.0"),
    ("M4", "src/ipstable/fast.py",
     "if st.error[c] > st.t_star / (100.0 * st.alpha * sz) or st.num_swaps[c] > st.size_hat[c] / 2.0:",
     "if st.error[c] > st.t_star / (100.0 * st.alpha * sz) or st.num_swaps[c] > st.size_hat[c]:"),
    ("M5", "src/ipstable/median_ip.py",
     "if _merge_cost(n, table.table[p, src], table.table[p, dst]) < gain / 2.0:",
     "if _merge_cost(n, table.table[p, src], table.table[p, dst]) < gain:"),
    ("M6", "src/ipstable/merge_split.py",
     "return 1.0 / (4.0 * math.log2(max(n, 2)))",
     "return 1.0 / (8.0 * math.log2(max(n, 2)))"),
    ("M7", "src/ipstable/fast.py",
     "if self.potential() < (1.0 + self.eps) / 2.0 * self.phi_hat:",
     "if self.potential() < (1.0 + self.eps) / 1.5 * self.phi_hat:"),
    ("M8", "src/ipstable/fast.py",
     "accept = 1.0 / (5.0 * math.log2(max(n, 2)))",
     "accept = 1.0 / (6.0 * math.log2(max(n, 2)))"),
    ("M9", "src/ipstable/fast.py",
     "if lhs < self.t_star:",
     "if lhs < self.t_star / 2:"),
    ("M10", "src/ipstable/median_ip.py",
     "detach = i if table._own[i] >= table._own[j] else j",
     "detach = i if table._own[i] > table._own[j] else j"),
    ("M11", "src/ipstable/fast.py",
     "if result.state.potential() >= 7.0 / 8.0 * result.state.phi_hat:",
     "if result.state.potential() >= 3.0 / 4.0 * result.state.phi_hat:"),
    ("M12", "src/ipstable/fast.py",
     "st.t_star = st.phi_hat / (24.0 * clustering.k * math.log2(max(n, 2)) ** 2)",
     "st.t_star = st.phi_hat / (48.0 * clustering.k * math.log2(max(n, 2)) ** 2)"),
    ("M13", "src/ipstable/clustering.py",
     "return self.table[m, c] / (self.sizes[c] - 1)",
     "return self.table[m, c] / self.sizes[c]"),
    ("M14", "src/ipstable/fast.py",
     "return math.ceil(12.0 * math.log(3.0 * n**3) / (eps_prime * eps_prime))",
     "return math.ceil(6.0 * math.log(3.0 * n**3) / (eps_prime * eps_prime))"),
    ("M15", "src/ipstable/fast.py",
     "st = EpochState(space, clustering, rng, EPOCH_EPS, 16.0 * math.log2(max(n, 2)), audit)",
     "st = EpochState(space, clustering, rng, EPOCH_EPS, 32.0 * math.log2(max(n, 2)), audit)"),
    ("M16", "src/ipstable/local_search.py",
     "alpha = config.alpha if config.alpha is not None else 2.0 * math.log2(space.n)",
     "alpha = config.alpha if config.alpha is not None else 4.0 * math.log2(space.n)"),
    ("M17", "src/ipstable/merge_split.py",
     'return search(table, 4.0 * math.log2(n), max_steps, step, ("swap", "merge_split"))',
     'return search(table, 8.0 * math.log2(n), max_steps, step, ("swap", "merge_split"))'),
    ("M18", "src/ipstable/clustering.py",
     "if dist[self.members[src]].max() == self._diameter[src]:  # p ended a farthest pair",
     "if dist[self.members[src]].max() < self._diameter[src]:  # p ended a farthest pair"),
    ("M19", "src/ipstable/clustering.py",
     "self._diameter[dst] = max(self._diameter[dst], float(dist[self.members[dst]].max()))",
     "pass"),
]

TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "--continue-on-collection-errors", "-p", "no:cacheprovider"]


def mutate(path: Path, old: str, new: str) -> bool:
    """Replace the one line of path whose stripped text is old; False if
    there is not exactly one."""
    lines = path.read_text().split("\n")
    hits = [i for i, line in enumerate(lines) if line.strip() == old]
    if len(hits) != 1:
        return False
    line = lines[hits[0]]
    lines[hits[0]] = line[: len(line) - len(line.lstrip())] + new
    path.write_text("\n".join(lines))
    return True


def run(name: str, file: str, old: str, new: str, scratch: Path) -> str:
    """Apply one mutant to a fresh copy and run tier-1 there; the outcome line."""
    copy = scratch / name
    shutil.rmtree(copy, ignore_errors=True)
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, copy / part, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", copy)
    if not mutate(copy / file, old, new):
        return f"{name}: MISSING  old line not found exactly once in {file}"
    env = dict(os.environ, PYTHONPATH="src")
    start = time.perf_counter()
    out = subprocess.run(TIER1, cwd=copy, env=env, capture_output=True, text=True).stdout
    elapsed = time.perf_counter() - start
    shutil.rmtree(copy, ignore_errors=True)
    failed = re.findall(r"^(?:FAILED|ERROR) (\S+)", out, re.M)
    if failed:
        return f"{name}: caught    {elapsed:6.1f} s  {failed[0]}"
    tail = out.strip().splitlines()[-1] if out.strip() else "no output"
    return f"{name}: SURVIVED  {elapsed:6.1f} s  {tail}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--scratch", help="directory for the mutated copies (a temporary one by default)")
    parser.add_argument("--only", nargs="+", help="run only these mutants, by name")
    args = parser.parse_args(argv)
    chosen = [m for m in MUTANTS if args.only is None or m[0] in args.only]
    with tempfile.TemporaryDirectory(dir=args.scratch) as scratch:
        results = []
        for mutant in chosen:
            results.append(run(*mutant, Path(scratch)))
            print(results[-1], flush=True)
    if any(": MISSING" in line for line in results):
        return 2
    return 1 if any(": SURVIVED" in line for line in results) else 0


if __name__ == "__main__":
    sys.exit(main())
