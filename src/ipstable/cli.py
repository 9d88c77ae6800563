"""Command-line surface: generate instances, cluster, verify, and benchmark."""

from __future__ import annotations

import argparse
import os
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

from .algorithms import ALGORITHMS
from .clustering import TABLES, Clustering, check_start, strict_json, verify_stability
from .local_search import CAP_EXCEEDED, DEFAULT_MAX_STEPS
from .metric import (
    GenSpec,
    MetricSpace,
    generate,
    load_matrix_csv,
    load_points_csv,
    save_matrix_csv,
    save_points_csv,
)
from .stable_opt import beta_clustering

EXIT_OK = 0
EXIT_UNSTABLE = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4

EXIT_CODES = """exit codes:
  0  ok
  1  stability check failed (verify with --alpha)
  2  usage error or malformed input
  3  step cap exceeded (the clustering is still written)
  4  internal error (a bug; the traceback is on stderr)"""


class CliError(Exception):
    def __init__(self, message, code=EXIT_USAGE):
        super().__init__(message)
        self.code = code


@contextmanager
def _usage_errors():
    """Report a ValueError raised while checking the input as a usage error."""
    try:
        yield
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _emit(text: str, code: int) -> int:
    """Write text and a newline to stdout, then return code, also when the
    reader has closed stdout early (``ipstable verify ... | head -c 1``)."""
    try:
        sys.stdout.write(text + "\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # Nobody reads the rest.  Point stdout at devnull so the flush at
        # exit does not fail a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


def _load_instance(path: str, fmt: str, norm: str) -> MetricSpace:
    p = Path(path)
    if not p.exists():
        raise CliError(f"instance file not found: {path}")
    try:
        if fmt == "auto":
            with open(p) as fh:
                first = fh.readline()
            fmt = "points" if first.startswith("x0") else "matrix"
        if fmt == "points":
            return load_points_csv(p, norm=norm)
        return load_matrix_csv(p)
    except OSError as exc:
        raise CliError(f"cannot read instance file: {exc}") from exc
    except ValueError as exc:  # a UnicodeDecodeError too
        raise CliError(f"malformed instance file: {exc}") from exc


def _out_dir(path: str) -> Path:
    """Create the output directory, before any work is done."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot create output directory: {exc}") from exc
    return out


def cmd_gen(args) -> int:
    with _usage_errors():
        spec = GenSpec(
            kind=args.kind, n=args.n, k=args.k, dim=args.dim,
            separation=args.separation, seed=args.seed,
        )
        result = generate(spec)  # rejects coordinates too far apart for float64
    out = _out_dir(args.out)
    space = result.space
    if space.coords is not None:
        save_points_csv(out / "points.csv", space.coords)
        written = [str(out / "points.csv")]
    else:
        save_matrix_csv(out / "matrix.csv", space)
        written = [str(out / "matrix.csv")]
    if result.planted is not None:
        (out / "planted.json").write_text(result.planted.to_json())
        written.append(str(out / "planted.json"))
    return _emit("\n".join(written), EXIT_OK)


def cmd_cluster(args) -> int:
    if args.max_steps < 1:
        raise CliError(f"--max-steps must be at least 1, got {args.max_steps}")
    if args.alpha is not None and args.alg != "natural":
        raise CliError("--alpha applies to --alg natural only")
    if args.alpha is not None and not args.alpha >= 1:
        raise CliError(f"--alpha must be at least 1, got {args.alpha}")
    algorithm = ALGORITHMS[args.alg]
    if algorithm.seeded and args.seed is None:
        raise CliError(f"--alg {args.alg} is randomized and requires --seed")
    if args.seed is not None and args.seed < 0:
        raise CliError(f"--seed must be non-negative, got {args.seed}")
    space = _load_instance(args.instance, args.format, args.norm)
    with _usage_errors():
        check_start(space.n, args.k)
    out = _out_dir(args.out)
    queries_before = space.query_counter
    t0 = time.perf_counter()
    alpha = {} if args.alpha is None else {"alpha": args.alpha}  # natural's only
    clustering, trace = algorithm.run(space, args.k, args.seed or 0, args.max_steps, **alpha)
    elapsed = time.perf_counter() - t0
    queries = space.query_counter - queries_before

    report_check = verify_stability(space, clustering, algorithm.objective, trace.alpha)
    run_report = {
        "algorithm": args.alg,
        "k": args.k,
        "n": space.n,
        "seed": args.seed,
        "objective": algorithm.objective,
        "alpha_target": trace.alpha,
        "alpha_achieved": report_check.alpha_achieved,
        "steps": trace.counts,
        "queries": queries,
        "wall_time_s": 0.0 if args.no_time else elapsed,
        "status": trace.status,
    }
    if trace.alpha is None:  # dp certifies beta instead
        run_report["beta_achieved"] = beta_clustering(space, clustering)
    report_text = strict_json(run_report, indent=2)
    (out / "clustering.json").write_text(clustering.to_json())
    (out / "report.json").write_text(report_text)
    return _emit(report_text, EXIT_CAP if trace.status == CAP_EXCEEDED else EXIT_OK)


def cmd_verify(args) -> int:
    if args.alpha is not None and not args.alpha >= 0:
        raise CliError(f"--alpha must be at least 0, got {args.alpha}")
    space = _load_instance(args.instance, args.format, args.norm)
    try:
        clustering = Clustering.from_json(Path(args.clustering).read_text())
    except (OSError, ValueError, KeyError, TypeError, OverflowError) as exc:
        raise CliError(f"malformed clustering file: {exc}") from exc
    if clustering.n != space.n:
        raise CliError(f"assignment length {clustering.n} does not match instance n={space.n}")
    report = verify_stability(space, clustering, args.objective, args.alpha)
    return _emit(report.to_json(), EXIT_UNSTABLE if args.alpha is not None and not report.passed else EXIT_OK)


def cmd_bench(args) -> int:
    for alg in args.alg:
        if alg not in ALGORITHMS:
            raise CliError(f"unknown algorithm {alg!r}")
    if min(args.seeds) < 0:
        raise CliError(f"--seeds must be non-negative, got {min(args.seeds)}")
    with _usage_errors():
        for n in args.n:
            for k in args.k:
                check_start(n, k)
    if args.out:  # checked before the grid runs; an existing file is overwritten
        if Path(args.out).is_dir():
            raise CliError(f"cannot write output file {args.out}: it is a directory")
        if not Path(args.out).parent.is_dir():
            raise CliError(f"cannot write output file {args.out}: its directory does not exist")
    rows = ["n,k,alg,seed,queries,steps,time_s"]
    for alg in args.alg:
        for n in args.n:
            for k in args.k:
                for seed in args.seeds:
                    spec = GenSpec(kind="euclidean_mixture", n=n, k=k, dim=4, seed=seed)
                    space = generate(spec).space
                    before = space.query_counter
                    t0 = time.perf_counter()
                    _, trace = ALGORITHMS[alg].run(space, k, seed, DEFAULT_MAX_STEPS)
                    elapsed = 0.0 if args.no_time else time.perf_counter() - t0
                    queries = space.query_counter - before
                    steps = sum(v for v in trace.counts.values() if isinstance(v, int))
                    rows.append(f"{n},{k},{alg},{seed},{queries},{steps},{elapsed:.6f}")
    text = "\n".join(rows)
    if args.out:
        Path(args.out).write_text(text + "\n")
        return EXIT_OK
    return _emit(text, EXIT_OK)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ipstable", description=__doc__, epilog=EXIT_CODES,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic instance")
    g.add_argument("--kind", required=True,
                   choices=("euclidean_mixture", "random_shortest_path", "planted_separated"))
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--k", type=int, default=1)
    g.add_argument("--dim", type=int, default=2)
    g.add_argument("--separation", type=float, default=0.1)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    c = sub.add_parser("cluster", help="run a clustering algorithm")
    c.add_argument("--in", dest="instance", required=True)
    c.add_argument("--format", choices=("auto", "matrix", "points"), default="auto")
    c.add_argument("--norm", choices=("l2", "l1"), default="l2")
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--alg", required=True, choices=ALGORITHMS)
    c.add_argument("--alpha", type=float, default=None, help="natural only; default: the search's own (2 log n, base 2)")
    c.add_argument("--seed", type=int, default=None)
    c.add_argument("--max-steps", type=int, default=DEFAULT_MAX_STEPS, help="step cap of natural, mergesplit, median and max")
    c.add_argument("--out", required=True)
    c.add_argument("--no-time", action="store_true", help="zero the wall-time field for byte-stable output")
    c.set_defaults(func=cmd_cluster)

    v = sub.add_parser("verify", help="verify a clustering's stability")
    v.add_argument("--in", dest="instance", required=True)
    v.add_argument("--format", choices=("auto", "matrix", "points"), default="auto")
    v.add_argument("--norm", choices=("l2", "l1"), default="l2")
    v.add_argument("--clustering", required=True)
    v.add_argument("--objective", choices=TABLES, default="avg")
    v.add_argument("--alpha", type=float, default=None)
    v.set_defaults(func=cmd_verify)

    b = sub.add_parser("bench", help="query-count benchmark grid")
    b.add_argument("--alg", nargs="+", required=True)
    b.add_argument("--n", type=int, nargs="*", default=[])
    b.add_argument("--k", type=int, nargs="+", default=[10])
    b.add_argument("--seeds", type=int, nargs="+", default=[0])
    b.add_argument("--out", default=None)
    b.add_argument("--no-time", action="store_true", help="zero the time column for byte-stable output")
    b.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except Exception:
        traceback.print_exc()
        print("error: internal error", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
