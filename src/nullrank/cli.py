"""Command-line front end.

Three subcommands::

    nullrank check system.dss [--method all|1..5] [--tol R] [--seed S] [--samples K]
    nullrank rank  system.dss [--tol R] [--seed S] [--samples K]
    nullrank bench [--orders CSV] [--tol R] [--seeds K] [--format text|csv] [--out PATH]

``check`` prints one ``method=<k> isnull=<0|1> ...`` line per requested
method and exits 0 when all of them report null, 1 when any reports
non-null, and 2 on an input problem.  ``rank`` prints the sampled
normal-rank estimate as a decimal integer, or exits 2 with method 5's
diagnostic on stderr when that method fails.  ``bench`` sweeps the
certified-zero cases and prints (or writes) the report.  All randomness
flows from ``--seed``; no environment variables are consulted.
"""

from __future__ import annotations

import argparse
import math
import sys

from .bench import render_report, run_benchmark
from .checks import check_nullrank
from .dssfile import read_system


def _parse_orders(text):
    try:
        orders = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad order list {text!r}")
    if not orders or min(orders) < 0:
        raise argparse.ArgumentTypeError(f"bad order list {text!r}")
    return orders


def _int_at_least(least):
    def parse(text):
        if not (text.isdecimal() and int(text) >= least):
            raise argparse.ArgumentTypeError(f"must be an integer of at least {least}, got {text!r}")
        return int(text)

    return parse


def _tol(text):
    tol = float(text)  # argparse reports a ValueError as a usage error too
    if not (math.isfinite(tol) and tol >= 0):
        raise argparse.ArgumentTypeError(f"must be a finite number of at least 0, got {text!r}")
    return tol


def _add_common(parser):
    parser.add_argument("file", help="realization in .dss format")
    parser.add_argument("--tol", type=_tol, default=1e-7, help="rank/gain threshold")
    parser.add_argument("--seed", type=_int_at_least(0), default=0, help="master random seed")
    parser.add_argument(
        "--samples", type=_int_at_least(1), default=1, help="evaluation points for methods 4 and 5"
    )


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="nullrank",
        description="Decide whether a rational matrix in descriptor form is identically zero.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run zero-ness tests on one realization")
    _add_common(check)
    check.add_argument(
        "--method",
        action="append",
        choices=["all", "1", "2", "3", "4", "5"],
        help="method to run (repeatable; default all)",
    )

    rank = sub.add_parser("rank", help="print the sampled normal-rank estimate")
    _add_common(rank)

    bench = sub.add_parser("bench", help="run the zero-case benchmark sweep")
    bench.add_argument(
        "--orders",
        type=_parse_orders,
        default=[1, 2, 3, 5, 10, 20, 50, 100, 200],
        help="comma-separated list of orders (default 1,2,3,5,10,20,50,100,200)",
    )
    bench.add_argument("--tol", type=_tol, default=1e-7, help="rank/gain threshold")
    bench.add_argument("--seeds", type=_int_at_least(1), default=10, help="cases per order")
    bench.add_argument("--format", choices=["text", "csv"], default="text")
    bench.add_argument("--out", help="write the report here instead of stdout")
    return parser


def _load(path):
    try:
        return read_system(path)
    except (OSError, ValueError) as exc:
        print(f"nullrank: cannot read {path}: {exc}", file=sys.stderr)
        return None


def _run_check(args):
    sys_ = _load(args.file)
    if sys_ is None:
        return 2
    picked = args.method or ["all"]
    methods = (1, 2, 3, 4, 5) if "all" in picked else sorted({int(v) for v in picked})
    results = check_nullrank(
        sys_, methods, tol=args.tol, seed=args.seed, sample_count=args.samples
    )
    for res in results:
        evidence = ",".join(f"{key}={val}" for key, val in res.evidence.items())
        line = (
            f"method={res.method} isnull={int(res.is_null)} "
            f"evidence={evidence} elapsed={res.elapsed:.6f}"
        )
        if res.diagnostics:
            line += f" note={res.diagnostics!r}"
        print(line)
    return 0 if all(res.is_null for res in results) else 1


def _run_rank(args):
    sys_ = _load(args.file)
    if sys_ is None:
        return 2
    res = check_nullrank(sys_, (5,), tol=args.tol, seed=args.seed, sample_count=args.samples)[0]
    if res.diagnostics:
        print(f"nullrank: method 5 failed: {res.diagnostics}", file=sys.stderr)
        return 2
    print(res.evidence["estimated_rank"])
    return 0


def _run_bench(args):
    rows = run_benchmark(args.orders, tol=args.tol, seeds_per_order=args.seeds)
    report = render_report(rows, format=args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as stream:
            stream.write(report)
    else:
        print(report, end="")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {"check": _run_check, "rank": _run_rank, "bench": _run_bench}[args.command]
    return handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
