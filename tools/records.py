"""Dump and compare the verdict records of the benchmark's workloads.

Usage, from the root of a checkout::

    python3 tools/records.py dump zero_sweep 0-99 zero_sweep.jsonl
    python3 tools/records.py diff parent.jsonl change.jsonl

``dump`` builds and certifies the cases of every workload seed in the
range with perfbench's ``harness`` (``case_plan``, ``build_case``,
``certify``) and asks each method for its verdict on each case, one call
``check_nullrank(case.system, (k,), tol=harness.TOL, seed=case.seed)`` as
a benchmark pass makes it.  It writes one JSON line per (case, method):
the key ``<workload>:<case id>:M<k>``, the verdict, ``repr`` of the
evidence (bit-exact for floats) and the diagnostics.  Timings are not
recorded.  BLAS is pinned to one thread, as ``perfbench/run.py`` does.

``diff`` compares two dumps and lists every key that is missing from one
of them or whose record differs; it exits 1 if there is any, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# Read perfbench's harness without writing bytecode into its directory.
sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import harness  # noqa: E402  (standard library only at import time)


def seed_range(text):
    """``"3"`` or ``"0-99"`` as a range of workload seeds."""
    first, _, last = text.partition("-")
    first, last = int(first), int(last or first)
    if first < 0 or last < first:
        raise argparse.ArgumentTypeError(f"bad seed range {text!r}")
    return range(first, last + 1)


def dump(workload, seeds, out):
    for var in harness.BLAS_THREAD_VARS:
        os.environ[var] = "1"
    nr = harness.import_nullrank()
    count = 0
    with open(out, "w", encoding="utf-8") as handle:
        for seed in seeds:
            for entry in harness.case_plan(workload, seed):
                case = harness.build_case(nr, *entry)
                harness.certify(nr, case)
                for k in harness.METHODS:
                    res = nr.checks.check_nullrank(case.system, (k,), tol=harness.TOL, seed=case.seed)[0]
                    record = {
                        "key": f"{workload}:{case.id}:M{k}",
                        "is_null": bool(res.is_null),
                        "evidence": repr(res.evidence),
                        "diagnostics": res.diagnostics,
                    }
                    handle.write(json.dumps(record) + "\n")
                    count += 1
    print(f"{count} records of {workload} seeds {seeds.start}-{seeds.stop - 1} written to {out}")
    return 0


def load(path):
    with open(path, encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    return {record.pop("key"): record for record in records}


def diff(left, right):
    a, b = load(left), load(right)
    keys = a.keys() | b.keys()
    differ = sorted(key for key in keys if a.get(key) != b.get(key))
    for key in differ:
        print(f"{key}: {a.get(key)} != {b.get(key)}")
    print(f"{len(keys) - len(differ)} of {len(keys)} records identical")
    return 1 if differ else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    dumper = commands.add_parser("dump", help="write the records of a workload's seeds")
    dumper.add_argument("workload", choices=sorted(harness.WORKLOADS))
    dumper.add_argument("seeds", type=seed_range, help="one seed or a range FIRST-LAST")
    dumper.add_argument("out", help="output file, one JSON line per record")
    differ = commands.add_parser("diff", help="compare two dumps")
    differ.add_argument("left")
    differ.add_argument("right")
    args = parser.parse_args(argv)
    if args.command == "dump":
        return dump(args.workload, args.seeds, args.out)
    return diff(args.left, args.right)


if __name__ == "__main__":
    sys.exit(main())
