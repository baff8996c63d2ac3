"""nullrank benchmark: time-to-verdict and wrong verdicts on certified cases.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload zero_sweep --seed 0 --seconds 30 --trace 0

Workloads are defined in ``harness.py``.  BLAS is pinned to one thread in
this process's environment before numpy is first imported; with the
OpenBLAS default of one thread per CPU the structural methods run several
times slower and the timings stop being comparable.

``--trace 0`` builds and certifies the cases, times set-up in this and
four fresh interpreters, then repeats passes over the cases while another
pass fits in ``--seconds`` and reports the end-to-end metrics (medians
over passes).  ``--trace 1`` runs the same untraced passes (at least two)
and then one traced pass, and reports the per-layer metrics of
``tracing.py`` instead; the traced verdicts must equal the untraced ones.

``attempted`` and ``failed`` count the verdicts of one pass and those
that came back with diagnostics; every pass must give the same verdicts.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(environment, per-pass times, wrong verdicts, and for traced runs the
spans) is written under ``perfbench/out/``.  Exit status is 2 when the
nullrank sources are missing and 3 when a case fails its certificate; no
result line is printed then.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

import harness
import tracing

SETUP_SAMPLES = 5
OUT = Path(__file__).resolve().parent / "out"


def verdicts_agree(args, cases, passes):
    """Every pass gives the first pass's verdicts, and those are acceptable."""
    first = passes[0]
    return harness.verdicts_are_acceptable(args.workload, args.seed, cases, first.verdicts) and all(
        p.verdicts == first.verdicts and p.diagnostics.keys() == first.diagnostics.keys() for p in passes
    )


def untraced_run(nr, cases, args, first_setup):
    samples = [first_setup] + [harness.probe_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
    passes = harness.timed_passes(nr, cases, args.seconds)
    correct = verdicts_agree(args, cases, passes)
    metrics = harness.end_to_end_metrics(cases, passes, statistics.median(samples))
    record = {"setup_samples_s": samples}
    return correct, passes, metrics, record


def traced_run(nr, cases, args):
    untraced = harness.timed_passes(nr, cases, args.seconds)
    if len(untraced) < 2:
        untraced.append(harness.run_pass(nr, cases))
    tracer = tracing.Tracer()
    traced_cases = []
    with tracing.traced(tracer):
        for kind, n, case_seed in harness.case_plan(args.workload, args.seed):
            with tracer.span("setup.case", harness.case_id(kind, n, case_seed)):
                case = harness.build_case(nr, kind, n, case_seed)
                harness.certify(nr, case)
            traced_cases.append(case)
        traced = harness.run_pass(nr, traced_cases, tracer)
    passes = untraced + [traced]
    correct = verdicts_agree(args, cases, passes)
    walls = [p.wall for p in untraced]
    overhead = traced.wall - statistics.median(walls)
    metrics = tracing.layer_metrics(tracer.spans, overhead)
    spans_path = OUT / f"{args.workload}-s{args.seed}-spans.json"
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump({"fields": ["id", "parent", "case", "name", "start", "end", "stats"], "spans": tracer.spans}, handle)
    record = {
        "untraced_wall_s": walls,
        "untraced_spread_s": max(walls) - min(walls),
        "traced_wall_s": traced.wall,
        "spans_file": str(spans_path.relative_to(harness.ROOT)),
    }
    return correct, passes, metrics, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for var in harness.BLAS_THREAD_VARS:
        os.environ[var] = "1"

    try:
        nr, cases, first_setup = harness.setup(args.workload, args.seed)
    except ImportError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    except harness.CertificateError as exc:
        print(f"run.py: certificate failed, nothing timed: {exc}", file=sys.stderr)
        return 3
    OUT.mkdir(exist_ok=True)

    started = time.perf_counter()
    if args.trace:
        correct, passes, metrics, record = traced_run(nr, cases, args)
    else:
        correct, passes, metrics, record = untraced_run(nr, cases, args, first_setup)
    tally = harness.verdict_tally(cases, passes[0].verdicts, passes[0].diagnostics)
    result = {
        "correct": bool(correct),
        "attempted": len(passes[0].verdicts),
        "failed": len(passes[0].diagnostics),
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": harness.environment(),
        "cases": [[case.id, case.n, case.system.n] for case in cases],
        "passes": [{"wall_s": p.wall, "method_s": p.method_s} for p in passes],
        "measured_s": time.perf_counter() - started,
        "tally": tally,
        "diagnostics": {f"{cid}:M{k}": text for (cid, k), text in passes[0].diagnostics.items()},
        **record,
        "result": result,
    }
    with open(OUT / f"{args.workload}-s{args.seed}-t{args.trace}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    wrong = ", ".join(f"M{k} {tally[f'm{k}_wrong']}" for k in harness.METHODS)
    print(f"{args.workload} seed {args.seed}: {len(cases)} cases, {len(passes)} passes, correct {correct}")
    print(f"wrong verdicts: {wrong}; errors {tally['errors']}")
    if args.trace:
        print(f"untraced passes spread over {record['untraced_spread_s']:.4f} s; a smaller overhead is unresolved")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']!r} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
