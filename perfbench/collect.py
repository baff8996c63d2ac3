"""Run the benchmark over seeds 0-9 and record the baseline and its spread.

Usage, from the root of a checkout::

    python3 perfbench/collect.py

Each (workload, seed) of every workload in ``BENCHMARK.json`` is one
``run.py`` process with the ``run_seconds`` of ``BENCHMARK.json``.  For
every end-to-end metric this prints the median and the quartiles of its
values over the seeds (``statistics.quantiles`` with ``n=4``), and the
spread ``(q3 - q1) / median`` next to a third of the metric's bound, the
level the benchmark is tuned to stay under.  One traced run per workload
at seed 0 follows.  The summary, the wrong-verdict tallies, the
environment and ``perfbench/out/threads.json`` (if present) are written to
``perfbench/baseline.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(10))
TRACE_SEED = 0


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    with open(HERE / "out" / f"{workload}-s{seed}-t{trace}.json", encoding="utf-8") as handle:
        record = json.load(handle)
    return result, record


def summarize(values, bound):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("inf")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound, "values": values}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    environment = None
    for workload in (w["name"] for w in spec["workloads"]):
        values = {name: [] for name in bounds}
        tallies = {}
        all_correct = True
        for seed in SEEDS:
            result, record = run(workload, seed, spec["run_seconds"], 0)
            environment = record["environment"]
            all_correct &= result["correct"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            tallies[seed] = {k: v for k, v in record["tally"].items() if k != "wrong"}
            tallies[seed]["failed"] = result["failed"]
            print(f"{workload} seed {seed}: correct {result['correct']} failed {result['failed']} "
                  f"{tallies[seed]}", flush=True)
        entry = {
            "seeds": SEEDS,
            "all_correct": all_correct,
            "metrics": {name: summarize(values[name], bounds[name]) for name in bounds},
            "tallies": tallies,
        }
        for name, stats in entry["metrics"].items():
            flag = "ok" if stats["spread"] < stats["bound"] / 3 else "WIDE"
            print(f"  {name:16s} median {stats['median']:.6g}  q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  "
                  f"spread {stats['spread']:.4f}  bound/3 {stats['bound'] / 3:.4f}  {flag}", flush=True)
        result, record = run(workload, TRACE_SEED, spec["run_seconds"], 1)
        entry["traced"] = {"seed": TRACE_SEED, "correct": result["correct"],
                           "untraced_wall_s": record["untraced_wall_s"],
                           "untraced_spread_s": record["untraced_spread_s"],
                           "traced_wall_s": record["traced_wall_s"],
                           "metrics": {k: v["value"] for k, v in result["metrics"].items()}}
        print(f"  traced seed {TRACE_SEED}: correct {result['correct']}, overhead "
              f"{result['metrics']['trace.overhead_s']['value']:.4f} s (untraced pass spread "
              f"{record['untraced_spread_s']:.4f} s), m1-m3 coverage "
              f"{result['metrics']['trace.m1_m3_coverage']['value']:.4f}", flush=True)
        summary[workload] = entry
    threads = HERE / "out" / "threads.json"
    baseline = {
        "run_seconds": spec["run_seconds"],
        "environment": environment,
        "workloads": summary,
        "thread_report": json.loads(threads.read_text(encoding="utf-8")) if threads.exists() else None,
    }
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
