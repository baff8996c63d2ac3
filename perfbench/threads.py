"""One-off report: do verdicts or times change with the BLAS thread count?

Usage, from the root of a checkout::

    python3 perfbench/threads.py

For each workload, at seed 0, one verdict pass runs in two fresh
interpreters: one with BLAS pinned to 1 thread and one with BLAS threads
= ``nproc``.  The thread count is set only in each child's environment.  The report lists
every (case, method) verdict that differs between the two and the ratio of
their pass times, prints it, and writes ``perfbench/out/threads.json``.
It is not a gated metric.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import harness

SEED = 0


def worker(workload):
    nr, cases, _ = harness.setup(workload, SEED)
    result = harness.run_pass(nr, cases)
    print(json.dumps({
        "wall_s": result.wall,
        "method_s": result.method_s,
        "verdicts": {f"{cid}:M{k}": v for (cid, k), v in result.verdicts.items()},
        "openblas_runtime": harness.openblas_runtime(),
    }))


def run_with_threads(workload, threads):
    env = dict(os.environ, **{var: str(threads) for var in harness.BLAS_THREAD_VARS})
    out = subprocess.run(
        [sys.executable, __file__, "--worker", workload],
        env=env, capture_output=True, text=True, timeout=1800, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    if sys.argv[1:2] == ["--worker"]:
        worker(sys.argv[2])
        return
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    report = {"seed": SEED, "nproc": nproc, "workloads": {}}
    for workload in harness.WORKLOADS:
        one = run_with_threads(workload, 1)
        many = run_with_threads(workload, nproc)
        differ = sorted(key for key, v in one["verdicts"].items() if many["verdicts"][key] != v)
        entry = {
            "threads_1": {k: one[k] for k in ("wall_s", "method_s", "openblas_runtime")},
            f"threads_{nproc}": {k: many[k] for k in ("wall_s", "method_s", "openblas_runtime")},
            "time_ratio": many["wall_s"] / one["wall_s"],
            "method_time_ratio": [b / a if a else None for a, b in zip(one["method_s"], many["method_s"])],
            "verdicts": len(one["verdicts"]),
            "differing_verdicts": differ,
        }
        report["workloads"][workload] = entry
        ratios = ", ".join(f"M{k} {r:.2f}" for k, r in enumerate(entry["method_time_ratio"], start=1))
        print(f"{workload} seed {SEED}: {nproc} threads vs 1: pass time x{entry['time_ratio']:.2f} "
              f"({ratios}); {len(differ)} of {entry['verdicts']} verdicts differ {differ}", flush=True)
    out = Path(__file__).resolve().parent / "out"
    out.mkdir(exist_ok=True)
    (out / "threads.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
