"""Record the wrong verdicts of ``zero_sweep`` at seeds 0-99 in ``known_wrong.json``.

Usage, from the root of a checkout::

    python3 perfbench/known_wrong.py

M1 and M3, the structural methods, reject some certified-zero cases: a
rank decision at ``tol`` does not always see that a stair is zero.  A run
of ``zero_sweep`` at a seed this file covers is correct only if each of
its wrong verdicts is listed here, so a change that makes M1 or M3 wrong
on one more case is caught.  Rounding decides some of these rank
decisions, so the sweep runs in fresh interpreters under each OpenBLAS
kernel of ``CORETYPES`` (set through ``OPENBLAS_CORETYPE``, as a machine
with another CPU would select), and a verdict that is wrong under any of
them is listed.  A wrong verdict of M2, M4 or M5 is not a known limit:
the script stops on one and writes nothing.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import harness

WORKLOAD = "zero_sweep"
SEEDS = range(100)
# The kernel OpenBLAS picks on the recording machine (AVX-512) first, then
# older ones.  On AMD Zen 1-3 OpenBLAS runs the Haswell kernels.
CORETYPES = ("SkylakeX", "Haswell", "Sandybridge")


def worker():
    nr = harness.import_nullrank()
    wrong = []
    for seed in SEEDS:
        cases = harness.build_cases(nr, WORKLOAD, seed)
        verdicts = harness.run_pass(nr, cases).verdicts
        wrong += [f"{case_id}:M{k}" for case_id, k in harness.wrong_verdicts(cases, verdicts)]
    print(json.dumps({"openblas_runtime": harness.openblas_runtime(), "wrong": wrong}))


def sweep(coretype):
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype, **{var: "1" for var in harness.BLAS_THREAD_VARS})
    out = subprocess.run(
        [sys.executable, __file__, "--worker"], env=env, capture_output=True, text=True, timeout=3600, check=True
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    if sys.argv[1:] == ["--worker"]:
        worker()
        return
    wrong = {}
    runtimes = {}
    for coretype in CORETYPES:
        found = sweep(coretype)
        runtimes[coretype] = found["openblas_runtime"]
        for key in found["wrong"]:
            wrong.setdefault(key, []).append(coretype)
        print(f"{coretype}: {len(found['wrong'])} wrong verdicts", flush=True)
    unexpected = sorted(key for key in wrong if int(key.rsplit(":M", 1)[1]) not in harness.LIMITED_ON_ZERO)
    if unexpected:
        sys.exit(f"wrong verdicts outside M1 and M3: {unexpected}")
    varying = {key: kernels for key, kernels in sorted(wrong.items()) if len(kernels) < len(CORETYPES)}
    print(f"{len(wrong)} listed; {len(varying)} depend on the kernel: {varying}")
    record = {
        WORKLOAD: {
            "seeds": [SEEDS.start, SEEDS.stop - 1],
            "coretypes": runtimes,
            "kernel_dependent": varying,
            "wrong": sorted(wrong),
        }
    }
    harness.KNOWN_WRONG.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
