"""``tools/records.py``: the per-record check that compares two checkouts."""

import json
import subprocess
import sys
from pathlib import Path

from nullrank.bench import build_zero_case
from nullrank.checks import check_nullrank

TOOL = [sys.executable, str(Path(__file__).resolve().parent.parent / "tools" / "records.py")]


def test_records_dump_and_diff(tmp_path):
    dump = tmp_path / "a.jsonl"
    subprocess.run([*TOOL, "dump", "zero_sweep", "0", str(dump)], check=True, capture_output=True)
    lines = dump.read_text().splitlines()
    assert len(lines) == 60 * 5
    # The first record is the one perfbench's pass asks for.
    first = json.loads(lines[0])
    res = check_nullrank(build_zero_case(1, 0), (1,), tol=1e-7, seed=0)[0]
    assert first == {
        "key": "zero_sweep:z1s0:M1",
        "is_null": res.is_null,
        "evidence": repr(res.evidence),
        "diagnostics": res.diagnostics,
    }
    same = subprocess.run([*TOOL, "diff", str(dump), str(dump)], capture_output=True, text=True)
    assert same.returncode == 0, same.stdout
    changed = tmp_path / "b.jsonl"
    changed.write_text("\n".join([json.dumps({**first, "is_null": not first["is_null"]}), *lines[1:-1]]) + "\n")
    differ = subprocess.run([*TOOL, "diff", str(dump), str(changed)], capture_output=True, text=True)
    assert differ.returncode == 1
    listed = [line.split(":")[:3] for line in differ.stdout.splitlines()[:-1]]
    assert listed == [["zero_sweep", "z1s0", "M1"], ["zero_sweep", "z20s9", "M5"]]
