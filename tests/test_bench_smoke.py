"""The benchmark's smoke check: exact work counts of its smallest rungs.

bench/run.py --smoke runs the smallest rung of each workload and compares the
work it counts (reduction steps, witness sizes, generator counts) with
bench/counts.json, so a change that moves any of them fails here.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_bench_smoke_counts_match():
    r = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--smoke"],
        capture_output=True, text=True, cwd=ROOT,
    )
    assert r.returncode == 0, r.stderr
    assert "smoke: counts match" in r.stdout.splitlines()
