"""One crash-frontier probe: compile and verify one ladder input, in a fresh interpreter.

    python3 bench/probe.py N SHAPE USAGE SEED

Prints one JSON line: {"verified": bool, "steps": int} or {"error": name}.
Run by bench/run.py in its traced verify-ladder run, one process per probe,
so a crash deep in the program cannot take the benchmark down with it.
"""

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import ladder_request  # noqa: E402
from clubcomb import compiler  # noqa: E402


def main() -> None:
    n, shape, usage, seed = int(sys.argv[1]), sys.argv[2], sys.argv[3], sys.argv[4]
    req = ladder_request(n, shape, usage, random.Random(f"{seed}-{n}-{shape}-{usage}"))
    try:
        report = compiler.compile(req.payload)
    except Exception as e:  # the probe's answer is the exception's name
        print(json.dumps({"error": type(e).__name__}))
        return
    print(json.dumps({"verified": report.verified, "steps": report.steps}))


if __name__ == "__main__":
    main()
