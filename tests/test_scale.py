"""The scale table: each large input runs in a fresh interpreter under an
address-space cap and a timeout.  A row's child is the argv of `python -m
clubcomb`, or a `python -c` program for an input past Linux's 131,072-byte
limit on one argument or a check that calls the library; observe(stdout,
stderr) picks out what the row expects.  README's stated sizes cite these rows.
"""

import random
import resource
import subprocess
import sys

import pytest


def _sequent(slots, term):
    return ",".join(f"x{k}" for k in range(1, slots + 1)) + " |- " + term


def _chain(out, err):
    words = out.split()
    return len(words), words[0], words[-1], err


def _steps(out, err):
    return [line for line in out.splitlines() if line.startswith("steps: ")], err


# The report is a local of main, so it is freed when main returns: a module
# global would make the child's shutdown walk the 2.3M-leaf witness.
_REVERSAL_192 = """
import time
from clubcomb import compiler, poly

def main():
    sequent = poly.parse(%r)
    start = time.perf_counter()
    report = compiler.compile(sequent)
    print(report.verified, report.steps, time.perf_counter() - start)

main()
""" % _sequent(192, " ".join(f"x{k}" for k in range(192, 0, -1)))

_rng = random.Random(1)

ROWS = [
    # ten million faces need gigabytes: factor runs out of its 200 MB, and the
    # report must not need the memory that the failed chain still holds
    ("factor-out-of-memory", ["factor", "1->10000000:[1]"], 200, 60, 4,
     lambda out, err: (out, err), ("", "error: internal error: MemoryError\n")),
    # x1 (x2 (... x1000)): the whole witness comes from the skeleton's
    # contractions, n^2 - 3n + 5 primitives of them
    ("compile-right-comb-1000",
     ["compile", _sequent(1000, "".join(f"x{k} (" for k in range(1, 1000)) + "x1000" + ")" * 999)],
     256, 60, 0, _steps, (["steps: 997005"], "")),
    # 199,999 faces, each recomposed at the finger: a rebuild per generator takes hours
    ("factor-wide-codomain", ["factor", "1->200000:[1]"], 1024, 60, 0,
     _chain, (199999, "d(2,2)", "d(200000,200000)", "")),
    # 29,999 passes of one swap each: full bubble passes take about a minute
    ("factor-long-rotation", "from clubcomb import cli\n"
                             "n = 30000\n"
                             "table = ','.join(map(str, [*range(2, n + 1), 1]))\n"
                             "raise SystemExit(cli.main(['factor', f'{n}->{n}:[{table}]']))",
     1024, 20, 0, _chain, (29999, "t(30000,29999)", "t(30000,1)", "")),
    # every line crosses every other: painting each cell of each line takes seconds
    ("diagram-long-reversal", ["diagram", "10000->10000:[%s]" % ",".join(map(str, range(10000, 0, -1)))],
     1024, 5, 0, lambda out, err: (len(out.splitlines()), out.splitlines()[0], out.splitlines()[9999], err),
     (19999, "o\\        o", "   XXXXXX", "")),
    # an O(cod) set of a 10**9-point codomain fails fast with MemoryError
    # under the cap: classifying must not build the codomain
    ("club-violation-huge-codomain", ["factor", "--club", "id", "1->1000000000:[1]"], 1024, 60, 2,
     lambda out, err: err, "error: 1->1000000000:[1] is not in Id; its minimal club is Minj\n"),
    ("classify-huge-codomain", "from clubcomb.finord import Club, FinFun, contains, minimal_club\n"
                               "f = FinFun(1, 10**9, (1,))\n"
                               "print(minimal_club(f).value, contains(Club.ID, f), contains(Club.MINJ, f))",
     1024, 60, 0, lambda out, err: (out, err), ("minj False True\n", "")),
    # 199,999 degeneracies s(n,1): a rescan per merge would take minutes
    ("factor-recompose-wide-merge", "from clubcomb.finord import Club, FinFun, factor, recompose\n"
                                    "f = FinFun(200000, 1, (1,) * 200000)\n"
                                    "chain = factor(f, Club.MSRJ)\n"
                                    "print(len(chain), recompose(chain, f.dom) == f)",
     1024, 30, 0, lambda out, err: (out, err), ("199999 True\n", "")),
    # compile timed in the child, so that no garbage this suite left behind is scanned
    ("compile-left-reversal-192", _REVERSAL_192, 384, 30, 0,
     lambda out, err: (out.split()[:2], float(out.split()[2]) < 4, err), (["True", "2323325"], True, "")),
    ("compile-left-reversal-128", ["compile", _sequent(128, " ".join(f"x{k}" for k in range(128, 0, -1)))],
     128, 30, 0, _steps, (["steps: 683261"], "")),
    ("compile-random-128-into-64",
     ["compile", _sequent(64, " ".join(f"x{_rng.randint(1, 64)}" for _ in range(128)))],
     128, 30, 0, _steps, (["steps: 469777"], "")),
]


@pytest.mark.parametrize("child, megabytes, seconds, exit_code, observe, expected",
                         [pytest.param(*row[1:], id=row[0]) for row in ROWS])
def test_scale_row(child, megabytes, seconds, exit_code, observe, expected):
    cap = megabytes << 20
    command = ["-m", "clubcomb", *child] if isinstance(child, list) else ["-c", child]
    r = subprocess.run([sys.executable, *command], capture_output=True, text=True, timeout=seconds,
                       preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    assert r.returncode == exit_code, r.stderr[-2000:]
    assert observe(r.stdout, r.stderr) == expected
