"""The golden CLI corpus: 20 cases covering every command and exit code 0-3.

CASES holds the 12 cases the acceptance suite replays; JSON_CASES adds 8
--json cases, one per JSON record shape not in CASES (factor and diagram
output, fuel exhaustion, compile in a club other than the minimal one and
with constants, club violations from compile and factor, a parse error).
Each case is (name, argv, expected_exit).  Expected stdout lives in
tests/golden/<name>.out and must match byte for byte.  run_cli runs one
command line in a child interpreter.
"""

import subprocess
import sys

CASES = [
    ("analyze_duplication", ["analyze", "x1,x2 |- x1 x2 x2"], 0),
    ("analyze_swap_json", ["analyze", "--json", "x1,x2 |- x2 x1"], 0),
    ("analyze_duplicate_context", ["analyze", "x, x |- x"], 1),
    ("compile_composition", ["compile", "x1,x2,x3 |- x1 (x2 x3)"], 0),
    ("compile_swap_in_id", ["compile", "--club", "id", "x1,x2 |- x2 x1"], 2),
    ("compile_duplication_json", ["compile", "--json", "x1,x2 |- x1 x1"], 0),
    ("compile_constants", ["compile", "--constants", "x |- a (b x)"], 0),
    ("eval_b_redex", ["eval", "B a b c"], 0),
    ("eval_fuel_exhausted", ["eval", "--fuel", "100", "W W W"], 3),
    ("factor_surjection", ["factor", "--club", "srj", "3->2:[2,1,1]"], 0),
    ("factor_not_in_club", ["factor", "--club", "bij", "2->1:[1,1]"], 2),
    ("diagram_swap", ["diagram", "2->2:[2,1]"], 0),
]

JSON_CASES = [
    ("factor_fun_json", ["factor", "--json", "--club", "fun", "3->2:[2,1,1]"], 0),
    ("diagram_json", ["diagram", "--json", "2->3:[3,1]"], 0),
    ("eval_fuel_exhausted_json", ["eval", "--json", "--fuel", "50", "W W W"], 3),
    ("compile_fun_json", ["compile", "--json", "--club", "fun", "x,y |- y x"], 0),
    ("compile_constants_json", ["compile", "--json", "--constants", "x |- a (b x)"], 0),
    ("compile_swap_in_id_json", ["compile", "--json", "--club", "id", "x1,x2 |- x2 x1"], 2),
    ("factor_not_in_club_json", ["factor", "--json", "--club", "bij", "2->1:[1,1]"], 2),
    ("analyze_undeclared_json", ["analyze", "--json", "x |- y"], 1),
]


def run_cli(argv, **kwargs):
    """Run `python -m clubcomb *argv` in a child interpreter, capturing its output."""
    return subprocess.run([sys.executable, "-m", "clubcomb", *argv], capture_output=True, **kwargs)
