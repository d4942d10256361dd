"""The README's examples run and give what they state: the Library block's
values, and every `$ clubcomb ...` example's output and exit code."""

import ast
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from clubcomb.comb import format_comb
from clubcomb.poly import App, Var, format_bracketing

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    """The fenced python block of the README's Library section."""
    section = README.read_text().split("\n## Library\n", 1)[1]
    found = re.search(r"```python\n(.*?)```", section, re.S)
    assert found, "no python block under ## Library"
    return found.group(1)


def run_block(source: str) -> tuple[dict, list]:
    """Run source statement by statement; returns its names and the text and
    value of each expression statement, in order."""
    names: dict = {}
    values: list = []
    for node in ast.parse(source).body:
        text = ast.get_source_segment(source, node)
        if isinstance(node, ast.Expr):
            values.append((text, eval(compile(ast.Expression(node.value), "README.md", "eval"), names)))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), names)
    return names, values


def test_readme_library_block_gives_the_values_it_states():
    names, evaluated = run_block(library_block())
    verdicts = [value for text, value in evaluated
                if text == "verify(report.output, report.input, report.steps)"]
    assert verdicts == [(True, 9), (True, 5)]  # the closed witness, with or without constants
    values = dict(evaluated)
    skeleton = values["report.skeleton"]
    assert skeleton == App(Var(1), App(Var(2), Var(3)))
    assert format_bracketing(skeleton) == "(*(**))"
    assert values["report.minimal_club"].value == "srj"
    assert values["report.club_used"].value == "srj"
    assert " ".join(map(str, values["report.generator_chain"])) == "t(3,1) s(2,2)"
    assert values["report.verified"] is True
    assert values["report.steps"] == 9
    assert names["constants"] == ("f", "g")
    assert format_comb(names["report"].output) == "B B (I B I)"
    assert format_comb(values["apply(report.output, [FreeSym(c) for c in constants])"]) == (
        "B B (I B I) f g")
    assert " ".join(map(str, names["chain"])) == "t(3,1) t(3,2) s(2,1)"
    assert values["chain[-1].dom"] == 3
    assert format_comb(values['normalize(parse_comb("W f x")).term']) == "f x x"
    stopped = values['normalize(parse_comb("W W W"), 5)']
    assert (format_comb(stopped.term), stopped.steps, stopped.exhausted) == ("W W W", 5, True)


def shell_examples() -> list[list]:
    """Every `$ clubcomb ...` line of the README's plain fenced blocks: the
    command, the text printed under it, and the exit code a following
    `$ echo $?` shows (None when none follows)."""
    examples: list = []
    fence, reading = None, None  # the open fence's language; what the next line of examples[-1] is
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            fence, reading = (line[3:] if fence is None else None), None
        elif fence != "":
            continue
        elif line.startswith("$ clubcomb "):
            examples.append([line[2:], "", None])
            reading = "output"
        elif line == "$ echo $?":
            reading = "code"
        elif reading == "output":
            examples[-1][1] += line + "\n"
        elif reading == "code":
            examples[-1][2], reading = int(line), None
    return examples


EXAMPLES = shell_examples()


def test_readme_shows_eleven_shell_examples():
    assert len(EXAMPLES) == 11


@pytest.mark.parametrize("command,printed,code", EXAMPLES, ids=[e[0] for e in EXAMPLES])
def test_readme_shell_example_prints_what_it_shows(command, printed, code):
    # a terminal shows stdout and stderr together
    r = subprocess.run([sys.executable, "-m", "clubcomb", *shlex.split(command)[1:]],
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    assert r.stdout == printed
    if code is not None:
        assert r.returncode == code
