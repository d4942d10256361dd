"""The README's Library example runs and gives the values it states."""

import ast
import re
from pathlib import Path

from clubcomb.comb import format_comb
from clubcomb.poly import App, Var, format_bracketing

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    """The fenced python block of the README's Library section."""
    section = README.read_text().split("\n## Library\n", 1)[1]
    found = re.search(r"```python\n(.*?)```", section, re.S)
    assert found, "no python block under ## Library"
    return found.group(1)


def run_block(source: str) -> tuple[dict, dict]:
    """Run source statement by statement; returns its names and the value of
    each expression statement, keyed by its text."""
    names: dict = {}
    values: dict = {}
    for node in ast.parse(source).body:
        text = ast.get_source_segment(source, node)
        if isinstance(node, ast.Expr):
            values[text] = eval(compile(ast.Expression(node.value), "README.md", "eval"), names)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), names)
    return names, values


def test_readme_library_block_gives_the_values_it_states():
    names, values = run_block(library_block())
    skeleton = values["report.skeleton"]
    assert skeleton == App(Var(1), App(Var(2), Var(3)))
    assert format_bracketing(skeleton) == "(*(**))"
    assert values["report.minimal_club"].value == "srj"
    assert values["report.club_used"].value == "srj"
    assert " ".join(map(str, values["report.generator_chain"])) == "t(3,1) s(2,2)"
    assert values["report.verified"] is True
    assert values["report.steps"] == 9
    assert values["verify(report.output, report.input)"] == (True, 9)
    assert names["constants"] == ("f", "g")
    assert format_comb(names["report"].output) == "B B (I B I) f g"
    assert values["verify(report.output, s, constants=constants)"] == (True, 5)
    assert " ".join(map(str, names["chain"])) == "t(3,1) t(3,2) s(2,1)"
    assert values["chain[-1].dom"] == 3
    assert format_comb(values['normalize(parse_comb("W f x")).term']) == "f x x"
