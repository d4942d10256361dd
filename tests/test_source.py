"""Checks on the package source itself."""

import ast
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "clubcomb"


def test_package_source_has_no_assert_statements():
    # python -O strips assert, so no check a user relies on may be one
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources, f"no sources under {PACKAGE}"
    found = [f"{path.name}:{node.lineno}" for path in sources
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_child_interpreters_import_this_checkout():
    # started as the tests start children, with the environment they inherit
    # (tests/conftest.py), not an installed clubcomb, nor none at all
    r = subprocess.run([sys.executable, "-c", "import clubcomb; print(clubcomb.__file__)"],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert Path(r.stdout.strip()).resolve() == PACKAGE / "__init__.py"


def test_starting_the_cli_loads_no_dataclasses_typing_or_inspect():
    # every value type is a finord.Record, so start-up needs none of the
    # modules a dataclass or a typing.NamedTuple pulls in.  The module sets
    # before and after the import are diffed, so a typing that site already
    # loaded at interpreter start does not count
    code = ("import sys; before = set(sys.modules); import clubcomb.cli; "
            "print(*sorted(set(sys.modules) - before))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    added = set(r.stdout.split())
    assert "clubcomb.cli" in added
    assert added.isdisjoint({"dataclasses", "inspect", "typing", "ast", "dis"}), sorted(added)
