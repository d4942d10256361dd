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
