"""Session setup shared by every test module.

Many tests start child interpreters: `python -m clubcomb`, `python -c`, and
the scripts under scripts/ and bench/.  For the session, this checkout's
src/ goes first on PYTHONPATH, so every child imports the package from the
tree under test, as the tests themselves do, whether or not a clubcomb is
installed.
"""

import os
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(autouse=True, scope="session")
def _children_import_this_checkout():
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", str(SRC), prepend=os.pathsep)
        yield
