"""Exception types shared across the package.

The CLI pipeline's failures derive from ClubCombError, and the CLI maps its
subfamilies to exit codes (a failed internal invariant to the internal-error
code).  A bad argument to a value constructor, normalize or b_power (both in
comb) is a ValueError; a bad generator index is an IndexOutOfRange.
"""

from __future__ import annotations


class ClubCombError(Exception):
    """Base class for all expected failures."""


class ArityMismatch(ClubCombError):
    """Two objects were combined whose arities do not line up."""


class IndexOutOfRange(ClubCombError):
    """An index fell outside the 1-based range it must live in."""


class ClubViolation(ClubCombError):
    """A finite function (such as a polynomial's usage) lies outside the requested club."""

    def __init__(self, message: str, minimal):
        super().__init__(message)
        self.minimal = minimal  # the smallest club that does contain it


class ParseError(ClubCombError):
    """Input text does not match the grammar."""


class VerificationFailed(ClubCombError):
    """A computed result failed its check: a compiled witness its reduction,
    or a generator chain its recomposition to the function it factors."""


class FuelExhausted(ClubCombError):
    """Reduction did not reach a normal form within the step budget; the
    message gives the budget."""
