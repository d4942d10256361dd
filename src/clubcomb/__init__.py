"""clubcomb: club-parameterized combinatory completeness.

Analyze which club a polynomial's variable usage inhabits, compile the
polynomial to a closed combinator term over that club's basis drawn from
{B, C, K, W, I}, and verify the result by symbolic reduction.
"""

from . import comb, compiler, errors, finord, poly
from .comb import normalize, parse_comb, verify
from .compiler import CompileReport, compile
from .finord import Club, FinFun, Generator, factor, minimal_club, parse_finfun
from .poly import Sequent, parse

__all__ = [
    "comb",
    "compiler",
    "errors",
    "finord",
    "poly",
    "normalize",
    "parse_comb",
    "verify",
    "CompileReport",
    "compile",
    "Club",
    "FinFun",
    "Generator",
    "factor",
    "minimal_club",
    "parse_finfun",
    "Sequent",
    "parse",
]
