"""Command-line interface: analyze, compile, eval, factor, diagram.

Each invocation is stateless: one command, one input string, flags, and a
deterministic rendering on stdout (errors go to stderr, or into the JSON
object when --json is given).  Exit codes: 0 success, 1 usage or syntax
problems, 2 club violations, 3 fuel exhaustion, 4 internal invariant
failures.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import comb, compiler, finord, poly
from .errors import (
    ArityZero,
    ClubCombError,
    ClubViolation,
    FuelExhausted,
    NotInClub,
    ParseError,
)
from .finord import Club, FinFun

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CLUB = 2
EXIT_FUEL = 3
EXIT_INTERNAL = 4

_CLUB_NAMES = [c.value for c in Club]


def render_diagram(f: FinFun) -> str:
    """Dot-and-line picture of f: domain dots left, codomain dots right.

    Point k of either side sits at row 2(k-1) of its column; each domain
    element contributes one line of '-', '\\' or '/' cells, bent by integer
    (half-up) interpolation across 9 interior columns.  Cells claimed by
    lines of different direction become 'X'.
    """
    inner = 9
    span = inner + 1
    rows = 2 * max(f.dom, f.cod, 1) - 1
    grid = [[" "] * (inner + 2) for _ in range(rows)]

    def paint(r: int, c: int, ch: str) -> None:
        cur = grid[r][c]
        grid[r][c] = ch if cur in (" ", ch) else "X"

    for j in range(1, f.dom + 1):
        r0, r1 = 2 * (j - 1), 2 * (f(j) - 1)
        ch = "-" if r1 == r0 else ("\\" if r1 > r0 else "/")
        prev = r0
        for c in range(1, inner + 1):
            num = r0 * (span - c) + r1 * c
            y = (2 * num + span) // (2 * span)
            for r in range(min(prev, y), max(prev, y) + 1):
                paint(r, c, ch)
            prev = y

    for j in range(1, f.dom + 1):
        grid[2 * (j - 1)][0] = "o"
    for i in range(1, f.cod + 1):
        grid[2 * (i - 1)][inner + 1] = "o"

    return "\n".join("".join(row).rstrip() for row in grid)


class _Parser(argparse.ArgumentParser):
    """argparse subclass whose usage failures exit with code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


_FLAGS = {
    "--club": dict(choices=_CLUB_NAMES, default=None,
                   help="work in this club instead of the minimal one"),
    "--no-verify": dict(action="store_true", help="skip verification of compiled terms"),
    "--fuel": dict(type=int, default=comb.DEFAULT_FUEL,
                   help="reduction step budget (default %(default)s)"),
    "--json": dict(action="store_true", help="emit one JSON object"),
    "--constants": dict(action="store_true",
                        help="treat undeclared identifiers as constants"),
}

_SUBCOMMANDS = {
    "analyze": ("print the usage decomposition and minimal club of a polynomial",
                ("--json", "--constants")),
    "compile": ("compile a polynomial to a combinator term over a club's basis",
                ("--club", "--no-verify", "--fuel", "--json", "--constants")),
    "eval": ("reduce a combinator term to normal form", ("--fuel", "--json")),
    "factor": ("factor a finite function into club generators", ("--club", "--json")),
    "diagram": ("draw a finite function as dots and lines", ("--json",)),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="clubcomb", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument("input", help="the input string")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def _usage_json(u: FinFun) -> dict:
    return {"dom": u.dom, "cod": u.cod, "table": list(u.table)}


def _generators_json(chain) -> list[dict]:
    return [{"kind": g.kind.value, "n": g.n, "i": g.i} for g in chain]


def _chain_text(chain) -> str:
    return " ".join(str(g) for g in chain) if chain else "(identity)"


def _print_json(obj: dict) -> None:
    print(json.dumps(obj))


def _fail(ns, code: int, message: str, minimal: Club | None = None) -> int:
    if ns is not None and getattr(ns, "json", False):
        obj: dict = {"command": ns.command, "input": ns.input, "error": message}
        if minimal is not None:
            obj["minimal_club"] = minimal.value
        _print_json(obj)
    else:
        print(f"error: {message}", file=sys.stderr)
    return code


def _parse_input(ns) -> tuple[poly.Sequent, tuple[str, ...]]:
    if ns.constants:
        return poly.parse_with_constants(ns.input)
    return poly.parse(ns.input), ()


def _cmd_analyze(ns) -> int:
    s, _ = _parse_input(ns)
    dec = poly.usage(s)
    minimal = finord.minimal_club(dec.usage)
    skeleton = poly.format_bracketing(dec.skeleton)
    if ns.json:
        _print_json({
            "command": "analyze",
            "input": ns.input,
            "usage": _usage_json(dec.usage),
            "skeleton": skeleton,
            "minimal_club": minimal.value,
        })
    else:
        print(f"usage: {finord.format_finfun(dec.usage)}")
        print(f"skeleton: {skeleton}")
        print(f"minimal club: {minimal.display}")
        print("diagram:")
        print(render_diagram(dec.usage))
    return EXIT_OK


def _cmd_compile(ns) -> int:
    club = Club(ns.club) if ns.club else None
    verify = not ns.no_verify
    s, constants = _parse_input(ns)
    report = compiler.compile(s, club=club, verify=verify, fuel=ns.fuel, constants=constants)
    if verify and not report.verified:
        return _fail(ns, EXIT_INTERNAL, "internal error: verification failed")
    dec = poly.usage(report.input)
    minimal = finord.minimal_club(report.usage)
    skeleton = poly.format_bracketing(dec.skeleton)
    term = comb.format_comb(report.output)
    if ns.json:
        obj = {
            "command": "compile",
            "input": ns.input,
            "usage": _usage_json(report.usage),
            "skeleton": skeleton,
            "minimal_club": minimal.value,
            "club_used": report.club_used.value,
            "generators": _generators_json(report.generator_chain),
            "term": term,
        }
        if verify:
            obj["verified"] = report.verified
            obj["steps"] = report.steps
        _print_json(obj)
    else:
        print(f"usage: {finord.format_finfun(report.usage)}")
        print(f"skeleton: {skeleton}")
        print(f"minimal club: {minimal.display}")
        print(f"club used: {report.club_used.display}")
        print(f"generators: {_chain_text(report.generator_chain)}")
        print(f"term: {term}")
        if verify:
            print(f"verified: {'true' if report.verified else 'false'}")
            print(f"steps: {report.steps}")
    return EXIT_OK


def _cmd_eval(ns) -> int:
    t = comb.parse_comb(ns.input)
    result = comb.normalize(t, ns.fuel)
    exhausted = result.status is comb.ReductionStatus.FUEL_EXHAUSTED
    term = comb.format_comb(result.term)
    if ns.json:
        obj = {"command": "eval", "input": ns.input, "term": term, "steps": result.steps}
        if exhausted:
            obj["error"] = "FuelExhausted"
        _print_json(obj)
    else:
        print(f"term: {term}")
        print(f"steps: {result.steps}")
        if exhausted:
            print("error: FuelExhausted")
    return EXIT_FUEL if exhausted else EXIT_OK


def _cmd_factor(ns) -> int:
    f = finord.parse_finfun(ns.input)
    minimal = finord.minimal_club(f)
    club = Club(ns.club) if ns.club else minimal
    chain = finord.factor(f, club)
    recomposed = finord.identity(f.dom)
    for g in chain:
        recomposed = finord.compose(finord.make_generator(g), recomposed)
    if recomposed != f:
        return _fail(ns, EXIT_INTERNAL, "internal error: factor chain does not recompose to the input")
    if ns.json:
        _print_json({
            "command": "factor",
            "input": ns.input,
            "usage": _usage_json(f),
            "minimal_club": minimal.value,
            "club_used": club.value,
            "generators": _generators_json(chain),
        })
    else:
        print(_chain_text(chain))
    return EXIT_OK


def _cmd_diagram(ns) -> int:
    f = finord.parse_finfun(ns.input)
    if ns.json:
        _print_json({"command": "diagram", "input": ns.input, "usage": _usage_json(f)})
    else:
        print(render_diagram(f))
    return EXIT_OK


_COMMANDS = {
    "analyze": _cmd_analyze,
    "compile": _cmd_compile,
    "eval": _cmd_eval,
    "factor": _cmd_factor,
    "diagram": _cmd_diagram,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_OK
    if "fuel" in ns and ns.fuel < 1:
        return _fail(ns, EXIT_USAGE, "fuel must be at least 1")
    try:
        return _COMMANDS[ns.command](ns)
    except (ParseError, ArityZero) as e:
        return _fail(ns, EXIT_USAGE, str(e))
    except (NotInClub, ClubViolation) as e:
        return _fail(ns, EXIT_CLUB, str(e), minimal=e.minimal)
    except FuelExhausted as e:
        return _fail(ns, EXIT_FUEL, str(e))
    except (ClubCombError, AssertionError) as e:
        return _fail(ns, EXIT_INTERNAL, f"internal error: {e}")


if __name__ == "__main__":
    sys.exit(main())
