"""Command-line interface: analyze, compile, eval, factor, diagram.

Each invocation is stateless: one command, one input string, flags, and a
deterministic rendering on stdout (errors go to stderr, or into the JSON
object when --json is given).  Exit codes: 0 success, 1 usage or syntax
problems or no stdout at all, 2 club violations, 3 fuel exhaustion, 4
internal invariant failures, 141 stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from operator import attrgetter

from . import comb, compiler, finord, poly
from .errors import (
    ArityZero,
    ClubCombError,
    ClubViolation,
    FuelExhausted,
    ParseError,
)
from .finord import Club, FinFun

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CLUB = 2
EXIT_FUEL = 3
EXIT_INTERNAL = 4
EXIT_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a writer its reader left

_CLUB_NAMES = [c.value for c in Club]

# render_diagram draws 2 * max(dom, cod) - 1 rows; past this many points a
# side, diagram refuses the input and analyze leaves the picture out.
DIAGRAM_MAX_POINTS = 10_000


def _diagram_size_error(f: FinFun) -> str | None:
    points = max(f.dom, f.cod)
    if points > DIAGRAM_MAX_POINTS:
        return f"{points} points exceed the diagram limit of {DIAGRAM_MAX_POINTS} a side"
    return None


def render_diagram(f: FinFun) -> str:
    """Dot-and-line picture of f: domain dots left, codomain dots right.

    Point k of either side sits at row 2(k-1) of its column; each domain
    element contributes one line of '-', '\\' or '/' cells, bent by integer
    (half-up) interpolation across 9 interior columns.  Cells claimed by
    lines of different direction become 'X'.

    A line covers one run of rows per interior column, so each column sums,
    per direction, runs starting minus runs ending at each row, and one sweep
    of the sums draws it: O(dom + rows) in all.
    """
    inner = 9
    span = inner + 1
    rows = 2 * max(f.dom, f.cod, 1) - 1
    runs: list[dict[str, list[int]]] = [{} for _ in range(inner)]
    for j, v in enumerate(f.table):
        r0, r1 = 2 * j, 2 * (v - 1)
        ch = "-" if r1 == r0 else ("\\" if r1 > r0 else "/")
        prev = r0
        for c, delta_by_ch in enumerate(runs, 1):
            y = (2 * (r0 * (span - c) + r1 * c) + span) // (2 * span)
            # one array per column and direction, made on its first use
            delta = delta_by_ch.get(ch) or delta_by_ch.setdefault(ch, [0] * (rows + 1))
            delta[min(prev, y)] += 1
            delta[max(prev, y) + 1] -= 1
            prev = y

    grid = [[" "] * (inner + 2) for _ in range(rows)]
    for c, delta_by_ch in enumerate(runs, 1):
        for ch, delta in delta_by_ch.items():
            for row, covered in zip(grid, itertools.accumulate(delta)):
                if covered:
                    row[c] = ch if row[c] == " " else "X"
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
    "--fuel": dict(type=int, default=comb.DEFAULT_FUEL,
                   help=f"reduction step budget (default: {comb.DEFAULT_FUEL})"),
    "--json": dict(action="store_true", help="emit one JSON object"),
    "--constants": dict(action="store_true",
                        help="treat undeclared identifiers as constants"),
}


def _add_command_arguments(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """Give parser the input argument and the flags of command name."""
    parser.add_argument("input", help="the input string")
    for flag in _COMMANDS[name][2]:
        parser.add_argument(flag, **_FLAGS[flag])
    return parser


def _build_parser() -> argparse.ArgumentParser:
    """The five-command parser: a top-level parser with one subparser per command."""
    parser = _Parser(prog="clubcomb", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _) in _COMMANDS.items():
        _add_command_arguments(sub.add_parser(name, help=help_text, description=help_text), name)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse argv as the five-command parser does, building it only when needed.

    When argv[0] names a command, a parser built like that command's
    subparser parses the rest alone, so its help and error text are the
    subparser's.  The top-level parser answers the other cases itself, so
    they build all five: arguments left over (its "unrecognized arguments"),
    no command, an unknown one, or an option before the command.
    """
    if argv and argv[0] in _COMMANDS:
        name = argv[0]
        parser = _Parser(prog=f"clubcomb {name}", description=_COMMANDS[name][1])
        ns, extras = _add_command_arguments(parser, name).parse_known_args(argv[1:])
        if not extras:
            ns.command = name
            return ns
    return _build_parser().parse_args(argv)


def _chain_text(chain) -> str:
    return " ".join(str(g) for g in chain) if chain else "(identity)"


# Every output field, keyed as in the README's JSON schema: its JSON value and
# its text form, both from the value the command computed.
_FIELDS = {
    "usage": (lambda u: {"dom": u.dom, "cod": u.cod, "table": list(u.table)},
              finord.format_finfun),
    "skeleton": (poly.format_bracketing, poly.format_bracketing),
    "minimal_club": (attrgetter("value"), attrgetter("display")),
    "club_used": (attrgetter("value"), attrgetter("display")),
    "generators": (lambda chain: [{"kind": g.kind.value, "n": g.n, "i": g.i} for g in chain],
                   _chain_text),
    "term": (comb.format_comb, comb.format_comb),
    "verified": (bool, json.dumps),
    "steps": (int, str),
    "error": (str, str),
}


def _emit(ns, *text: str, file=None, **fields) -> None:
    """Print one record of ns.command; fields whose value is None are left out.

    With --json: one object of command, input and the fields in the order
    given.  Otherwise the given text lines on file (default stdout), or, when
    none are given, one line `key: text` per field, underscores read as spaces.
    """
    fields = {k: v for k, v in fields.items() if v is not None}
    if ns.json:
        record = {"command": ns.command, "input": ns.input}
        record.update((k, _FIELDS[k][0](v)) for k, v in fields.items())
        print(json.dumps(record))
    else:
        lines = text or [f"{k.replace('_', ' ')}: {_FIELDS[k][1](v)}" for k, v in fields.items()]
        print(*lines, sep="\n", file=file)


def _fail(ns, code: int, message: str, minimal: Club | None = None) -> int:
    _emit(ns, f"error: {message}", file=sys.stderr, error=message, minimal_club=minimal)
    return code


def _parse_input(ns) -> tuple[poly.Sequent, tuple[str, ...]]:
    if ns.constants:
        return poly.parse_with_constants(ns.input)
    return poly.parse(ns.input), ()


def _cmd_analyze(ns) -> int:
    s, _ = _parse_input(ns)
    dec = poly.usage(s)
    _emit(ns, usage=dec.usage, skeleton=dec.skeleton, minimal_club=finord.minimal_club(dec.usage))
    if not ns.json:
        too_big = _diagram_size_error(dec.usage)
        print("diagram:", f"(left out: {too_big})" if too_big else render_diagram(dec.usage), sep="\n")
    return EXIT_OK


def _cmd_compile(ns) -> int:
    club = Club(ns.club) if ns.club else None
    s, constants = _parse_input(ns)
    r = compiler.compile(s, club=club, constants=constants)
    _emit(ns, usage=r.usage, skeleton=r.skeleton, minimal_club=r.minimal_club,
          club_used=r.club_used, generators=r.generator_chain, term=r.output,
          verified=r.verified, steps=r.steps)
    return EXIT_OK


def _cmd_eval(ns) -> int:
    result = comb.normalize(comb.parse_comb(ns.input), ns.fuel)
    exhausted = result.status is comb.ReductionStatus.FUEL_EXHAUSTED
    _emit(ns, term=result.term, steps=result.steps, error="FuelExhausted" if exhausted else None)
    return EXIT_FUEL if exhausted else EXIT_OK


def _cmd_factor(ns) -> int:
    f = finord.parse_finfun(ns.input)
    minimal = finord.minimal_club(f)
    club = Club(ns.club) if ns.club else minimal
    chain = finord.factor(f, club)
    _emit(ns, _chain_text(chain), usage=f, minimal_club=minimal, club_used=club, generators=chain)
    return EXIT_OK


def _cmd_diagram(ns) -> int:
    f = finord.parse_finfun(ns.input)
    too_big = _diagram_size_error(f)
    if too_big:
        return _fail(ns, EXIT_USAGE, too_big)
    _emit(ns, "" if ns.json else render_diagram(f), usage=f)  # --json prints no picture
    return EXIT_OK


# Each subcommand: its handler, its help text and the flags it takes.
_COMMANDS = {
    "analyze": (_cmd_analyze, "print the usage decomposition and minimal club of a polynomial",
                ("--json", "--constants")),
    "compile": (_cmd_compile, "compile a polynomial to a combinator term over a club's basis",
                ("--club", "--json", "--constants")),
    "eval": (_cmd_eval, "reduce a combinator term to normal form", ("--fuel", "--json")),
    "factor": (_cmd_factor, "factor a finite function into club generators", ("--club", "--json")),
    "diagram": (_cmd_diagram, "draw a finite function as dots and lines", ("--json",)),
}


def main(argv: list[str] | None = None) -> int:
    if sys.stdout is None:  # started with fd 1 closed: nowhere to write a result
        print("error: stdout is closed", file=sys.stderr)
        return EXIT_USAGE
    try:
        code = _run(sys.argv[1:] if argv is None else argv)
        sys.stdout.flush()  # so a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader of stdout left (`| head`); nothing failed.  Point stdout
        # at devnull so the flush at exit does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE


def _run(argv: list[str]) -> int:
    try:
        ns = _parse(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_OK
    if getattr(ns, "fuel", 1) < 1:
        return _fail(ns, EXIT_USAGE, "fuel must be at least 1")
    try:
        return _COMMANDS[ns.command][0](ns)
    except BrokenPipeError:  # the reader left, nothing failed: main answers it
        raise
    except (ParseError, ArityZero) as e:
        return _fail(ns, EXIT_USAGE, str(e))
    except ClubViolation as e:
        return _fail(ns, EXIT_CLUB, str(e), minimal=e.minimal)
    except FuelExhausted as e:
        return _fail(ns, EXIT_FUEL, str(e))
    except ClubCombError as e:
        return _fail(ns, EXIT_INTERNAL, f"internal error: {e}")
    except MemoryError:
        # Allocate nothing here: the error's traceback keeps the failed
        # command's frames, and its memory, alive until this clause ends.
        pass
    except Exception as e:  # a bug, or a limit such as RecursionError: one line, no traceback
        return _fail(ns, EXIT_INTERNAL, f"internal error: {type(e).__name__}: {e}")
    return _fail(ns, EXIT_INTERNAL, "internal error: MemoryError")


if __name__ == "__main__":
    sys.exit(main())
