"""Combinator terms over the primitives B, C, K, W, I, and their reduction.

The rewrite rules are the defining equations

    B x y z -> x (y z)     C x y z -> x z y
    K x y   -> x           W x y   -> x y y      I x -> x

applied leftmost-outermost: at each step the single redex chosen is the one
whose head primitive sits leftmost in the printed term, preferring positions
closer to the root.  Reduction is therefore deterministic, and a fuel bound
makes it total (W W W steps to itself forever, so some budget must exist).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from . import poly
from .errors import FuelExhausted, ParseError

DEFAULT_FUEL = 10**6

PRIM_NAMES = ("B", "C", "K", "W", "I")


@dataclass(frozen=True)
class Prim:
    name: str

    def __post_init__(self):
        if self.name not in PRIM_NAMES:
            raise ValueError(f"unknown primitive {self.name!r}")


@dataclass(frozen=True)
class FreeSym:
    """An inert free symbol; never the head of a redex."""

    name: str


@dataclass(frozen=True)
class App:
    left: "CombTerm"
    right: "CombTerm"


CombTerm = Prim | FreeSym | App

B = Prim("B")
C = Prim("C")
K = Prim("K")
W = Prim("W")
I = Prim("I")


def apply(t: CombTerm, args: list[CombTerm] | tuple[CombTerm, ...]) -> CombTerm:
    """Left-nested application t a1 ... an."""
    for a in args:
        t = App(t, a)
    return t


def _spine(t: CombTerm) -> tuple[CombTerm, list[CombTerm]]:
    """Head and argument list of the left spine."""
    args: list[CombTerm] = []
    while isinstance(t, App):
        args.append(t.right)
        t = t.left
    args.reverse()
    return t, args


def _contract(head: CombTerm, args: list[CombTerm]) -> CombTerm | None:
    """Contract the root redex of (head args...), if there is one."""
    if not isinstance(head, Prim):
        return None
    match head.name:
        case "I" if len(args) >= 1:
            return apply(args[0], args[1:])
        case "K" if len(args) >= 2:
            return apply(args[0], args[2:])
        case "W" if len(args) >= 2:
            return apply(App(App(args[0], args[1]), args[1]), args[2:])
        case "B" if len(args) >= 3:
            return apply(App(args[0], App(args[1], args[2])), args[3:])
        case "C" if len(args) >= 3:
            return apply(App(App(args[0], args[2]), args[1]), args[3:])
    return None


def step(t: CombTerm) -> CombTerm | None:
    """One leftmost-outermost step, or None if t is in normal form."""
    head, args = _spine(t)
    contracted = _contract(head, args)
    if contracted is not None:
        return contracted
    # No root redex: the head is inert, so reduce the leftmost reducible
    # argument and rebuild the spine around it.
    for k, a in enumerate(args):
        advanced = step(a)
        if advanced is not None:
            return apply(head, args[:k] + [advanced] + args[k + 1:])
    return None


class ReductionStatus(Enum):
    NORMAL = "normal"
    FUEL_EXHAUSTED = "fuel_exhausted"


@dataclass(frozen=True)
class ReductionResult:
    term: CombTerm
    steps: int
    status: ReductionStatus


def normalize(t: CombTerm, fuel: int = DEFAULT_FUEL) -> ReductionResult:
    """Reduce to normal form, giving up after fuel steps."""
    if fuel < 1:
        raise ValueError("fuel must be at least 1")
    steps = 0
    while True:
        advanced = step(t)
        if advanced is None:
            return ReductionResult(t, steps, ReductionStatus.NORMAL)
        if steps == fuel:
            return ReductionResult(t, steps, ReductionStatus.FUEL_EXHAUSTED)
        t = advanced
        steps += 1


def b_power(n: int) -> CombTerm:
    """The n-fold composition power of B: I, B, BB(B), BB(BB(B)), ...

    Applied to b, a, x1..xn it yields b (a x1 ... xn): it pushes one function
    b past n arguments.
    """
    if n < 0:
        raise ValueError("negative power")
    if n == 0:
        return I
    t: CombTerm = B
    for _ in range(n - 1):
        t = App(App(B, B), t)
    return t


def free_symbols(t: CombTerm) -> frozenset[str]:
    if isinstance(t, FreeSym):
        return frozenset({t.name})
    if isinstance(t, App):
        return free_symbols(t.left) | free_symbols(t.right)
    return frozenset()


def primitives(t: CombTerm) -> frozenset[str]:
    if isinstance(t, Prim):
        return frozenset({t.name})
    if isinstance(t, App):
        return primitives(t.left) | primitives(t.right)
    return frozenset()


def fresh_symbols(count: int, avoid: frozenset[str]) -> list[FreeSym]:
    """count symbols v1..vcount, doubling the prefix letter until clash-free."""
    prefix = "v"
    while any(f"{prefix}{k}" in avoid for k in range(1, count + 1)):
        prefix += "v"
    return [FreeSym(f"{prefix}{k}") for k in range(1, count + 1)]


def poly_image(t: poly.PolyTerm, args: list[CombTerm] | tuple[CombTerm, ...]) -> CombTerm:
    """The combinator term obtained by substituting args[i-1] for Var i."""
    if isinstance(t, poly.Var):
        return args[t.index - 1]
    return App(poly_image(t.left, args), poly_image(t.right, args))


def verify(
    candidate: CombTerm,
    s: poly.Sequent,
    fuel: int = DEFAULT_FUEL,
    constants: tuple[str, ...] = (),
) -> tuple[bool, int]:
    """Does candidate compute the polynomial s?  Returns (verdict, steps).

    The first len(constants) slots of s stand for the named constant symbols,
    which candidate already contains; it is applied to fresh symbols for the
    remaining slots (renamed away from its own free symbols) and its normal
    form compared with s's term on constants and symbols.  Raises
    FuelExhausted rather than returning a verdict when the budget runs out,
    so a timeout is never mistaken for a disproof.
    """
    syms = fresh_symbols(s.context_size - len(constants), free_symbols(candidate))
    expected = poly_image(s.term, [FreeSym(name) for name in constants] + syms)
    result = normalize(apply(candidate, syms), fuel)
    if result.status is ReductionStatus.FUEL_EXHAUSTED:
        raise FuelExhausted(f"no normal form within {result.steps} steps", steps=result.steps)
    return result.term == expected, result.steps


_TOKEN_RE = re.compile(r"\s*([A-Za-z][A-Za-z0-9_]*|[()])")


def parse_comb(text: str) -> CombTerm:
    """Parse juxtaposition syntax: 'B x (y z)'.

    The five uppercase single letters B, C, K, W, I are primitives; any
    other identifier is a free symbol.
    """
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise ParseError(f"unexpected character {rest[0]!r}")
        tokens.append(m.group(1))
        pos = m.end()

    cursor = [0]

    def peek() -> str | None:
        return tokens[cursor[0]] if cursor[0] < len(tokens) else None

    def atom() -> CombTerm:
        tok = peek()
        if tok == "(":
            cursor[0] += 1
            t = term()
            if peek() != ")":
                raise ParseError("missing ')'")
            cursor[0] += 1
            return t
        if tok is not None and tok not in ("(", ")"):
            cursor[0] += 1
            return Prim(tok) if tok in PRIM_NAMES else FreeSym(tok)
        raise ParseError(f"expected a term, got {tok!r}" if tok else "expected a term")

    def term() -> CombTerm:
        t = atom()
        while peek() is not None and peek() != ")":
            t = App(t, atom())
        return t

    result = term()
    if cursor[0] != len(tokens):
        raise ParseError(f"unexpected token {tokens[cursor[0]]!r} after term")
    return result


def format_comb(t: CombTerm) -> str:
    """Minimal-parenthesis rendering; parse_comb(format_comb(t)) == t."""

    def fmt(node: CombTerm, rhs: bool) -> str:
        if isinstance(node, (Prim, FreeSym)):
            return node.name
        body = f"{fmt(node.left, False)} {fmt(node.right, True)}"
        return f"({body})" if rhs else body

    return fmt(t, False)
