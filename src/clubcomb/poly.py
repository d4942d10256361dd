"""Polynomials over an applicative system: terms, sequents, and usage analysis.

A polynomial is a sequent  x1,...,xn |- t  where t is built from the context
variables by binary application alone.  Internally variables are positional
(Var 1 .. Var n); surface names exist only in the concrete syntax and are
erased at parse time, so alpha-equivalent inputs parse to equal sequents.

Every sequent splits canonically into a linear skeleton (the bracketing of
its application tree) and a usage function sending each occurrence, numbered
left to right, to the context position it uses.  Which club that usage
function inhabits is exactly what determines the combinator basis needed to
compile the sequent.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import finord
from .errors import (
    ArityMismatch,
    DuplicateContextVariable,
    ParseError,
    UndeclaredVariable,
)
from .finord import Club, FinFun


@dataclass(frozen=True)
class Var:
    index: int  # 1-based position in the context


@dataclass(frozen=True)
class App:
    left: "PolyTerm"
    right: "PolyTerm"


PolyTerm = Var | App


@dataclass(frozen=True)
class Sequent:
    """A term in a context of context_size variables, not all of which need occur."""

    context_size: int
    term: PolyTerm

    def __post_init__(self):
        if self.context_size < 0:
            raise ValueError("context size must be non-negative")
        for idx in _occurrences(self.term):
            if not 1 <= idx <= self.context_size:
                raise ValueError(f"variable {idx} outside context 1..{self.context_size}")

    def __str__(self) -> str:
        return format_sequent(self)


@dataclass(frozen=True)
class Leaf:
    pass


@dataclass(frozen=True)
class Node:
    left: "Bracketing"
    right: "Bracketing"


Bracketing = Leaf | Node

LEAF = Leaf()


def length(b: Bracketing) -> int:
    """Number of leaves."""
    if isinstance(b, Leaf):
        return 1
    return length(b.left) + length(b.right)


@dataclass(frozen=True)
class UsageDecomposition:
    """skeleton: the shape of the application tree; usage: occurrence -> context slot."""

    skeleton: Bracketing
    usage: FinFun


def _occurrences(t: PolyTerm) -> list[int]:
    if isinstance(t, Var):
        return [t.index]
    return _occurrences(t.left) + _occurrences(t.right)


def _skeleton(t: PolyTerm) -> Bracketing:
    if isinstance(t, Var):
        return LEAF
    return Node(_skeleton(t.left), _skeleton(t.right))


def usage(s: Sequent) -> UsageDecomposition:
    """Split s into its linear skeleton and usage function."""
    occ = _occurrences(s.term)
    return UsageDecomposition(
        skeleton=_skeleton(s.term),
        usage=FinFun(len(occ), s.context_size, tuple(occ)),
    )


def linear(b: Bracketing) -> Sequent:
    """The ordered linear polynomial with shape b: occurrence j is variable j."""
    counter = [0]

    def build(node: Bracketing) -> PolyTerm:
        if isinstance(node, Leaf):
            counter[0] += 1
            return Var(counter[0])
        return App(build(node.left), build(node.right))

    term = build(b)
    return Sequent(counter[0], term)


def act(s: Sequent, a: FinFun) -> Sequent:
    """Reindex s along a: each Var i becomes Var a(i), the shape is unchanged."""
    if a.dom != s.context_size:
        raise ArityMismatch(f"action domain {a.dom} differs from context {s.context_size}")

    def go(t: PolyTerm) -> PolyTerm:
        if isinstance(t, Var):
            return Var(a(t.index))
        return App(go(t.left), go(t.right))

    return Sequent(a.cod, go(s.term))


def substitute(outer: Sequent, inners: list[Sequent] | tuple[Sequent, ...]) -> Sequent:
    """Plug one polynomial into each variable of outer.

    The result's context is the concatenation of the inner contexts, so
    occurrences of inner i are shifted past the contexts of inners 1..i-1.
    """
    if len(inners) != outer.context_size:
        raise ArityMismatch(
            f"outer context {outer.context_size} needs as many polynomials, got {len(inners)}"
        )
    offsets = [0]
    for inner in inners:
        offsets.append(offsets[-1] + inner.context_size)

    def shift(t: PolyTerm, by: int) -> PolyTerm:
        if isinstance(t, Var):
            return Var(t.index + by)
        return App(shift(t.left, by), shift(t.right, by))

    def go(t: PolyTerm) -> PolyTerm:
        if isinstance(t, Var):
            return shift(inners[t.index - 1].term, offsets[t.index - 1])
        return App(go(t.left), go(t.right))

    return Sequent(offsets[-1], go(outer.term))


def minimal_club_of(s: Sequent) -> Club:
    return finord.minimal_club(usage(s).usage)


_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_TOKEN_RE = re.compile(r"\s*(\|-|[A-Za-z][A-Za-z0-9_]*|[(),])")


def _tokenize(text: str) -> list[str]:
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
    return tokens


@dataclass(frozen=True)
class _SVar:
    name: str


@dataclass(frozen=True)
class _SApp:
    left: "_SVar | _SApp"
    right: "_SVar | _SApp"


def _parse_surface(text: str) -> tuple[list[str], _SVar | _SApp]:
    """Parse to named form: (context names, surface term)."""
    tokens = _tokenize(text)
    if tokens.count("|-") != 1:
        raise ParseError("expected exactly one '|-'")
    split = tokens.index("|-")
    ctx_tokens, term_tokens = tokens[:split], tokens[split + 1:]

    names: list[str] = []
    expect_name = True
    for tok in ctx_tokens:
        if expect_name:
            if not _IDENT_RE.fullmatch(tok):
                raise ParseError(f"expected a variable name in the context, got {tok!r}")
            if tok in names:
                raise DuplicateContextVariable(f"duplicate context variable: {tok}")
            names.append(tok)
        else:
            if tok != ",":
                raise ParseError(f"expected ',' between context variables, got {tok!r}")
        expect_name = not expect_name
    if ctx_tokens and expect_name:
        raise ParseError("trailing ',' in context")

    pos = [0]

    def peek() -> str | None:
        return term_tokens[pos[0]] if pos[0] < len(term_tokens) else None

    def atom() -> _SVar | _SApp:
        tok = peek()
        if tok == "(":
            pos[0] += 1
            t = term()
            if peek() != ")":
                raise ParseError("missing ')'")
            pos[0] += 1
            return t
        if tok is not None and _IDENT_RE.fullmatch(tok):
            pos[0] += 1
            return _SVar(tok)
        raise ParseError(f"expected a term, got {tok!r}" if tok else "expected a term")

    def term() -> _SVar | _SApp:
        t = atom()
        while True:
            tok = peek()
            if tok is None or tok == ")":
                return t
            if tok == ",":
                raise ParseError("',' not allowed in a term")
            t = _SApp(t, atom())

    result = term()
    if pos[0] != len(term_tokens):
        raise ParseError(f"unexpected token {term_tokens[pos[0]]!r} after term")
    return names, result


def _surface_occurrences(t: _SVar | _SApp) -> list[str]:
    if isinstance(t, _SVar):
        return [t.name]
    return _surface_occurrences(t.left) + _surface_occurrences(t.right)


def parse_with_constants(text: str) -> tuple[Sequent, tuple[str, ...]]:
    """Parse, treating undeclared identifiers as constants.

    Each constant occurrence gets its own fresh context slot, prepended in
    left-to-right occurrence order, so the declared variables shift up by the
    number of constant occurrences.  Returns the extended sequent and the
    constant names in slot order (one entry per occurrence, repeats allowed).
    """
    names, surface = _parse_surface(text)
    constants = [n for n in _surface_occurrences(surface) if n not in names]
    k = len(constants)
    index = {name: k + j + 1 for j, name in enumerate(names)}
    slot = [0]

    def build(t: _SVar | _SApp) -> PolyTerm:
        if isinstance(t, _SVar):
            if t.name in index:
                return Var(index[t.name])
            slot[0] += 1
            return Var(slot[0])
        return App(build(t.left), build(t.right))

    term = build(surface)
    return Sequent(k + len(names), term), tuple(constants)


def parse(text: str) -> Sequent:
    """Parse 'x1,...,xn |- term'; every term identifier must be declared."""
    s, constants = parse_with_constants(text)
    if constants:
        raise UndeclaredVariable(f"undeclared variable: {constants[0]}")
    return s


def format_sequent(s: Sequent) -> str:
    """Render with canonical names x1..xn."""
    names = [f"x{k}" for k in range(1, s.context_size + 1)]

    def fmt(t: PolyTerm, rhs: bool) -> str:
        if isinstance(t, Var):
            return names[t.index - 1]
        body = f"{fmt(t.left, False)} {fmt(t.right, True)}"
        return f"({body})" if rhs else body

    return f"{', '.join(names)} |- {fmt(s.term, False)}"


def format_bracketing(b: Bracketing) -> str:
    """Render a shape: '*' for a leaf, '(lr)' for a node."""
    if isinstance(b, Leaf):
        return "*"
    return f"({format_bracketing(b.left)}{format_bracketing(b.right)})"


def all_bracketings(n: int) -> list[Bracketing]:
    """Every application shape with n leaves (there are Catalan(n-1) of them)."""
    if n < 1:
        return []
    if n == 1:
        return [LEAF]
    out: list[Bracketing] = []
    for k in range(1, n):
        for left in all_bracketings(k):
            for right in all_bracketings(n - k):
                out.append(Node(left, right))
    return out
