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

import itertools
import re
from collections.abc import Callable, Iterator
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
    return sum(1 for _ in _leaves(b))


@dataclass(frozen=True)
class UsageDecomposition:
    """skeleton: the shape of the application tree; usage: occurrence -> context slot."""

    skeleton: Bracketing
    usage: FinFun


def _leaves(t, app=(App, Node)) -> Iterator:
    """The leaves of a binary tree whose inner nodes are of type app, left to right."""
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, app):
            stack.append(node.right)
            stack.append(node.left)
        else:
            yield node


def _rebuild(t, leaf: Callable, node: Callable = App):
    """t with each leaf x replaced by leaf(x) and each inner node by node(left, right).

    Post-order on an explicit stack, so leaf sees the leaves left to right.
    """
    done: list = []
    stack: list = [t]  # None marks a node whose two children are on done
    while stack:
        x = stack.pop()
        if x is None:
            right = done.pop()
            done.append(node(done.pop(), right))
        elif isinstance(x, (App, Node)):
            stack += (None, x.right, x.left)
        else:
            done.append(leaf(x))
    return done[0]


def _occurrences(t: PolyTerm) -> list[int]:
    """The variable of each occurrence, left to right."""
    return [v.index for v in _leaves(t)]


def _skeleton(t: PolyTerm) -> Bracketing:
    return _rebuild(t, lambda v: LEAF, Node)


def usage(s: Sequent) -> UsageDecomposition:
    """Split s into its linear skeleton and usage function."""
    occ = _occurrences(s.term)
    return UsageDecomposition(
        skeleton=_skeleton(s.term),
        usage=FinFun(len(occ), s.context_size, tuple(occ)),
    )


def linear(b: Bracketing) -> Sequent:
    """The ordered linear polynomial with shape b: occurrence j is variable j."""
    numbers = itertools.count(1)
    term = _rebuild(b, lambda leaf: Var(next(numbers)))
    return Sequent(next(numbers) - 1, term)


def act(s: Sequent, a: FinFun) -> Sequent:
    """Reindex s along a: each Var i becomes Var a(i), the shape is unchanged."""
    if a.dom != s.context_size:
        raise ArityMismatch(f"action domain {a.dom} differs from context {s.context_size}")
    return Sequent(a.cod, _rebuild(s.term, lambda v: Var(a(v.index))))


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
    shifted = [_rebuild(inner.term, lambda v: Var(v.index + by))
               for inner, by in zip(inners, offsets)]
    return Sequent(offsets[-1], _rebuild(outer.term, lambda v: shifted[v.index - 1]))


def minimal_club_of(s: Sequent) -> Club:
    return finord.minimal_club(usage(s).usage)


_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_TOKEN_RE = re.compile(r"\s*(\|-|[A-Za-z][A-Za-z0-9_]*|[(),])")


def tokenize(text: str, token_re: re.Pattern) -> list[str]:
    """The successive matches of token_re's first group; other text is a ParseError."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = token_re.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise ParseError(f"unexpected character {rest[0]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


def parse_applications(tokens: list[str], atom: Callable, app: Callable):
    """Parse juxtaposition: left-nested application of atoms and parenthesized terms.

    atom(token) builds a leaf and is called on the leaves left to right;
    app(left, right) builds an application.  One partial application is kept
    per open parenthesis, so nesting depth costs no recursion.
    """
    stack: list = [None]  # None: no term started yet at this level
    for tok in tokens:
        if tok == "(":
            stack.append(None)
            continue
        if tok == ",":
            raise ParseError("expected a term, got ','" if stack[-1] is None
                             else "',' not allowed in a term")
        if tok == ")":
            if stack[-1] is None:
                raise ParseError("expected a term, got ')'")
            if len(stack) == 1:
                raise ParseError("unexpected token ')' after term")
            t = stack.pop()
        else:
            t = atom(tok)
        stack[-1] = t if stack[-1] is None else app(stack[-1], t)
    if stack[-1] is None:
        raise ParseError("expected a term")
    if len(stack) > 1:
        raise ParseError("missing ')'")
    return stack[0]


def parse_with_constants(text: str) -> tuple[Sequent, tuple[str, ...]]:
    """Parse, treating undeclared identifiers as constants.

    Each constant occurrence gets its own fresh context slot, prepended in
    left-to-right occurrence order, so the declared variables shift up by the
    number of constant occurrences.  Returns the extended sequent and the
    constant names in slot order (one entry per occurrence, repeats allowed).

    The term is parsed straight into its usage split: occurrence j becomes
    Var j of a linear skeleton, and the table sending each occurrence to its
    slot then acts on that skeleton.
    """
    tokens = tokenize(text, _TOKEN_RE)
    if tokens.count("|-") != 1:
        raise ParseError("expected exactly one '|-'")
    split = tokens.index("|-")
    ctx_tokens, term_tokens = tokens[:split], tokens[split + 1:]

    names: dict[str, int] = {}  # context name -> position, a dict so lookups are O(1)
    expect_name = True
    for tok in ctx_tokens:
        if expect_name:
            if not _IDENT_RE.fullmatch(tok):
                raise ParseError(f"expected a variable name in the context, got {tok!r}")
            if tok in names:
                raise DuplicateContextVariable(f"duplicate context variable: {tok}")
            names[tok] = len(names) + 1
        else:
            if tok != ",":
                raise ParseError(f"expected ',' between context variables, got {tok!r}")
        expect_name = not expect_name
    if ctx_tokens and expect_name:
        raise ParseError("trailing ',' in context")

    occurrences: list[str] = []

    def atom(name: str) -> Var:
        occurrences.append(name)
        return Var(len(occurrences))

    skeleton = parse_applications(term_tokens, atom, App)
    constants = tuple(name for name in occurrences if name not in names)
    k = len(constants)
    slots = itertools.count(1)
    table = tuple(k + names[name] if name in names else next(slots) for name in occurrences)
    m = len(occurrences)
    return act(Sequent(m, skeleton), FinFun(m, k + len(names), table)), constants


def parse(text: str) -> Sequent:
    """Parse 'x1,...,xn |- term'; every term identifier must be declared."""
    s, constants = parse_with_constants(text)
    if constants:
        raise UndeclaredVariable(f"undeclared variable: {constants[0]}")
    return s


def format_applications(t, app: type, name: Callable) -> str:
    """Juxtaposition with minimal parentheses: only an argument that is itself
    an application (an instance of app) is parenthesized; name renders a leaf."""
    parts: list[str] = []
    stack: list = [t]  # terms to render and literal text, next on top
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            parts.append(node)
        elif isinstance(node, app):
            if isinstance(node.right, app):
                stack += (")", node.right, "(", " ", node.left)
            else:
                stack += (node.right, " ", node.left)
        else:
            parts.append(name(node))
    return "".join(parts)


def format_sequent(s: Sequent) -> str:
    """Render with canonical names x1..xn."""
    names = [f"x{k}" for k in range(1, s.context_size + 1)]
    term = format_applications(s.term, App, lambda v: names[v.index - 1])
    return f"{', '.join(names)} |- {term}"


def format_bracketing(b: Bracketing) -> str:
    """Render a shape: '*' for a leaf, '(lr)' for a node."""
    parts: list[str] = []
    stack: list = [b]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            parts.append(node)
        elif isinstance(node, Node):
            stack += (")", node.right, node.left, "(")
        else:
            parts.append("*")
    return "".join(parts)


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
