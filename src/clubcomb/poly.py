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
from collections import namedtuple
from collections.abc import Callable, Iterator
from dataclasses import FrozenInstanceError, dataclass

from .errors import (
    ArityMismatch,
    DuplicateContextVariable,
    ParseError,
    UndeclaredVariable,
)
from .finord import FinFun

_Pair = namedtuple("_Pair", "left right")  # only its item getters are used
_new = tuple.__new__


class Binary(tuple):
    """An immutable node with two children: the application of both term
    languages, and the inner node of a bracketing.

    A tuple (left, right), allocated in C and read through the C item
    getters collections.namedtuple installs; a subclass may store more items
    after those two (comb.b_power stores a power of B there).  Value semantics
    as a frozen dataclass with fields left and right: assignment and deletion
    raise FrozenInstanceError, and ==, hash and repr see left and right only
    and walk an explicit stack, so terms of any depth compare, hash and print
    without recursion.  Two terms are equal when they have the same node
    class at every node and equal leaves; a term never equals a plain tuple
    or a node of another class, and terms are not ordered.
    """

    __slots__ = ()
    left = _Pair.left
    right = _Pair.right

    def __new__(cls, left, right):
        return _new(cls, (left, right))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), (self.left, self.right)

    def __eq__(self, other):
        if type(other) is not type(self):
            return False if isinstance(other, tuple) else NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if isinstance(a, Binary) or isinstance(b, Binary):
                if type(a) is not type(b):
                    return False
                stack += ((a.right, b.right), (a.left, b.left))
            elif not a == b:
                return False
        return True

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def __lt__(self, other):
        if isinstance(other, tuple):  # tuple's own order would compare items
            raise TypeError(f"{type(self).__qualname__} terms are not ordered")
        return NotImplemented

    __le__ = __gt__ = __ge__ = __lt__

    def __hash__(self):
        return _rebuild(self, hash, _hash_pair)

    def __repr__(self):
        parts: list[str] = []
        stack: list = [self]  # nodes to render and finished text, next on top
        while stack:
            x = stack.pop()
            if type(x) is str:
                parts.append(x)
            else:
                stack += (")", _repr_child(x.right), ", right=", _repr_child(x.left),
                          f"{type(x).__qualname__}(left=")
        return "".join(parts)


def _hash_pair(left: int, right: int) -> int:
    return hash((left, right))


def _repr_child(x):
    return x if isinstance(x, Binary) else repr(x)


@dataclass(frozen=True)
class Var:
    index: int  # 1-based position in the context


class App(Binary): __slots__ = ()


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


class Node(Binary): __slots__ = ()


Bracketing = Leaf | Node

LEAF = Leaf()


@dataclass(frozen=True)
class UsageDecomposition:
    """skeleton: the shape of the application tree; usage: occurrence -> context slot."""

    skeleton: Bracketing
    usage: FinFun


def _leaves(t) -> Iterator:
    """The leaves of a binary tree, left to right."""
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, Binary):
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
        elif isinstance(x, Binary):
            stack += (None, x.right, x.left)
        else:
            done.append(leaf(x))
    return done[0]


def _occurrences(t: PolyTerm) -> list[int]:
    """The variable of each occurrence, left to right."""
    return [v.index for v in _leaves(t)]


def usage(s: Sequent) -> UsageDecomposition:
    """Split s into its linear skeleton and usage function.

    One _rebuild pass reads the occurrences left to right and builds the
    skeleton node for node.
    """
    occ: list[int] = []

    def leaf(v: Var) -> Leaf:
        occ.append(v.index)
        return LEAF

    skeleton = _rebuild(s.term, leaf, Node)
    return UsageDecomposition(skeleton, FinFun(len(occ), s.context_size, tuple(occ)))


def act(s: Sequent, a: FinFun) -> Sequent:
    """Reindex s along a: each Var i becomes Var a(i), the shape is unchanged."""
    if a.dom != s.context_size:
        raise ArityMismatch(f"action domain {a.dom} differs from context {s.context_size}")
    return Sequent(a.cod, _rebuild(s.term, lambda v: Var(a(v.index))))


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


def format_applications(t, app: type, name: Callable, node: Callable | None = None) -> str:
    """Juxtaposition with minimal parentheses: only an argument that is itself
    an application (of type app exactly) is parenthesized; name renders a leaf.

    node renders in one piece an application that stores items beyond left
    and right (comb.b_power stores a power of B there), wherever the walk
    meets one: as the head of a spine or as an argument, which it
    parenthesizes.  Without node, every application is walked through its
    left and right.
    """
    parts: list[str] = []
    stack: list = [t]  # terms to render and finished text, next on top
    while stack:
        x = stack.pop()
        if type(x) is str:
            parts.append(x)
            continue
        while type(x) is app:  # down the left spine, arguments onto the stack
            if len(x) > 2 and node:
                parts.append(node(x))
                break
            right = x.right
            if type(right) is not app:
                stack.append(" " + name(right))
            elif len(right) > 2 and node:
                stack.append(f" ({node(right)})")
            else:
                stack += (")", right, " (")
            x = x.left
        else:
            parts.append(name(x))
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
