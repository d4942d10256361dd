"""Polynomials over an applicative system: terms, sequents, and usage analysis.

A polynomial is a sequent  x1,...,xn |- t  where t is built from the context
variables by binary application alone.  Internally variables are positional
(Var 1 .. Var n); surface names exist only in the concrete syntax and are
erased at parse time, so alpha-equivalent inputs parse to equal sequents.

Every sequent s splits canonically into a linear skeleton, the term whose
occurrence j, numbered left to right, is Var j, and a usage function u
sending occurrence j to the context position it uses, so that
act(Sequent(u.dom, skeleton), u) == s.  Which club u inhabits is exactly
what determines the combinator basis needed to compile the sequent.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Callable, Iterator

from .errors import ArityMismatch, DuplicateContextVariable, ParseError, UndeclaredVariable
from .finord import FinFun, Record

_new = tuple.__new__


class App(Record, namedtuple("App", "left right")):
    """The application node of both term languages: polynomials over Var
    leaves, and combinator terms (comb.App is this class).

    A finord.Record with the fields left and right; a node may store more
    items after those two (comb.b_power stores a power of B there), which a
    copy or unpickling drops.  ==, hash and repr see left and right only and
    walk an explicit stack, so terms of any depth compare, hash and print
    without recursion.  Two terms are equal, and hash alike, when they have
    the same shape and equal leaves, so the languages stay apart by leaves.
    """

    __slots__ = ()

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
            if type(a) is App and type(b) is App:
                stack += ((a.right, b.right), (a.left, b.left))
            elif not a == b:
                return False
        return True

    def __hash__(self):
        return hash((format_bracketing(self), *_leaves(self)))

    def __repr__(self):
        return _render(self, repr, "App(left=", ", right=", ")")


class Var(Record, namedtuple("Var", "index")):
    """A variable, by its 1-based position in the context."""

    __slots__ = ()


PolyTerm = Var | App


class Sequent(Record, namedtuple("Sequent", "context_size term")):
    """A term in a context of context_size variables, not all of which need occur."""

    __slots__ = ()

    def __new__(cls, context_size: int, term: PolyTerm):
        if context_size < 0:
            raise ValueError("context size must be non-negative")
        for v in _leaves(term):
            if not 1 <= v.index <= context_size:
                raise ValueError(f"variable {v.index} outside context 1..{context_size}")
        return _new(cls, (context_size, term))

    def __str__(self) -> str:
        return format_sequent(self)


class UsageDecomposition(Record, namedtuple("UsageDecomposition", "skeleton usage")):
    """skeleton: the linear term, occurrence j is Var j; usage: occurrence -> context slot."""

    __slots__ = ()


def _leaves(t) -> Iterator:
    """The leaves of a binary tree, left to right."""
    stack = [t]
    while stack:
        node = stack.pop()
        if type(node) is App:
            stack.append(node.right)
            stack.append(node.left)
        else:
            yield node


def _rebuild(t, leaf: Callable):
    """t with each leaf x replaced by leaf(x), the shape unchanged.

    Post-order on an explicit stack, so leaf sees the leaves left to right.
    """
    done: list = []
    stack: list = [t]  # None marks a node whose two children are on done
    while stack:
        x = stack.pop()
        if x is None:
            right = done.pop()
            done.append(App(done.pop(), right))
        elif type(x) is App:
            stack += (None, x.right, x.left)
        else:
            done.append(leaf(x))
    return done[0]


def usage(s: Sequent) -> UsageDecomposition:
    """Split s into its linear skeleton and usage function.

    One _rebuild pass reads the occurrences left to right, numbering them in
    the skeleton as it goes.
    """
    occ: list[int] = []

    def leaf(v: Var) -> Var:
        occ.append(v.index)
        return Var(len(occ))

    skeleton = _rebuild(s.term, leaf)
    return UsageDecomposition(skeleton, FinFun(len(occ), s.context_size, tuple(occ)))


def act(s: Sequent, a: FinFun) -> Sequent:
    """Reindex s along a: each Var i becomes Var a(i), the shape is unchanged."""
    if a.dom != s.context_size:
        raise ArityMismatch(f"action domain {a.dom} differs from context {s.context_size}")
    return Sequent(a.cod, _rebuild(s.term, lambda v: Var(a(v.index))))


_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")  # the identifiers of both languages
_TOKEN_RE = re.compile(rf"\s*(\|-|{_IDENT_RE.pattern}|[(),])")


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


def parse_applications(tokens: list[str], atom: Callable):
    """Parse juxtaposition: left-nested application of atoms and parenthesized terms.

    atom(token) builds a leaf and is called on the leaves left to right.  One
    partial application is kept per open parenthesis, so nesting depth costs
    no recursion.
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
        stack[-1] = t if stack[-1] is None else App(stack[-1], t)
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
    One scan of the term's tokens counts the constant occurrences first, so
    the term is built once, with its final variables.
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

    k = sum(tok not in names and tok not in "()," for tok in term_tokens)  # identifiers
    constants: list[str] = []

    def atom(name: str) -> Var:
        if name in names:
            return Var(k + names[name])
        constants.append(name)
        return Var(len(constants))

    term = parse_applications(term_tokens, atom)
    return Sequent(k + len(names), term), tuple(constants)


def parse(text: str) -> Sequent:
    """Parse 'x1,...,xn |- term'; every term identifier must be declared."""
    s, constants = parse_with_constants(text)
    if constants:
        raise UndeclaredVariable(f"undeclared variable: {constants[0]}")
    return s


def format_applications(t, name: Callable) -> str:
    """Juxtaposition with minimal parentheses: only an argument that is itself
    an application is parenthesized; name renders a leaf.

    An application that stores items beyond left and right (comb.b_power
    stores a power of B there) is rendered whole by name where the walk meets
    it as the head of a spine; an argument is met as the head of its own
    spine once its parentheses open.  Every other application is walked
    through its left and right.
    """
    parts: list[str] = []
    stack: list = [t]  # terms to render and finished text, next on top
    while stack:
        x = stack.pop()
        if type(x) is str:
            parts.append(x)
            continue
        while type(x) is App and len(x) == 2:  # down the left spine, arguments onto the stack
            right = x.right
            if type(right) is App:
                stack += (")", right, " (")
            else:
                stack.append(" " + name(right))
            x = x.left
        parts.append(name(x))
    return "".join(parts)


def format_sequent(s: Sequent) -> str:
    """Render with canonical names x1..xn."""
    names = [f"x{k}" for k in range(1, s.context_size + 1)]
    term = format_applications(s.term, lambda v: names[v.index - 1])
    return f"{', '.join(names)} |- {term}"


def format_bracketing(t) -> str:
    """Render a term's shape: '*' for a leaf, '(lr)' for a node."""
    return _render(t, lambda leaf: "*", "(", "", ")")


def _render(t, leaf: Callable, open: str, sep: str, close: str) -> str:
    """The text of t: open, left, sep, right, close for a node and leaf(x) for a
    leaf x, rendered as it is pushed, so a str leaf is never taken for text."""
    parts: list[str] = []
    stack: list = [t if type(t) is App else leaf(t)]  # nodes and finished text, next on top
    while stack:
        x = stack.pop()
        if type(x) is str:
            parts.append(x)
        else:
            left, right = x.left, x.right
            stack += (close, right if type(right) is App else leaf(right), sep,
                      left if type(left) is App else leaf(left), open)
    return "".join(parts)
