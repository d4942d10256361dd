"""Independent oracles used to check the library against brute force.

Everything here recomputes results by a different route than the package:
pointwise evaluation instead of table algebra, pairwise scans instead of set
tricks, breadth-first closure instead of predicate tests, a rewrite of the
whole term per reduction step instead of a spine-stack machine, a recursive
parser through a named syntax tree instead of one stack parse straight into
the usage split, and repeated leftmost contraction instead of one pass over
the shape.  Tests compare the two routes, so a shared bug would have to be
made twice in different shapes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from clubcomb import comb, finord, poly
from clubcomb.comb import App, CombTerm, Prim, ReductionStatus, apply
from clubcomb.errors import DuplicateContextVariable, ParseError, UndeclaredVariable
from clubcomb.finord import Club, FinFun, Generator, GenKind
from clubcomb.poly import Sequent, Var


def universe(max_size: int) -> list[FinFun]:
    """Every function with dom, cod <= max_size."""
    out = []
    for n in range(max_size + 1):
        for m in range(max_size + 1):
            out.extend(finord.all_finfuns(m, n))
    return out


def pointwise_compose(g: FinFun, f: FinFun) -> FinFun:
    assert f.cod == g.dom
    return FinFun(f.dom, g.cod, tuple(g(f(j)) for j in range(1, f.dom + 1)))


def naive_injective(f: FinFun) -> bool:
    return all(
        f(a) != f(b)
        for a in range(1, f.dom + 1)
        for b in range(1, f.dom + 1)
        if a < b
    )


def naive_surjective(f: FinFun) -> bool:
    return all(any(f(j) == v for j in range(1, f.dom + 1)) for v in range(1, f.cod + 1))


def naive_monotone(f: FinFun) -> bool:
    return all(
        f(a) <= f(b)
        for a in range(1, f.dom + 1)
        for b in range(1, f.dom + 1)
        if a <= b
    )


def recompose(chain: list[Generator] | tuple[Generator, ...], dom: int) -> FinFun:
    """Apply the generators in order, starting from the identity."""
    acc = finord.identity(dom)
    for g in chain:
        acc = pointwise_compose(finord.make_generator(g), acc)
    return acc


def legal_generators(max_size: int) -> list[Generator]:
    """Every generator whose function has dom and cod <= max_size."""
    gens: list[Generator] = []
    for n in range(2, max_size + 1):
        for i in range(1, n):
            gens.append(finord.transposition(n, i))
    for n in range(1, max_size + 1):  # s(n,i): n+1 -> n needs n+1 <= max_size
        if n + 1 <= max_size:
            for i in range(1, n + 1):
                gens.append(finord.degeneracy(n, i))
    for n in range(1, max_size + 1):  # d(n,i): n-1 -> n
        for i in range(1, n + 1):
            gens.append(finord.face(n, i))
    return gens


def bfs_closure(club: Club, max_size: int) -> set[FinFun]:
    """Close the club's generators (plus all identities) under composition.

    Composites never leave the size bound because dom and cod of a composite
    are the dom of the first and cod of the second factor.  Worklist search:
    every ordered pair is composed exactly once, when its later member is
    popped.
    """
    seed = {finord.identity(n) for n in range(max_size + 1)}
    allowed = finord.generator_kinds(club)
    for g in legal_generators(max_size):
        if g.kind in allowed:
            seed.add(finord.make_generator(g))
    closed = set(seed)
    by_dom: dict[int, list[FinFun]] = {}
    by_cod: dict[int, list[FinFun]] = {}
    for f in closed:
        by_dom.setdefault(f.dom, []).append(f)
        by_cod.setdefault(f.cod, []).append(f)
    work = list(closed)
    while work:
        f = work.pop()
        found = [pointwise_compose(f, g) for g in list(by_cod.get(f.dom, []))]
        found += [pointwise_compose(g, f) for g in list(by_dom.get(f.cod, []))]
        for h in found:
            if h not in closed:
                closed.add(h)
                by_dom.setdefault(h.dom, []).append(h)
                by_cod.setdefault(h.cod, []).append(h)
                work.append(h)
    return closed


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


def naive_step(t: CombTerm) -> CombTerm | None:
    """One leftmost-outermost step, or None if t is in normal form."""
    head, args = _spine(t)
    contracted = _contract(head, args)
    if contracted is not None:
        return contracted
    # No root redex: the head is inert, so reduce the leftmost reducible
    # argument and rebuild the spine around it.
    for k, a in enumerate(args):
        advanced = naive_step(a)
        if advanced is not None:
            return apply(head, args[:k] + [advanced] + args[k + 1:])
    return None


def naive_normalize(t: CombTerm, fuel: int) -> tuple[CombTerm, int, ReductionStatus]:
    """Repeated naive_step: rebuilds the whole spine on every step."""
    steps = 0
    while True:
        advanced = naive_step(t)
        if advanced is None:
            return t, steps, ReductionStatus.NORMAL
        if steps == fuel:
            return t, steps, ReductionStatus.FUEL_EXHAUSTED
        t = advanced
        steps += 1


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


def naive_parse_with_constants(text: str) -> tuple[Sequent, tuple[str, ...]]:
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

    def build(t: _SVar | _SApp) -> poly.PolyTerm:
        if isinstance(t, _SVar):
            if t.name in index:
                return Var(index[t.name])
            slot[0] += 1
            return Var(slot[0])
        return poly.App(build(t.left), build(t.right))

    term = build(surface)
    return Sequent(k + len(names), term), tuple(constants)


def naive_parse(text: str) -> Sequent:
    """Parse 'x1,...,xn |- term'; every term identifier must be declared."""
    s, constants = naive_parse_with_constants(text)
    if constants:
        raise UndeclaredVariable(f"undeclared variable: {constants[0]}")
    return s


def naive_compile_bracketing(b: poly.Bracketing) -> CombTerm:
    """A closed B/I term computing the ordered linear polynomial of shape b.

    A single occurrence is I.  Otherwise the leftmost node whose children are
    both leaves covers occurrences i, i+1; contracting it to a leaf gives a
    shorter shape with witness a, and B^(i-1) B a computes the original.
    """
    if isinstance(b, poly.Leaf):
        return comb.I
    contracted, i = _contract_leftmost(b)
    inner = naive_compile_bracketing(contracted)
    return comb.apply(comb.b_power(i - 1), [comb.B, inner])


def _contract_leftmost(b: poly.Node) -> tuple[poly.Bracketing, int]:
    """Replace the leftmost leaf-leaf node by a leaf; i is its first leaf's index."""

    def rec(node: poly.Node, base: int) -> tuple[poly.Bracketing, int] | None:
        left, right = node.left, node.right
        if isinstance(left, poly.Leaf) and isinstance(right, poly.Leaf):
            return poly.LEAF, base + 1
        if isinstance(left, poly.Node):
            got = rec(left, base)
            if got is not None:
                return poly.Node(got[0], right), got[1]
        if isinstance(right, poly.Node):
            got = rec(right, base + poly.length(left))
            if got is not None:
                return poly.Node(left, got[0]), got[1]
        return None

    got = rec(b, 0)
    assert got is not None, "every node with two or more leaves contains a leaf-leaf node"
    return got
