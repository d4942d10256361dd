"""Independent oracles used to check the library against brute force.

Everything here recomputes results by a different route than the package:
pointwise evaluation instead of table algebra, pairwise scans instead of set
tricks, breadth-first closure instead of predicate tests, a rewrite of the
whole term per reduction step instead of a spine-stack machine, a recursive
parser through a named syntax tree instead of one stack parse that counts
the constants first, recursion instead of one explicit-stack renderer for
repr and shapes, repeated leftmost contraction instead of one pass over
the shape, isinstance tests over a generic leaf walk instead of exact
type dispatch, a walk down each B B spine instead of the power b_power
stores in each node it builds, full bubble passes instead of passes that
start next to the last swaps, and painting every cell of every line instead
of summing runs.  Tests compare the two routes, so a shared bug would have
to be made twice in different shapes.

naive_step is the one leftmost-outermost step: repeating it
(naive_normalize) fixes the order, the step counts and the term at fuel
exhaustion that comb.normalize must give.  The paper's algebra that no
product path uses lives here too: identity, composition, sums, injections,
copairing and wreath of finite functions, the functions generators denote,
the club order, and a term's length, the numbering of its leaves 1..m,
substitution and every linear term with n leaves.  The law tests check the
package's usage, act, classify, contains, factor and recompose against them.
"""

from __future__ import annotations

import itertools
import operator
import random
import re
from collections.abc import Callable, Iterator
from dataclasses import dataclass

from clubcomb import comb, finord, poly
from clubcomb.comb import App, CombTerm, FreeSym, Prim, apply
from clubcomb.errors import ArityMismatch, DuplicateContextVariable, ParseError, UndeclaredVariable
from clubcomb.finord import Club, FinFun, Generator, GenKind
from clubcomb.poly import Sequent, Var


def universe(max_size: int) -> list[FinFun]:
    """Every function with dom, cod <= max_size."""
    return [FinFun(m, n, table) for n in range(max_size + 1) for m in range(max_size + 1)
            for table in itertools.product(range(1, n + 1), repeat=m)]


def identity(n: int) -> FinFun:
    return FinFun(n, n, tuple(range(1, n + 1)))


def pointwise_compose(g: FinFun, f: FinFun) -> FinFun:
    """g after f: first apply f, then g."""
    if f.cod != g.dom:
        raise ArityMismatch(f"cannot compose {g} after {f}")
    return FinFun(f.dom, g.cod, tuple(g(f(j)) for j in range(1, f.dom + 1)))


def add(a: FinFun, b: FinFun) -> FinFun:
    """Disjoint juxtaposition: a on the first block, b shifted after it."""
    return FinFun(a.dom + b.dom, a.cod + b.cod, a.table + tuple(e + a.cod for e in b.table))


def injection(j: int, ks: list[int]) -> FinFun:
    """The inclusion of the j-th block into the concatenation of blocks ks."""
    offset = sum(ks[:j - 1])
    return FinFun(ks[j - 1], sum(ks), tuple(range(offset + 1, offset + ks[j - 1] + 1)))


def copair(fs: list[FinFun], cod: int) -> FinFun:
    """Case analysis into cod points: the function acting as fs[j] on the j-th block."""
    return FinFun(sum(f.dom for f in fs), cod, tuple(e for f in fs for e in f.table))


def wreath(a: FinFun, ks: list[int]) -> FinFun:
    """Block substitution (Kelly, "On clubs and doctrines", LNM 420): route
    whole blocks the way a routes single points.

    ks gives one block width per element of a's codomain.  The j-th domain
    block has the width of block a(j) and maps in order onto that block's
    position in the codomain concatenation.
    """
    if len(ks) != a.cod:
        raise ArityMismatch(f"{a.cod} block widths required, got {len(ks)}")
    return copair([injection(a(j), ks) for j in range(1, a.dom + 1)], sum(ks))


def make_generator(g: Generator) -> FinFun:
    """The finite function a generator denotes."""
    points = range(1, g.dom + 1)
    if g.kind is GenKind.TRANSPOSITION:
        table = list(points)
        table[g.i - 1], table[g.i] = table[g.i], table[g.i - 1]
    elif g.kind is GenKind.DEGENERACY:
        table = [x if x <= g.i else x - 1 for x in points]
    else:
        table = [x if x < g.i else x + 1 for x in points]
    return FinFun(g.dom, g.n, tuple(table))


def leq(c1: Club, c2: Club) -> bool:
    """Inclusion order: c1 <= c2 iff c1 requires every property c2 requires."""
    return all(map(operator.le, finord.required_properties(c2), finord.required_properties(c1)))


def length(t) -> int:
    """Number of leaves."""
    return sum(1 for _ in _leaves(t))


def linear(t) -> Sequent:
    """The ordered linear polynomial with the shape of t: its leaves numbered 1..m."""
    numbers = itertools.count(1)
    term = poly._rebuild(t, lambda leaf: Var(next(numbers)))
    return Sequent(next(numbers) - 1, term)


def substitute(outer: Sequent, inners: list[Sequent]) -> Sequent:
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
    shifted = [poly._rebuild(inner.term, lambda v: Var(v.index + by))
               for inner, by in zip(inners, offsets)]
    return Sequent(offsets[-1], poly._rebuild(outer.term, lambda v: shifted[v.index - 1]))


def fill(t, slots: list):
    """The polynomial term t with each Var i replaced by slots[i - 1], recursively."""
    if type(t) is Var:
        return slots[t.index - 1]
    return App(fill(t.left, slots), fill(t.right, slots))


def all_bracketings(n: int, first: int = 1) -> list[poly.PolyTerm]:
    """Every linear term with n leaves, numbered from first (there are
    Catalan(n-1) of them, one per bracketing)."""
    if n == 1:
        return [Var(first)]
    return [App(left, right) for k in range(1, n)
            for left in all_bracketings(k, first) for right in all_bracketings(n - k, first + k)]


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
    acc = identity(dom)
    for g in chain:
        acc = pointwise_compose(make_generator(g), acc)
    return acc


def bubble_transpositions(table: tuple[int, ...]) -> list[int]:
    """The pairs a full bubble sort of table swaps, in order: every pass
    compares every adjacent pair, until a pass swaps nothing."""
    table = list(table)
    swaps: list[int] = []
    swapped = True
    while swapped:
        swapped = False
        for i in range(1, len(table)):
            if table[i - 1] > table[i]:
                table[i - 1], table[i] = table[i], table[i - 1]
                swaps.append(i)
                swapped = True
    return swaps


def paint_diagram(f: FinFun) -> str:
    """Dot-and-line picture of f: domain dots left, codomain dots right.

    Point k of either side sits at row 2(k-1) of its column; each domain
    element contributes one line of '-', '\\' or '/' cells, bent by integer
    (half-up) interpolation across 9 interior columns.  Cells claimed by
    lines of different direction become 'X'.  Paints every cell of every
    line, O(dom x cod), where cli.render_diagram sums runs per column.
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
    seed = {identity(n) for n in range(max_size + 1)}
    allowed = finord.generator_kinds(club)
    for g in legal_generators(max_size):
        if g.kind in allowed:
            seed.add(make_generator(g))
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


def bb_spine(t: CombTerm) -> tuple[int, CombTerm]:
    """(d, u) with t = B B (B B (... (B B u))), d levels, u not itself B B ·.

    Only the module's own B counts (an identity test), the one b_power
    builds with: a spine through other Prim("B") objects ends where they
    begin.
    """
    d = 0
    while type(t) is App and type(bb := t.left) is App and bb.left is comb.B and bb.right is comb.B:
        t, d = t.right, d + 1
    return d, t


def power_reading(t: CombTerm) -> int:
    """The power of B that t's shape spells: d + 1 when its B B spine of
    d levels ends in the module's B, else 0."""
    d, end = bb_spine(t)
    return d + 1 if end is comb.B else 0


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


def naive_normalize(t: CombTerm, fuel: int) -> tuple[CombTerm, int, bool]:
    """Repeated naive_step: rebuilds the whole spine on every step.  Returns
    (term, steps, exhausted), exhausted when a redex remains after fuel steps."""
    steps = 0
    while True:
        advanced = naive_step(t)
        if advanced is None:
            return t, steps, False
        if steps == fuel:
            return t, steps, True
        t = advanced
        steps += 1


def naive_normalize_each_fuel(t: CombTerm, max_fuel: int) -> Iterator[tuple]:
    """naive_normalize(t, fuel) for fuel = 1..max_fuel, read off one run of
    naive_step: min(fuel, S) steps are taken, S the steps to normal form."""
    done, advanced = 0, naive_step(t)
    for _ in range(max_fuel):
        if advanced is not None:
            t, done, advanced = advanced, done + 1, naive_step(advanced)
        yield t, done, advanced is not None


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


def naive_compile_bracketing(t) -> CombTerm:
    """A closed B/I term computing the ordered linear polynomial with the shape of t.

    A single occurrence is I.  Otherwise the leftmost node whose children are
    both leaves covers occurrences i, i+1; contracting it to a leaf gives a
    shorter shape with witness a, and B^(i-1) B a computes the original.
    """
    if not isinstance(t, App):
        return comb.I
    contracted, i = _contract_leftmost(t)
    inner = naive_compile_bracketing(contracted)
    return comb.apply(comb.b_power(i - 1), [comb.B, inner])


def _contract_leftmost(t: App) -> tuple[poly.PolyTerm, int]:
    """Replace the leftmost leaf-leaf node by its left leaf; i is that leaf's
    position."""

    def rec(node: App, base: int) -> tuple[poly.PolyTerm, int] | None:
        left, right = node.left, node.right
        if not isinstance(left, App) and not isinstance(right, App):
            return left, base + 1
        if isinstance(left, App):
            got = rec(left, base)
            if got is not None:
                return App(got[0], right), got[1]
        if isinstance(right, App):
            got = rec(right, base + length(left))
            if got is not None:
                return App(left, got[0]), got[1]
        return None

    got = rec(t, 0)
    assert got is not None, "every node with two or more leaves contains a leaf-leaf node"
    return got


def _leaves(t) -> Iterator:
    """The leaves of a term, left to right."""
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, App):
            stack.append(node.right)
            stack.append(node.left)
        else:
            yield node


def prim_leaves(t: CombTerm) -> int:
    """The number of primitive occurrences in t."""
    return sum(isinstance(leaf, Prim) for leaf in _leaves(t))


def ladder_shape(kind: str, n: int, rng: random.Random) -> poly.PolyTerm:
    """A left comb, right comb or random shape (random splits) with n leaves,
    as a term of Var(1) leaves: linear numbers them."""
    if kind == "random":
        if n == 1:
            return Var(1)
        k = rng.randint(1, n - 1)
        return App(ladder_shape(kind, k, rng), ladder_shape(kind, n - k, rng))
    t: poly.PolyTerm = Var(1)
    for _ in range(n - 1):
        t = App(t, Var(1)) if kind == "left" else App(Var(1), t)
    return t


def ladder_usage(kind: str, n: int, rng: random.Random) -> FinFun:
    """The identity or the reversal on n occurrences, or random into n // 2 slots."""
    if kind == "identity":
        return FinFun(n, n, tuple(range(1, n + 1)))
    if kind == "reversal":
        return FinFun(n, n, tuple(range(n, 0, -1)))
    ctx = max(1, n // 2)
    return FinFun(n, ctx, tuple(rng.randint(1, ctx) for _ in range(n)))


def naive_free_symbols(t: CombTerm) -> frozenset[str]:
    return frozenset(leaf.name for leaf in _leaves(t) if isinstance(leaf, FreeSym))


def naive_primitives(t: CombTerm) -> frozenset[str]:
    return frozenset(leaf.name for leaf in _leaves(t) if isinstance(leaf, Prim))


def naive_format_applications(t, name: Callable) -> str:
    """Juxtaposition with minimal parentheses: only an argument that is itself
    an application is parenthesized; name renders a leaf."""
    parts: list[str] = []
    stack: list = [t]  # terms to render and literal text, next on top
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            parts.append(node)
        elif isinstance(node, App):
            if isinstance(node.right, App):
                stack += (")", node.right, "(", " ", node.left)
            else:
                stack += (node.right, " ", node.left)
        else:
            parts.append(name(node))
    return "".join(parts)


def naive_repr(t) -> str:
    """repr of a term, recursively: each node as App(left=..., right=...),
    each leaf as its own repr."""
    if isinstance(t, App):
        return f"App(left={naive_repr(t.left)}, right={naive_repr(t.right)})"
    return repr(t)


def naive_format_bracketing(t) -> str:
    """A term's shape, recursively: '*' for a leaf, '(lr)' for a node."""
    if isinstance(t, App):
        return f"({naive_format_bracketing(t.left)}{naive_format_bracketing(t.right)})"
    return "*"


def naive_format_comb(t: CombTerm) -> str:
    return naive_format_applications(t, lambda leaf: leaf.name)


def naive_format_sequent(s: Sequent) -> str:
    """Render with canonical names x1..xn."""
    names = [f"x{k}" for k in range(1, s.context_size + 1)]
    term = naive_format_applications(s.term, lambda v: names[v.index - 1])
    return f"{', '.join(names)} |- {term}"
