"""Independent oracles used to check the library against brute force.

Everything here recomputes results by a different route than the package:
pointwise evaluation instead of table algebra, pairwise scans instead of set
tricks, breadth-first closure instead of predicate tests, a rewrite of the
whole term per reduction step instead of a spine-stack machine.  Tests compare the
two routes, so a shared bug would have to be made twice in different shapes.
"""

from __future__ import annotations

from clubcomb import finord
from clubcomb.comb import App, CombTerm, Prim, ReductionStatus, apply
from clubcomb.finord import Club, FinFun, Generator, GenKind


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
