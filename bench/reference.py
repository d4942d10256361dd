"""The benchmark's own reference logic, written without importing clubcomb.

Terms are plain Python values: a leaf is its name (a str), an application is
a pair (function, argument).  Every traversal here is iterative, so terms of
any depth can be parsed, reduced and counted.

The reducer is a spine-stack machine.  It contracts the root redex while the
head primitive has enough arguments; once the head is stuck no root redex can
reappear, so it normalizes the arguments left to right.  That is the
leftmost-outermost order, so its step count, and the term it holds when fuel
runs out, are those of leftmost-outermost reduction.
"""

from __future__ import annotations

import re

_ARITY = {"I": 1, "K": 2, "W": 2, "B": 3, "C": 3}


def apply(t, args):
    for a in args:
        t = (t, a)
    return t


def parse_term(text: str):
    """Parse juxtaposition syntax ('B x (y z)'); application is left associative."""
    stack = [None]  # one partial application per open parenthesis
    for tok in re.findall(r"[A-Za-z][A-Za-z0-9_]*|[()]|\S", text):
        if tok == "(":
            stack.append(None)
            continue
        if tok == ")":
            if len(stack) < 2 or stack[-1] is None:
                raise ValueError("unbalanced or empty parentheses")
            atom = stack.pop()
        elif tok[0].isalpha():
            atom = tok
        else:
            raise ValueError(f"unexpected character {tok!r}")
        stack[-1] = atom if stack[-1] is None else (stack[-1], atom)
    if len(stack) != 1 or stack[0] is None:
        raise ValueError("unbalanced parentheses or empty term")
    return stack[0]


def leaf_counts(t) -> dict[str, int]:
    counts: dict[str, int] = {}
    stack = [t]
    while stack:
        node = stack.pop()
        if type(node) is tuple:
            stack.append(node[0])
            stack.append(node[1])
        else:
            counts[node] = counts.get(node, 0) + 1
    return counts


def normalize(t, fuel: int):
    """Leftmost-outermost reduction: (term, steps, exhausted)."""
    steps = 0
    frames = []  # stuck heads: [head, pending args (first on top), normal args]
    head, args = t, []
    while True:
        while True:
            while type(head) is tuple:
                args.append(head[1])
                head = head[0]
            need = _ARITY.get(head)
            if need is None or len(args) < need:
                break
            if steps == fuel:
                return _rebuild(head, args, frames), steps, True
            steps += 1
            x = args.pop()
            if head == "I":
                head = x
            elif head == "K":
                args.pop()
                head = x
            elif head == "W":
                y = args.pop()
                args.append(y)
                args.append(y)
                head = x
            else:
                y = args.pop()
                z = args.pop()
                if head == "B":
                    args.append((y, z))
                else:
                    args.append(y)
                    args.append(z)
                head = x
        frames.append([head, args, []])
        while True:
            frame = frames[-1]
            if frame[1]:
                head, args = frame[1].pop(), []
                break
            frames.pop()
            done = apply(frame[0], frame[2])
            if not frames:
                return done, steps, False
            frames[-1][2].append(done)


def _rebuild(head, args, frames):
    """The whole term at a point where reduction stopped."""
    t = apply(head, reversed(args))
    for frame_head, pending, done in reversed(frames):
        t = apply(apply(apply(frame_head, done), [t]), reversed(pending))
    return t


# Finite functions are (table, cod) with 1-based images, as in 'm->n:[...]'.

def properties(table, cod) -> tuple[bool, bool, bool]:
    """(injective, surjective, monotone)."""
    values = set(table)
    return (
        len(values) == len(table),
        values == set(range(1, cod + 1)),
        all(a <= b for a, b in zip(table, table[1:])),
    )


# Each club, by the properties all its members have.
CLUB_REQUIRES = {
    "id": (True, True, True),
    "bij": (True, True, False),
    "minj": (True, False, True),
    "msrj": (False, True, True),
    "inj": (True, False, False),
    "srj": (False, True, False),
    "mfun": (False, False, True),
    "fun": (False, False, False),
}


def club_contains(club: str, table, cod) -> bool:
    have = properties(table, cod)
    return all(h or not r for h, r in zip(have, CLUB_REQUIRES[club]))


def minimal_club(table, cod) -> str:
    have = properties(table, cod)
    return next(c for c, req in CLUB_REQUIRES.items() if req == have)


def basis(club: str) -> frozenset[str]:
    """B and I always; C without monotonicity, K without surjectivity, W without injectivity."""
    inj, srj, mono = CLUB_REQUIRES[club]
    out = {"B", "I"}
    if not mono:
        out.add("C")
    if not srj:
        out.add("K")
    if not inj:
        out.add("W")
    return frozenset(out)


def generator_kinds(club: str) -> frozenset[str]:
    """t needs non-monotone members, s non-injective ones, d non-surjective ones."""
    inj, srj, mono = CLUB_REQUIRES[club]
    return frozenset(k for k, req in (("t", mono), ("s", inj), ("d", srj)) if not req)


def chain_counts(table, cod) -> dict[str, int]:
    """How many t, s and d generators any factorization of the function has.

    t: the inversions a stable sort removes; s: merges of repeated images;
    d: codomain points never hit.
    """
    inversions = sum(
        1 for i in range(len(table)) for j in range(i + 1, len(table)) if table[i] > table[j]
    )
    distinct = len(set(table))
    return {"t": inversions, "s": len(table) - distinct, "d": cod - distinct}


def compose_chain(chain, dom: int) -> tuple[tuple[int, ...], int]:
    """Compose generators (kind, n, i) in application order, starting at identity(dom)."""
    table, cod = list(range(1, dom + 1)), dom
    for kind, n, i in chain:
        if kind == "t":
            if cod != n:
                raise ValueError(f"t({n},{i}) applied at arity {cod}")
            table = [i + 1 if x == i else i if x == i + 1 else x for x in table]
        elif kind == "s":
            if cod != n + 1:
                raise ValueError(f"s({n},{i}) applied at arity {cod}")
            table = [x if x <= i else x - 1 for x in table]
        else:
            if cod != n - 1:
                raise ValueError(f"d({n},{i}) applied at arity {cod}")
            table = [x if x < i else x + 1 for x in table]
        cod = n
    return tuple(table), cod


# Application shapes are nested pairs with None for a leaf.

def left_comb(n: int):
    shape = None
    for _ in range(n - 1):
        shape = (shape, None)
    return shape


def right_comb(n: int):
    shape = None
    for _ in range(n - 1):
        shape = (None, shape)
    return shape


def random_shape(n: int, rng):
    """A random binary tree with n leaves, splitting each node at a uniform point."""
    if n == 1:
        return None
    k = rng.randint(1, n - 1)
    return (random_shape(k, rng), random_shape(n - k, rng))


def fill(shape, leaves, join=lambda left, right: (left, right)):
    """The shape with its leaves replaced, left to right, by the given values."""
    it = iter(leaves)
    out = []  # values built so far
    stack = [(shape, False)]
    while stack:
        node, expanded = stack.pop()
        if node is None:
            out.append(next(it))
        elif expanded:
            right = out.pop()
            out.append(join(out.pop(), right))
        else:
            stack.append((node, True))
            stack.append((node[1], False))
            stack.append((node[0], False))
    return out[0]


def format_shape(shape) -> str:
    """clubcomb's skeleton syntax: '*' for a leaf, '(lr)' for a node."""
    return format_term(fill(shape, ["*"] * leaf_total(shape)), skeleton=True)


def leaf_total(shape) -> int:
    count, stack = 0, [shape]
    while stack:
        node = stack.pop()
        if node is None:
            count += 1
        else:
            stack.extend(node)
    return count


def format_term(t, skeleton: bool = False) -> str:
    """Minimal-parenthesis juxtaposition syntax, or skeleton syntax."""
    parts = []
    stack = [(t, False)]
    while stack:
        node, rhs = stack.pop()
        if type(node) is not tuple:
            parts.append(node)
        elif skeleton:
            stack.extend([(")", False), (node[1], False), (node[0], False), ("(", False)])
        else:
            closing = [(")", False)] if rhs else []
            opening = [("(", False)] if rhs else []
            stack.extend(closing + [(node[1], True), (" ", False), (node[0], False)] + opening)
    return "".join(parts)
