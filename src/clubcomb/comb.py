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

import functools
import re
from collections import namedtuple

from . import poly
from .errors import FuelExhausted
from .finord import Record
from .poly import App

DEFAULT_FUEL = 10**6

_ARITY = {"B": 3, "C": 3, "K": 2, "W": 2, "I": 1}
PRIM_NAMES = tuple(_ARITY)

_new = tuple.__new__


class Prim(Record, namedtuple("Prim", "name")):
    """One of the five primitives, by name."""

    __slots__ = ()

    def __new__(cls, name: str):
        if name not in PRIM_NAMES:
            raise ValueError(f"unknown primitive {name!r}")
        return _new(cls, (name,))


class FreeSym(Record, namedtuple("FreeSym", "name")):
    """An inert free symbol; never the head of a redex."""

    __slots__ = ()


CombTerm = Prim | FreeSym | App

B = Prim("B")
C = Prim("C")
K = Prim("K")
W = Prim("W")
I = Prim("I")
_PRIMS = {p.name: p for p in (B, C, K, W, I)}


def apply(t: CombTerm, args: list[CombTerm] | tuple[CombTerm, ...]) -> CombTerm:
    """Left-nested application t a1 ... an."""
    for a in args:
        t = _new(App, (t, a))
    return t


class ReductionResult(Record, namedtuple("ReductionResult", "term steps exhausted")):
    """The term reduction stopped at, the steps taken, and whether the fuel
    ran out first (the term is then not in normal form)."""

    __slots__ = ()


def normalize(t: CombTerm, fuel: int = DEFAULT_FUEL) -> ReductionResult:
    """Reduce to normal form, giving up after fuel steps: the result is
    exhausted when a redex remains after fuel steps, and its term is then the
    one reached.

    A spine-stack machine: the left spine is unwound onto an argument stack
    (first argument on top) and the root redex contracted on that stack while
    the head is a primitive with enough arguments.  Once the head is stuck no
    root redex can reappear, so its arguments are normalized one after
    another, left to right.  That is leftmost-outermost order, so the steps
    counted, and the term returned when fuel runs out, are those of single
    leftmost-outermost steps (the naive reducer in tests/oracles.py).

    One macro rule takes many root steps at once.  B^k z a x1 .. xk, with
    B^k = b_power(k), needs 2k - 1 steps to reach z (a x1 .. xk); when z is a
    primitive whose other arguments r.. are on the stack too, its own step
    makes a the head again.  A node that stores its power k (see b_power) is
    the head B^k as it stands.  When z is a primitive with all its arguments
    and at least 2k steps of fuel remain, the machine leaves x1 .. xk where
    they are, applies z's rule to the r.. beneath them, makes a the head and
    counts 2k steps.  All 2k are root steps, so no other redex comes between
    them and the order, the count and the normal form are those of single
    steps.  Otherwise the node is unwound like any other application, so the
    term at exhaustion is that of single steps too.  A bare B, like every
    other primitive, takes single steps.
    """
    if fuel < 1:
        raise ValueError("fuel must be at least 1")
    steps = 0
    frames: list[list] = []  # stuck heads: [head, pending args (first on top), normal args]
    head, args = t, []
    while True:
        while True:
            while type(head) is App:
                if len(head) == 3:  # a recorded B^k: it fires whole, or is unwound
                    k = head[2]
                    n = len(args)
                    if (n > k + 1 and type(z := args[-1]) is Prim
                            and n > k + _ARITY[z.name] and steps + 2 * k <= fuel):
                        # B^k z a x1..xk r.. -> a x1..xk r'..
                        name = args.pop().name
                        head = args.pop()
                        steps += 2 * k
                        r = len(args) - k - 1  # beneath x1..xk
                        break
                args.append(head.right)
                head = head.left
            else:  # a leaf is the head
                if type(head) is not Prim or len(args) < _ARITY[head.name]:
                    break
                if steps == fuel:
                    return ReductionResult(_rebuild(head, args, frames), steps, True)
                name = head.name
                steps += 1
                head = args.pop()
                r = len(args) - 1
            # the rule of z or of the head: its first argument is the head
            # now, and its other arguments sit at r, r - 1, ...
            if name == "B":  # x y z -> x (y z)
                args[r - 1] = _new(App, (args[r], args[r - 1]))
                del args[r]
            elif name == "C":  # x y z -> x z y
                args[r], args[r - 1] = args[r - 1], args[r]
            elif name == "K":  # x y -> x
                del args[r]
            elif name == "W":  # x y -> x y y
                args.insert(r, args[r])
        frames.append([head, args, []])
        while True:
            frame = frames[-1]
            if frame[1]:
                head, args = frame[1].pop(), []
                break
            frames.pop()
            done = apply(frame[0], frame[2])
            if not frames:
                return ReductionResult(done, steps, False)
            frames[-1][2].append(done)


def _rebuild(head: CombTerm, args: list[CombTerm], frames: list[list]) -> CombTerm:
    """The whole term held by normalize's machine, where reduction stopped."""
    t = apply(head, args[::-1])
    for frame_head, pending, done in reversed(frames):
        t = apply(App(apply(frame_head, done), t), pending[::-1])
    return t


def b_power(n: int) -> CombTerm:
    """The n-fold composition power of B: I, B, BB(B), BB(BB(B)), ...

    Applied to b, a, x1..xn it yields b (a x1 ... xn): it pushes one function
    b past n arguments.  Each level k >= 2 stores k as a third item, so the
    reducer reads the power in O(1) and format_comb prints the level whole
    from a cached text.  Only b_power records a power: every other
    application, such as a parsed, reduced, copied or unpickled tower, is a
    pair and gets single steps and the node-by-node print, with the same
    results.  == and hash ignore the power.
    """
    if n < 0:
        raise ValueError("negative power")
    if n == 0:
        return I
    t: CombTerm = B
    new, app, bb = _new, App, (B, B)
    # App(App(B, B), t), with its own B B node per level rather than one
    # shared: bench/workloads.witness_stats counts DAG nodes by id, and
    # bench/counts.json pins that count (tests/test_bench_smoke.py).
    for k in range(2, n + 1):
        t = new(app, (new(app, bb), t, k))
    return t


class _Slot(FreeSym):
    """A symbol verify applies a candidate to.  A Record's == compares
    classes, so no FreeSym a candidate contains ever equals one."""

    __slots__ = ()


def verify(candidate: CombTerm, s: poly.Sequent, fuel: int = DEFAULT_FUEL) -> tuple[bool, int]:
    """Does the closed term candidate compute the polynomial s?  Returns
    (verdict, steps).

    candidate is applied to one private symbol per context slot of s, and
    its normal form must equal (==) s's term with every Var i replaced by
    the i-th symbol.  Raises FuelExhausted rather than returning a verdict
    when the budget runs out, so a timeout is never mistaken for a disproof.
    """
    syms = [_new(_Slot, (f"v{k}",)) for k in range(1, s.context_size + 1)]
    result = normalize(apply(candidate, syms), fuel)
    if result.exhausted:
        raise FuelExhausted(f"no normal form within {result.steps} steps")
    expected = poly._rebuild(s.term, lambda v: syms[v.index - 1])
    return result.term == expected, result.steps


_TOKEN_RE = re.compile(rf"\s*({poly._IDENT_RE.pattern}|[()])")


def parse_comb(text: str) -> CombTerm:
    """Parse juxtaposition syntax: 'B x (y z)'.

    The five uppercase single letters B, C, K, W, I are primitives, always
    the module's own objects; any other identifier is a free symbol.  No
    text parses to a free symbol named like a primitive.
    """
    return poly.parse_applications(
        poly.tokenize(text, _TOKEN_RE),
        lambda tok: _PRIMS.get(tok) or FreeSym(tok),
    )


def format_comb(t: CombTerm) -> str:
    """Minimal-parenthesis rendering; parse_comb(format_comb(t)) == t unless
    t holds a free symbol named B, C, K, W or I, which prints as that letter
    and so reads back as the primitive (`compile --constants` refuses such a
    constant before it applies the witness to it).

    A node that stores its power k (see b_power) reaches format_applications'
    name callback whole where it heads a spine, as an argument does once its
    parentheses open, and prints as B B (B B (... (B B B))), the text the
    node-by-node walk gives it.
    """
    return poly.format_applications(t, _text)


def _text(x: CombTerm) -> str:
    """The text of a leaf, or of a whole node that stores its power of B."""
    return _b_text(x[2]) if type(x) is App else x.name


@functools.lru_cache(maxsize=1024)
def _b_text(k: int) -> str:
    return "B B (" * (k - 2) + "B B B" + ")" * (k - 2)
