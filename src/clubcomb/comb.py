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
from operator import attrgetter

from . import poly
from .errors import FuelExhausted

DEFAULT_FUEL = 10**6

_ARITY = {"B": 3, "C": 3, "K": 2, "W": 2, "I": 1}
PRIM_NAMES = tuple(_ARITY)


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


class App(poly.Binary): __slots__ = ()


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


class ReductionStatus(Enum):
    NORMAL = "normal"
    FUEL_EXHAUSTED = "fuel_exhausted"


@dataclass(frozen=True)
class ReductionResult:
    term: CombTerm
    steps: int
    status: ReductionStatus


def normalize(t: CombTerm, fuel: int = DEFAULT_FUEL) -> ReductionResult:
    """Reduce to normal form, giving up after fuel steps.

    A spine-stack machine: the left spine is unwound onto an argument stack
    (first argument on top) and the root redex contracted on that stack while
    the head is a primitive with enough arguments.  Once the head is stuck no
    root redex can reappear, so its arguments are normalized one after
    another, left to right.  That is leftmost-outermost order, so the steps
    counted, and the term returned when fuel runs out, are those of repeated
    step.  Each step costs O(1) apart from unwinding, whatever the term size.
    """
    if fuel < 1:
        raise ValueError("fuel must be at least 1")
    steps = 0
    frames: list[list] = []  # stuck heads: [head, pending args (first on top), normal args]
    head, args = t, []
    while True:
        while True:
            while type(head) is App:
                args.append(head.right)
                head = head.left
            if type(head) is not Prim or len(args) < _ARITY[head.name]:
                break
            if steps == fuel:
                return ReductionResult(
                    _rebuild(head, args, frames), steps, ReductionStatus.FUEL_EXHAUSTED)
            steps += 1
            name = head.name
            head = args.pop()
            if name == "B":  # x y z -> x (y z)
                y = args.pop()
                args.append(App(y, args.pop()))
            elif name == "C":  # x y z -> x z y
                y = args.pop()
                z = args.pop()
                args.append(y)
                args.append(z)
            elif name == "K":  # x y -> x
                args.pop()
            elif name == "W":  # x y -> x y y
                args.append(args[-1])
        frames.append([head, args, []])
        while True:
            frame = frames[-1]
            if frame[1]:
                head, args = frame[1].pop(), []
                break
            frames.pop()
            done = apply(frame[0], frame[2])
            if not frames:
                return ReductionResult(done, steps, ReductionStatus.NORMAL)
            frames[-1][2].append(done)


def _rebuild(head: CombTerm, args: list[CombTerm], frames: list[list]) -> CombTerm:
    """The whole term held by normalize's machine, where reduction stopped."""
    t = apply(head, args[::-1])
    for frame_head, pending, done in reversed(frames):
        t = apply(App(apply(frame_head, done), t), pending[::-1])
    return t


def step(t: CombTerm) -> CombTerm | None:
    """One leftmost-outermost step, or None if t is in normal form."""
    result = normalize(t, 1)
    return None if result.steps == 0 else result.term


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


def _leaf_names(t: CombTerm, kind: type) -> frozenset[str]:
    """The names of t's leaves of type kind."""
    names: set[str] = set()
    stack = [t]
    while stack:
        node = stack.pop()
        while type(node) is App:
            stack.append(node.right)
            node = node.left
        if type(node) is kind:
            names.add(node.name)
    return frozenset(names)


def free_symbols(t: CombTerm) -> frozenset[str]:
    return _leaf_names(t, FreeSym)


def primitives(t: CombTerm) -> frozenset[str]:
    return _leaf_names(t, Prim)


def fresh_symbols(count: int, avoid: frozenset[str]) -> list[FreeSym]:
    """count symbols v1..vcount, doubling the prefix letter until clash-free."""
    prefix = "v"
    while any(f"{prefix}{k}" in avoid for k in range(1, count + 1)):
        prefix += "v"
    return [FreeSym(f"{prefix}{k}") for k in range(1, count + 1)]


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
    form walked side by side with s's term: every application must meet an
    application, and every Var i the i-th of constants and symbols.  Raises
    FuelExhausted rather than returning a verdict when the budget runs out,
    so a timeout is never mistaken for a disproof.
    """
    syms = fresh_symbols(s.context_size - len(constants), free_symbols(candidate))
    slots = [FreeSym(name) for name in constants] + syms
    result = normalize(apply(candidate, syms), fuel)
    if result.status is ReductionStatus.FUEL_EXHAUSTED:
        raise FuelExhausted(f"no normal form within {result.steps} steps", steps=result.steps)
    stack = [(result.term, s.term)]
    while stack:
        got, want = stack.pop()
        if isinstance(want, poly.App):
            if not isinstance(got, App):
                return False, result.steps
            stack += ((got.right, want.right), (got.left, want.left))
        elif isinstance(got, App) or got != slots[want.index - 1]:
            return False, result.steps
    return True, result.steps


_name = attrgetter("name")
_TOKEN_RE = re.compile(r"\s*([A-Za-z][A-Za-z0-9_]*|[()])")


def parse_comb(text: str) -> CombTerm:
    """Parse juxtaposition syntax: 'B x (y z)'.

    The five uppercase single letters B, C, K, W, I are primitives; any
    other identifier is a free symbol.
    """
    return poly.parse_applications(
        poly.tokenize(text, _TOKEN_RE),
        lambda tok: Prim(tok) if tok in PRIM_NAMES else FreeSym(tok),
        App,
    )


def format_comb(t: CombTerm) -> str:
    """Minimal-parenthesis rendering; parse_comb(format_comb(t)) == t."""
    return poly.format_applications(t, App, _name)
