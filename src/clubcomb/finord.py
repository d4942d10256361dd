"""Finite functions between initial segments of the naturals, and their clubs.

A FinFun is a total function {1..m} -> {1..n}, stored as a tuple of images.
Everything downstream (usage analysis, generator factorization, compilation)
is built on three structural properties of such functions: injectivity,
surjectivity, and monotonicity (weakly order-preserving).

A club is a composition-closed class of finite functions cut out by a subset
of those three properties.  The eight clubs form a lattice under inclusion,
each comes with a combinator basis, and each non-trivial one is generated by
adjacent transpositions t(n,i), degeneracies s(n,i), and faces d(n,i).
"""

from __future__ import annotations

import itertools
import operator
import re
from collections import namedtuple
from enum import Enum

from .errors import (
    ArityMismatch,
    ClubViolation,
    IndexOutOfRange,
    ParseError,
    VerificationFailed,
)


class GenKind(Enum):
    TRANSPOSITION = "transposition"
    DEGENERACY = "degeneracy"
    FACE = "face"

    # Members are singletons compared by identity, so the identity hash
    # agrees with ==, and it is computed in C, not by Enum's hash of the name.
    __hash__ = object.__hash__


# A member read through GenKind's metaclass costs about 0.15 us; the hot
# loops below use these instead.
_TRANSPOSITION = GenKind.TRANSPOSITION
_DEGENERACY = GenKind.DEGENERACY
_FACE = GenKind.FACE

# Each generator family, keyed in Classification order by the property its
# generators break, so a club admits them once it drops that requirement
# (degeneracies duplicate points, faces drop points, transpositions break
# order): its letter, the combinator it lifts through, and its domain minus n.
_FAMILIES: dict[GenKind, tuple[str, str, int]] = {
    GenKind.DEGENERACY: ("s", "W", 1),
    GenKind.FACE: ("d", "K", -1),
    GenKind.TRANSPOSITION: ("t", "C", 0),
}

_new = tuple.__new__


class Record(tuple):
    """A tuple with the value semantics of a frozen dataclass whose fields
    are its items: the one base of every value type in the package.

    A value type subclasses Record and collections.namedtuple, in that
    order: class Var(Record, namedtuple("Var", "index")), with __slots__ =
    ().  The namedtuple gives the keyword constructor, the C field getters
    and the repr Var(index=1); a constructor that checks its arguments
    overrides __new__ and builds the value with tuple.__new__.  Record gives
    the rest: assignment and deletion raise dataclasses.FrozenInstanceError,
    a copy or unpickling calls the constructor with the items, == and hash
    go by the items and the class, a record never equals a plain tuple or a
    record of another class, and records are not ordered.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError  # loaded on this error path only
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(self)

    def __eq__(self, other):
        if type(other) is type(self):
            return tuple.__eq__(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def __lt__(self, other):
        if isinstance(other, tuple):  # tuple's own order would compare items
            raise TypeError(f"{type(self).__qualname__} values are not ordered")
        return NotImplemented

    __le__ = __gt__ = __ge__ = __lt__
    __hash__ = tuple.__hash__


class FinFun(Record, namedtuple("FinFun", "dom cod table")):
    """A function {1..dom} -> {1..cod}; table[j-1] is the image of j."""

    __slots__ = ()

    def __new__(cls, dom: int, cod: int, table: tuple[int, ...]):
        if dom < 0 or cod < 0:
            raise ValueError("dom and cod must be non-negative")
        if len(table) != dom:
            raise ValueError(f"table has {len(table)} entries, dom is {dom}")
        for e in table:
            if not 1 <= e <= cod:
                raise ValueError(f"table entry {e} outside 1..{cod}")
        return _new(cls, (dom, cod, table))

    def __call__(self, j: int) -> int:
        if not 1 <= j <= self.dom:
            raise IndexOutOfRange(f"argument {j} outside 1..{self.dom}")
        return self.table[j - 1]

    def __str__(self) -> str:
        return format_finfun(self)


class Generator(Record, namedtuple("Generator", "kind n i")):
    """One of the three generator families, identified by kind and indices.

    t(n,i): n -> n        swaps i and i+1             (needs n > 1, 1 <= i < n)
    s(n,i): n+1 -> n      merges i and i+1            (needs 1 <= i <= n)
    d(n,i): n-1 -> n      skips the value i           (needs 1 <= i <= n)

    A kind outside GenKind is a ValueError, and bad indices IndexOutOfRange.
    """

    __slots__ = ()

    def __new__(cls, kind: GenKind, n: int, i: int):
        if type(kind) is not GenKind:
            raise ValueError(f"unknown generator kind {kind!r}")
        if not (1 <= i < n if kind is _TRANSPOSITION else 1 <= i <= n):
            need = "1 <= i < n, n > 1" if kind is _TRANSPOSITION else "1 <= i <= n"
            raise IndexOutOfRange(f"{_FAMILIES[kind][0]}({n},{i}) needs {need}")
        return _new(cls, (kind, n, i))

    def __str__(self) -> str:
        return f"{_FAMILIES[self.kind][0]}({self.n},{self.i})"

    @property
    def dom(self) -> int:
        """The size of the generator's domain; its codomain is n."""
        return self.n + _FAMILIES[self.kind][2]


Classification = namedtuple("Classification", "injective surjective monotone")
Classification.__doc__ = """The three structural properties, in a fixed order.

A club's requirement set uses the same triple, a True entry meaning the
property is required, so membership is entrywise implication.
"""


def classify(f: FinFun) -> Classification:
    image = set(f.table)
    return Classification(
        injective=len(image) == f.dom,
        surjective=len(image) == f.cod,  # every entry lies in 1..cod
        monotone=all(f.table[k] <= f.table[k + 1] for k in range(f.dom - 1)),
    )


class Club(Enum):
    """The eight composition-closed classes, named by their members.

    Each club is the class of functions having all properties in its
    requirement set; a monotone bijection is an identity, which is why the
    top requirement set {injective, surjective, monotone} carves out exactly
    the identities.
    """

    ID = "id"
    BIJ = "bij"
    MINJ = "minj"
    MSRJ = "msrj"
    INJ = "inj"
    SRJ = "srj"
    MFUN = "mfun"
    FUN = "fun"

    @property
    def display(self) -> str:
        return self.value.capitalize()


_REQUIRED: dict[Club, Classification] = {
    Club.ID: Classification(True, True, True),
    Club.BIJ: Classification(True, True, False),
    Club.MINJ: Classification(True, False, True),
    Club.MSRJ: Classification(False, True, True),
    Club.INJ: Classification(True, False, False),
    Club.SRJ: Classification(False, True, False),
    Club.MFUN: Classification(False, False, True),
    Club.FUN: Classification(False, False, False),
}

_BY_PROPS: dict[Classification, Club] = {req: c for c, req in _REQUIRED.items()}

def required_properties(c: Club) -> Classification:
    """The properties every member of c must have, True where required."""
    return _REQUIRED[c]


def contains(c: Club, f: FinFun) -> bool:
    return all(map(operator.le, _REQUIRED[c], classify(f)))


def minimal_club(f: FinFun) -> Club:
    """The smallest club containing f (exists for every f)."""
    return _BY_PROPS[classify(f)]


def basis(c: Club) -> frozenset[str]:
    """The combinator basis paired with the club.

    B and I are always present; C is added once order can be broken, K once
    points can be dropped, W once points can be duplicated.
    """
    return frozenset({"B", "I"}.union(_FAMILIES[k][1] for k in generator_kinds(c)))


def generator_kinds(c: Club) -> frozenset[GenKind]:
    """Which generator families stay inside the club."""
    return frozenset(k for k, required in zip(_FAMILIES, _REQUIRED[c]) if not required)


def factor(f: FinFun, c: Club) -> list[Generator]:
    """Write f as a composite of c's generators, in application order.

    The scheme is canonical: a bubble sort of the image table records the
    adjacent transpositions that remove all inversions (stable, so equal
    entries never swap); the sorted remainder is split into degeneracies by
    always merging at the smallest equal-adjacent index, then into faces by
    inserting the missed codomain points in ascending order.  Composing the
    returned generators left-to-right (earliest applied first) rebuilds f
    exactly, and every emitted generator lies in c whenever f does.  factor
    recomposes the chain before returning it, raising ArityMismatch for a
    chain whose arities do not line up and VerificationFailed for one that
    does not rebuild f, so callers need not check it again.  The scheme gives
    valid indices by construction, so it builds past Generator's checks.
    """
    if not contains(c, f):
        minimal = minimal_club(f)
        raise ClubViolation(f"{format_finfun(f)} is not in {c.display}; "
                            f"its minimal club is {minimal.display}", minimal=minimal)
    gens: list[Generator] = []
    table = list(f.table)
    m = f.dom

    # Swapping positions i, i+1 of the table precomposes with t(m, i), so the
    # recorded swaps, applied first in recorded order, undo all inversions.
    # A swap at pair i can only disorder pairs i-1 and i+1, so after the first
    # pass each pass starts at the pairs left of the last one's swaps and
    # carries rightward while it swaps: the same swaps, in O(m + swaps).
    todo = range(1, m)
    while todo:
        swaps: list[int] = []
        done = 0  # pairs 1..done were compared in this pass
        for i in todo:
            while i > done and i < m and table[i - 1] > table[i]:
                table[i - 1], table[i] = table[i], table[i - 1]
                swaps.append(i)
                i += 1
            if i > done:
                done = i
        gens += [_new(Generator, (_TRANSPOSITION, m, i)) for i in swaps]
        todo = [i - 1 for i in swaps if i > 1]

    # table is now monotone.  Merging the leftmost equal pair first, every
    # repeat merges into the last of the distinct values before it, so one
    # scan emits the degeneracies; then insert the missed points as faces.
    rank = min(m, 1)  # distinct values seen so far
    size = m  # domain of the next degeneracy
    for k in range(1, m):
        if table[k] == table[k - 1]:
            size -= 1
            gens.append(_new(Generator, (_DEGENERACY, size, rank)))
        else:
            rank += 1
    present = set(table)
    for v in range(1, f.cod + 1):
        if v not in present:
            rank += 1
            gens.append(_new(Generator, (_FACE, rank, v)))

    if recompose(gens, m) != f:
        raise VerificationFailed(f"factor({format_finfun(f)}, {c.display}) does not recompose")
    return gens


def recompose(chain: list[Generator] | tuple[Generator, ...], dom: int) -> FinFun:
    """The composite of chain, applied in order to the identity on dom points.

    Raises ArityMismatch when a generator's domain is not the size of the
    codomain reached so far.  Block v holds the points sent to v (0-based, a
    tuple until a merge makes it a list), and each generator swaps, merges
    or inserts blocks.  Blocks 1..len(left) sit in left and the rest in
    right, reversed, so merges and inserts happen at the finger between the
    two stacks and swaps index either stack in place; a merge extends the
    larger block.  On a chain factor emits, the finger only moves forward
    within the degeneracies and within the faces, so the cost is
    O(dom + cod + len(chain)).
    """
    left: list = []
    right: list = list(zip(range(dom - 1, -1, -1)))
    for g in chain:
        kind, size, i = g
        n = len(left) + len(right)
        if size + _FAMILIES[kind][2] != n:
            raise ArityMismatch(f"{g} cannot follow a map onto {n} points")
        k = len(left)
        if kind is _TRANSPOSITION:  # blocks i and i+1 sit at 0-based i-1, i
            if i < k:
                left[i - 1], left[i] = left[i], left[i - 1]
            elif i > k:
                j = n - 1 - i
                right[j], right[j + 1] = right[j + 1], right[j]
            else:
                left[-1], right[-1] = right[-1], left[-1]
            continue
        merge = kind is _DEGENERACY
        k = i if merge else i - 1  # move the finger to k
        while len(left) > k:
            right.append(left.pop())
        while len(left) < k:
            left.append(right.pop())
        if merge:
            big, small = left[-1], right.pop()
            if len(big) < len(small):
                big, small = small, big
            if type(big) is tuple:
                big = list(big)
            big.extend(small)
            left[-1] = big
        else:
            left.append(())
    table = [0] * dom
    for v, block in enumerate(itertools.chain(left, reversed(right)), 1):
        for p in block:
            table[p] = v
    return FinFun(dom, len(left) + len(right), tuple(table))


_FINFUN_RE = re.compile(
    r"^\s*(\d+)\s*->\s*(\d+)\s*:\s*\[\s*((?:\d+\s*(?:,\s*\d+\s*)*)?)\]\s*$"
)


def parse_finfun(text: str) -> FinFun:
    """Parse the notation m->n:[e1,...,em]."""
    m = _FINFUN_RE.match(text)
    if m is None:
        raise ParseError(f"not a finite function: {text!r} (expected m->n:[e1,...,em])")
    numbers = [m.group(1), m.group(2), *re.findall(r"\d+", m.group(3))]
    try:
        dom, cod, *entries = map(int, numbers)
    except ValueError:  # a run of digits is rejected only past Python's length limit
        raise ParseError(f"number too long: {max(map(len, numbers))} digits") from None
    try:
        return FinFun(dom, cod, tuple(entries))
    except ValueError as e:
        raise ParseError(str(e)) from None


def format_finfun(f: FinFun) -> str:
    return f"{f.dom}->{f.cod}:[{','.join(str(e) for e in f.table)}]"
