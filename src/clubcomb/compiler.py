"""Compilation of polynomials to closed combinator terms over a club's basis.

The pipeline mirrors the constructive completeness argument:

  1. usage analysis splits the input into a linear skeleton and a usage
     function u;
  2. the skeleton, the linear polynomial whose occurrence j is variable j,
     is compiled with B and I by repeatedly contracting the leftmost
     adjacent pair of occurrences;
  3. u is factored into club generators, and each generator g is lifted
     through the witness: precomposing with g corresponds to wrapping the
     term in B^(i-1) applied to C (transposition), K (face) or W
     (degeneracy);
  4. the finished term is verified by symbolic reduction against the input.

Step 3 is sound because [t]a then [.]g equals [t](g;a): folding the factor
chain in application order rebuilds exactly the usage function.
"""

from __future__ import annotations

import gc
from collections import namedtuple

from . import comb, finord, poly
from .comb import App, CombTerm
from .errors import ArityZero, FuelExhausted, VerificationFailed
from .finord import Club, Generator, Record


def _contractions(t: poly.PolyTerm):
    """The right turns from the root to each node of t, in reverse post-order."""
    stack = [(t, 0)]  # (subtree, right turns from the root)
    while stack:
        node, turns = stack.pop()
        if type(node) is App:
            yield turns
            stack += ((node.left, turns), (node.right, turns + 1))


def compile_bracketing(t: poly.PolyTerm) -> CombTerm:
    """A closed B/I term computing the ordered linear polynomial with the
    shape of t; only t's bracketing is read, not its leaves.

    A single occurrence is I.  Otherwise the leftmost node whose children are
    both leaves covers occurrences i, i+1; contracting it to a leaf gives a
    shorter shape with witness a, and B^(i-1) B a computes the original.

    Those contractions meet the nodes of t in post-order, and by then every
    subtree left of a node's path from the root is one leaf, so its i - 1 is
    the number of right turns on that path.  The innermost witness belongs
    to the last contraction, so the nodes are read in reverse post-order.
    """
    term = comb.I
    for turns in _contractions(t):
        term = App(App(comb.b_power(turns), comb.B), term)
    return term


def _added_leaves(k: int) -> int:
    """The primitive leaves B^k P a has beyond a's: B^k has max(2k - 1, 1)."""
    return 2 * k if k else 2


# Per generator family: comb's own C, K or W, never a fresh Prim, so every
# lift shares one leaf object, and the family's domain minus n.
_LIFTS = {kind: (getattr(comb, name), offset)
          for kind, (_, name, offset) in finord._FAMILIES.items()}


def lift(a: CombTerm, g: Generator) -> CombTerm:
    """From a witness a of f (arity g.dom) to one of f o g: B^(i-1) P a.

    P is C for a transposition, K for a face (the new witness discards its
    i-th argument) and W for a degeneracy.  The face d(1,1) would need a
    witness of arity 0, which no polynomial has.
    """
    kind, n, i = g
    prim, offset = _LIFTS[kind]
    if n + offset == 0:
        raise ArityZero("cannot lift a face into a one-argument witness")
    return App(App(comb.b_power(i - 1), prim), a)


class CompileReport(Record, namedtuple("CompileReport", (
        "input club_used usage skeleton minimal_club generator_chain output verified steps"))):
    """Everything the compiler decided and produced for one input.

    skeleton and usage are the input's usage decomposition, minimal_club is
    the smallest club containing usage, and club_used the club it was
    factored in (minimal_club unless one was requested).  output is the
    closed witness: applied to one symbol per context slot of input, it
    reduces to input's term in steps steps, so comb.verify(output, input,
    steps) is (True, steps); past comb.DEFAULT_FUEL steps the default budget
    of comb.verify runs out first.  compile checks every output by that
    reduction and returns no witness that failed, so verified is always
    True; it stays because the JSON schema and the benchmarks read it.
    steps is the step count of that check, the witness's primitive count.
    """

    __slots__ = ()


def compile(s: poly.Sequent, club: Club | None = None) -> CompileReport:
    """Compile s over the given club (default: its minimal club).

    Raises ClubViolation, through finord.factor, when the usage function is
    not in the club.  The chain it lifts is one finord.factor has checked to
    rebuild the usage; factor raises VerificationFailed, or ArityMismatch,
    for a chain that does not.

    The closed witness w is then checked by comb.verify, which reduces
    w v1 ... vn on one private symbol per context slot, and compile is its
    only judge: it returns a report only when the check passed, and raises
    VerificationFailed otherwise.  Every primitive of the witness fires
    exactly once when it is verified, so the fold counts them (B^k has
    max(2k - 1, 1), and each lift or contraction adds one) and that count is
    the exact reduction budget.  Running out of it, taking any other number
    of steps, or reaching a normal form other than the input's all fail.

    The cyclic garbage collector is paused while the witness is built and
    verified, and left as it was found on every exit: the witness and the
    reducer's terms are tuples of tuples, acyclic by construction, so a
    collection there frees nothing and only walks the growing term.
    """
    dec = poly.usage(s)
    u, skeleton = dec.usage, dec.skeleton
    minimal = finord.minimal_club(u)
    club_used = minimal if club is None else club
    chain = tuple(finord.factor(u, club_used))

    collecting = gc.isenabled()
    gc.disable()
    try:
        term = compile_bracketing(skeleton)
        leaves = 1 + sum(_added_leaves(turns) for turns in _contractions(skeleton))
        for g in chain:
            term = lift(term, g)
            leaves += _added_leaves(g.i - 1)
        try:
            correct, steps = comb.verify(term, s, leaves)
        except FuelExhausted as e:
            raise VerificationFailed(
                f"verification took more steps than the witness's {leaves} primitives") from e
        if steps != leaves:
            raise VerificationFailed(
                f"verification took {steps} steps; the witness has {leaves} primitives")
        if not correct:
            raise VerificationFailed("verification failed")
    finally:
        if collecting:
            gc.enable()
    return CompileReport(
        input=s,
        club_used=club_used,
        usage=u,
        skeleton=skeleton,
        minimal_club=minimal,
        generator_chain=chain,
        output=term,
        verified=True,
        steps=steps,
    )
