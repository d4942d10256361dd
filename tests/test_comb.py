"""Combinator terms, reduction, and verification."""

import copy
import itertools
import operator
import pickle
import random
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings, strategies as st

from clubcomb import compiler, poly
from clubcomb.comb import (
    App,
    B,
    C,
    CombTerm,
    DEFAULT_FUEL,
    FreeSym,
    I,
    K,
    Prim,
    W,
    _Slot,
    apply,
    b_power,
    format_comb,
    normalize,
    parse_comb,
    verify,
)
from clubcomb.errors import FuelExhausted, ParseError
from clubcomb.finord import Record
import oracles
from oracles import naive_normalize


def syms(*names):
    return [FreeSym(n) for n in names]


x, y, z = syms("x", "y", "z")


def test_defining_equations_one_step_each():
    assert normalize(apply(B, [x, y, z]), 1).term == App(x, App(y, z))
    assert normalize(apply(C, [x, y, z]), 1).term == App(App(x, z), y)
    assert normalize(apply(K, [x, y]), 1).term == x
    assert normalize(apply(W, [x, y]), 1).term == App(App(x, y), y)
    assert normalize(apply(I, [x]), 1).term == x


def test_normal_forms_have_no_step():
    for t in [B, C, K, W, I, x, App(x, y), App(B, x), apply(B, [x, y]), App(K, x)]:
        assert normalize(t, 1).steps == 0 and oracles.naive_step(t) is None


def test_step_prefers_outermost():
    # the root K-redex fires before the inner I-redex
    t = apply(K, [x, App(I, y)])
    assert normalize(t, 1).term == x


def test_step_prefers_leftmost():
    t = App(App(x, App(I, y)), App(I, z))
    assert normalize(t, 1).term == App(App(x, y), App(I, z))


def test_over_application_keeps_trailing_arguments():
    assert normalize(apply(K, [x, y, z]), 1).term == App(x, z)
    assert normalize(apply(I, [x, y, z]), 1).term == apply(x, [y, z])
    assert normalize(apply(B, [x, y, z, z]), 1).term == App(App(x, App(y, z)), z)


def test_normalize_counts_steps():
    t = apply(App(App(I, B), I), syms("v1", "v2"))
    result = normalize(t)
    assert not result.exhausted
    assert result.term == App(FreeSym("v1"), FreeSym("v2"))
    assert result.steps == 3


def test_normalize_self_replicator_runs_out_of_fuel():
    www = apply(W, [W, W])
    result = normalize(www, fuel=100)
    assert result.exhausted
    assert result.steps == 100
    assert result.term == www  # W W W steps to itself


def test_normalize_rejects_non_positive_fuel():
    with pytest.raises(ValueError):
        normalize(x, fuel=0)


@given(st.recursive(
    st.sampled_from([B, C, K, W, I, FreeSym("a"), FreeSym("b")]),
    lambda c: st.tuples(c, c).map(lambda lr: App(*lr)),
    max_leaves=10,
))
def test_normalize_is_deterministic_and_complete(t):
    r1 = normalize(t, fuel=500)
    r2 = normalize(t, fuel=500)
    assert r1 == r2
    if not r1.exhausted:
        assert oracles.naive_step(r1.term) is None


@given(
    st.recursive(
        st.sampled_from([B, C, K, W, I, FreeSym("p"), FreeSym("q")]),
        lambda c: st.tuples(c, c).map(lambda lr: App(*lr)),
        max_leaves=10,
    ),
    st.integers(min_value=1, max_value=60),
)
def test_normalize_agrees_with_naive_step_loop(t, fuel):
    r = normalize(t, fuel)
    assert (r.term, r.steps, r.exhausted) == naive_normalize(t, fuel)


def assert_agrees_with_naive_at_every_fuel(t, max_fuel):
    for fuel, expected in enumerate(oracles.naive_normalize_each_fuel(t, max_fuel), 1):
        r = normalize(t, fuel)
        assert (r.term, r.steps, r.exhausted) == expected, fuel
    assert expected == naive_normalize(t, max_fuel)


_POWERS = [b_power(k) for k in range(1, 6)]


# Spines whose head is often some B^k and whose first argument is often a
# primitive, so that B^k z a x1..xk r.. redexes, whole or cut short, are common.
@settings(max_examples=200)
@given(
    st.recursive(
        st.sampled_from([B, C, K, W, I, FreeSym("p"), FreeSym("q")] + _POWERS),
        lambda c: st.builds(
            lambda head, z, rest: apply(head, [z, *rest]),
            st.sampled_from(_POWERS) | c,
            st.sampled_from([B, C, K, W, I]) | c,
            st.lists(c, max_size=8),
        ),
        max_leaves=16,
    ),
)
def test_b_power_macro_agrees_with_naive_step_loop_at_every_fuel(t):
    assert_agrees_with_naive_at_every_fuel(t, 80)


def fresh_power(k, fresh_from=1):
    """b_power(k) built node by node with App, its B leaves from level
    fresh_from down new Prim("B") objects, equal to comb.B but not it.  Like
    every tower App builds it stores no power, so the reducer and the
    printer take the generic path on it and must give the same result."""
    def b(level):
        return Prim("B") if level >= fresh_from else B

    t = b(k)
    for level in range(k - 1, 0, -1):
        t = App(App(b(level), b(level)), t)
    return t


_FRESH_POWERS = [fresh_power(k, j) for k in range(1, 6) for j in (1, 2, k)]


def test_fresh_powers_equal_the_singleton_powers():
    for k in range(1, 6):
        for j in range(1, k + 1):
            assert fresh_power(k, j) == b_power(k)
    assert fresh_power(3).left.left is not B and fresh_power(3, 3).left.left is B


@settings(max_examples=200)
@given(
    st.recursive(
        st.sampled_from([B, C, K, W, I, FreeSym("p"), FreeSym("q")] + _FRESH_POWERS),
        lambda c: st.builds(
            lambda head, z, rest: apply(head, [z, *rest]),
            st.sampled_from(_FRESH_POWERS + _POWERS) | c,
            st.sampled_from([B, C, K, W, I, Prim("B")]) | c,
            st.lists(c, max_size=8),
        ),
        max_leaves=16,
    ),
)
def test_b_power_macro_falls_back_on_powers_of_other_b_objects(t):
    assert_agrees_with_naive_at_every_fuel(t, 80)


def assert_agrees_with_naive_to_the_end(t):
    """At every fuel from 1 to one past the steps single steps take."""
    steps = naive_normalize(t, DEFAULT_FUEL)[1]
    assert_agrees_with_naive_at_every_fuel(t, steps + 1)
    return steps


def power_redexes(power, k):
    """power applied as B^k to z, a, x1..xk and z's other arguments, for
    heads z that let the macro fire and heads that do not: z a free symbol,
    an application, or a primitive one argument short, and z B."""
    p, q, a = FreeSym("p"), FreeSym("q"), FreeSym("a")
    xs = syms(*[f"x{j}" for j in range(1, k + 1)])
    rs = syms("r1", "r2", "r3")
    redexes = []
    for z in (B, C, K, W, I):
        arity = {"B": 3, "C": 3, "K": 2, "W": 2, "I": 1}[z.name]
        redexes += [apply(power, [z, a, *xs, *rs[:arity - 1]]),  # fires
                    apply(power, [z, a, *xs[:-1]])]  # too few x
        if arity > 1:  # z one argument short
            redexes.append(apply(power, [z, a, *xs, *rs[:arity - 2]]))
    for z in (p, App(C, p), App(B, B), b_power(2), apply(K, [p, q])):
        redexes += [apply(power, [z, a, *xs, *rs]), apply(power, [z, a, *xs[:-1]])]
    # B^k's own redexes inside its arguments
    redexes.append(apply(power, [C, App(I, a), *xs, App(K, p), App(W, q)]))
    return redexes


def test_recorded_power_heads_agree_with_naive_step_loop_at_every_fuel():
    for k in range(2, 6):
        power = b_power(k)
        assert stored_power(power) == k
        for t in power_redexes(power, k):
            assert_agrees_with_naive_to_the_end(t)
        # fuel 2k - 1 stops the macro one step short, 2k lets it fire
        t = apply(power, [C, FreeSym("a"), *syms(*[f"x{j}" for j in range(k)]), x, y])
        assert naive_normalize(t, DEFAULT_FUEL)[1] == 2 * k
        for fuel in (2 * k - 1, 2 * k):
            r = normalize(t, fuel)
            assert (r.term, r.steps, r.exhausted) == naive_normalize(t, fuel)


def test_power_arguments_under_a_stuck_head_agree_at_every_fuel():
    f, a = FreeSym("f"), FreeSym("a")
    for k in range(2, 5):
        power = b_power(k)
        redex = apply(power, [W, a, *syms(*[f"x{j}" for j in range(k)]), y])
        for t in (App(f, power), apply(f, [power, redex, power]),
                  apply(f, [App(power, C), redex]), App(f, App(f, redex))):
            assert_agrees_with_naive_to_the_end(t)


def test_fresh_b_towers_agree_with_naive_step_loop_at_every_fuel():
    # k = 1 is the bare head B: a fresh Prim("B") at j = 1, comb.B at j = 2
    for k in range(1, 6):
        for j in range(1, k + 2):
            tower = fresh_power(k, j)
            assert not any(map(stored_power, applications(tower)))
            for t in power_redexes(tower, k):
                assert_agrees_with_naive_to_the_end(t)


def test_parse_comb_returns_the_module_primitives():
    for prim in (B, C, K, W, I):
        assert parse_comb(prim.name) is prim
    power = parse_comb("B B (B B (B B B))")
    assert power == b_power(4)
    assert stored_power(power) == 0  # only b_power records a power


def test_b_power_macro_agrees_on_compiled_witnesses_at_every_fuel():
    rng = random.Random(7)
    for n, shape, usage in itertools.product((8, 12, 16), ("left", "right", "random"),
                                             ("identity", "reversal", "random")):
        s = poly.act(oracles.linear(oracles.ladder_shape(shape, n, rng)),
                     oracles.ladder_usage(usage, n, rng))
        report = compiler.compile(s)
        w = apply(report.output, syms(*[f"v{k}" for k in range(1, s.context_size + 1)]))
        assert_agrees_with_naive_at_every_fuel(w, report.steps + 1)


def test_b_power_spine_is_read_once_per_chain():
    # where the macro cannot fire (a chain App built, which stores no power,
    # or too few arguments), single steps bring the B B nodes of a long
    # chain to the head one after another, and the result is that of single
    # steps
    m = 300
    v = syms(*[f"v{k}" for k in range(1, m + 3)])
    ends_in_x = FreeSym("x")
    for _ in range(m):
        ends_in_x = apply(B, [B, ends_in_x])
    for t in [apply(ends_in_x, [K, FreeSym("a"), *v]),  # not a B-power
              apply(b_power(m), [K, FreeSym("a"), *v[:m - 5]])]:  # too few arguments
        r = normalize(t)
        assert (r.term, r.steps, r.exhausted) == naive_normalize(t, DEFAULT_FUEL)


def test_normalize_deep_terms_without_recursion():
    n = 10**4
    t = FreeSym("x")
    for _ in range(n):
        t = App(I, t)
    r = normalize(t)
    assert (r.term, r.steps, r.exhausted) == (FreeSym("x"), n, False)
    # a stuck head over a deep argument: f (I (f (I ... x))) -> f (f ... x)
    t = FreeSym("x")
    for _ in range(n // 2):
        t = App(FreeSym("f"), App(I, t))
    r = normalize(t)
    assert r.steps == n // 2 and not r.exhausted
    assert format_comb(r.term) == "f (" * (n // 2 - 1) + "f x" + ")" * (n // 2 - 1)


def test_verify_64_occurrence_left_comb_reversal():
    n = 64
    term = poly.Var(n)
    for j in range(n - 1, 0, -1):
        term = poly.App(term, poly.Var(j))
    report = compiler.compile(poly.Sequent(n, term))
    assert report.verified


def test_b_power_terms():
    assert b_power(0) == I
    assert b_power(1) == B
    assert b_power(2) == App(App(B, B), B)
    assert b_power(3) == App(App(B, B), App(App(B, B), B))
    with pytest.raises(ValueError, match=r"^negative power$"):
        b_power(-1)


def test_b_power_composition_law():
    # B^n b a x1..xn reduces to b (a x1 ... xn)
    for n in range(7):
        b_sym, a_sym = FreeSym("f"), FreeSym("g")
        args = syms(*[f"v{k}" for k in range(1, n + 1)])
        lhs = normalize(apply(b_power(n), [b_sym, a_sym] + args))
        assert not lhs.exhausted
        assert lhs.term == App(b_sym, apply(a_sym, args))


def test_apply_left_nests():
    assert apply(x, [y, z]) == App(App(x, y), z)
    assert apply(x, []) == x


def test_verify_primitive_equations():
    ok, _ = verify(B, poly.parse("x1,x2,x3 |- x1 (x2 x3)"))
    assert ok
    ok, _ = verify(C, poly.parse("x1,x2,x3 |- x1 x3 x2"))
    assert ok
    ok, _ = verify(K, poly.parse("x1,x2 |- x1"))
    assert ok
    ok, _ = verify(W, poly.parse("x1,x2 |- x1 x2 x2"))
    assert ok
    ok, _ = verify(I, poly.parse("x |- x"))
    assert ok


def test_verify_rejects_wrong_candidate():
    ok, _ = verify(K, poly.parse("x1,x2 |- x2"))
    assert not ok
    ok, _ = verify(I, poly.parse("x1,x2 |- x1"))  # wrong arity either way
    assert not ok


def test_verify_steps_counted():
    ok, steps = verify(B, poly.parse("x1,x2,x3 |- x1 (x2 x3)"))
    assert ok and steps == 1


def test_verify_raises_on_fuel_exhaustion():
    # a non-terminating candidate is reported as FuelExhausted, never as a
    # plain False verdict
    diverging = apply(W, [W, W])
    with pytest.raises(FuelExhausted):
        verify(diverging, poly.parse("x |- x"), fuel=100)
    # K discards the argument but leaves the diverging term in head position
    with pytest.raises(FuelExhausted):
        verify(App(K, diverging), poly.parse("x |- x"), fuel=100)


def test_verify_avoids_captured_symbol_names():
    # a candidate already mentioning v1 must not be compared against itself
    candidate = App(K, FreeSym("v1"))  # behaves as: arg -> v1
    ok, _ = verify(candidate, poly.parse("x |- x"))
    assert ok is False


def test_parse_comb_examples():
    assert parse_comb("B") == B
    assert parse_comb("B x (y z)") == App(App(B, x), App(y, z))
    assert parse_comb("K I") == App(K, I)
    # multi-letter identifiers are single free symbols, not strings of prims
    assert parse_comb("Ba") == FreeSym("Ba")
    assert parse_comb("W W W") == apply(W, [W, W])


def test_parse_comb_errors():
    for bad in ["", "(", "x)", "()", "x $ y"]:
        with pytest.raises(ParseError):
            parse_comb(bad)


def test_parse_comb_deep_parentheses():
    n = 10**4
    assert parse_comb("(" * n + "x" + ")" * n) == x
    assert oracles.naive_free_symbols(parse_comb("f (" * n + "x" + ")" * n)) == {"f", "x"}


def test_format_comb_minimal_parens():
    assert format_comb(apply(B, [x, App(y, z)])) == "B x (y z)"
    assert format_comb(App(App(B, B), App(App(I, B), I))) == "B B (I B I)"
    assert format_comb(App(x, App(y, App(z, x)))) == "x (y (z x))"


@given(st.recursive(
    st.sampled_from([B, C, K, W, I, FreeSym("a"), FreeSym("ab_1")]),
    lambda c: st.tuples(c, c).map(lambda lr: App(*lr)),
    max_leaves=12,
))
def test_format_parse_roundtrip(t):
    assert parse_comb(format_comb(t)) == t


def bb_chain(d, end):
    """B B (B B (... (B B end))): d levels over end."""
    for _ in range(d):
        end = App(App(B, B), end)
    return end


# Powers of B whole, built from other Prim("B") objects, and cut short: a
# B B spine ending in C, a symbol or an application, or a B C node inside.
_PRINTED_ATOMS = (
    [b_power(k) for k in range(1, 7)]
    + [fresh_power(k, j) for k in range(2, 7) for j in (1, 2, k)]
    + [bb_chain(d, end) for d in range(1, 5)
       for end in (C, FreeSym("p"), App(C, FreeSym("p")), App(B, B))]
    + [bb_chain(d, App(App(B, C), b_power(k))) for d in (1, 3) for k in (1, 2, 4)]
    + [App(App(B, Prim("B")), b_power(3)), App(App(Prim("B"), B), b_power(2))]
)


_PRINTED_TERMS = st.recursive(
    st.sampled_from([B, C, K, W, I, Prim("B"), FreeSym("p"), FreeSym("q")] + _PRINTED_ATOMS),
    lambda c: st.tuples(c, c).map(lambda lr: App(*lr)),
    max_leaves=12,
)


@settings(max_examples=300)
@given(_PRINTED_TERMS)
def test_format_comb_prints_powers_of_b_whole_as_the_walk_does(t):
    text = format_comb(t)
    assert text == oracles.naive_format_comb(t)
    assert parse_comb(text) == t


# Spines whose head, and whose arguments, are often one of the atoms above:
# a recorded power, a fresh-B tower or a B B chain cut short.
@settings(max_examples=300)
@given(st.recursive(
    st.sampled_from([B, C, K, W, I, Prim("B"), FreeSym("p")] + _PRINTED_ATOMS),
    lambda c: st.builds(lambda head, rest: apply(head, rest),
                        st.sampled_from(_PRINTED_ATOMS) | c,
                        st.lists(st.sampled_from(_PRINTED_ATOMS) | c, max_size=5)),
    max_leaves=12,
))
def test_format_comb_prints_power_heads_and_arguments_as_the_walk_does(t):
    text = format_comb(t)
    assert text == oracles.naive_format_comb(t)
    assert parse_comb(text) == t


def test_format_comb_prints_a_power_whole_at_the_top_and_under_a_symbol():
    for k in range(2, 40):
        power = b_power(k)
        for t in (power, App(power, C), App(FreeSym("f"), power), App(App(power, power), power),
                  bb_chain(k, C), App(bb_chain(k, App(C, power)), power), fresh_power(k)):
            assert format_comb(t) == oracles.naive_format_comb(t)
    assert format_comb(App(b_power(3), FreeSym("f"))) == "B B (B B B) f"
    assert format_comb(App(FreeSym("f"), b_power(3))) == "f (B B (B B B))"


def test_format_comb_matches_the_walk_on_compiled_witnesses():
    rng = random.Random(11)
    for n, shape, usage in itertools.product((8, 12, 16), ("left", "right", "random"),
                                             ("identity", "reversal", "random")):
        s = poly.act(oracles.linear(oracles.ladder_shape(shape, n, rng)),
                     oracles.ladder_usage(usage, n, rng))
        w = compiler.compile(s).output
        text = format_comb(w)
        assert text == oracles.naive_format_comb(w)
        assert parse_comb(text) == w


def test_format_comb_reads_a_long_broken_chain_once():
    m = 300
    for end in (FreeSym("x"), App(C, FreeSym("x"))):
        t = App(FreeSym("f"), bb_chain(m, end))
        assert format_comb(t) == oracles.naive_format_comb(t)


def test_free_symbols_and_primitives():
    t = apply(B, [FreeSym("a"), App(K, FreeSym("b"))])
    assert oracles.naive_free_symbols(t) == frozenset({"a", "b"})
    assert oracles.naive_primitives(t) == frozenset({"B", "K"})


@given(st.recursive(
    st.sampled_from([B, C, K, W, I, FreeSym("a"), FreeSym("B1"), FreeSym("v_2")]),
    lambda c: st.tuples(c, c).map(lambda lr: App(*lr)),
    max_leaves=16,
))
def test_leaf_walks_match_the_isinstance_reference(t):
    assert format_comb(t) == oracles.naive_format_comb(t)
    assert list(poly._leaves(t)) == list(oracles._leaves(t))


def deep_chain(n, head, bottom):
    """head (head (... (head bottom))): n applications down the right spine."""
    t = bottom
    for _ in range(n):
        t = App(head, t)
    return t


def test_deep_terms_have_value_semantics():
    n = 10**4
    right_deep = deep_chain(n, FreeSym("f"), x)
    assert right_deep == deep_chain(n, FreeSym("f"), FreeSym("x"))
    assert hash(right_deep) == hash(deep_chain(n, FreeSym("f"), FreeSym("x")))
    assert right_deep != deep_chain(n, FreeSym("f"), y)  # differs at the deepest leaf only
    assert right_deep != deep_chain(n, FreeSym("f"), App(x, y))
    left_deep = apply(x, [I] * n)
    assert left_deep == apply(x, [I] * n) and hash(left_deep) == hash(apply(x, [I] * n))
    assert left_deep != apply(y, [I] * n)
    assert repr(right_deep).startswith("App(left=FreeSym(name='f'), right=App(left=")
    assert repr(right_deep).endswith("right=FreeSym(name='x'))" + ")" * (n - 1))


def test_comb_and_poly_applications_never_compare_equal():
    # one application node serves both languages; a combinator term never
    # equals a polynomial because their leaves differ
    assert App is poly.App
    v1, v2 = poly.Var(1), poly.Var(2)
    term = poly.parse("x1, x2 |- x1 (x1 x2)").term
    for a, b in [(App(B, I), App(v1, v2)), (App(x, App(y, z)), App(x, App(v1, v2))),
                 (App(FreeSym("x1"), App(FreeSym("x1"), FreeSym("x2"))), term),
                 (App(_Slot("v1"), App(_Slot("v1"), _Slot("v2"))), term),
                 (deep_chain(10**4, x, y), deep_chain(10**4, x, v1))]:
        assert a != b and b != a and not a == b and not b == a


def test_applications_are_immutable_values():
    t = App(B, I)
    with pytest.raises(FrozenInstanceError):
        t.left = K
    with pytest.raises(FrozenInstanceError):
        del t.right
    assert (t.left, t.right) == (B, I)
    assert repr(t) == "App(left=Prim(name='B'), right=Prim(name='I'))"
    assert App(left=B, right=I) == t and {t: 1}[App(B, I)] == 1
    assert copy.copy(t) == t and copy.deepcopy(t) == t
    assert pickle.loads(pickle.dumps(t)) == t


def stored_power(node):
    """The power of B an application node recorded when it was built, or 0."""
    return node[2] if len(node) == 3 else 0


def applications(t):
    """Every application node of t, once per occurrence."""
    stack = [t]
    while stack:
        node = stack.pop()
        if type(node) is App:
            yield node
            stack += (node.right, node.left)


def assert_only_b_power_stores_powers(t, *built):
    """A node of t stores a power only if it is a node of one of built, terms
    made from what b_power returned, and then the power its shape spells."""
    ours = {id(node) for b in built for node in applications(b)}
    for node in applications(t):
        if stored_power(node):
            assert id(node) in ours and stored_power(node) == oracles.power_reading(node), node


@settings(max_examples=300)
@given(_PRINTED_TERMS)
def test_stored_powers_are_the_shape_readings(t):
    assert_only_b_power_stores_powers(t, *_PRINTED_ATOMS)
    assert_only_b_power_stores_powers(parse_comb(format_comb(t)))
    assert_only_b_power_stores_powers(normalize(t, 200).term, *_PRINTED_ATOMS)


@settings(max_examples=100)
@given(st.recursive(
    st.sampled_from([B, C, K, W, I, FreeSym("p")] + _POWERS + _FRESH_POWERS),
    lambda c: st.builds(lambda head, rest: apply(head, rest),
                        st.sampled_from(_POWERS) | c, st.lists(c, max_size=6)),
    max_leaves=16,
), st.integers(min_value=1, max_value=80))
def test_normal_forms_store_only_the_powers_b_power_built(t, fuel):
    assert_only_b_power_stores_powers(normalize(t, fuel).term, *_POWERS)


def test_stored_powers_of_built_parsed_fresh_and_broken_towers():
    for k in range(2, 301):
        assert stored_power(b_power(k)) == oracles.power_reading(b_power(k)) == k
    power = b_power(300)
    assert all(stored_power(node) == oracles.power_reading(node) for node in applications(power))
    for k in range(2, 40):
        parsed = parse_comb(format_comb(b_power(k)))
        assert parsed == b_power(k)
        assert_only_b_power_stores_powers(parsed)
        for j in range(1, k + 1):
            assert_only_b_power_stores_powers(fresh_power(k, j))
        for end in (C, FreeSym("p"), App(C, FreeSym("p")), App(B, B), b_power(k)):
            assert_only_b_power_stores_powers(bb_chain(k, end), end)
    # App builds the levels above b_power(3), and they store nothing
    assert stored_power(bb_chain(5, b_power(3))) == 0


def test_b_power_builds_what_nested_applications_build():
    for k in range(61):
        built = I if k == 0 else B
        for _ in range(k - 1):
            built = App(App(B, B), built)
        stack = [(b_power(k), built)]
        while stack:
            a, b = stack.pop()
            assert type(a) is type(b)
            if type(a) is App:  # b_power records every level's power, App none
                assert stored_power(a) == oracles.power_reading(a) and stored_power(b) == 0
                stack += ((a.left, b.left), (a.right, b.right))
            else:
                assert a is b


class Pair(Record):
    """Another two-item record class, the same items as an App node."""

    __slots__ = ()

    def __new__(cls, left, right):
        return tuple.__new__(cls, (left, right))


def test_terms_are_values_apart_from_tuples_and_other_node_classes():
    power, fresh = b_power(3), fresh_power(3)
    t = App(K, x)
    others = [(B, I), tuple(power), Pair(B, I), Pair(K, x), App(poly.Var(1), poly.Var(2))]
    for a in (App(B, I), power, fresh, t):
        for b in others:
            assert not a == b and not b == a and a != b and b != a
        for b in others + [a, App(B, I), power, fresh, t, 1, None, "B"]:
            assert (a != b) is (not a == b) and (b != a) is (not b == a)
    # == and hash see left and right only, never the recorded power
    assert (len(power), len(fresh)) == (3, 2)
    assert power == fresh and fresh == power and hash(power) == hash(fresh)
    bare = tuple.__new__(App, (App(B, B), B))
    assert len(bare) == 2 and bare == b_power(2) and hash(bare) == hash(b_power(2))
    for a, b in [(t, t), (power, fresh), (t, (K, x)), ((K, x), t), (t, 1), (power, tuple(power)),
                 (Pair(B, I), App(B, I)), (Pair(B, I), (B, I))]:
        for order in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                order(a, b)
    for term in (t, power, fresh, b_power(40)):
        for copied in (copy.copy(term), copy.deepcopy(term), pickle.loads(pickle.dumps(term))):
            assert copied == term and type(copied) is App
            assert_only_b_power_stores_powers(copied, term)
    # a copy is rebuilt through App, so its own nodes take single steps
    assert stored_power(copy.deepcopy(power)) == 0 and stored_power(copy.copy(power)) == 0
    with pytest.raises(FrozenInstanceError):
        power.left = B
    with pytest.raises(FrozenInstanceError):
        del power.right


def test_verify_compares_leaves_exactly():
    s = poly.parse("x |- x x")
    assert verify(App(W, I), s) == (True, 2)
    ok, _ = verify(App(K, App(FreeSym("v1"), FreeSym("v1"))), s)
    assert not ok  # prints like the expected v1 v1, but holds named symbols
    ok, _ = verify(I, s)
    assert not ok  # the normal form is a leaf, the polynomial an application


def test_prim_rejects_unknown_names():
    with pytest.raises(ValueError):
        Prim("S")
