"""Combinator terms, reduction, and verification."""

import pytest
from hypothesis import given, strategies as st

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
    ReductionStatus,
    W,
    apply,
    b_power,
    format_comb,
    free_symbols,
    fresh_symbols,
    normalize,
    parse_comb,
    primitives,
    step,
    verify,
)
from clubcomb.errors import FuelExhausted, ParseError
from oracles import naive_normalize


def syms(*names):
    return [FreeSym(n) for n in names]


x, y, z = syms("x", "y", "z")


def test_defining_equations_one_step_each():
    assert step(apply(B, [x, y, z])) == App(x, App(y, z))
    assert step(apply(C, [x, y, z])) == App(App(x, z), y)
    assert step(apply(K, [x, y])) == x
    assert step(apply(W, [x, y])) == App(App(x, y), y)
    assert step(apply(I, [x])) == x


def test_normal_forms_have_no_step():
    for t in [B, C, K, W, I, x, App(x, y), App(B, x), apply(B, [x, y]), App(K, x)]:
        assert step(t) is None


def test_step_prefers_outermost():
    # the root K-redex fires before the inner I-redex
    t = apply(K, [x, App(I, y)])
    assert step(t) == x


def test_step_prefers_leftmost():
    t = App(App(x, App(I, y)), App(I, z))
    assert step(t) == App(App(x, y), App(I, z))


def test_over_application_keeps_trailing_arguments():
    assert step(apply(K, [x, y, z])) == App(x, z)
    assert step(apply(I, [x, y, z])) == apply(x, [y, z])
    assert step(apply(B, [x, y, z, z])) == App(App(x, App(y, z)), z)


def test_normalize_counts_steps():
    t = apply(App(App(I, B), I), syms("v1", "v2"))
    result = normalize(t)
    assert result.status is ReductionStatus.NORMAL
    assert result.term == App(FreeSym("v1"), FreeSym("v2"))
    assert result.steps == 3


def test_normalize_self_replicator_runs_out_of_fuel():
    www = apply(W, [W, W])
    result = normalize(www, fuel=100)
    assert result.status is ReductionStatus.FUEL_EXHAUSTED
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
    if r1.status is ReductionStatus.NORMAL:
        assert step(r1.term) is None


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
    assert (r.term, r.steps, r.status) == naive_normalize(t, fuel)


def test_normalize_deep_terms_without_recursion():
    n = 10**4
    t = FreeSym("x")
    for _ in range(n):
        t = App(I, t)
    r = normalize(t)
    assert (r.term, r.steps, r.status) == (FreeSym("x"), n, ReductionStatus.NORMAL)
    # a stuck head over a deep argument: f (I (f (I ... x))) -> f (f ... x)
    t = FreeSym("x")
    for _ in range(n // 2):
        t = App(FreeSym("f"), App(I, t))
    r = normalize(t)
    assert r.steps == n // 2 and r.status is ReductionStatus.NORMAL
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


def test_b_power_composition_law():
    # B^n b a x1..xn reduces to b (a x1 ... xn)
    for n in range(7):
        b_sym, a_sym = FreeSym("f"), FreeSym("g")
        args = syms(*[f"v{k}" for k in range(1, n + 1)])
        lhs = normalize(apply(b_power(n), [b_sym, a_sym] + args))
        assert lhs.status is ReductionStatus.NORMAL
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


def test_fresh_symbols_rename_on_collision():
    plain = fresh_symbols(2, frozenset())
    assert [s.name for s in plain] == ["v1", "v2"]
    bumped = fresh_symbols(2, frozenset({"v2"}))
    assert [s.name for s in bumped] == ["vv1", "vv2"]


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
    assert free_symbols(parse_comb("f (" * n + "x" + ")" * n)) == frozenset({"f", "x"})


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


def test_free_symbols_and_primitives():
    t = apply(B, [FreeSym("a"), App(K, FreeSym("b"))])
    assert free_symbols(t) == frozenset({"a", "b"})
    assert primitives(t) == frozenset({"B", "K"})


def test_verify_compares_leaves_exactly():
    s, constants = poly.parse_with_constants("x |- B x")
    ok, _ = verify(App(I, Prim("B")), s, constants=constants)
    assert not ok  # prints like the constant B, but is the primitive
    ok, _ = verify(App(I, FreeSym("B")), s, constants=constants)
    assert ok
    ok, _ = verify(I, poly.parse("x |- x x"))
    assert not ok  # the normal form is a leaf, the polynomial an application


def test_prim_rejects_unknown_names():
    with pytest.raises(ValueError):
        Prim("S")
