"""Polynomial terms: parsing, action, substitution, usage analysis."""

import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, strategies as st

from clubcomb import comb, finord, poly
from clubcomb.errors import (
    ArityMismatch,
    ClubCombError,
    ParseError,
)
from clubcomb.finord import Club, FinFun
from clubcomb.poly import (
    App,
    Sequent,
    Var,
    act,
    format_applications,
    format_bracketing,
    format_sequent,
    parse,
    parse_with_constants,
    usage,
)
import oracles
from oracles import all_bracketings, length, linear, substitute


def seq(n, term):
    return Sequent(n, term)


@st.composite
def sequents(draw, max_context=4, max_leaves=12):
    n = draw(st.integers(1, max_context))
    term = draw(
        st.recursive(
            st.integers(1, n).map(Var),
            lambda child: st.tuples(child, child).map(lambda lr: App(*lr)),
            max_leaves=max_leaves,
        )
    )
    return Sequent(n, term)


finfuns_from = st.integers(1, 4).flatmap(
    lambda n: st.integers(0, 4).flatmap(
        lambda m: st.lists(st.integers(1, n), min_size=m, max_size=m).map(
            lambda t: FinFun(m, n, tuple(t))
        )
    )
)


def test_parse_simple():
    assert parse("x |- x") == seq(1, Var(1))
    assert parse("x1,x2 |- x1 x2 x2") == seq(2, App(App(Var(1), Var(2)), Var(2)))
    assert parse("x1,x2,x3 |- x1 (x2 x3)") == seq(3, App(Var(1), App(Var(2), Var(3))))


def test_parse_names_are_erased():
    assert parse("a, b |- a b b") == parse("x1,x2 |- x1 x2 x2")
    assert parse("cat , dog |- dog cat") == seq(2, App(Var(2), Var(1)))


def test_parse_is_left_associative():
    assert parse("x,y,z |- x y z") == seq(3, App(App(Var(1), Var(2)), Var(3)))


def test_parse_whitespace_insensitive():
    assert parse("x1 ,x2|-x1(x2 x2)") == parse("x1, x2 |- x1 (x2 x2)")


def test_parse_unused_variables_allowed():
    assert parse("x1,x2 |- x1") == seq(2, Var(1))


def test_parse_errors():
    with pytest.raises(ParseError, match=r"^undeclared variable: y$"):
        parse("x |- y")
    with pytest.raises(ParseError, match=r"^undeclared variable: x$"):
        parse("|- x")
    with pytest.raises(ParseError, match=r"^duplicate context variable: x$"):
        parse("x, x |- x")
    for bad in ["x |-", "x | x", "x |- (x", "x |- x)", "x, |- x", "x |- x , x",
                "|- ", "x y |- x", "x |- x |- x", "1x |- 1x"]:
        with pytest.raises(ParseError):
            parse(bad)


def test_sequent_validates_indices():
    with pytest.raises(ValueError):
        Sequent(1, Var(2))
    with pytest.raises(ValueError):
        Sequent(2, App(Var(0), Var(1)))


def test_format_sequent_roundtrip():
    s = parse("a,b,c |- a (b c) a")
    assert format_sequent(s) == "x1, x2, x3 |- x1 (x2 x3) x1"
    assert parse(format_sequent(s)) == s
    assert str(parse("x, y |- y x")) == "x1, x2 |- x2 x1"


@given(sequents(max_context=5, max_leaves=16))
def test_format_sequent_matches_the_isinstance_reference(s):
    assert format_sequent(s) == oracles.naive_format_sequent(s)


def test_format_applications_hands_name_a_stored_power_whole_at_a_spine_head():
    # comb.b_power stores B^k's power as a third item: name gets such a node
    # whole where it heads a spine, an argument once its parentheses open,
    # and every plain pair is walked through its left and right
    p4, p3, p2 = comb.b_power(4), comb.b_power(3), comb.b_power(2)
    plain = comb.parse_comb("B B (B B B)")  # equals p3, but stores no power
    t = comb.apply(p4, [comb.C, p3, comb.App(comb.K, p2), plain])
    seen = []

    def name(x):
        seen.append(x)
        return f"<{x[2]}>" if type(x) is App else x.name

    assert format_applications(t, name) == "<4> C (<3>) (K (<2>)) (B B (B B B))"
    nodes = [x for x in seen if type(x) is App]
    assert len(nodes) == 3 and all(any(x is p for x in nodes) for p in (p4, p3, p2))
    assert sorted(x.name for x in seen if type(x) is not App) == ["B"] * 5 + ["C", "K"]


def test_deep_terms_shapes_and_sequents_have_value_semantics():
    n = 10**4

    def left_comb(first, rest):
        t = first
        for leaf in rest:
            t = App(t, leaf)
        return t

    term = left_comb(Var(1), [Var(2)] * n)
    assert term == left_comb(Var(1), [Var(2)] * n)
    assert hash(term) == hash(left_comb(Var(1), [Var(2)] * n))
    assert term != left_comb(Var(2), [Var(2)] * n)  # differs at the deepest leaf only
    assert seq(2, term) == seq(2, left_comb(Var(1), [Var(2)] * n))
    assert hash(seq(2, term)) == hash(seq(2, left_comb(Var(1), [Var(2)] * n)))
    assert seq(2, term) != seq(2, left_comb(Var(2), [Var(2)] * n))
    # the skeleton is the linear term of the same shape, occurrence j is Var j
    skeleton = left_comb(Var(1), [Var(j) for j in range(2, n + 2)])
    assert usage(seq(2, term)).skeleton == skeleton
    assert hash(usage(seq(2, term)).skeleton) == hash(skeleton)
    assert skeleton != term  # same shape, other leaves
    # the same leaves, another bracketing at the deepest node only
    rebracketed = left_comb(App(Var(1), App(Var(2), Var(3))), [Var(j) for j in range(4, n + 2)])
    assert skeleton != rebracketed
    with pytest.raises(FrozenInstanceError):
        term.left = Var(1)
    with pytest.raises(FrozenInstanceError):
        skeleton.left = Var(1)
    assert repr(App(Var(1), Var(2))) == "App(left=Var(index=1), right=Var(index=2))"


def test_usage_examples():
    dec = usage(parse("x1,x2 |- x1 x2 x2"))
    assert dec.usage == FinFun(3, 2, (1, 2, 2))
    assert dec.skeleton == App(App(Var(1), Var(2)), Var(3))
    assert format_bracketing(dec.skeleton) == "((**)*)"

    dec = usage(parse("x1,x2 |- x2 x1"))
    assert dec.usage == FinFun(2, 2, (2, 1))
    assert format_bracketing(dec.skeleton) == "(**)"

    dec = usage(parse("x |- x"))
    assert dec.usage == FinFun(1, 1, (1,))
    assert format_bracketing(dec.skeleton) == "*"

    dec = usage(parse("x1,x2 |- x1"))
    assert dec.usage == FinFun(1, 2, (1,))
    assert dec.skeleton == Var(1)

    dec = usage(parse_with_constants("x |- f (f x)")[0])
    assert dec.usage == FinFun(3, 3, (1, 2, 3))
    assert dec.skeleton == App(Var(1), App(Var(2), Var(3)))


def test_linear_is_ordered():
    t = App(App(Var(2), Var(2)), Var(1))
    assert linear(t) == seq(3, App(App(Var(1), Var(2)), Var(3)))
    assert linear(Var(2)) == seq(1, Var(1))


def assert_usage_factors(s):
    """The skeleton is linear, and the usage acting on it gives s back."""
    dec = usage(s)
    m = dec.usage.dom
    assert list(oracles._leaves(dec.skeleton)) == [Var(j) for j in range(1, m + 1)]
    assert act(Sequent(m, dec.skeleton), dec.usage) == s


@given(sequents())
def test_usage_act_roundtrip(s):
    assert_usage_factors(s)


@given(sequents(max_context=3))
def test_usage_factors_sequents_parsed_with_constants(s):
    context, term = format_sequent(s).split(" |- ")
    text = f"{context.partition(', ')[2]} |- {term} c x1"  # x1 and c become constants
    parsed, constants = parse_with_constants(text)
    assert constants[-2:] == ("c", "x1")
    assert_usage_factors(parsed)


def test_act_example():
    s = parse("x1,x2,x3 |- x1 (x2 x3)")
    swapped = act(s, oracles.make_generator(oracles.t(3, 2)))
    assert swapped == parse("x1,x2,x3 |- x1 (x3 x2)")
    merged = act(parse("x1,x2 |- x2 x1"), FinFun(2, 1, (1, 1)))
    assert merged == parse("x |- x x")


def test_act_arity_mismatch():
    with pytest.raises(ArityMismatch):
        act(parse("x |- x"), FinFun(2, 2, (1, 2)))


def test_substitute_example():
    outer = parse("x, y |- x y")
    inner1 = parse("u, v |- u v")
    inner2 = parse("w |- w")
    assert substitute(outer, [inner1, inner2]) == parse("u,v,w |- (u v) w")


def test_substitute_shifts_blocks():
    outer = parse("f, g |- g f")
    inner1 = parse("a |- a a")
    inner2 = parse("b, c |- c")
    # context is [a, b, c]; g's slot takes the second block
    assert substitute(outer, [inner1, inner2]) == parse("a,b,c |- c (a a)")


def test_substitute_arity_mismatch():
    with pytest.raises(ArityMismatch):
        substitute(parse("x, y |- x y"), [parse("x |- x")])


@given(sequents(max_context=3, max_leaves=6), finfuns_from, finfuns_from)
def test_act_functoriality(s, a, b):
    if a.dom != s.context_size:
        return
    if b.dom != a.cod:
        return
    assert act(act(s, a), b) == act(s, oracles.pointwise_compose(b, a))


@given(sequents())
def test_act_identity(s):
    assert act(s, oracles.identity(s.context_size)) == s


@given(st.data())
def test_act_commutes_with_substitution(data):
    # acting on each piece then substituting equals substituting then acting
    # along the disjoint union of the actions
    g = data.draw(sequents(max_context=3, max_leaves=5))
    fs = [data.draw(sequents(max_context=3, max_leaves=4)) for _ in range(g.context_size)]
    acts = [
        data.draw(
            st.integers(1, 3).flatmap(
                lambda c, m=f.context_size: st.lists(
                    st.integers(1, c), min_size=m, max_size=m
                ).map(lambda t, c=c, m=m: FinFun(m, c, tuple(t)))
            )
        )
        for f in fs
    ]
    lhs = substitute(g, [act(f, a) for f, a in zip(fs, acts)])
    summed = acts[0]
    for a in acts[1:]:
        summed = oracles.add(summed, a)
    rhs = act(substitute(g, fs), summed)
    assert lhs == rhs


@given(st.data())
def test_act_whiskering_uses_wreath(data):
    # acting on the outer polynomial first equals substituting the routed
    # pieces and acting along the wreath of the routing over the arities
    g = data.draw(sequents(max_context=3, max_leaves=5))
    m = g.context_size
    n = data.draw(st.integers(1, 3))
    a = FinFun(m, n, tuple(data.draw(st.integers(1, n)) for _ in range(m)))
    fs = [data.draw(sequents(max_context=3, max_leaves=4)) for _ in range(n)]
    lhs = substitute(act(g, a), fs)
    picked = [fs[a(j) - 1] for j in range(1, m + 1)]
    ks = [f.context_size for f in fs]
    rhs = act(substitute(g, picked), oracles.wreath(a, ks))
    assert lhs == rhs


def test_minimal_club_of_examples():
    for text, club in [("x1,x2,x3 |- x1 (x2 x3)", Club.ID), ("x1,x2 |- x2 x1", Club.BIJ),
                       ("x1,x2 |- x1", Club.MINJ), ("x1,x2 |- x1 x2 x2", Club.MSRJ),
                       ("x1,x2 |- x1 x1", Club.MFUN), ("x1,x2 |- x2 x1 x1", Club.SRJ)]:
        assert finord.minimal_club(usage(parse(text)).usage) is club


def test_bracketing_length():
    assert length(Var(1)) == 1
    assert length(App(Var(1), App(Var(2), Var(2)))) == 3


def test_all_bracketings_catalan_counts():
    for n, count in [(1, 1), (2, 1), (3, 2), (4, 5), (5, 14), (6, 42)]:
        shapes = all_bracketings(n)
        assert len(shapes) == count
        assert len(set(map(format_bracketing, shapes))) == count
        assert all(linear(b) == Sequent(n, b) for b in shapes)


def test_format_bracketing():
    assert format_bracketing(Var(1)) == "*"
    assert format_bracketing(App(Var(1), App(Var(2), Var(3)))) == "(*(**))"
    assert format_bracketing(comb.App(comb.B, comb.App(comb.K, comb.I))) == "(*(**))"


def _pairs(child):
    return st.tuples(child, child).map(lambda lr: App(*lr))


# Terms of both languages, and of str leaves that look like repr's own text;
# the combinator leaves include recorded powers of B (nodes of three items).
_WALKED_TERMS = st.one_of(
    st.recursive(st.integers(1, 4).map(Var), _pairs, max_leaves=12),
    st.recursive(st.sampled_from([comb.B, comb.K, comb.FreeSym("f"), comb.FreeSym("B")]
                                 + [comb.b_power(k) for k in (2, 3, 5)]), _pairs, max_leaves=12),
    st.recursive(st.sampled_from(["x", "(", ")", ", right="]), _pairs, max_leaves=8),
)
_REPR_NAMES = {"App": App, "Var": Var, "Prim": comb.Prim, "FreeSym": comb.FreeSym}


def _assert_same_value(t, *others):
    for other in others:
        assert t == other and other == t
        assert hash(t) == hash(other)


@given(_WALKED_TERMS)
def test_repr_and_shape_match_the_recursive_references(t):
    assert repr(t) == oracles.naive_repr(t)
    assert format_bracketing(t) == oracles.naive_format_bracketing(t)
    plain = eval(repr(t), dict(_REPR_NAMES))  # pairs only: no stored power
    _assert_same_value(t, plain, copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t)))
    assert repr(plain) == repr(t)


def test_repr_and_shape_of_a_deep_chain():
    n = 10**4
    power = comb.b_power(2)  # stores its power; B B B as a plain pair below
    plain_power = App(App(comb.Prim("B"), comb.Prim("B")), comb.Prim("B"))
    t, plain = comb.FreeSym("x"), comb.FreeSym("x")
    for _ in range(n):
        t, plain = App(power, t), App(plain_power, plain)
    head = "App(left=App(left=App(left=Prim(name='B'), right=Prim(name='B')), right=Prim(name='B')), right="
    assert repr(t) == repr(plain) == head * n + "FreeSym(name='x')" + ")" * n
    assert format_bracketing(t) == "(((**)*)" * n + "*" + ")" * n
    _assert_same_value(t, plain, copy.copy(t))
    left_deep = Var(1)
    for _ in range(n):
        left_deep = App(left_deep, Var(2))
    assert repr(left_deep) == "App(left=" * n + "Var(index=1)" + ", right=Var(index=2))" * n
    assert format_bracketing(left_deep) == "(" * n + "*" + "*)" * n


def test_parse_with_constants_basic():
    s, consts = parse_with_constants("x |- a (b x)")
    assert consts == ("a", "b")
    assert s == parse("a, b, x |- a (b x)")


def test_parse_with_constants_repeated_occurrences():
    # each occurrence gets its own leading slot, even for the same name
    s, consts = parse_with_constants("x |- a (a x)")
    assert consts == ("a", "a")
    assert s == seq(3, App(Var(1), App(Var(2), Var(3))))


def test_parse_with_constants_none():
    s, consts = parse_with_constants("x, y |- y x")
    assert consts == ()
    assert s == parse("x, y |- y x")


def test_parse_with_constants_empty_context():
    s, consts = parse_with_constants("|- k")
    assert consts == ("k",)
    assert s == seq(1, Var(1))


def _outcome(parser, text):
    """The parser's result, or the type and message of the error it raised."""
    try:
        return parser(text)
    except ClubCombError as e:
        return type(e), str(e)


token_strings = st.lists(
    st.tuples(st.sampled_from(["", " "]),
              st.sampled_from(["a", "b", "x", "x1", "y_2", "(", ")", ",", "|-"])),
    max_size=14,
).map(lambda pairs: "".join(sep + tok for sep, tok in pairs))


@given(token_strings)
def test_parse_matches_the_recursive_reference(text):
    assert _outcome(parse_with_constants, text) == _outcome(oracles.naive_parse_with_constants, text)
    assert _outcome(parse, text) == _outcome(oracles.naive_parse, text)


@given(sequents(max_context=3))
def test_parse_matches_the_recursive_reference_on_valid_input(s):
    context, term = format_sequent(s).split(" |- ")
    text = f"{context.partition(', ')[2]} |- {term}"  # x1 becomes a constant
    assert parse_with_constants(text) == oracles.naive_parse_with_constants(text)
