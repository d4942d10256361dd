"""Finite functions, generators, clubs, and factorization."""

import copy
import itertools
import operator
import pathlib
import pickle
import random
import subprocess
import sys

from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings, strategies as st

from clubcomb import comb, poly
from clubcomb.errors import ArityMismatch, ClubViolation, IndexOutOfRange, ParseError
from clubcomb.finord import (
    Club,
    FinFun,
    GenKind,
    Generator,
    basis,
    classify,
    contains,
    factor,
    format_finfun,
    generator_kinds,
    minimal_club,
    parse_finfun,
    recompose,
    required_properties,
)
import oracles
from oracles import (
    add,
    copair,
    d,
    identity,
    injection,
    leq,
    make_generator,
    pointwise_compose,
    s,
    t,
    wreath,
)

ROOT = pathlib.Path(__file__).resolve().parents[1]

WREATH_CLOSED = (Club.ID, Club.BIJ, Club.MINJ, Club.INJ, Club.SRJ, Club.FUN)

finfuns = st.integers(1, 5).flatmap(
    lambda n: st.integers(0, 5).flatmap(
        lambda m: st.lists(st.integers(1, n), min_size=m, max_size=m).map(
            lambda t: FinFun(m, n, tuple(t))
        )
    )
)


def test_identity_tables():
    assert identity(0) == FinFun(0, 0, ())
    assert identity(3) == FinFun(3, 3, (1, 2, 3))


def test_compose_examples():
    s11 = make_generator(s(1, 1))
    t21 = make_generator(t(2, 1))
    assert pointwise_compose(s11, t21) == FinFun(2, 1, (1, 1))
    g, f = FinFun(3, 2, (1, 1, 2)), FinFun(3, 3, (3, 1, 2))
    assert pointwise_compose(g, f) == FinFun(3, 2, (2, 1, 1))


def test_compose_arity_mismatch():
    with pytest.raises(ArityMismatch):
        pointwise_compose(FinFun(1, 1, (1,)), FinFun(1, 2, (2,)))


@given(finfuns)
def test_compose_identity_laws(f):
    assert pointwise_compose(f, identity(f.dom)) == f
    assert pointwise_compose(identity(f.cod), f) == f


def test_add_examples():
    t21 = make_generator(t(2, 1))
    assert add(t21, identity(1)) == FinFun(3, 3, (2, 1, 3))
    d11 = make_generator(d(1, 1))  # the empty map into one point
    s11 = make_generator(s(1, 1))
    assert add(d11, s11) == FinFun(2, 2, (2, 2))


@given(finfuns)
def test_add_unit_laws(f):
    empty = identity(0)
    assert add(f, empty) == f
    assert add(empty, f) == f


@given(finfuns, finfuns)
def test_add_formula(a, b):
    c = add(a, b)
    for x in range(1, a.dom + 1):
        assert c(x) == a(x)
    for x in range(1, b.dom + 1):
        assert c(a.dom + x) == b(x) + a.cod


def test_injection_example():
    assert injection(2, [2, 3]) == FinFun(3, 5, (3, 4, 5))
    assert injection(1, [2, 3]) == FinFun(2, 5, (1, 2))


def test_copair_example():
    f = FinFun(2, 2, (2, 1))
    g = FinFun(1, 2, (1,))
    assert copair([f, g], 2) == FinFun(3, 2, (2, 1, 1))


def test_copair_empty_needs_codomain():
    assert copair([], 2) == FinFun(0, 2, ())
    with pytest.raises(TypeError):
        copair([])


def test_copair_restricts_to_components():
    # copair(fs) composed with the j-th injection is fs[j]
    fs = [FinFun(2, 3, (2, 2)), FinFun(1, 3, (3,)), FinFun(3, 3, (1, 3, 2))]
    ks = [f.dom for f in fs]
    cp = copair(fs, 3)
    for j, f in enumerate(fs, start=1):
        assert pointwise_compose(cp, injection(j, ks)) == f


def test_wreath_examples():
    t21 = make_generator(t(2, 1))
    assert wreath(t21, [2, 3]) == FinFun(5, 5, (3, 4, 5, 1, 2))
    s11 = make_generator(s(1, 1))
    assert wreath(s11, [2]) == FinFun(4, 2, (1, 2, 1, 2))


@given(finfuns)
def test_wreath_on_unit_widths_is_the_function_itself(f):
    assert wreath(f, [1] * f.cod) == f


def test_wreath_identity_thickening():
    # identity routed over blocks is the identity of the total width
    assert wreath(identity(3), [2, 1, 4]) == identity(7)


def test_wreath_width_count_must_match():
    with pytest.raises(ArityMismatch):
        wreath(identity(2), [1])


def test_make_generator_tables():
    assert make_generator(t(3, 1)) == FinFun(3, 3, (2, 1, 3))
    assert make_generator(t(3, 2)) == FinFun(3, 3, (1, 3, 2))
    assert make_generator(s(2, 1)) == FinFun(3, 2, (1, 1, 2))
    assert make_generator(s(2, 2)) == FinFun(3, 2, (1, 2, 2))
    assert make_generator(d(3, 2)) == FinFun(2, 3, (1, 3))
    assert make_generator(d(1, 1)) == FinFun(0, 1, ())


def test_generator_index_validation():
    for make, n, i, message in [
        (t, 1, 1, "t(1,1) needs 1 <= i < n, n > 1"),
        (t, 3, 3, "t(3,3) needs 1 <= i < n, n > 1"),
        (s, 2, 3, "s(2,3) needs 1 <= i <= n"),
        (s, 0, 1, "s(0,1) needs 1 <= i <= n"),
        (d, 2, 0, "d(2,0) needs 1 <= i <= n"),
    ]:
        with pytest.raises(IndexOutOfRange) as e:
            make(n, i)
        assert str(e.value) == message
    letters = {GenKind.TRANSPOSITION: "t", GenKind.DEGENERACY: "s", GenKind.FACE: "d"}
    for kind, n, i in itertools.product(GenKind, range(-1, 5), range(-1, 6)):
        legal = 1 <= i < n if kind is GenKind.TRANSPOSITION else 1 <= i <= n
        if legal:
            assert Generator(kind=kind, n=n, i=i) == Generator(kind, n, i)
            continue
        need = "1 <= i < n, n > 1" if kind is GenKind.TRANSPOSITION else "1 <= i <= n"
        with pytest.raises(IndexOutOfRange) as e:
            Generator(kind, n, i)
        assert str(e.value) == f"{letters[kind]}({n},{i}) needs {need}"


def test_finfun_call_checks_its_argument():
    f = FinFun(2, 2, (2, 1))
    assert (f(1), f(2)) == (2, 1)
    for j in (0, 3):
        with pytest.raises(IndexOutOfRange) as e:
            f(j)
        assert str(e.value) == f"argument {j} outside 1..2"


def test_generator_rejects_kinds_outside_genkind():
    # before any index check, so no kind can fail later in str or dom
    for kind in ("transposition", "x", None, 0, ["face"], GenKind):
        for n, i in ((3, 1), (3, 9)):
            with pytest.raises(ValueError) as e:
                Generator(kind, n, i)
            assert str(e.value) == f"unknown generator kind {kind!r}"


def test_generators_are_values_apart_from_tuples_and_terms():
    g = t(3, 1)
    assert repr(g) == "Generator(kind=<GenKind.TRANSPOSITION: 'transposition'>, n=3, i=1)"
    assert repr(d(4, 4)) == "Generator(kind=<GenKind.FACE: 'face'>, n=4, i=4)"
    assert (g.kind, g.n, g.i, g.dom) == (GenKind.TRANSPOSITION, 3, 1, 3)
    assert (s(2, 1).dom, d(3, 3).dom) == (3, 2)
    # == and hash go by (kind, n, i)
    same = Generator(GenKind.TRANSPOSITION, 3, 1)
    assert g == same and not g != same and hash(g) == hash(same) and {g: 1}[same] == 1
    for other in (t(3, 2), t(4, 1), s(3, 1), d(3, 1)):
        assert g != other and not g == other
    assert len({g, same, t(3, 2), s(2, 1), s(2, 1)}) == 3
    # never equal to a plain tuple, a term node, or anything else
    others = [(GenKind.TRANSPOSITION, 3, 1), tuple(g), [GenKind.TRANSPOSITION, 3, 1],
              poly.App(poly.Var(3), poly.Var(1)), comb.b_power(3),
              comb.b_power(2), comb.App(comb.B, comb.I), 1, None, "t(3,1)"]
    for other in others:
        assert not g == other and not other == g and g != other and other != g
    # not ordered, whatever the other operand
    for a, b in [(g, g), (g, t(3, 2)), (g, (GenKind.TRANSPOSITION, 3, 2)),
                 ((GenKind.TRANSPOSITION, 3, 2), g), (g, comb.b_power(2)), (g, 1)]:
        for order in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                order(a, b)
    with pytest.raises(FrozenInstanceError):
        g.n = 4
    with pytest.raises(FrozenInstanceError):
        del g.i
    assert g.n == 3
    for gen in (g, s(2, 1), d(3, 3)):
        for copied in (copy.copy(gen), copy.deepcopy(gen), pickle.loads(pickle.dumps(gen))):
            assert copied == gen and type(copied) is Generator and str(copied) == str(gen)


def test_generator_notation():
    assert str(t(3, 1)) == "t(3,1)"
    assert str(s(2, 1)) == "s(2,1)"
    assert str(d(3, 2)) == "d(3,2)"


def test_generator_minimal_clubs():
    assert minimal_club(make_generator(t(4, 2))) is Club.BIJ
    assert minimal_club(make_generator(s(3, 1))) is Club.MSRJ
    assert minimal_club(make_generator(d(3, 3))) is Club.MINJ


def test_classify_examples():
    c = classify(FinFun(3, 3, (1, 2, 3)))
    assert c.injective and c.surjective and c.monotone
    c = classify(FinFun(2, 2, (2, 1)))
    assert (c.injective and c.surjective) and not c.monotone
    c = classify(FinFun(3, 2, (1, 1, 2)))
    assert c.surjective and c.monotone and not c.injective
    c = classify(FinFun(0, 2, ()))
    assert c.injective and c.monotone and not c.surjective


def test_classify_matches_naive_predicates():
    for f in oracles.universe(3):
        c = classify(f)
        assert c.injective == oracles.naive_injective(f)
        assert c.surjective == oracles.naive_surjective(f)
        assert c.monotone == oracles.naive_monotone(f)
        assert (c.injective and c.surjective and c.monotone) == (
            f == identity(f.dom) and f.dom == f.cod
        )


def test_minimal_club_examples():
    assert minimal_club(identity(4)) is Club.ID
    assert minimal_club(FinFun(2, 2, (2, 1))) is Club.BIJ
    assert minimal_club(FinFun(1, 2, (1,))) is Club.MINJ
    assert minimal_club(FinFun(3, 2, (1, 1, 2))) is Club.MSRJ
    assert minimal_club(FinFun(1, 2, (2,))) is Club.MINJ
    assert minimal_club(FinFun(2, 3, (3, 1))) is Club.INJ
    assert minimal_club(FinFun(3, 2, (2, 1, 1))) is Club.SRJ
    assert minimal_club(FinFun(2, 2, (1, 1))) is Club.MFUN
    assert minimal_club(FinFun(3, 3, (2, 2, 1))) is Club.FUN


def test_contains_is_minimal_club_order():
    for f in oracles.universe(3):
        mc = minimal_club(f)
        for c in Club:
            assert contains(c, f) == leq(mc, c)


def test_lattice_order_against_membership():
    # c1 <= c2 exactly when membership in c1 always implies membership in c2
    funs = oracles.universe(3)
    for c1 in Club:
        for c2 in Club:
            implied = all(contains(c2, f) for f in funs if contains(c1, f))
            assert leq(c1, c2) == implied


def test_lattice_shape():
    assert leq(Club.ID, Club.BIJ) and leq(Club.ID, Club.MINJ) and leq(Club.ID, Club.MSRJ)
    assert leq(Club.BIJ, Club.INJ) and leq(Club.BIJ, Club.SRJ) and not leq(Club.BIJ, Club.MFUN)
    assert leq(Club.MINJ, Club.INJ) and leq(Club.MINJ, Club.MFUN) and not leq(Club.MINJ, Club.SRJ)
    assert leq(Club.MSRJ, Club.SRJ) and leq(Club.MSRJ, Club.MFUN) and not leq(Club.MSRJ, Club.INJ)
    for c in Club:
        assert leq(Club.ID, c) and leq(c, Club.FUN) and leq(c, c)


def test_basis_table():
    assert basis(Club.ID) == frozenset("BI")
    assert basis(Club.BIJ) == frozenset("BCI")
    assert basis(Club.MINJ) == frozenset("BKI")
    assert basis(Club.MSRJ) == frozenset("BWI")
    assert basis(Club.INJ) == frozenset("BCKI")
    assert basis(Club.SRJ) == frozenset("BCWI")
    assert basis(Club.MFUN) == frozenset("BKWI")
    assert basis(Club.FUN) == frozenset("BCKWI")


def test_basis_monotone_in_the_lattice():
    for c1 in Club:
        for c2 in Club:
            if leq(c1, c2):
                assert basis(c1) <= basis(c2)


def test_generator_kinds_table():
    assert generator_kinds(Club.ID) == frozenset()
    assert generator_kinds(Club.BIJ) == frozenset({GenKind.TRANSPOSITION})
    assert generator_kinds(Club.MINJ) == frozenset({GenKind.FACE})
    assert generator_kinds(Club.MSRJ) == frozenset({GenKind.DEGENERACY})
    assert generator_kinds(Club.FUN) == frozenset(
        {GenKind.TRANSPOSITION, GenKind.DEGENERACY, GenKind.FACE}
    )


def test_club_closed_under_composition():
    small = oracles.universe(3)
    for c in Club:
        members = [f for f in small if contains(c, f)]
        for f in members:
            for g in members:
                if f.cod == g.dom:
                    assert contains(c, pointwise_compose(g, f))


def test_club_closed_under_add():
    small = oracles.universe(3)
    for c in Club:
        members = [f for f in small if contains(c, f)]
        for f in members:
            for g in members:
                assert contains(c, add(f, g))


def test_club_closed_under_wreath_except_monotone_merging():
    # The monotone clubs with merging (Msrj, Mfun) escape wreath closure:
    # thickening a merged point interleaves the parallel copies, breaking
    # monotonicity (see test below).  The other six clubs are closed.
    small = oracles.universe(3)
    for c in WREATH_CLOSED:
        members = [f for f in small if contains(c, f)]
        for f in members:
            for ks in itertools.product((0, 1, 2, 3), repeat=f.cod):
                assert contains(c, wreath(f, list(ks)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_bases_of_wreath_closed_clubs_compute_only_their_members(data):
    # a closed term over basis(c) applied to fresh symbols: a normal form
    # with no primitive left is a polynomial whose usage lies in c
    # (test_msrj_and_mfun_bases_compute_more_than_their_clubs pins B B W,
    # the counterexample for the two clubs left out)
    c = data.draw(st.sampled_from(WREATH_CLOSED))
    prims = st.sampled_from([comb.Prim(name) for name in sorted(basis(c))])
    t = data.draw(st.recursive(prims, lambda sub: st.tuples(sub, sub).map(
        lambda lr: comb.App(*lr)), max_leaves=10))
    n = data.draw(st.integers(1, 6))
    r = comb.normalize(comb.apply(t, [comb.FreeSym(f"v{k}") for k in range(1, n + 1)]), 500)
    if not r.exhausted and not oracles.naive_primitives(r.term):
        s = poly.Sequent(n, poly._rebuild(r.term, lambda v: poly.Var(int(v.name[1:]))))
        assert contains(c, poly.usage(s).usage), (c, comb.format_comb(t), n)


def test_wreath_escapes_monotone_clubs_on_merged_blocks():
    # s(1,1) is a monotone surjection, but doubling its single codomain
    # point yields [1,2,1,2]: still surjective, no longer monotone.
    s11 = make_generator(s(1, 1))
    w = wreath(s11, [2])
    assert w == FinFun(4, 2, (1, 2, 1, 2))
    assert contains(Club.MSRJ, s11) and contains(Club.MFUN, s11)
    assert not contains(Club.MSRJ, w) and not contains(Club.MFUN, w)
    assert contains(Club.SRJ, w) and contains(Club.FUN, w)


def test_wreath_stays_monotone_on_thin_blocks():
    # with every width at most 1 no copies interleave, so even the
    # monotone-with-merging clubs keep their wreaths
    for c in (Club.MSRJ, Club.MFUN):
        for f in oracles.universe(3):
            if not contains(c, f):
                continue
            for ks in itertools.product((0, 1), repeat=f.cod):
                assert contains(c, wreath(f, list(ks)))


def test_factor_example_srj():
    f = FinFun(3, 2, (2, 1, 1))
    chain = factor(f, Club.SRJ)
    assert chain == [t(3, 1), t(3, 2), s(2, 1)]
    assert oracles.recompose(chain, f.dom) == f


def test_factor_example_minj():
    f = FinFun(1, 2, (1,))
    assert factor(f, Club.MINJ) == [d(2, 2)]
    f = FinFun(1, 2, (2,))
    assert factor(f, Club.MINJ) == [d(2, 1)]


def test_factor_identity_is_empty():
    assert factor(identity(3), Club.ID) == []
    assert factor(identity(0), Club.ID) == []


def test_factor_rejects_outside_club():
    f = FinFun(3, 2, (2, 1, 1))
    with pytest.raises(ClubViolation) as exc:
        factor(f, Club.BIJ)
    assert exc.value.minimal is Club.SRJ


def test_factor_generators_stay_in_club():
    for f in oracles.universe(3):
        for c in Club:
            if not contains(c, f):
                continue
            chain = factor(f, c)
            kinds = generator_kinds(c)
            assert all(g.kind in kinds for g in chain)


def _assert_factor_emits_checked_generators(f):
    # factor builds its generators with tuple.__new__, past Generator's
    # index checks, so the checking constructor must accept every one
    for c in Club:
        if contains(c, f):
            for g in factor(f, c):
                assert type(g) is Generator and g == Generator(g.kind, g.n, g.i), (f, c, g)


def test_factor_emits_only_valid_generators():
    for f in oracles.universe(4):
        _assert_factor_emits_checked_generators(f)


@given(st.integers(1, 40).flatmap(
    lambda n: st.lists(st.integers(1, n), max_size=40).map(lambda t: FinFun(len(t), n, tuple(t)))))
def test_factor_emits_only_valid_generators_up_to_40_points(f):
    _assert_factor_emits_checked_generators(f)


def test_factor_roundtrip_small():
    for f in oracles.universe(3):
        for c in Club:
            if contains(c, f):
                assert oracles.recompose(factor(f, c), f.dom) == f


def test_factor_transposition_count_bound():
    # a bubble sort can never use more than m(m-1)/2 swaps
    for f in oracles.universe(3):
        chain = factor(f, Club.FUN)
        swaps = sum(1 for g in chain if g.kind is GenKind.TRANSPOSITION)
        assert swaps <= f.dom * (f.dom - 1) // 2


def test_factor_transpositions_match_a_full_bubble_sort():
    # later passes start only next to the last pass's swaps: same swaps, same order
    def check(f, c):
        swaps = oracles.bubble_transpositions(f.table)
        expected = [t(f.dom, i) for i in swaps]
        got = [g for g in factor(f, c) if g.kind is GenKind.TRANSPOSITION]
        assert got == expected, (f, c)
        assert [(type(g), g.n, g.i) for g in got] == [(Generator, f.dom, i) for i in swaps]

    for f in oracles.universe(5):
        for c in Club:
            if contains(c, f):
                check(f, c)
    rng = random.Random(12)
    for _ in range(2000):
        m, n = rng.randint(0, 60), rng.randint(1, 60)
        check(FinFun(m, n, tuple(rng.randint(1, n) for _ in range(m))), Club.FUN)

def test_recompose_matches_the_oracle_on_every_factor_chain():
    for f in oracles.universe(4):
        for c in Club:
            if contains(c, f):
                chain = factor(f, c)
                assert recompose(chain, f.dom) == oracles.recompose(chain, f.dom) == f, (f, c)


def test_recompose_matches_the_oracle_on_random_generator_sequences():
    gens = oracles.legal_generators(5)
    rng = random.Random(11)
    for _ in range(2000):
        dom = rng.randint(0, 5)
        chain, n = [], dom
        for _ in range(rng.randint(0, 12)):
            fits = [g for g in gens if g.dom == n]
            if not fits:
                break
            chain.append(rng.choice(fits))
            n = chain[-1].n
        assert recompose(chain, dom) == oracles.recompose(chain, dom), (chain, dom)
        misfits = [g for g in gens if g.dom != n]
        with pytest.raises(ArityMismatch):
            recompose(chain + [rng.choice(misfits)], dom)


def test_parse_format_finfun():
    assert parse_finfun("3->2:[2,1,1]") == FinFun(3, 2, (2, 1, 1))
    assert parse_finfun("0->2:[]") == FinFun(0, 2, ())
    assert format_finfun(FinFun(3, 2, (2, 1, 1))) == "3->2:[2,1,1]"
    assert format_finfun(FinFun(0, 0, ())) == "0->0:[]"


@given(finfuns)
def test_finfun_text_roundtrip(f):
    assert parse_finfun(format_finfun(f)) == f


def test_parse_finfun_rejects_garbage():
    for bad in ["3->2", "3->2:[2,1]", "3->2:[2,1,3]", "x->2:[1]", "2->2:[0,1]", ""]:
        with pytest.raises(ParseError):
            parse_finfun(bad)


def test_required_properties_determine_membership():
    for f in oracles.universe(3):
        props = (
            oracles.naive_injective(f),
            oracles.naive_surjective(f),
            oracles.naive_monotone(f),
        )
        for c in Club:
            required = required_properties(c)
            assert contains(c, f) == all(ok for need, ok in zip(required, props) if need)


def test_club_census_output_is_pinned():
    r = subprocess.run([sys.executable, str(ROOT / "scripts" / "club_census.py"), "--max-size", "3"],
                       capture_output=True)
    assert r.returncode == 0
    assert r.stdout == (ROOT / "tests" / "golden" / "club_census_max_size_3.out").read_bytes()


def test_club_census_exits_non_zero_on_a_chain_that_does_not_recompose():
    script = str(ROOT / "scripts" / "club_census.py")
    code = ("import runpy, sys\n"
            "from clubcomb import finord\n"
            "finord.recompose = lambda chain, dom: None\n"
            f"sys.argv = [{script!r}, '--max-size', '2']\n"
            f"runpy.run_path({script!r}, run_name='__main__')")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (r.returncode, r.stderr) == (1, "factor(0->0:[], Id) does not recompose\n")
