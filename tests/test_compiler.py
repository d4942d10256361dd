"""Compilation: bracketing witnesses, generator lifts, and the full pipeline."""

import gc
import itertools
import random
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

import clubcomb
from clubcomb import comb, finord, poly
from clubcomb.comb import App, B, C, I, K, W, FreeSym
from clubcomb.compiler import compile, compile_bracketing, lift
from clubcomb.errors import (
    ArityMismatch,
    ArityZero,
    ClubViolation,
    IndexOutOfRange,
    ParseError,
    VerificationFailed,
)
from clubcomb.finord import Club, FinFun
from clubcomb.poly import LEAF, Node
import oracles


def test_compile_bracketing_single_leaf():
    assert compile_bracketing(LEAF) == I


def test_compile_bracketing_pair():
    # witness I B I: reduces on two arguments in 3 steps
    w = compile_bracketing(Node(LEAF, LEAF))
    assert w == App(App(I, B), I)
    ok, _ = comb.verify(w, oracles.linear(Node(LEAF, LEAF)))
    assert ok


def test_compile_bracketing_right_nested():
    w = compile_bracketing(Node(LEAF, Node(LEAF, LEAF)))
    assert w == App(App(B, B), App(App(I, B), I))


def test_compile_bracketing_all_shapes_verify_over_b_and_i():
    for n in range(1, 7):
        for shape in oracles.all_bracketings(n):
            w = compile_bracketing(shape)
            assert oracles.naive_primitives(w) <= {"B", "I"}
            ok, _ = comb.verify(w, oracles.linear(shape))
            assert ok


def test_compile_bracketing_deterministic():
    shape = Node(Node(LEAF, LEAF), Node(LEAF, LEAF))
    assert compile_bracketing(shape) == compile_bracketing(shape)


def test_compile_bracketing_matches_the_contraction_reference_on_all_small_shapes():
    for n in range(1, 9):
        for shape in oracles.all_bracketings(n):
            assert compile_bracketing(shape) == oracles.naive_compile_bracketing(shape)


@given(st.recursive(st.just(LEAF), lambda c: st.tuples(c, c).map(lambda lr: Node(*lr)),
                    max_leaves=60))
def test_compile_bracketing_matches_the_contraction_reference(shape):
    assert compile_bracketing(shape) == oracles.naive_compile_bracketing(shape)


def test_lift_transposition_structure_and_behavior():
    a = FreeSym("a")
    assert lift(a, finord.transposition(2, 1)) == App(App(I, C), a)
    assert lift(B, finord.transposition(3, 2)) == App(App(B, C), B)
    w = lift(compile_bracketing(Node(LEAF, LEAF)), finord.transposition(2, 1))
    ok, _ = comb.verify(w, poly.parse("x1,x2 |- x2 x1"))
    assert ok


def test_lift_face_structure_and_behavior():
    assert lift(I, finord.face(2, 2)) == App(App(B, K), I)
    ok, _ = comb.verify(lift(I, finord.face(2, 2)), poly.parse("x1,x2 |- x1"))
    assert ok
    assert lift(I, finord.face(2, 1)) == App(App(I, K), I)
    ok, _ = comb.verify(lift(I, finord.face(2, 1)), poly.parse("x1,x2 |- x2"))
    assert ok


def test_lift_degeneracy_structure_and_behavior():
    a = FreeSym("a")
    assert lift(a, finord.degeneracy(2, 2)) == App(App(B, W), a)
    assert lift(I, finord.degeneracy(1, 1)) == App(App(I, W), I)
    ok, _ = comb.verify(lift(I, finord.degeneracy(1, 1)), poly.parse("x |- x x"))
    assert ok


def test_lift_index_validation():
    with pytest.raises(IndexOutOfRange):
        lift(I, finord.transposition(2, 2))
    with pytest.raises(IndexOutOfRange):
        lift(I, finord.face(2, 3))
    with pytest.raises(IndexOutOfRange):
        lift(I, finord.degeneracy(2, 0))


def test_lift_face_arity_zero():
    with pytest.raises(ArityZero):
        lift(I, finord.face(1, 1))


# Each family's letter, lifting combinator and domain minus n, written out
# independently of the finord table every consumer reads.
FAMILIES = {
    finord.GenKind.TRANSPOSITION: ("t", C, 0),
    finord.GenKind.FACE: ("d", K, -1),
    finord.GenKind.DEGENERACY: ("s", W, 1),
}


def test_generator_families_agree_in_every_consumer():
    for kind, (letter, prim, offset) in FAMILIES.items():
        for n in range(1, 7):
            for i in range(1, n if kind is finord.GenKind.TRANSPOSITION else n + 1):
                g = finord.Generator(kind, n, i)
                f = oracles.make_generator(g)
                assert (g.dom, f.dom, f.cod) == (n + offset, n + offset, n)
                assert str(g) == f"{letter}({n},{i})"
                if g.dom:
                    assert lift(I, g).left.right is prim
                for c in Club:
                    if kind in finord.generator_kinds(c):
                        assert finord.contains(c, f)
    for c in Club:
        lifting = {FAMILIES[k][1].name for k in finord.generator_kinds(c)}
        assert finord.basis(c) == {"B", "I"} | lifting


def test_lifts_match_action_on_all_small_bracketings():
    # lifting a witness along a generator must compute the acted polynomial
    for n in range(1, 5):
        for shape in oracles.all_bracketings(n):
            s = oracles.linear(shape)
            a = compile_bracketing(shape)
            for i in range(1, n):
                g = finord.transposition(n, i)
                acted = poly.act(s, oracles.make_generator(g))
                ok, _ = comb.verify(lift(a, g), acted)
                assert ok
            for i in range(1, n + 2):
                g = finord.face(n + 1, i)
                acted = poly.act(s, oracles.make_generator(g))
                ok, _ = comb.verify(lift(a, g), acted)
                assert ok
            if n >= 2:
                for i in range(1, n):
                    g = finord.degeneracy(n - 1, i)
                    acted = poly.act(s, oracles.make_generator(g))
                    ok, _ = comb.verify(lift(a, g), acted)
                    assert ok


def test_compile_identity_usage():
    report = compile(poly.parse("x1,x2,x3 |- x1 (x2 x3)"))
    assert report.club_used is Club.ID
    assert report.output == App(App(B, B), App(App(I, B), I))
    assert report.generator_chain == ()
    assert report.verified and report.steps > 0
    assert oracles.naive_primitives(report.output) <= finord.basis(Club.ID)


def test_compile_swap():
    report = compile(poly.parse("x1,x2 |- x2 x1"))
    assert report.club_used is Club.BIJ
    assert report.generator_chain == (finord.transposition(2, 1),)
    assert report.output == App(App(I, C), App(App(I, B), I))
    assert report.verified


def test_compile_duplication():
    report = compile(poly.parse("x1,x2 |- x1 x1"))
    assert report.club_used is Club.MFUN
    assert report.generator_chain == (finord.degeneracy(1, 1), finord.face(2, 2))
    assert report.verified
    assert oracles.naive_primitives(report.output) <= finord.basis(Club.MFUN)


def test_compile_in_requested_club():
    # a sequent whose minimal club is Id still compiles in a larger club
    report = compile(poly.parse("x1,x2 |- x1 x2"), club=Club.FUN)
    assert report.club_used is Club.FUN
    assert report.verified


def test_compile_club_violation_names_minimal():
    with pytest.raises(ClubViolation) as exc:
        compile(poly.parse("x1,x2 |- x2 x1"), club=Club.ID)
    assert exc.value.minimal is Club.BIJ
    with pytest.raises(ClubViolation) as exc:
        compile(poly.parse("x1,x2 |- x1"), club=Club.BIJ)
    assert exc.value.minimal is Club.MINJ


def test_compile_report_is_deterministic():
    s = poly.parse("x1,x2,x3 |- x3 (x1 x1) x2")
    assert compile(s) == compile(s)


def test_compile_chain_recomposes_to_usage():
    s = poly.parse("x1,x2,x3 |- x3 x1 x3")
    report = compile(s)
    assert oracles.recompose(report.generator_chain, report.usage.dom) == report.usage
    assert report.usage == poly.usage(s).usage


def test_compile_checks_the_chain_before_lifting_it(monkeypatch):
    s = poly.parse("x, y |- x y")
    recompose = finord.recompose
    # well typed but wrong: factor's chain judged as three swaps of an identity usage
    monkeypatch.setattr(finord, "recompose",
                        lambda chain, dom: recompose([finord.transposition(2, 1)] * 3, dom))
    with pytest.raises(VerificationFailed, match=r"^factor\(2->2:\[1,2\], Id\) does not recompose$"):
        compile(s)
    # ill typed: the swap needs three arguments
    monkeypatch.setattr(finord, "recompose",
                        lambda chain, dom: recompose([finord.transposition(3, 1)], dom))
    with pytest.raises(ArityMismatch):
        compile(s)


def test_factor_and_compile_refuse_a_chain_recompose_disagrees_with(monkeypatch):
    monkeypatch.setattr(finord, "recompose", lambda chain, dom: FinFun(0, 0, ()))
    with pytest.raises(VerificationFailed, match=r"^factor\(2->2:\[2,1\], Bij\) does not recompose$"):
        clubcomb.factor(FinFun(2, 2, (2, 1)), Club.BIJ)
    with pytest.raises(VerificationFailed, match=r"^factor\(2->2:\[2,1\], Fun\) does not recompose$"):
        compile(poly.parse("x, y |- y x"), club=Club.FUN)


def test_compile_reports_the_chain_factor_returned_and_judged(monkeypatch):
    # Verification does not judge the chain: lift reads only a generator's
    # kind and i, so a factor returning [t(3,1)] for the usage 2->2:[2,1] of
    # "x, y |- y x" gave a term that verified.  Only factor's own check
    # stands between a wrong chain and the report.
    factor, recompose = finord.factor, finord.recompose
    returned, judged = [], []

    def spy_factor(f, club):
        chain = factor(f, club)
        returned.append(chain)
        return chain

    def spy_recompose(chain, dom):
        judged.append((chain, recompose(chain, dom)))
        return judged[-1][1]

    monkeypatch.setattr(finord, "factor", spy_factor)
    monkeypatch.setattr(finord, "recompose", spy_recompose)
    for s in all_small_sequents(3, 3):
        for club in (None, Club.FUN):
            returned.clear()
            judged.clear()
            report = compile(s, club=club)
            [chain] = returned
            [(checked, recomposed)] = judged
            assert checked is chain and recomposed == report.usage
            assert report.generator_chain == tuple(chain)


def all_small_sequents(max_occurrences, max_context):
    for k in range(1, max_occurrences + 1):
        for shape in oracles.all_bracketings(k):
            lin = oracles.linear(shape)
            for n in range(1, max_context + 1):
                for table in itertools.product(range(1, n + 1), repeat=k):
                    yield poly.act(lin, FinFun(k, n, table))


def test_compile_exhaustive_small_soundness():
    for s in all_small_sequents(3, 3):
        report = compile(s)
        assert report.verified, poly.format_sequent(s)
        assert oracles.naive_primitives(report.output) <= finord.basis(report.club_used)
        assert oracles.recompose(report.generator_chain, report.usage.dom) == report.usage


def test_steps_count_the_witness_primitives():
    # every primitive of a compiled witness fires exactly once in verification
    rng = random.Random(3)
    inputs = [
        poly.act(oracles.linear(shape), oracles.ladder_usage(usage, n, rng))
        for n in range(1, 8)
        for shape in oracles.all_bracketings(n)
        for usage in ("identity", "reversal", "random")
    ]
    for _ in range(40):
        n = rng.randint(1, 40)
        inputs.append(poly.act(
            oracles.linear(oracles.ladder_shape(rng.choice(("left", "right", "random")), n, rng)),
            oracles.ladder_usage(rng.choice(("identity", "reversal", "random")), n, rng),
        ))
    for s in inputs:
        report = compile(s)
        assert report.verified
        assert report.steps == oracles.prim_leaves(report.output), poly.format_sequent(s)


@pytest.mark.parametrize("club", list(Club))
def test_compile_basis_discipline_per_club(club):
    allowed = finord.basis(club)
    for s in all_small_sequents(3, 3):
        u = poly.usage(s).usage
        if not finord.contains(club, u):
            continue
        report = compile(s, club=club)
        assert report.club_used is club
        assert oracles.naive_primitives(report.output) <= allowed
        assert report.verified


def test_compiled_witnesses_behave_as_their_basis_combinators():
    # the canonical sequents compile to terms satisfying the respective
    # defining equations, whatever their internal shape
    b_like = compile(poly.parse("x1,x2,x3 |- x1 (x2 x3)"), club=Club.ID).output
    ok, _ = comb.verify(b_like, poly.parse("x1,x2,x3 |- x1 (x2 x3)"))
    assert ok
    c_like = compile(poly.parse("x1,x2,x3 |- x1 x3 x2"), club=Club.BIJ).output
    ok, _ = comb.verify(c_like, poly.parse("x1,x2,x3 |- x1 x3 x2"))
    assert ok
    k_like = compile(poly.parse("x1,x2 |- x1"), club=Club.MINJ).output
    ok, _ = comb.verify(k_like, poly.parse("x1,x2 |- x1"))
    assert ok
    w_like = compile(poly.parse("x1,x2 |- x1 x2 x2"), club=Club.MSRJ).output
    ok, _ = comb.verify(w_like, poly.parse("x1,x2 |- x1 x2 x2"))
    assert ok
    i_like = compile(poly.parse("x |- x"), club=Club.ID).output
    ok, _ = comb.verify(i_like, poly.parse("x |- x"))
    assert ok


def test_compile_with_constants_basic():
    s, consts = poly.parse_with_constants("x |- a (b x)")
    report = compile(s, constants=consts)
    assert report.constants == ("a", "b")
    # the witness is applied to the constants in slot order
    head = report.output
    assert isinstance(head, App) and head.right == FreeSym("b")
    assert isinstance(head.left, App) and head.left.right == FreeSym("a")
    assert report.verified


def test_compile_with_constants_club_checked_on_extended_usage():
    # x |- x a extends to usage [2,1], which needs Bij, not Id
    s, consts = poly.parse_with_constants("x |- x a")
    with pytest.raises(ClubViolation) as exc:
        compile(s, club=Club.ID, constants=consts)
    assert exc.value.minimal is Club.BIJ
    report = compile(s, club=Club.BIJ, constants=consts)
    assert report.verified


def test_compile_with_constants_arity_zero():
    s, consts = poly.parse_with_constants("|- k k")
    with pytest.raises(ArityZero):
        compile(s, constants=consts)


def test_compile_with_constants_repeated_name_collision_safe():
    # constants named like fresh symbols must not confuse verification
    s, consts = poly.parse_with_constants("x |- v1 x")
    report = compile(s, constants=consts)
    assert report.verified


def test_compile_with_constants_single_constant_arity_zero():
    # every valid sequent has at least one variable, so the guard in plain
    # compile is unreachable; the constants path is the honest trigger
    s, consts = poly.parse_with_constants("|- k")
    with pytest.raises(ArityZero):
        compile(s, constants=consts)


def test_compile_refuses_constants_spelled_like_primitives():
    # format_comb would print the constant K as K, which parse_comb reads as
    # the primitive: the printed term would compute something else
    for name in ("B", "C", "K", "W", "I"):
        s, constants = poly.parse_with_constants(f"x |- {name} x x")
        with pytest.raises(ParseError, match=f"constant {name} would print as the primitive"):
            compile(s, constants=constants)
    s, constants = poly.parse_with_constants("x |- Ka x x")
    report = compile(s, constants=constants)
    assert comb.parse_comb(comb.format_comb(report.output)) == report.output


@pytest.mark.parametrize("collecting", [True, False])
def test_compile_leaves_the_collector_as_it_found_it(collecting, monkeypatch):
    found = gc.isenabled()
    try:
        (gc.enable if collecting else gc.disable)()
        seen = []
        normalize = comb.normalize
        monkeypatch.setattr(comb, "normalize",
                            lambda t, fuel: seen.append(gc.isenabled()) or normalize(t, fuel))
        assert compile(poly.parse("x,y |- y (x y)")).verified
        assert seen == [False]  # paused while the witness is verified
        assert gc.isenabled() is collecting
        with pytest.raises(ClubViolation):
            compile(poly.parse("x1,x2 |- x2 x1"), club=Club.ID)
        assert gc.isenabled() is collecting
        s, constants = poly.parse_with_constants("x |- K x x")
        with pytest.raises(ParseError):
            compile(s, constants=constants)
        assert gc.isenabled() is collecting
        # a reducer that returns its input unreduced, in exactly the budget
        monkeypatch.setattr(comb, "normalize", lambda t, fuel: comb.ReductionResult(
            t, fuel, comb.ReductionStatus.NORMAL))
        with pytest.raises(VerificationFailed, match="verification failed"):
            compile(poly.parse("x,y |- y x"))
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if found else gc.disable)()


# The report is a local of main, so it is freed when main returns: a module
# global would make the child's shutdown walk the 2.3M-leaf witness.
_REVERSAL_192 = """
import time
from clubcomb import compiler, poly

def main():
    n = 192
    term = poly.Var(n)
    for j in range(n - 1, 0, -1):
        term = poly.App(term, poly.Var(j))
    start = time.perf_counter()
    report = compiler.compile(poly.Sequent(n, term))
    print(report.verified, report.steps, time.perf_counter() - start)

main()
"""


def test_192_occurrence_left_comb_reversal_verifies_within_4_seconds():
    # a fresh interpreter, so no garbage this suite left behind is scanned
    r = subprocess.run([sys.executable, "-c", _REVERSAL_192],
                       capture_output=True, text=True, check=True)
    verified, steps, seconds = r.stdout.split()
    assert (verified, steps) == ("True", "2323325")
    assert float(seconds) < 4, seconds
