"""Compilation: the witness builder and the full pipeline."""

import gc
import itertools
import json
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import clubcomb
from clubcomb import cli, comb, finord, poly
from clubcomb.comb import App, B, C, I, K, W, FreeSym
from clubcomb.compiler import compile, leaves, plan, witness
from clubcomb.errors import (
    ArityMismatch,
    ClubViolation,
    FuelExhausted,
    VerificationFailed,
)
from clubcomb.finord import Club, FinFun
from clubcomb.poly import Var
import oracles


def test_plan_of_a_single_leaf_is_empty_and_its_witness_is_I():
    assert plan(Var(1), ()) == ()
    assert (witness(()), leaves(())) == (I, 1)


def test_plan_of_a_pair_is_one_contraction():
    # witness I B I: reduces on two arguments in 3 steps
    pair = App(Var(1), Var(2))
    entries = plan(pair, ())
    assert entries == ((0, B),) and leaves(entries) == 3
    assert witness(entries) == App(App(I, B), I)
    assert comb.verify(witness(entries), oracles.linear(pair)) == (True, 3)


def test_plan_of_a_right_nested_skeleton_reads_its_right_turns():
    entries = plan(App(Var(1), App(Var(2), Var(3))), ())
    assert entries == ((0, B), (1, B)) and leaves(entries) == 5
    assert witness(entries) == App(App(B, B), App(App(I, B), I))


def test_plan_is_deterministic():
    shape = App(App(Var(1), Var(2)), App(Var(3), Var(4)))
    assert plan(shape, ()) == plan(shape, ())


def test_skeleton_witness_matches_the_contraction_reference_on_all_small_shapes():
    for n in range(1, 9):
        for shape in oracles.all_bracketings(n):
            assert witness(plan(shape, ())) == oracles.naive_compile_bracketing(shape)


@given(st.recursive(st.just(Var(1)), lambda c: st.tuples(c, c).map(lambda lr: App(*lr)),
                    max_leaves=60))
def test_skeleton_witness_matches_the_contraction_reference(shape):
    assert witness(plan(shape, ())) == oracles.naive_compile_bracketing(shape)


def test_plan_lifts_a_transposition_through_C():
    pair = App(Var(1), Var(2))
    entries = plan(pair, (oracles.t(2, 1),))
    assert entries == ((0, B), (0, C)) and leaves(entries) == 5
    a = witness(plan(pair, ()))
    assert witness(entries) == App(App(I, C), a) == oracles.lift(a, oracles.t(2, 1))
    assert comb.verify(witness(entries), poly.parse("x1,x2 |- x2 x1")) == (True, 5)
    right = App(Var(1), App(Var(2), Var(3)))
    assert plan(right, (oracles.t(3, 2),)) == (*plan(right, ()), (1, C))


def test_plan_lifts_a_face_through_K():
    entries = plan(Var(1), (oracles.d(2, 2),))
    assert entries == ((1, K),) and leaves(entries) == 3
    assert witness(entries) == App(App(B, K), I)
    assert comb.verify(witness(entries), poly.parse("x1,x2 |- x1")) == (True, 3)
    entries = plan(Var(1), (oracles.d(2, 1),))
    assert entries == ((0, K),) and leaves(entries) == 3
    assert witness(entries) == App(App(I, K), I)
    assert comb.verify(witness(entries), poly.parse("x1,x2 |- x2")) == (True, 3)


def test_plan_lifts_a_degeneracy_through_W():
    right = App(Var(1), App(Var(2), Var(3)))
    assert plan(right, (oracles.s(2, 2),)) == (*plan(right, ()), (1, W))
    pair = App(Var(1), Var(2))
    entries = plan(pair, (oracles.s(1, 1),))
    assert entries == ((0, B), (0, W)) and leaves(entries) == 5
    assert witness(entries) == App(App(I, W), App(App(I, B), I))
    assert comb.verify(witness(entries), poly.parse("x |- x x")) == (True, 5)


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
                    shape = oracles.all_bracketings(g.dom)[0]
                    assert witness(plan(shape, (g,))).left.right is prim
                for c in Club:
                    if kind in finord.generator_kinds(c):
                        assert finord.contains(c, f)
    for c in Club:
        lifting = {FAMILIES[k][1].name for k in finord.generator_kinds(c)}
        assert finord.basis(c) == {"B", "I"} | lifting


@st.composite
def _sequents(draw):
    """A random sequent: a shape of at most 10 occurrences acted on by a
    random usage into 1 to k + 2 slots."""
    shape = draw(st.recursive(st.just(Var(1)), lambda c: st.tuples(c, c).map(lambda lr: App(*lr)),
                              max_leaves=10))
    k = oracles.length(shape)
    n = draw(st.integers(1, k + 2))
    table = draw(st.lists(st.integers(1, n), min_size=k, max_size=k))
    return poly.act(oracles.linear(shape), FinFun(k, n, tuple(table)))


@settings(max_examples=200, deadline=None)
@given(_sequents())
def test_witness_matches_the_naive_contractions_and_lifts(s):
    # in every club that holds the usage, the plan's witness is the term of
    # the two-step construction: the skeleton's repeated leftmost
    # contraction, then one lift per generator; leaves counts its primitives
    dec = poly.usage(s)
    for club in Club:
        if not finord.contains(club, dec.usage):
            continue
        chain = finord.factor(dec.usage, club)
        entries = plan(dec.skeleton, chain)
        assert witness(entries) == oracles.naive_witness(dec.skeleton, chain)
        assert leaves(entries) == oracles.prim_leaves(witness(entries))


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
    assert report.generator_chain == (oracles.t(2, 1),)
    assert report.output == App(App(I, C), App(App(I, B), I))
    assert report.verified


def test_compile_duplication():
    report = compile(poly.parse("x1,x2 |- x1 x1"))
    assert report.club_used is Club.MFUN
    assert report.generator_chain == (oracles.s(1, 1), oracles.d(2, 2))
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
                        lambda chain, dom: recompose([oracles.t(2, 1)] * 3, dom))
    with pytest.raises(VerificationFailed, match=r"^factor\(2->2:\[1,2\], Id\) does not recompose$"):
        compile(s)
    # ill typed: the swap needs three arguments
    monkeypatch.setattr(finord, "recompose",
                        lambda chain, dom: recompose([oracles.t(3, 1)], dom))
    with pytest.raises(ArityMismatch):
        compile(s)


def test_factor_and_compile_refuse_a_chain_recompose_disagrees_with(monkeypatch):
    monkeypatch.setattr(finord, "recompose", lambda chain, dom: FinFun(0, 0, ()))
    with pytest.raises(VerificationFailed, match=r"^factor\(2->2:\[2,1\], Bij\) does not recompose$"):
        clubcomb.factor(FinFun(2, 2, (2, 1)), Club.BIJ)
    with pytest.raises(VerificationFailed, match=r"^factor\(2->2:\[2,1\], Fun\) does not recompose$"):
        compile(poly.parse("x, y |- y x"), club=Club.FUN)


def test_compile_reports_the_chain_factor_returned_and_judged(monkeypatch):
    # Verification does not judge the chain: witness reads only a generator's
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


# Each club's members with a non-empty domain and at most 4 points.
_MEMBERS = {c: [f for f in oracles.universe(4) if f.dom and finord.contains(c, f)] for c in Club}


def _polynomials_in(club):
    """Sequents whose usage lies in club: a shape acted on by one of its members."""
    return st.sampled_from(_MEMBERS[club]).flatmap(lambda u: st.sampled_from(
        oracles.all_bracketings(u.dom)).map(lambda shape: poly.act(oracles.linear(shape), u)))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(list(Club)), st.data())
def test_witnesses_compose_and_their_steps_add(club, data):
    # sigma's witness applied to p's and each qi's computes substitute(p, qs)
    # in steps(sigma) + steps(p) + sum of mult_p(xi) * steps(qi): reduction
    # copies (W) or drops (K) each qi's witness, with its block applied,
    # before it reduces it, so each copy reduces on its own
    p = data.draw(_polynomials_in(club))
    qs = [data.draw(_polynomials_in(club)) for _ in range(p.context_size)]
    shape = oracles.substitution_shape([q.context_size for q in qs])
    sigma, *parts = [compile(s) for s in (shape, p, *qs)]
    assert sigma.minimal_club is (Club.ID if len(qs) == 1 else Club.BIJ)
    w = comb.apply(sigma.output, [r.output for r in parts])
    steps = sigma.steps + parts[0].steps + sum(
        m * r.steps for m, r in zip(oracles.multiplicities(p), parts[1:]))
    composite = oracles.substitute(p, qs)
    assert comb.verify(w, composite, steps) == (True, steps)
    # Msrj and Mfun are not closed under substitution: two copies of y1 y2
    # read y1 y2 y1 y2, so their composites may escape to Srj and Fun
    home = {Club.MSRJ: Club.SRJ, Club.MFUN: Club.FUN}.get(club, club)
    assert finord.contains(home, poly.usage(composite).usage)


# Inputs parsed with constants are sequents like any other: the constants
# take the leading slots, and compile returns the closed witness.
_CONSTANTS_INPUTS = ["x |- a (b x)", "x |- f (g x)", "x |- f (f x)", "x |- x a",
                     "x, y |- a y (b x) y", "x |- v1 x", "x, y |- y (f x) (f y) c", "|- k k"]


def test_every_report_verifies_as_it_stands(monkeypatch, capsys):
    # the report's output computes the report's input, in the reported steps,
    # for the reports compile --constants makes too
    reports = [compile(s) for s in all_small_sequents(3, 3)]
    reports += [compile(poly.parse_with_constants(text)[0]) for text in _CONSTANTS_INPUTS]
    made = []
    monkeypatch.setattr(cli.compiler, "compile",
                        lambda *args, **kwargs: made.append(compile(*args, **kwargs)) or made[-1])
    for text in _CONSTANTS_INPUTS[:-1]:  # the last holds constants only, which the CLI refuses
        assert cli.main(["compile", "--constants", text]) == 0
    capsys.readouterr()
    assert len(made) == len(_CONSTANTS_INPUTS) - 1
    for r in reports + made:
        assert comb.verify(r.output, r.input) == (True, r.steps), poly.format_sequent(r.input)


def test_a_report_past_the_default_fuel_verifies_in_its_own_steps():
    # the 146-occurrence left-comb reversal takes more than comb.DEFAULT_FUEL
    # steps: the report verifies with its steps as the budget, and the
    # default budget runs out first
    n = 146
    term = Var(n)
    for j in range(n - 1, 0, -1):
        term = App(term, Var(j))
    r = compile(poly.Sequent(n, term))
    assert r.steps > comb.DEFAULT_FUEL
    assert comb.verify(r.output, r.input, r.steps) == (True, r.steps)
    with pytest.raises(FuelExhausted):
        comb.verify(r.output, r.input)


def test_compile_with_constants_basic():
    s, consts = poly.parse_with_constants("x |- a (b x)")
    report = compile(s)
    assert consts == ("a", "b") and not hasattr(report, "constants")
    # the output is closed; the constants are applied to it in slot order
    assert oracles.naive_primitives(report.output) == {"B", "I"}
    assert comb.format_comb(comb.apply(report.output, [FreeSym(c) for c in consts])) == (
        "B B (I B I) a b")
    assert report.verified


def test_compile_with_constants_club_checked_on_extended_usage():
    # x |- x a extends to usage [2,1], which needs Bij, not Id
    s, consts = poly.parse_with_constants("x |- x a")
    with pytest.raises(ClubViolation) as exc:
        compile(s, club=Club.ID)
    assert exc.value.minimal is Club.BIJ
    report = compile(s, club=Club.BIJ)
    assert report.verified


def test_compile_with_constants_arity_zero():
    # a term of constants only is a polynomial to compile; only the CLI,
    # which would apply its witness to every slot, refuses it
    s, _ = poly.parse_with_constants("|- k k")
    assert compile(s).steps == 3
    assert cli.main(["compile", "--constants", "|- k k"]) == 1


def test_compile_with_constants_repeated_name_collision_safe():
    # a constant named like verify's private symbols never reaches verify:
    # the witness it checks is closed
    s, consts = poly.parse_with_constants("x |- v1 x")
    report = compile(s)
    assert consts == ("v1",)
    assert set(comb.format_comb(report.output)) <= set("BCKWI ()")  # primitives only
    assert comb.verify(report.output, s) == (True, report.steps)


def test_compile_with_constants_single_constant_arity_zero():
    # compile takes the one-slot sequent as it is; the CLI refuses it
    s, _ = poly.parse_with_constants("|- k")
    assert compile(s).output == I
    assert cli.main(["compile", "--constants", "|- k"]) == 1


def test_compile_refuses_constants_spelled_like_primitives(capsys):
    # format_comb would print the constant K as K, which parse_comb reads as
    # the primitive: the printed term would compute something else.  The
    # closed witness is sound; the compile command refuses to apply it, and
    # does so before the club check
    for name in ("B", "C", "K", "W", "I"):
        s, _ = poly.parse_with_constants(f"x |- {name} x x")
        assert compile(s).verified
        assert cli.main(["compile", "--constants", f"x |- {name} x x"]) == 1
        assert cli.main(["compile", "--constants", "--club", "id", f"x |- x {name}"]) == 1
        assert capsys.readouterr().err == 2 * (
            f"error: constant {name} would print as the primitive {name}; rename it\n")
    assert cli.main(["compile", "--json", "--constants", "x |- Ka x x"]) == 0
    term = comb.parse_comb(json.loads(capsys.readouterr().out)["term"])
    assert term == comb.apply(compile(poly.parse_with_constants("x |- Ka x x")[0]).output,
                              [FreeSym("Ka")])


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
        # a reducer that returns its input unreduced, in exactly the budget
        monkeypatch.setattr(comb, "normalize", lambda t, fuel: comb.ReductionResult(
            t, fuel, False))
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
