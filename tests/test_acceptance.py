"""Acceptance gate: eleven end-to-end criteria, one pass/fail line each.

Run with `python3 -m pytest -v -s tests/test_acceptance.py` to see the lines.
Each criterion prints exactly one verdict line, even when it fails; the
assertion detail follows in the pytest report.  Criteria run in order, and
criterion 10 audits the reduction budgets recorded by the earlier ones, so
the module is meant to run as a whole.
"""

import functools
import itertools
import pathlib
import random
import time

import oracles
from cli_corpus import CASES, run_cli
from clubcomb import comb, compiler, finord, poly
from clubcomb.comb import App, B, C, FreeSym, I, K, ReductionStatus, W
from clubcomb.errors import ClubViolation
from clubcomb.finord import Club, FinFun

GOLDEN = pathlib.Path(__file__).parent / "golden"

ALL_CLUBS = list(Club)

# Reduction step counts recorded while criteria 1 through 9 run.  Criterion 10
# asserts that none of them came anywhere near the default fuel budget.
_observed_steps: list[int] = []


def criterion(num, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                fn()
            except BaseException:
                print(f"criterion {num:2d} ({name}): FAIL")
                raise
            print(f"criterion {num:2d} ({name}): PASS")

        return wrapper

    return decorate


@criterion(1, "generator closures match club membership")
def test_criterion_01_closure_oracle():
    # Closing each club's generators (plus identities) under composition must
    # reproduce exactly the member functions with dom, cod <= 4.
    start = time.perf_counter()
    everything = oracles.universe(4)
    assert len(everything) == 499
    for club in ALL_CLUBS:
        members = {f for f in everything if finord.contains(club, f)}
        assert oracles.bfs_closure(club, 4) == members, club
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"closure sweep took {elapsed:.1f}s"


@criterion(2, "factorization recomposes exactly")
def test_criterion_02_factor_roundtrip():
    # Every function of size <= 4, factored in every club containing it,
    # yields a chain of that club's generator kinds composing back to it.
    for f in oracles.universe(4):
        for club in ALL_CLUBS:
            if not finord.contains(club, f):
                continue
            chain = finord.factor(f, club)
            kinds = finord.generator_kinds(club)
            assert all(g.kind in kinds for g in chain), (f, club)
            assert oracles.recompose(chain, f.dom) == f, (f, club)


def _rand_term(rng, n, depth):
    if depth == 0 or rng.random() < 0.4:
        return poly.Var(rng.randint(1, n))
    return poly.App(_rand_term(rng, n, depth - 1), _rand_term(rng, n, depth - 1))


def _rand_seq(rng, max_context=4, depth=5):
    n = rng.randint(1, max_context)
    return poly.Sequent(n, _rand_term(rng, n, depth))


def _rand_finfun(rng, dom, max_cod=4):
    cod = rng.randint(1, max_cod)
    return FinFun(dom, cod, tuple(rng.randint(1, cod) for _ in range(dom)))


@criterion(3, "polynomial action axioms on 1000 random cases")
def test_criterion_03_action_axioms():
    rng = random.Random(20260816)
    for _ in range(1000):
        # identity and functoriality
        s = _rand_seq(rng)
        a = _rand_finfun(rng, s.context_size)
        b = _rand_finfun(rng, a.cod)
        assert poly.act(s, oracles.identity(s.context_size)) == s
        assert poly.act(poly.act(s, a), b) == poly.act(s, oracles.pointwise_compose(b, a))

        # substitution commutes with acting on each piece, along the sum
        g = _rand_seq(rng, max_context=3, depth=3)
        fs = [_rand_seq(rng, max_context=3, depth=3) for _ in range(g.context_size)]
        acts = [_rand_finfun(rng, f.context_size, max_cod=3) for f in fs]
        lhs = oracles.substitute(g, [poly.act(f, c) for f, c in zip(fs, acts)])
        summed = acts[0]
        for c in acts[1:]:
            summed = oracles.add(summed, c)
        assert lhs == poly.act(oracles.substitute(g, fs), summed)

        # acting on the outer polynomial routes pieces along the wreath
        m = g.context_size
        a2 = _rand_finfun(rng, m, max_cod=3)
        hs = [_rand_seq(rng, max_context=3, depth=3) for _ in range(a2.cod)]
        lhs = oracles.substitute(poly.act(g, a2), hs)
        picked = [hs[a2(j) - 1] for j in range(1, m + 1)]
        widths = [h.context_size for h in hs]
        assert lhs == poly.act(oracles.substitute(g, picked), oracles.wreath(a2, widths))


@criterion(4, "composition powers of B push a head past n arguments")
def test_criterion_04_b_power_law():
    start = time.perf_counter()
    for n in range(7):
        head = FreeSym("f")
        inner = FreeSym("g")
        vs = [FreeSym(f"v{k}") for k in range(1, n + 1)]
        result = comb.normalize(comb.apply(comb.b_power(n), [head, inner, *vs]))
        _observed_steps.append(result.steps)
        assert result.status is ReductionStatus.NORMAL
        assert result.term == App(head, comb.apply(inner, vs)), n
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"power law sweep took {elapsed:.2f}s"


@criterion(5, "bracketing witnesses verify over B and I alone")
def test_criterion_05_bracketing_witnesses():
    total = 0
    for k in range(1, 7):
        for shape in oracles.all_bracketings(k):
            total += 1
            witness = compiler.compile_bracketing(shape)
            assert oracles.naive_primitives(witness) <= {"B", "I"}
            ok, steps = comb.verify(witness, oracles.linear(shape))
            _observed_steps.append(steps)
            assert ok, poly.format_bracketing(shape)
    assert total == 65


@criterion(6, "generator lifts compute the acted polynomial")
def test_criterion_06_lifts_match_action():
    for k in range(1, 5):
        for shape in oracles.all_bracketings(k):
            s = oracles.linear(shape)
            witness = compiler.compile_bracketing(shape)
            for i in range(1, k):
                g = finord.transposition(k, i)
                lifted = compiler.lift(witness, g)
                assert oracles.naive_primitives(lifted) <= {"B", "C", "I"}
                _check_lift(lifted, s, g)
            for i in range(1, k + 2):
                g = finord.face(k + 1, i)
                lifted = compiler.lift(witness, g)
                assert oracles.naive_primitives(lifted) <= {"B", "K", "I"}
                _check_lift(lifted, s, g)
            if k >= 2:
                for i in range(1, k):
                    g = finord.degeneracy(k - 1, i)
                    lifted = compiler.lift(witness, g)
                    assert oracles.naive_primitives(lifted) <= {"B", "W", "I"}
                    _check_lift(lifted, s, g)


def _check_lift(lifted, s, g):
    acted = poly.act(s, oracles.make_generator(g))
    ok, steps = comb.verify(lifted, acted)
    _observed_steps.append(steps)
    assert ok, (poly.format_sequent(s), str(g))


@criterion(7, "exhaustive small compilation, verified in the minimal club")
def test_criterion_07_exhaustive_compilation():
    start = time.perf_counter()
    total = 0
    for k in range(1, 5):
        for shape in oracles.all_bracketings(k):
            lin = oracles.linear(shape)
            for n in range(1, 5):
                for table in itertools.product(range(1, n + 1), repeat=k):
                    total += 1
                    s = poly.act(lin, FinFun(k, n, table))
                    report = compiler.compile(s)
                    _observed_steps.append(report.steps)
                    assert report.verified, poly.format_sequent(s)
                    assert report.club_used is finord.minimal_club(report.usage)
                    used = oracles.naive_primitives(report.output)
                    assert used <= finord.basis(report.club_used)
                    recomposed = oracles.recompose(
                        report.generator_chain, report.usage.dom
                    )
                    assert recomposed == report.usage
    elapsed = time.perf_counter() - start
    assert total == 2010
    assert elapsed < 60.0, f"compilation sweep took {elapsed:.1f}s"


@criterion(8, "primitive equations reduce in at most three steps")
def test_criterion_08_primitive_equations():
    x, y, z = FreeSym("x"), FreeSym("y"), FreeSym("z")
    equations = [
        (B, [x, y, z], App(x, App(y, z))),
        (C, [x, y, z], App(App(x, z), y)),
        (K, [x, y], x),
        (W, [x, y], App(App(x, y), y)),
        (I, [x], x),
    ]
    for prim, args, expected in equations:
        result = comb.normalize(comb.apply(prim, args))
        _observed_steps.append(result.steps)
        assert result.status is ReductionStatus.NORMAL
        assert result.term == expected, prim
        assert result.steps <= 3, prim


@criterion(9, "club violations name the minimal club")
def test_criterion_09_negative_controls():
    # a swap cannot be compiled without C
    try:
        compiler.compile(poly.parse("x1,x2 |- x2 x1"), club=Club.ID)
    except ClubViolation as exc:
        assert exc.minimal is Club.BIJ
        assert "Bij" in str(exc)
    else:
        raise AssertionError("swap compiled in the identity club")

    # dropping a variable cannot be compiled without K
    try:
        compiler.compile(poly.parse("x1,x2 |- x1"), club=Club.BIJ)
    except ClubViolation as exc:
        assert exc.minimal is Club.MINJ
        assert "Minj" in str(exc)
    else:
        raise AssertionError("projection compiled in the bijection club")


@criterion(10, "fuel accounting: divergence bounded, verifications cheap")
def test_criterion_10_fuel_accounting():
    # W W W reproduces itself forever; a fuel of 100 must stop at exactly 100
    # steps with the term unchanged.
    www = comb.apply(W, [W, W])
    result = comb.normalize(www, fuel=100)
    assert result.status is ReductionStatus.FUEL_EXHAUSTED
    assert result.steps == 100
    assert result.term == www

    # every reduction recorded by criteria 1 through 9 finished within the
    # default budget (they would have raised FuelExhausted otherwise), and
    # nowhere near it
    assert _observed_steps, "criteria 4-8 must run before this audit"
    assert max(_observed_steps) <= comb.DEFAULT_FUEL
    assert max(_observed_steps) < 10_000


@criterion(11, "CLI corpus is byte-identical across runs")
def test_criterion_11_cli_corpus():
    assert len(CASES) == 12
    for name, argv, expected_exit in CASES:
        first = run_cli(argv)
        second = run_cli(argv)
        golden = (GOLDEN / f"{name}.out").read_bytes()
        for run in (first, second):
            assert run.returncode == expected_exit, (name, run.stderr)
            assert run.stdout == golden, name
        assert first.stderr == second.stderr, name
