"""The benchmark workloads: seeded inputs, the timed call, and output checks.

Each workload builds its mix of requests from a seed, makes one call per
request into clubcomb's public functions (always through the module
attribute, so a traced run's wrappers see it), and checks every output
against what the benchmark computes itself in reference.py.

A check raises CheckFailed.  Checks run outside the timed region.
"""

from __future__ import annotations

import io
import json
import random
import re
from contextlib import redirect_stderr, redirect_stdout

import reference as ref
from clubcomb import cli, comb, compiler, poly

REFERENCE_FUEL = 10**7

SHAPES = ("left", "right", "random")
KIND_LETTER = {"transposition": "t", "degeneracy": "s", "face": "d"}


class CheckFailed(Exception):
    """An output disagrees with the benchmark's own reference."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Request:
    """One input of a mix.  rung is the occurrence count, where the workload has rungs."""

    def __init__(self, label: str, rung: int | None, payload, **facts):
        self.label = label
        self.rung = rung
        self.payload = payload
        self.facts = facts


def make_shape(kind: str, n: int, rng):
    if kind == "left":
        return ref.left_comb(n)
    if kind == "right":
        return ref.right_comb(n)
    return ref.random_shape(n, rng)


def make_usage(kind: str, n: int, rng) -> tuple[tuple[int, ...], int]:
    """(table, context size): identity, reversal, or random into n/2 slots."""
    if kind == "identity":
        return tuple(range(1, n + 1)), n
    if kind == "reversal":
        return tuple(range(n, 0, -1)), n
    slots = n // 2
    return tuple(rng.randint(1, slots) for _ in range(n)), slots


def build_sequent(shape, table, ctx) -> poly.Sequent:
    term = ref.fill(shape, [poly.Var(j) for j in table], poly.App)
    return poly.Sequent(ctx, term)


def ladder_request(n: int, shape_kind: str, usage_kind: str, rng) -> Request:
    shape = make_shape(shape_kind, n, rng)
    table, ctx = make_usage(usage_kind, n, rng)
    return Request(
        f"n{n}-{shape_kind}-{usage_kind}", n, build_sequent(shape, table, ctx),
        shape=shape, table=table, ctx=ctx,
    )


def ladder_mix(seed: int, cells) -> list[Request]:
    """One request per (occurrences, shape, usage) cell, with unique labels, in seeded order."""
    rng = random.Random(seed)
    reqs = [ladder_request(n, shape, usage, rng) for n, shape, usage in cells]
    for k, req in enumerate(reqs):
        req.label = f"{req.label}-{k}"
    rng.shuffle(reqs)
    return reqs


def witness_stats(t, dag: bool = False) -> tuple[dict[str, int], int]:
    """Primitive leaf counts of a clubcomb term, and its distinct objects (0 unless dag)."""
    App = comb.App
    counts: dict[str, int] = {}
    seen: set[int] = set()
    stack = [t]
    while stack:
        node = stack.pop()
        if dag:
            seen.add(id(node))
        if type(node) is App:
            stack.append(node.right)
            stack.append(node.left)
        else:
            counts[node.name] = counts.get(node.name, 0) + 1
    return counts, len(seen)


def check_chain(chain, table, ctx, club: str) -> dict[str, int]:
    """The chain recomposes to the usage, stays in the club, and has the expected counts."""
    expect(ref.compose_chain(chain, len(table)) == (tuple(table), ctx),
           "generator chain does not recompose to the usage")
    kinds = {kind for kind, _, _ in chain}
    expect(kinds <= ref.generator_kinds(club), f"generators {sorted(kinds)} outside {club}")
    wanted = ref.chain_counts(table, ctx)
    got = {k: sum(1 for kind, _, _ in chain if kind == k) for k in "tsd"}
    expect(got == wanted, f"chain counts {got}, expected {wanted}")
    return got


def check_witness(counts: dict[str, int], chain_counts: dict[str, int], club: str) -> None:
    """C, W and K leaves match the chain's t, s and d; all primitives lie in the club's basis."""
    expect(set(counts) <= ref.basis(club), f"primitives {sorted(counts)} outside basis of {club}")
    got = {"t": counts.get("C", 0), "s": counts.get("W", 0), "d": counts.get("K", 0)}
    expect(got == chain_counts, f"C/W/K leaves {got}, chain counts {chain_counts}")


def check_reduces(term, shape, table, ctx, steps: int | None, constants=()) -> int:
    """term applied to fresh symbols reduces to the polynomial; returns the steps taken.

    Constant occurrences are the first len(constants) context slots and stay
    as their names; the term is applied to symbols for the remaining slots.
    """
    k = len(constants)
    syms = [f"v{j}" for j in range(1, ctx - k + 1)]
    image = list(constants) + syms
    expected = ref.fill(shape, [image[j - 1] for j in table])
    normal, taken, exhausted = ref.normalize(ref.apply(term, syms), REFERENCE_FUEL)
    expect(not exhausted, "reference reduction ran out of fuel")
    expect(normal == expected, "term does not reduce to the polynomial")
    expect(steps is None or taken == steps, f"reported {steps} steps, reference took {taken}")
    return taken


def check_report(req: Request, report, club: str, dag: bool = False) -> dict:
    """Checks common to compile outputs; returns the work counts of this output."""
    f = req.facts
    expect(tuple(report.usage.table) == f["table"] and report.usage.cod == f["ctx"],
           "usage differs from the built polynomial")
    expect(report.club_used.value == club, f"club used {report.club_used.value}, expected {club}")
    chain = [(KIND_LETTER[g.kind.value], g.n, g.i) for g in report.generator_chain]
    gens = check_chain(chain, f["table"], f["ctx"], club)
    counts, dag_nodes = witness_stats(report.output, dag)
    check_witness(counts, gens, club)
    return {"gens": gens, "leaves": sum(counts.values()), "dag_nodes": dag_nodes}


class VerifyLadder:
    """compile(s) with verification, then format_comb, at 16 to 40 occurrences."""

    name = "verify-ladder"
    collect = True
    rungs = (16, 24, 32, 40)
    usages = ("identity", "reversal", "random")
    # Identity is drawn on every rung and shape.  Reversal and random usage
    # are drawn on every shape at 16 and 24 occurrences (random usage 11
    # times at 16), and once each at 32 and 40, on a shape the seed picks:
    # on all three shapes those rungs alone would take most of the time, and
    # leave too few repeats of each request for a steady fastest repeat.
    # Latency grows about threefold from rung to rung, so sorted latencies
    # form one cluster per rung, and a percentile on the edge between two
    # clusters jumps from seed to seed.  With these 58 requests the median
    # falls inside the 33 random draws at 16 occurrences, and p90 on the
    # middle of the three reversals at 24, which cost about the same.
    draws = {16: {"reversal": 1, "random": 11}, 24: {"reversal": 1, "random": 1}}

    def mix(self, seed: int, smallest: bool = False) -> list[Request]:
        rungs = self.rungs[:1] if smallest else self.rungs
        pick = random.Random(f"shapes-{seed}")
        cells = [(n, s, "identity") for n in rungs for s in SHAPES]
        for n in rungs:
            for u in ("reversal", "random"):
                if n in self.draws:
                    cells += [(n, s, u) for s in SHAPES for _ in range(self.draws[n][u])]
                else:
                    cells.append((n, pick.choice(SHAPES), u))
        return ladder_mix(seed, cells)

    def call(self, req: Request):
        report = compiler.compile(req.payload)
        return report, comb.format_comb(report.output)

    def check(self, req: Request, out, state: dict, dag: bool = False) -> dict | None:
        report, text = out
        expect(report.verified, "verified is false")
        seen = state.get(req.label)
        if seen is not None:
            expect(text == seen[0] and report.steps == seen[1], "output differs from the first pass")
            return None
        club = ref.minimal_club(req.facts["table"], req.facts["ctx"])
        work = check_report(req, report, club, dag)
        expect(report.steps == work["leaves"],
               f"{report.steps} steps, {work['leaves']} primitive leaves")
        state[req.label] = (text, report.steps)
        work["steps"] = report.steps
        return work

    def finish(self, reqs: list[Request], state: dict) -> list[str]:
        """Reduce each printed term with the reference reducer; returns failed labels."""
        failed = []
        for req in reqs:
            text, steps = state.get(req.label, (None, None))
            if text is None:
                continue
            f = req.facts
            try:
                check_reduces(ref.parse_term(text), f["shape"], f["table"], f["ctx"], steps)
            except (CheckFailed, ValueError, RecursionError):
                failed.append(req.label)
        return failed


# small-cli: identifiers for context variables and for constants never start
# with 'v', which check_reduces uses for its fresh symbols.
VAR_NAMES = ("x", "y", "z", "f", "g", "h", "a", "b")
CONST_NAMES = ("c", "d", "e", "k1")
CLUBS = tuple(ref.CLUB_REQUIRES)
# Terms that never reach a normal form, for eval's fuel-exhaustion requests.
LOOPING_TERMS = ("W W W", "W I (W I)", "W W (W W)", "K (W W W) x", "x (W W W)", "C W W W")
EVAL_LEAVES = ("B", "C", "K", "W", "I", "p", "q", "r")

# Requests per pass of the small-cli mix, by what they exercise.  About a
# fifth of the mix has a nonzero exit code as its correct answer.
SMALL_CLI_MIX = {
    "analyze": 36,
    "compile": 72,
    "eval": 36,
    "factor": 30,
    "diagram": 18,
    "bad-input": 16,     # exit 1: malformed polynomial or function
    "outside-club": 16,  # exit 2: --club that does not contain the usage
    "out-of-fuel": 16,   # exit 3: eval with a small --fuel on a looping term
}


def random_polynomial(rng, constants: bool = False) -> dict:
    """At most 6 occurrences; with constants, some occurrences are undeclared names."""
    k = rng.randint(1, 6)
    shape = ref.random_shape(k, rng)
    m = rng.randint(1, k)
    names = rng.sample(VAR_NAMES, m)
    table = [rng.randint(1, m) for _ in range(k)]
    leaves = [names[j - 1] for j in table]
    if constants:
        for pos in rng.sample(range(k), rng.randint(1, k)):
            leaves[pos] = rng.choice(CONST_NAMES)
        if all(leaf in CONST_NAMES for leaf in leaves):
            leaves[0] = names[0]
    # The usage clubcomb reports: constant occurrences take fresh leading slots.
    consts = [leaf for leaf in leaves if leaf in CONST_NAMES]
    slot = iter(range(1, len(consts) + 1))
    usage = [next(slot) if leaf in CONST_NAMES else len(consts) + names.index(leaf) + 1
             for leaf in leaves]
    text = f"{', '.join(names)} |- {ref.format_term(ref.fill(shape, leaves))}"
    return {"text": text, "shape": shape, "table": tuple(usage),
            "ctx": len(consts) + m, "constants": tuple(consts)}


def random_finfun(rng) -> tuple[tuple[int, ...], int]:
    dom, cod = rng.randint(1, 6), rng.randint(1, 6)
    return tuple(rng.randint(1, cod) for _ in range(dom)), cod


def finfun_text(table, cod) -> str:
    return f"{len(table)}->{cod}:[{','.join(map(str, table))}]"


def random_eval_term(rng):
    """A term of at most 6 leaves whose normal form the reference reaches quickly."""
    while True:
        t = ref.fill(ref.random_shape(rng.randint(1, 6), rng),
                     [rng.choice(EVAL_LEAVES) for _ in range(6)])
        normal, steps, exhausted = ref.normalize(t, 200)
        if not exhausted:
            return t, normal, steps


class SmallCli:
    """A stream of small requests to cli.main(argv), in process, stdout captured."""

    name = "small-cli"
    collect = False  # a collection would cost more than the request

    def mix(self, seed: int, smallest: bool = False) -> list[Request]:
        rng = random.Random(seed)
        reqs = []
        for kind, count in SMALL_CLI_MIX.items():
            for j in range(count // 4 if smallest else count):
                reqs.append(getattr(self, "_" + kind.replace("-", "_"))(rng, j))
        rng.shuffle(reqs)
        return reqs

    @staticmethod
    def _req(kind, argv, exit_code, j, **facts) -> Request:
        # Alternate text and JSON output.
        if j % 2:
            argv = argv[:1] + ["--json"] + argv[1:]
        return Request(kind, None, argv, exit=exit_code, json=bool(j % 2), **facts)

    def _analyze(self, rng, j):
        constants = j % 3 == 2
        p = random_polynomial(rng, constants)
        argv = ["analyze"] + (["--constants"] if constants else []) + [p["text"]]
        return self._req("analyze", argv, 0, j, **p)

    def _compile(self, rng, j):
        constants = j % 4 == 3
        p = random_polynomial(rng, constants)
        club = ref.minimal_club(p["table"], p["ctx"])
        argv = ["compile"]
        if j % 3 == 1:  # pin a club that contains the usage
            club = rng.choice([c for c in CLUBS if ref.club_contains(c, p["table"], p["ctx"])])
            argv += ["--club", club]
        argv += (["--constants"] if constants else []) + [p["text"]]
        return self._req("compile", argv, 0, j, club=club, **p)

    def _eval(self, rng, j):
        t, normal, steps = random_eval_term(rng)
        return self._req("eval", ["eval", ref.format_term(t)], 0, j,
                         normal=normal, steps=steps)

    def _factor(self, rng, j):
        table, cod = random_finfun(rng)
        club = ref.minimal_club(table, cod)
        argv = ["factor"]
        if j % 3 == 1:
            club = rng.choice([c for c in CLUBS if ref.club_contains(c, table, cod)])
            argv += ["--club", club]
        return self._req("factor", argv + [finfun_text(table, cod)], 0, j,
                         table=table, ctx=cod, club=club)

    def _diagram(self, rng, j):
        table, cod = random_finfun(rng)
        return self._req("diagram", ["diagram", finfun_text(table, cod)], 0, j,
                         table=table, ctx=cod)

    def _bad_input(self, rng, j):
        if j % 4 == 3:
            table, cod = random_finfun(rng)
            text = finfun_text(table, cod).replace("]", "", 1)
            return self._req("bad-input", [rng.choice(["factor", "diagram"]), text], 1, j)
        p = random_polynomial(rng)
        breakers = [
            lambda s: s + " )",                     # unbalanced parenthesis
            lambda s: s.replace("|-", "|- |-"),     # two turnstiles
            lambda s: s + " undeclared",            # undeclared variable
            lambda s: s.replace("|-", ", |-", 1),   # trailing comma in the context
        ]
        text = breakers[j % len(breakers)](p["text"])
        return self._req("bad-input", [rng.choice(["analyze", "compile"]), text], 1, j)

    def _outside_club(self, rng, j):
        while True:
            if j % 3 == 2:
                table, cod = random_finfun(rng)
                text, command = finfun_text(table, cod), "factor"
            else:
                p = random_polynomial(rng)
                table, cod, text, command = p["table"], p["ctx"], p["text"], "compile"
            outside = [c for c in CLUBS if not ref.club_contains(c, table, cod)]
            if outside:
                break
        argv = [command, "--club", rng.choice(outside), text]
        return self._req("outside-club", argv, 2, j,
                         minimal=ref.minimal_club(table, cod))

    def _out_of_fuel(self, rng, j):
        t = ref.parse_term(LOOPING_TERMS[j % len(LOOPING_TERMS)])
        fuel = rng.randint(3, 40)
        partial, steps, exhausted = ref.normalize(t, fuel)
        assert exhausted, "looping terms never normalize"
        return self._req("out-of-fuel", ["eval", "--fuel", str(fuel), ref.format_term(t)], 3,
                         j, normal=partial, steps=steps)

    def call(self, req: Request):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(req.payload)
        return code, out.getvalue(), err.getvalue()

    def check(self, req: Request, out, state: dict, dag: bool = False) -> None:
        code, stdout, stderr = out
        f = req.facts
        expect(code == f["exit"], f"exit {code}, expected {f['exit']}")
        fields = _read_output(stdout, f["json"], req.payload[0])
        if req.label in ("bad-input", "outside-club"):
            if f["json"]:
                expect("error" in fields, "no error field")
            else:
                expect(stdout == "" and stderr.startswith("error: "), "error not on stderr")
            if req.label == "outside-club":
                minimal = fields.get("minimal_club") if f["json"] else \
                    stderr.rstrip().rsplit(" ", 1)[-1].lower()
                expect(minimal == f["minimal"], f"minimal club {minimal}, expected {f['minimal']}")
            return None
        getattr(self, "_check_" + req.payload[0])(req, fields, stdout)
        return None

    def finish(self, reqs, state) -> list[str]:
        return []

    def _check_analyze(self, req, fields, stdout):
        f = req.facts
        _check_decomposition(f, fields)
        if not f["json"]:
            _check_diagram(stdout.split("diagram:\n", 1)[1], f["table"], f["ctx"])

    def _check_compile(self, req, fields, stdout):
        f = req.facts
        _check_decomposition(f, fields)
        expect(fields["club_used"] == f["club"], "club used differs")
        gens = check_chain(fields["generators"], f["table"], f["ctx"], f["club"])
        term = ref.parse_term(fields["term"])
        check_witness(ref.leaf_counts(_without_constants(term, len(f["constants"]))),
                      gens, f["club"])
        expect(fields["verified"] is True, "verified is not true")
        check_reduces(term, f["shape"], f["table"], f["ctx"], fields["steps"], f["constants"])

    def _check_eval(self, req, fields, stdout):
        f = req.facts
        expect(ref.parse_term(fields["term"]) == f["normal"], "normal form differs")
        expect(fields["steps"] == f["steps"], "step count differs")
        expect(("error" in fields) == (f["exit"] == 3), "fuel exhaustion not reported")

    def _check_factor(self, req, fields, stdout):
        f = req.facts
        check_chain(fields["generators"], f["table"], f["ctx"], f["club"])
        if f["json"]:
            expect(fields["club_used"] == f["club"], "club used differs")

    def _check_diagram(self, req, fields, stdout):
        f = req.facts
        if f["json"]:
            expect(fields["usage"] == (len(f["table"]), f["ctx"], f["table"]), "usage differs")
        else:
            _check_diagram(stdout, f["table"], f["ctx"])


def _check_decomposition(f: dict, fields: dict) -> None:
    expect(fields["usage"] == (len(f["table"]), f["ctx"], f["table"]), "usage differs")
    expect(fields["skeleton"] == ref.format_shape(f["shape"]), "skeleton differs")
    expect(fields["minimal_club"] == ref.minimal_club(f["table"], f["ctx"]), "minimal club differs")


def _without_constants(term, k: int):
    """The closed witness inside 'witness c1 ... ck'."""
    for _ in range(k):
        term = term[0]
    return term


def _check_diagram(text: str, table, cod) -> None:
    """Row count, and dots where domain and codomain points sit."""
    rows = text.rstrip("\n").split("\n")
    expect(len(rows) == 2 * max(len(table), cod, 1) - 1, "diagram has the wrong height")
    for j in range(len(table)):
        expect(rows[2 * j].startswith("o"), "missing domain dot")
    for i in range(cod):
        expect(len(rows[2 * i]) == 11 and rows[2 * i][10] == "o", "missing codomain dot")


_GEN_RE = re.compile(r"([tsd])\((\d+),(\d+)\)")


def _read_output(stdout: str, as_json: bool, command: str) -> dict:
    """The fields of a CLI answer, JSON or text, in one normalized form."""
    if as_json:
        obj = json.loads(stdout)
        fields = dict(obj)
        if "usage" in obj:
            u = obj["usage"]
            fields["usage"] = (u["dom"], u["cod"], tuple(u["table"]))
        if "generators" in obj:
            fields["generators"] = [(KIND_LETTER[g["kind"]], g["n"], g["i"])
                                    for g in obj["generators"]]
        return fields
    if command == "factor":
        return {"generators": [(k, int(n), int(i)) for k, n, i in _GEN_RE.findall(stdout)]}
    fields: dict = {}
    for line in stdout.split("\n"):
        key, sep, value = line.partition(": ")
        if not sep:
            continue
        if key == "usage":
            dom_cod, table = value.split(":", 1)
            dom, cod = dom_cod.split("->")
            fields["usage"] = (int(dom), int(cod), tuple(json.loads(table)))
        elif key in ("minimal club", "club used"):
            fields[key.replace(" ", "_")] = value.lower()
        elif key == "generators":
            fields["generators"] = [(k, int(n), int(i)) for k, n, i in _GEN_RE.findall(value)]
        elif key == "verified":
            fields["verified"] = value == "true"
        elif key == "steps":
            fields["steps"] = int(value)
        elif key in ("term", "skeleton", "error"):
            fields[key] = value
    return fields


WORKLOADS = {w.name: w for w in (SmallCli(), VerifyLadder())}
