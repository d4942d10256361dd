"""CLI behavior: golden corpus, JSON schema discipline, error channels."""

import argparse
import json
import os
import pathlib
import random
import resource
import subprocess
import sys

import pytest

import oracles
from clubcomb import cli, comb, compiler, finord
from clubcomb.errors import VerificationFailed
from clubcomb.finord import Club, FinFun, parse_finfun
from clubcomb.poly import parse, parse_with_constants
from cli_corpus import CASES, JSON_CASES, run_cli

GOLDEN = pathlib.Path(__file__).parent / "golden"
ALL_CASES = CASES + JSON_CASES


@pytest.mark.parametrize("name,argv,expected_exit", ALL_CASES, ids=[c[0] for c in ALL_CASES])
def test_golden_corpus(name, argv, expected_exit):
    first, second = run_cli(argv), run_cli(argv)  # two runs: output is deterministic
    for r in (first, second):
        assert r.returncode == expected_exit
        assert r.stdout == (GOLDEN / f"{name}.out").read_bytes()
    assert first.stderr == second.stderr


def test_in_process_main_matches_subprocess(capsys):
    for name, argv, expected_exit in ALL_CASES:
        assert cli.main(argv) == expected_exit, name
        out = capsys.readouterr().out.encode()
        assert out == (GOLDEN / f"{name}.out").read_bytes(), name


def test_error_messages_name_the_minimal_club():
    r = run_cli(["compile", "--club", "id", "x1,x2 |- x2 x1"])
    assert r.returncode == 2
    assert b"Bij" in r.stderr
    r = run_cli(["compile", "--club", "bij", "x1,x2 |- x1"])
    assert r.returncode == 2
    assert b"Minj" in r.stderr


def test_json_error_object_carries_minimal_club():
    r = run_cli(["compile", "--json", "--club", "id", "x1,x2 |- x2 x1"])
    assert r.returncode == 2
    obj = json.loads(r.stdout)
    assert obj["command"] == "compile"
    assert obj["minimal_club"] == "bij"
    assert "error" in obj


def test_json_keys_stay_within_schema():
    allowed = {
        "command", "input", "usage", "skeleton", "minimal_club", "club_used",
        "generators", "term", "verified", "steps", "error",
    }
    json_cases = [
        ["analyze", "--json", "x1,x2 |- x1 x2 x2"],
        ["compile", "--json", "x1,x2,x3 |- x3 x1 x1"],
        ["compile", "--json", "x |- x"],
        ["compile", "--json", "--constants", "x |- a x"],
        ["eval", "--json", "K a b"],
        ["eval", "--json", "--fuel", "50", "W W W"],
        ["factor", "--json", "--club", "fun", "3->2:[2,1,1]"],
        ["diagram", "--json", "2->3:[3,1]"],
    ]
    for argv in json_cases:
        r = run_cli(argv)
        obj = json.loads(r.stdout)
        assert set(obj) <= allowed, argv
        assert obj["command"] == argv[0]
        assert obj["input"] == argv[-1]
        if "usage" in obj:
            assert set(obj["usage"]) == {"dom", "cod", "table"}
        for g in obj.get("generators", []):
            assert set(g) == {"kind", "n", "i"}
            assert g["kind"] in ("transposition", "degeneracy", "face")


def test_undeclared_variable_is_a_usage_error():
    r = run_cli(["compile", "x |- y x"])
    assert r.returncode == 1
    assert b"undeclared" in r.stderr


def test_constants_mode_makes_the_same_input_compile():
    r = run_cli(["compile", "--constants", "x |- y x"])
    assert r.returncode == 0


def test_all_constants_input_is_arity_zero_usage_error():
    r = run_cli(["compile", "--constants", "|- k"])
    assert r.returncode == 1
    assert b"constants only" in r.stderr


def test_constant_spelled_like_a_primitive_is_a_usage_error():
    # its printed term would read the constant back as the primitive
    for name in ("B", "C", "K", "W", "I"):
        r = run_cli(["compile", "--constants", f"x |- {name} x x"])
        assert r.returncode == 1
        assert r.stdout == b""
        assert r.stderr == f"error: constant {name} would print as the primitive {name}; rename it\n".encode()
    r = run_cli(["compile", "--json", "--constants", "x |- K x x"])
    assert r.returncode == 1
    assert r.stdout.count(b"\n") == 1 and r.stderr == b""
    obj = json.loads(r.stdout)
    assert obj == {"command": "compile", "input": "x |- K x x",
                   "error": "constant K would print as the primitive K; rename it"}


def test_unknown_club_rejected_before_computation():
    r = run_cli(["compile", "--club", "ring", "x |- x"])
    assert r.returncode == 1
    r = run_cli(["factor", "--club", "Id", "1->1:[1]"])
    assert r.returncode == 1


def test_unknown_flag_rejected():
    r = run_cli(["analyze", "--verbose", "x |- x"])
    assert r.returncode == 1


@pytest.mark.parametrize("argv", [
    ["eval", "--club", "fun", "--constants", "B"],
    ["diagram", "--no-verify", "--fuel", "5", "1->1:[1]"],
    ["analyze", "--club", "fun", "x |- x"],
    ["analyze", "--fuel", "5", "x |- x"],
    ["eval", "--no-verify", "I a"],
    ["factor", "--constants", "1->1:[1]"],
    ["factor", "--fuel", "5", "1->1:[1]"],
    ["diagram", "--club", "fun", "1->1:[1]"],
    ["compile", "--fuel", "5", "x |- x"],
    ["compile", "--no-verify", "x |- x"],
])
def test_flags_a_subcommand_does_not_use_are_rejected(argv, capsys):
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err


# A call whose first argument names a command is parsed by that command's
# parser alone; these argv reach every other path too (help, no command,
# arguments left over, errors that list the choices).
_PARSER_PATHS = [argv for _, argv, _ in ALL_CASES] + [
    [], ["-h"], ["--help"], *([name, "-h"] for name in cli._COMMANDS),
    ["nope", "x |- x"], ["--json", "compile", "x |- x"],
    ["compile", "--fuel", "3", "x |- x"],
    ["compile", "x |- x", "--bogus"], ["compile", "x |- x", "extra"], ["compile"],
    ["compile", "--club", "nope", "x |- x"], ["eval", "--fuel", "abc", "I a"],
    ["eval", "--fu", "5", "W W W"], ["compile", "--js", "x |- x"],
    ["--", "compile", "x |- x"], ["compile", "--", "x |- x"],
    ["compile", "x |- x", "--bogus", "-h"], ["eval", "--fuel", "5", "W W W", "extra"],
    ["eval", "--fuel=3", "W W W"], ["compile", "--club=fun", "x |- x"],
    ["compile", "--no-verify", "x |- x"],
    ["compile", "--json=1", "x |- x"], ["compile", "x |- x", "--"],
    ["compile", "--", "--", "x |- x"], ["eval", "-x"], ["eval", "--", "-x"],
]


@pytest.mark.parametrize("argv", _PARSER_PATHS, ids=map(repr, _PARSER_PATHS))
def test_one_command_parser_answers_as_the_full_one(argv, monkeypatch, capsys):
    for columns in ("40", "80", "200"):  # help text wraps at COLUMNS
        monkeypatch.setenv("COLUMNS", columns)
        with monkeypatch.context() as m:
            m.setattr(cli, "_parse", lambda argv: cli._build_parser().parse_args(argv))
            expected = (cli.main(argv), *capsys.readouterr())
        assert (cli.main(argv), *capsys.readouterr()) == expected, columns


def test_a_named_command_builds_one_parser(monkeypatch, capsys):
    built, subparsers = [], []
    init = argparse.ArgumentParser.__init__
    init_subparsers = argparse._SubParsersAction.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    def counting_subparsers(self, *args, **kwargs):
        init_subparsers(self, *args, **kwargs)
        subparsers.append(self)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    monkeypatch.setattr(argparse._SubParsersAction, "__init__", counting_subparsers)
    five = ["clubcomb", *(f"clubcomb {name}" for name in cli._COMMANDS)]
    for name in cli._COMMANDS:
        built.clear()
        cli.main([name, "--json", "x"])
        assert (built, subparsers) == ([f"clubcomb {name}"], []), name
    for argv in ([], ["-h"], ["nope"], ["--json", "eval", "I"], ["compile", "x |- x", "--bogus"]):
        built.clear()
        subparsers.clear()
        cli.main(argv)
        named = [f"clubcomb {argv[0]}"] if argv and argv[0] in cli._COMMANDS else []
        assert (built, len(subparsers)) == (named + five, 1), argv
    capsys.readouterr()


def test_reader_closing_stdout_is_not_an_internal_error():
    # 214 KB of picture, more than a pipe holds: the writes after the reader
    # leaves fail, and that is the reader's doing, not an internal error
    n = 10000
    table = ",".join(map(str, range(n, 0, -1)))
    child = subprocess.Popen([sys.executable, "-m", "clubcomb", "diagram", f"{n}->{n}:[{table}]"],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert child.stdout.readline() == b"o\\        o\n"
    child.stdout.close()
    assert child.wait(timeout=30) == cli.EXIT_PIPE
    assert child.stderr.read() == b""
    child.stderr.close()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_closed_stdout_leaves_no_descriptor_open(monkeypatch):
    n = 10000
    argv = ["diagram", f"{n}->{n}:[{','.join(map(str, range(n, 0, -1)))}]"]
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(2):
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            assert cli.main(argv) == cli.EXIT_PIPE
    assert len(os.listdir("/proc/self/fd")) == before


@pytest.mark.skipif(os.name != "posix", reason="closes the child's fd 1 with preexec_fn")
@pytest.mark.parametrize("argv", [["eval", "I a"], ["compile", "--json", "x |- y"]])
def test_started_without_stdout_refuses_in_one_line(argv):
    r = run_cli(argv, preexec_fn=lambda: os.close(1))
    assert r.returncode == cli.EXIT_USAGE
    assert r.stderr == b"error: stdout is closed\n"
    assert b"Traceback" not in r.stderr


# Makes finord.recompose judge every chain as if it were a wrong one, then
# runs the CLI with assertions stripped (-O): the check inside factor must
# still refuse the chain.
_WRONG_CHAIN = """
import sys
from clubcomb import cli, finord
recompose = finord.recompose
finord.recompose = lambda chain, dom: recompose({chain}, dom)
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("argv,chain", [
    (["factor", "2->2:[2,1]"], "[]"),
    (["compile", "x, y |- y x"], "[finord.transposition(3, 1)]"),
    (["compile", "x, y |- y x"], "[finord.face(3, 3)]"),
    (["compile", "x, y |- x y"], "[finord.transposition(2, 1)] * 3"),
])
def test_wrong_factor_chain_is_internal_error_without_asserts(argv, chain):
    code = _WRONG_CHAIN.format(chain=chain)
    r = subprocess.run([sys.executable, "-O", "-c", code] + argv, capture_output=True)
    assert r.returncode == 4
    assert r.stdout == b""
    assert r.stderr.startswith(b"error: internal error")


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_unexpected_exception_is_one_line_internal_error(json_flag, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli.compiler, "compile", broken)
    assert cli.main(["compile", *json_flag, "x |- x"]) == 4
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    message = "internal error: RuntimeError: boom"
    if json_flag:
        assert json.loads(captured.out)["error"] == message
    else:
        assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_memory_error_is_one_line_internal_error(json_flag, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli.finord, "factor", exhausted)
    assert cli.main(["factor", *json_flag, "2->2:[2,1]"]) == 4
    captured = capsys.readouterr()
    if json_flag:
        assert json.loads(captured.out)["error"] == "internal error: MemoryError"
    else:
        assert captured == ("", "error: internal error: MemoryError\n")


def _cap_memory(megabytes):
    return lambda: resource.setrlimit(resource.RLIMIT_AS, (megabytes << 20, megabytes << 20))


def test_running_out_of_memory_exits_4_with_one_line():
    # ten million faces need gigabytes: factor runs out of its 200 MB, and the
    # report must not need the memory that the failed chain still holds
    r = run_cli(["factor", "1->10000000:[1]"], timeout=60, preexec_fn=_cap_memory(200))
    assert (r.returncode, r.stdout, r.stderr) == (4, b"", b"error: internal error: MemoryError\n")


def test_factor_of_a_wide_codomain_takes_linear_time():
    # 199,999 faces, each recomposed at the finger: a rebuild per generator takes hours
    r = run_cli(["factor", "1->200000:[1]"], timeout=60, preexec_fn=_cap_memory(1024))
    assert r.returncode == 0 and r.stderr == b""
    chain = r.stdout.split()
    assert len(chain) == 199999
    assert chain[0] == b"d(2,2)" and chain[-1] == b"d(200000,200000)"


def _run_child(code, seconds):
    """Run code in a fresh interpreter under a 1 GB cap; past seconds, TimeoutExpired."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=seconds, preexec_fn=_cap_memory(1024))


def test_factor_of_a_long_rotation_takes_linear_time():
    # 29,999 passes of one swap each: full bubble passes take about a minute
    code = ("from clubcomb import cli\n"
            "n = 30000\n"
            "table = ','.join(map(str, [*range(2, n + 1), 1]))\n"
            "raise SystemExit(cli.main(['factor', f'{n}->{n}:[{table}]']))")
    r = _run_child(code, 20)
    assert r.returncode == 0 and r.stderr == ""
    chain = r.stdout.split()
    assert len(chain) == 29999
    assert chain[0] == "t(30000,29999)" and chain[-1] == "t(30000,1)"


def test_diagram_of_a_long_reversal_takes_linear_time():
    # every line crosses every other: painting each cell of each line takes seconds
    code = ("from clubcomb import cli\n"
            "n = 10000\n"
            "table = ','.join(map(str, range(n, 0, -1)))\n"
            "raise SystemExit(cli.main(['diagram', f'{n}->{n}:[{table}]']))")
    r = _run_child(code, 5)
    assert r.returncode == 0 and r.stderr == ""
    lines = r.stdout.splitlines()
    assert len(lines) == 19999
    assert lines[0] == "o\\        o" and lines[9999] == "   XXXXXX"


def test_render_diagram_matches_the_cell_painter():
    for f in oracles.universe(5):
        assert cli.render_diagram(f) == oracles.paint_diagram(f), f
    rng = random.Random(13)
    for _ in range(2000):
        m, n = rng.randint(0, 60), rng.randint(1, 60)
        f = FinFun(m, n, tuple(rng.randint(1, n) for _ in range(m)))
        assert cli.render_diagram(f) == oracles.paint_diagram(f), f


def test_diagram_json_draws_nothing(monkeypatch, capsys):
    def draw(f):
        raise AssertionError("diagram --json drew a picture")

    monkeypatch.setattr(cli, "render_diagram", draw)
    assert cli.main(["diagram", "--json", "2->3:[3,1]"]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / "diagram_json.out").read_bytes()

def test_diagram_has_a_stated_size_limit(capsys):
    limit = cli.DIAGRAM_MAX_POINTS
    assert cli.main(["diagram", f"1->{limit}:[1]"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2 * limit - 1
    message = f"{limit + 1} points exceed the diagram limit of {limit} a side"
    assert cli.main(["diagram", f"1->{limit + 1}:[1]"]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert cli.main(["diagram", "--json", f"{limit + 1}->1:[{','.join(['1'] * (limit + 1))}]"]) == 1
    assert json.loads(capsys.readouterr().out)["error"] == message
    # analyze keeps its other fields and says in one line that it left the picture out
    assert cli.main(["analyze", "x |- " + " ".join(["x"] * (limit + 1))]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-2:] == ["diagram:", f"(left out: {message})"]
    assert out[2] == "minimal club: Msrj"


def test_eval_deeply_nested_parentheses():
    n = 10**4
    r = run_cli(["eval", "(" * n + "x" + ")" * n])
    assert r.returncode == 0
    assert r.stdout.splitlines()[0] == b"term: x"
    assert b"Traceback" not in r.stderr


def left_comb(n):
    names = [f"x{k}" for k in range(1, n + 1)]
    return f"{','.join(names)} |- {' '.join(names)}"


def test_compile_verifies_a_400_occurrence_left_comb(capsys):
    assert cli.main(["compile", left_comb(400)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "verified: true" in lines
    assert "steps: 799" in lines


def test_compile_default_budget_is_the_witness_primitive_count(capsys):
    # 1,103,197 steps: past eval's flat 10^6, which used to end this with exit 3
    names = [f"x{k}" for k in range(1, 151)]
    text = f"{','.join(names)} |- {' '.join(reversed(names))}"
    assert cli.main(["compile", text]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "verified: true" in lines
    assert "steps: 1103197" in lines


def test_verification_off_the_primitive_count_is_internal_error(monkeypatch, capsys):
    normalize = cli.comb.normalize

    def one_step_short(t, fuel):
        r = normalize(t, fuel)
        return cli.comb.ReductionResult(r.term, r.steps - 1, r.exhausted)

    monkeypatch.setattr(cli.comb, "normalize", one_step_short)
    assert cli.main(["compile", "x1,x2,x3 |- x1 (x2 x3)"]) == 4
    assert capsys.readouterr().err == (
        "error: internal error: verification took 4 steps; the witness has 5 primitives\n")
    # the same count is the budget: a witness that needs more steps runs out of it
    monkeypatch.setattr(cli.comb, "normalize", lambda t, fuel: normalize(t, fuel - 1))
    assert cli.main(["compile", "--json", "x1,x2,x3 |- x1 (x2 x3)"]) == 4
    assert json.loads(capsys.readouterr().out)["error"] == (
        "internal error: verification took more steps than the witness's 5 primitives")


def test_wrong_normal_form_is_internal_error(monkeypatch, capsys):
    # the right step count but a wrong verdict: compile raises, it never reports
    monkeypatch.setattr(cli.comb, "verify", lambda *args: (False, 5))
    with pytest.raises(VerificationFailed, match="^verification failed$"):
        compiler.compile(parse("x1,x2,x3 |- x1 (x2 x3)"))
    assert cli.main(["compile", "x1,x2,x3 |- x1 (x2 x3)"]) == 4
    assert capsys.readouterr() == ("", "error: internal error: verification failed\n")
    assert cli.main(["compile", "--json", "x1,x2,x3 |- x1 (x2 x3)"]) == 4
    assert json.loads(capsys.readouterr().out)["error"] == "internal error: verification failed"


def test_constants_do_not_hide_a_wrong_witness(monkeypatch, capsys):
    # I (I (I C)) B computes x2 (x1 x3), not x1 (x2 x3), in the same 5 steps.
    # With f in both constant slots the two terms agree, but what is verified
    # is the closed witness, before any constant is applied
    monkeypatch.setattr(compiler, "compile_bracketing", lambda t: comb.parse_comb("I (I (I C)) B"))
    assert cli.main(["compile", "--constants", "x |- f (f x)"]) == 4
    assert capsys.readouterr() == ("", "error: internal error: verification failed\n")


@pytest.mark.parametrize("text", ["x |- f (g x)", "x |- f (f x)", "x |- x a", "x |- v1 x",
                                  "x, y |- a y (b x) y", "x, y |- y (f x) (f y) c"])
def test_printed_constants_term_computes_the_polynomial_in_the_reported_steps(text, capsys):
    assert cli.main(["compile", "--json", "--constants", text]) == 0
    printed = json.loads(capsys.readouterr().out)
    s, constants = parse_with_constants(text)
    fresh = [comb.FreeSym(f"#{j}") for j in range(1, s.context_size - len(constants) + 1)]
    result = comb.normalize(comb.apply(comb.parse_comb(printed["term"]), fresh))
    expected = oracles.fill(s.term, [comb.FreeSym(c) for c in constants] + fresh)
    assert (result.term, result.steps) == (expected, printed["steps"])


@pytest.mark.parametrize("argv", [
    ["analyze", left_comb(1500)],
    ["compile", left_comb(1500)],
    ["analyze", "x |- " + "(" * 3000 + "x" + ")" * 3000],
    ["analyze", left_comb(10**4)],
], ids=["analyze-1500", "compile-1500", "analyze-3000-parens", "analyze-10000"])
def test_deep_inputs_succeed(argv, capsys):
    assert cli.main(argv) == 0
    assert capsys.readouterr().err == ""


def test_msrj_and_mfun_bases_compute_more_than_their_clubs(capsys):
    # B B W uses only B and W, yet applied to f, g, x it duplicates the
    # compound argument g x: usage 5->3:[1,2,3,2,3], which is not monotone
    term = comb.parse_comb("B B W f g x")
    assert oracles.naive_primitives(term) <= finord.basis(Club.MSRJ) <= finord.basis(Club.MFUN)
    result = comb.normalize(term)
    assert (comb.format_comb(result.term), result.steps) == ("f (g x) (g x)", 3)
    for club in (Club.MSRJ, Club.MFUN):
        assert cli.main(["compile", "--club", club.value, "f,g,x |- f (g x) (g x)"]) == 2
        assert capsys.readouterr() == ("", f"error: 5->3:[1,2,3,2,3] is not in {club.display}; "
                                           "its minimal club is Srj\n")


def test_missing_command_rejected():
    assert run_cli([]).returncode == 1


def test_bad_fuel_rejected(capsys):
    r = run_cli(["eval", "--fuel", "0", "I I"])
    assert r.returncode == 1
    assert cli.main(["eval", "--json", "--fuel", "0", "I a"]) == 1
    assert json.loads(capsys.readouterr().out)["error"] == "fuel must be at least 1"


def test_malformed_finfun_is_usage_error():
    r = run_cli(["factor", "3->2:[2,1,7]"])
    assert r.returncode == 1


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
@pytest.mark.parametrize("argv", [
    ["factor", "{big}->1:[1]"],
    ["factor", "1->{big}:[1]"],
    ["diagram", "1->1:[{big}]"],
])
def test_number_past_the_int_digit_limit_is_usage_error(argv, json_flag, capsys):
    # 5,000 digits is past Python's default limit of 4,300 on int(str)
    command, text = argv
    assert cli.main([command, *json_flag, text.format(big="1" * 5000)]) == 1
    captured = capsys.readouterr()
    message = json.loads(captured.out)["error"] if json_flag else captured.err
    assert "number too long: 5000 digits" in message
    assert "set_int_max_str_digits" not in message


def test_club_violation_with_a_huge_codomain_exits_2():
    # under a 1 GB address-space cap: classifying must not build the codomain
    r = run_cli(["factor", "--club", "id", "1->1000000000:[1]"], timeout=60,
                preexec_fn=_cap_memory(1024))
    assert r.returncode == 2
    assert r.stderr == b"error: 1->1000000000:[1] is not in Id; its minimal club is Minj\n"


def test_factor_defaults_to_minimal_club():
    r = run_cli(["factor", "2->2:[2,1]"])
    assert r.returncode == 0
    assert r.stdout == b"t(2,1)\n"
    r = run_cli(["factor", "3->3:[1,2,3]"])
    assert r.stdout == b"(identity)\n"


def test_eval_json_success():
    r = run_cli(["eval", "--json", "B a b c"])
    obj = json.loads(r.stdout)
    assert obj == {"command": "eval", "input": "B a b c", "term": "a (b c)", "steps": 1}


def test_diagram_identity_line():
    r = run_cli(["diagram", "1->1:[1]"])
    assert r.stdout == b"o---------o\n"


def test_render_diagram_shapes():
    art = cli.render_diagram(parse_finfun("3->2:[1,2,2]"))
    lines = art.split("\n")
    assert len(lines) == 5
    assert lines[0] == "o---------o"
    assert not any(line != line.rstrip() for line in lines)
    # identity of n yields n horizontal lines with blank rows between
    art = cli.render_diagram(oracles.identity(3))
    assert art.split("\n") == [
        "o---------o",
        "",
        "o---------o",
        "",
        "o---------o",
    ]


def test_render_diagram_empty_function():
    art = cli.render_diagram(FinFun(0, 2, ()))
    lines = art.split("\n")
    assert len(lines) == 3
    assert lines[0] == " " * 10 + "o"
    assert lines[1] == ""
    assert lines[2] == " " * 10 + "o"
