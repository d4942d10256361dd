"""One property over the whole command line: a grammar of argument vectors
for all five commands, every flag and valid or mutated inputs, each run
through cli.main in process."""

import contextlib
import io
import json

from hypothesis import given, settings, strategies as st

import oracles
from clubcomb import cli, comb
from clubcomb.poly import parse, parse_with_constants

# The README's JSON key orders: a command's record, and a failed command.
RECORD_KEYS = ["command", "input", "usage", "skeleton", "minimal_club", "club_used",
               "generators", "term", "verified", "steps", "error"]
FAILURE_KEYS = ["command", "input", "error", "minimal_club"]
CLUBS = [c.value for c in cli.Club]

_NAMES = ["x", "y", "z", "w"]
_CONSTANTS = ["f", "g", "a"]
# Inserted by a mutation.  No W: an eval without --fuel reads a term over
# B, C, K and I, which normalizes in fewer steps than it has leaves.
_NOISE = list("xyfgB0123()[],:|->  !é")


def _applications(leaves):
    """Texts of application terms over leaves, in minimal and extra parentheses."""
    return st.recursive(leaves, lambda c: st.tuples(c, c, st.booleans()).map(
        lambda t: f"({t[0]}) ({t[1]})" if t[2] else f"{t[0]} ({t[1]})"), max_leaves=6)


@st.composite
def _polynomials(draw):
    context = draw(st.lists(st.sampled_from(_NAMES), max_size=4, unique=True))
    context += draw(st.lists(st.sampled_from(context or _NAMES), max_size=1))  # a repeat: an error
    leaves = context + _CONSTANTS if draw(st.booleans()) or not context else context
    term = draw(_applications(st.sampled_from(leaves)))
    return f"{', '.join(context)} |- {term}"


@st.composite
def _finfuns(draw):
    m, n = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    table = draw(st.lists(st.integers(0, n + 1), min_size=m, max_size=m))  # 0, n + 1: errors
    return f"{m}->{n}:[{','.join(map(str, table))}]"


@st.composite
def _mutated(draw, texts):
    """A text of texts, or, half the time, one with a character deleted or inserted."""
    text = draw(texts)
    i = draw(st.integers(0, len(text)))
    return draw(st.sampled_from([text, text, text[:i] + text[i + 1:],
                                 text[:i] + draw(st.sampled_from(_NOISE)) + text[i:]]))


_AFFINE_TERMS = _applications(st.sampled_from(["B", "C", "K", "I", "a", "b", "f"]))
_TERMS = st.one_of(_applications(st.sampled_from(["B", "C", "K", "W", "I", "a", "b", "f"])),
                   st.sampled_from(["W W W", "W I (W I)", "W (B a) b", "B (W W) W W"]))


@st.composite
def _argvs(draw):
    """(argv, input): a command, some of its flags in any order, and its input."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    flags = []
    for flag in cli._COMMANDS[command][2]:
        if not draw(st.booleans()):
            continue
        if flag == "--club":
            flags.append(["--club", draw(st.sampled_from(CLUBS + ["Fun", "nope"]))])
        elif flag == "--fuel":
            flags.append(["--fuel", draw(st.sampled_from([str(draw(st.integers(-1, 20))), "x"]))])
        else:
            flags.append([flag])
    flags = draw(st.permutations(flags))
    if command in ("analyze", "compile"):
        texts = _polynomials()
    elif command == "eval":
        texts = _TERMS if any(f[0] == "--fuel" for f in flags) else _AFFINE_TERMS
    else:
        texts = _finfuns()
    text = draw(_mutated(texts))
    return [command, *(a for f in flags for a in f), text], text


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=500, deadline=None)
@given(_argvs())
def test_every_command_line_keeps_the_cli_contract(case):
    argv, text = case
    code, out, err = _call(argv)
    assert code in (0, 1, 2, 3)
    as_json = "--json" in argv
    fields = None
    if as_json and out:  # one JSON object, its keys in the README's order
        assert err == "" and out.endswith("\n") and out.count("\n") == 1
        fields = json.loads(out)
        order = FAILURE_KEYS if code in (1, 2) else RECORD_KEYS
        assert list(fields) == [k for k in order if k in fields]  # no other key either
        assert (fields["command"], fields["input"]) == (argv[0], text)
        assert ("error" in fields) == (code != 0)
    elif code == 0:
        assert err == "" and out
        fields = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)
    elif code == 3:  # fuel ran out: eval's record, its error last
        assert argv[0] == "eval" and err == ""
        assert out.splitlines()[-1] == "error: FuelExhausted"
        fields = dict(line.split(": ", 1) for line in out.splitlines())
    else:  # one stderr line names the error; argparse prints its usage before it
        lines = err.splitlines()
        assert out == "" and err.endswith("\n") and lines
        assert [line for line in lines if "error: " in line] == lines[-1:]
        assert len(lines) == 1 or lines[0].startswith("usage: clubcomb")

    if argv[0] == "eval" and fields is not None and "steps" in fields:
        fuel = int(argv[argv.index("--fuel") + 1]) if "--fuel" in argv else comb.DEFAULT_FUEL
        assert int(fields["steps"]) <= fuel
        assert code == 0 or int(fields["steps"]) == fuel
    if argv[0] == "compile" and code == 0:
        # the promise as the user reads it: the printed term, parsed back with
        # its constants in place, computes the input in the printed steps
        s, constants = parse_with_constants(text) if "--constants" in argv else (parse(text), ())
        fresh = [comb.FreeSym(f"#{j}") for j in range(1, s.context_size - len(constants) + 1)]
        result = comb.normalize(comb.apply(comb.parse_comb(fields["term"]), fresh))
        expected = oracles.fill(s.term, [comb.FreeSym(c) for c in constants] + fresh)
        assert (result.term, result.steps, result.exhausted) == (expected, int(fields["steps"]), False)
