"""Value semantics of every record type: finord.Record under each value the
package defines, checked the same way for all of them."""

import copy
import operator
import pickle
from dataclasses import FrozenInstanceError

import pytest

from clubcomb.comb import FreeSym, Prim, ReductionResult, _Slot, normalize, parse_comb
from clubcomb.compiler import CompileReport, compile
from clubcomb.errors import IndexOutOfRange
from clubcomb.finord import Classification, FinFun, Generator, GenKind, Record, classify, face
from clubcomb.poly import App, Sequent, UsageDecomposition, Var, parse, usage

# One value of each record type, with the repr the frozen dataclass printed
# (App and Generator printed the same one through their own __repr__).
RECORDS = [
    (Var(1), "Var(index=1)"),
    (Sequent(1, Var(1)), "Sequent(context_size=1, term=Var(index=1))"),
    (usage(parse("x,y |- y x")),
     "UsageDecomposition(skeleton=App(left=Var(index=1), right=Var(index=2)), "
     "usage=FinFun(dom=2, cod=2, table=(2, 1)))"),
    (FinFun(2, 2, (2, 1)), "FinFun(dom=2, cod=2, table=(2, 1))"),
    (Prim("B"), "Prim(name='B')"),
    (FreeSym("v1"), "FreeSym(name='v1')"),
    (_Slot("v1"), "_Slot(name='v1')"),
    (normalize(parse_comb("I a")), "ReductionResult(term=FreeSym(name='a'), steps=1, exhausted=False)"),
    (compile(parse("x,y |- y x")),
     "CompileReport(input=Sequent(context_size=2, term=App(left=Var(index=2), right=Var(index=1))),"
     " club_used=<Club.BIJ: 'bij'>, usage=FinFun(dom=2, cod=2, table=(2, 1)),"
     " skeleton=App(left=Var(index=1), right=Var(index=2)), minimal_club=<Club.BIJ: 'bij'>,"
     " generator_chain=(Generator(kind=<GenKind.TRANSPOSITION: 'transposition'>, n=2, i=1),),"
     " output=App(left=App(left=Prim(name='I'), right=Prim(name='C')),"
     " right=App(left=App(left=Prim(name='I'), right=Prim(name='B')), right=Prim(name='I'))),"
     " verified=True, steps=5)"),
    (face(4, 4), "Generator(kind=<GenKind.FACE: 'face'>, n=4, i=4)"),
    (App(Prim("B"), FreeSym("x")), "App(left=Prim(name='B'), right=FreeSym(name='x'))"),
]
VALUES = [x for x, _ in RECORDS]
IDS = [type(x).__name__ for x in VALUES]


def test_every_value_type_is_a_record():
    types = {type(x) for x in VALUES}
    assert types == {Var, Sequent, UsageDecomposition, FinFun, Prim, FreeSym, _Slot,
                     ReductionResult, CompileReport, Generator, App}
    assert all(issubclass(t, Record) for t in types)
    assert CompileReport._fields == ("input", "club_used", "usage", "skeleton", "minimal_club",
                                     "generator_chain", "output", "verified", "steps")


@pytest.mark.parametrize("x,text", RECORDS, ids=IDS)
def test_a_record_prints_as_the_dataclass_did(x, text):
    assert repr(x) == text


@pytest.mark.parametrize("x", VALUES, ids=IDS)
def test_a_record_is_an_immutable_value_and_a_tuple_of_its_fields(x):
    cls, fields = type(x), type(x)._fields
    items = [getattr(x, f) for f in fields]
    # a tuple of its fields: len, indexing and iteration
    assert len(x) == len(fields) and list(x) == items and x[0] == items[0]
    # keyword construction, copies and pickles give an equal value of the same class
    for same in (cls(**dict(zip(fields, items))), copy.copy(x), copy.deepcopy(x),
                 pickle.loads(pickle.dumps(x))):
        assert type(same) is cls and same == x and not same != x and hash(same) == hash(x)
    # == is type-strict: never a plain tuple of the same items
    assert x != tuple(x) and tuple(x) != x and not x == tuple(x)
    # the hash of the field tuple, which the frozen dataclass hashed; App
    # hashes its shape text and leaves, without recursion
    if cls is not App:
        assert hash(x) == hash(tuple(x))
    # frozen, with the dataclass's error and messages
    with pytest.raises(FrozenInstanceError) as e:
        setattr(x, fields[0], items[0])
    assert str(e.value) == f"cannot assign to field {fields[0]!r}"
    with pytest.raises(FrozenInstanceError) as e:
        delattr(x, fields[0])
    assert str(e.value) == f"cannot delete field {fields[0]!r}"
    with pytest.raises(FrozenInstanceError):
        x.extra = 1
    assert list(x) == items
    # not ordered
    for order in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            order(x, x)
        with pytest.raises(TypeError):
            order(x, tuple(x))


def test_equality_compares_classes():
    for a, b in [(_Slot("v1"), FreeSym("v1")), (Prim("B"), FreeSym("B")), (Var(1), (1,)),
                 (Var(1), FreeSym(1)), (App(Var(1), Var(2)), (Var(1), Var(2)))]:
        assert a != b and b != a and not a == b and not b == a
    assert Sequent(context_size=1, term=Var(1)) == Sequent(1, Var(1))
    assert FinFun(dom=2, cod=2, table=(2, 1)) == FinFun(2, 2, (2, 1))


@pytest.mark.parametrize("make,error,message", [
    (lambda: FinFun(-1, 0, ()), ValueError, "dom and cod must be non-negative"),
    (lambda: FinFun(dom=0, cod=-1, table=()), ValueError, "dom and cod must be non-negative"),
    (lambda: FinFun(2, 2, (1,)), ValueError, "table has 1 entries, dom is 2"),
    (lambda: FinFun(1, 2, (3,)), ValueError, "table entry 3 outside 1..2"),
    (lambda: FinFun(2, 2, (1, 0)), ValueError, "table entry 0 outside 1..2"),
    (lambda: Sequent(-1, Var(1)), ValueError, "context size must be non-negative"),
    (lambda: Sequent(context_size=1, term=App(Var(1), Var(2))), ValueError,
     "variable 2 outside context 1..1"),
    (lambda: Prim("S"), ValueError, "unknown primitive 'S'"),
    (lambda: Prim(name="b"), ValueError, "unknown primitive 'b'"),
    (lambda: Generator("face", 2, 1), ValueError, "unknown generator kind 'face'"),
    (lambda: Generator(GenKind.FACE, 2, 0), IndexOutOfRange, "d(2,0) needs 1 <= i <= n"),
], ids=range(11))
def test_constructor_checks_keep_their_messages(make, error, message):
    with pytest.raises(error) as e:
        make()
    assert type(e.value) is error and str(e.value) == message


def test_classification_is_a_plain_named_triple():
    c = classify(FinFun(2, 2, (2, 1)))
    assert c == (True, True, False) and hash(c) == hash((True, True, False))
    assert repr(c) == "Classification(injective=True, surjective=True, monotone=False)"
    assert Classification(injective=True, surjective=True, monotone=False) == c
    assert not isinstance(c, Record)
