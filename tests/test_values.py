"""Behaviour of the immutable records: the value classes, ParseOutcome
and GrammarSource compare, hash, print, match, refuse mutation, and
pickle and copy as plain field records."""

import copy
import math
import pickle

import pytest

from trx import (CHAR, Char, GrammarSource, Lst, Opt, ParseOutcome, Str,
                 Tup, UNIT, User, certify, load_grammar_source, parse)

TEXT = b"a <- [0-9]+ b ;\nb <- 'x' ;\n"


def values():
    """One instance of each value class, with an equal twin built apart."""
    return [
        (Char(97), Char(97)),
        (Str(b"ab"), Str(bytes([97, 98]))),
        (Tup((CHAR[97], UNIT)), Tup((Char(97), UNIT))),
        (Lst((CHAR[97], CHAR[98])), Lst((Char(97), Char(98)))),
        (Opt(CHAR[97]), Opt(Char(97))),
        (Opt(None), Opt(None)),
        (User(3), User(3)),
    ]


def outcomes():
    src = load_grammar_source(TEXT)
    cert = certify(src.grammar)
    return [parse(src.grammar, cert, b"12x"), parse(src.grammar, cert, b"1y")]


def test_values_equal_by_class_and_fields():
    for a, b in values():
        assert a == b and not a != b and hash(a) == hash(b), a
        assert a is not b or a is CHAR[97]
    assert Char(97) != Char(98)
    assert Lst((CHAR[97],)) != Lst((CHAR[98],))
    assert User(1) != User(2)
    # Another class never compares equal, even with the same fields.
    assert Char(1) != Str(b"\x01")
    assert Tup((UNIT, UNIT)) != Lst((UNIT, UNIT))
    assert Opt(None) != User(None)
    assert Char(1).__eq__(1) is NotImplemented
    assert Char(1) != 1 and Char(1) != (1,)
    # Equality and hashing see the fields as a tuple does, so a payload
    # that is not equal to itself still makes equal records.
    nan = math.nan
    assert User(nan) == User(nan)
    assert hash(Char(1)) == hash((1,))
    assert hash(User("x")) == hash(("x",))
    assert {Char(1), Char(1), Char(2)} == {CHAR[1], CHAR[2]}
    with pytest.raises(TypeError):
        hash(User([]))


def test_value_reprs():
    assert repr(Char(97)) == "Char('a')"
    assert repr(Str(b"ab")) == "Str(b'ab')"
    assert repr(Tup((CHAR[97], UNIT))) == "Tup(Char('a'), Unit)"
    assert repr(Lst((CHAR[97],))) == "Lst[Char('a')]"
    assert repr(Lst(())) == "Lst[]"
    assert repr(Opt(None)) == "Opt(None)"
    assert repr(Opt(CHAR[98])) == "Opt(Char('b'))"
    assert repr(User(3)) == "User(payload=3)"
    assert repr(User("x")) == "User(payload='x')"


def test_records_refuse_assignment_and_deletion():
    src = load_grammar_source(TEXT)
    records = [a for a, _ in values()] + outcomes() + [src]
    fields = {Char: "code", Str: "data", Tup: "items", Lst: "items",
              Opt: "item", User: "payload", ParseOutcome: "farthest",
              GrammarSource: "rule_positions"}
    for rec in records:
        name = fields[type(rec)]
        before = getattr(rec, name)
        with pytest.raises(AttributeError):
            setattr(rec, name, 0)
        with pytest.raises(AttributeError):
            delattr(rec, name)
        with pytest.raises(AttributeError):
            rec.other = 1
        assert getattr(rec, name) is before
    assert CHAR[97].code == 97


def test_values_match_positionally():
    def show(v):
        match v:
            case Char(code):
                return ("char", code)
            case Str(data):
                return ("str", data)
            case Tup((head, tail)):
                return ("tup", show(head), show(tail))
            case Lst(items):
                return ("lst", [show(i) for i in items])
            case Opt(None):
                return ("none",)
            case Opt(item):
                return ("some", show(item))
            case User(payload):
                return ("user", payload)
        return v

    assert show(Tup((CHAR[97], Lst((Opt(None), Opt(User(2))))))) == (
        "tup", ("char", 97),
        ("lst", [("none",), ("some", ("user", 2))]))
    assert show(Str(b"z")) == ("str", b"z")
    assert Char.__match_args__ == ("code",)
    assert Str.__match_args__ == ("data",)
    assert Tup.__match_args__ == Lst.__match_args__ == ("items",)
    assert Opt.__match_args__ == ("item",)
    assert User.__match_args__ == ("payload",)


def test_values_pickle_and_copy_by_fields():
    for a, _ in values():
        for twin in (pickle.loads(pickle.dumps(a)),
                     pickle.loads(pickle.dumps(a, protocol=0)),
                     copy.copy(a), copy.deepcopy(a)):
            assert type(twin) is type(a) and twin == a, (a, twin)
            assert repr(twin) == repr(a)
    # Unit compares by identity: every protocol brings back the one
    # instance (protocol 0 and 1 made a second one).
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(UNIT, protocol)) is UNIT
    assert copy.copy(UNIT) is UNIT and copy.deepcopy(UNIT) is UNIT
    deep = copy.deepcopy(User([1, [2]]))
    assert deep.payload == [1, [2]]
    nested = Lst((Tup((CHAR[1], Str(b"s"))), User(4)))
    assert pickle.loads(pickle.dumps(nested)) == nested


def test_parse_outcome_equality_ignores_farthest():
    ok = ParseOutcome(True, 3, UNIT, 5, 2)
    assert ok == ParseOutcome(True, 3, UNIT, 5, 9)
    assert ok == ParseOutcome(True, 3, UNIT, 5)
    assert hash(ok) == hash(ParseOutcome(True, 3, UNIT, 5, 9))
    assert hash(ok) == hash((True, 3, UNIT, 5))
    assert ok != ParseOutcome(True, 3, UNIT, 6, 2)
    assert ok != ParseOutcome(False, 3, UNIT, 5, 2)
    assert ok != (True, 3, UNIT, 5)
    assert ParseOutcome(False, -1, None, 1).farthest == -1
    assert ParseOutcome(True, 0, UNIT, 1, farthest=4).farthest == 4
    assert ParseOutcome(ok=True, pos=0, value=UNIT, steps=1) == \
        ParseOutcome(True, 0, UNIT, 1, 7)


def test_parse_outcome_repr_and_match():
    assert repr(ParseOutcome(True, 3, CHAR[97], 5, 2)) == \
        "Ok(pos=3, Char('a'), steps=5)"
    assert repr(ParseOutcome(False, -1, None, 4, 2)) == \
        "Fail(steps=4, farthest=2)"
    good, bad = outcomes()
    assert repr(good) == "Ok(pos=3, TreeNode(a[0:3], 2 children), steps=16)"
    assert ParseOutcome.__match_args__ == ("ok", "pos", "value", "steps",
                                           "farthest")
    match good:
        case ParseOutcome(True, pos, _, steps, farthest):
            assert (pos, steps, farthest) == (3, 16, 2)
        case _:
            raise AssertionError(good)
    match bad:
        case ParseOutcome(False, pos, value, _, farthest):
            assert (pos, value, farthest) == (-1, None, 1)
        case _:
            raise AssertionError(bad)


def test_parse_outcome_pickle_and_copy_keep_farthest():
    records = outcomes() + [ParseOutcome(True, 1, User(2), 3, 8),
                            ParseOutcome(False, -1, None, 3, 6)]
    for out in records:
        for twin in (pickle.loads(pickle.dumps(out)), copy.copy(out),
                     copy.deepcopy(out)):
            assert type(twin) is ParseOutcome and twin == out
            assert (twin.ok, twin.pos, twin.steps, twin.farthest) == \
                (out.ok, out.pos, out.steps, out.farthest)
            assert twin.value == out.value


def test_grammar_source_record():
    src = load_grammar_source(TEXT, path="g.peg")
    again = load_grammar_source(TEXT, path="g.peg")
    assert src == again and not src != again
    assert src != load_grammar_source(TEXT)
    assert src != GrammarSource(src.text, src.path, src.grammar, {})
    assert src.rule_positions == {"a": (1, 1), "b": (2, 1)}
    assert repr(src) == (
        "GrammarSource(text=%r, path='g.peg', grammar=%r, "
        "rule_positions={'a': (1, 1), 'b': (2, 1)})" % (TEXT, src.grammar))
    # It holds a dict, so it has no hash.
    with pytest.raises(TypeError):
        hash(src)
    assert GrammarSource.__match_args__ == ("text", "path", "grammar",
                                            "rule_positions")
    match src:
        case GrammarSource(text, path, grammar, positions):
            assert (text, path, grammar, positions) == (
                TEXT, "g.peg", src.grammar, src.rule_positions)
        case _:
            raise AssertionError(src)
    twin = copy.copy(src)
    assert twin == src and twin.grammar is src.grammar
    # Grammars do not pickle; the record's own fields do.
    plain = GrammarSource(b"x", "p", None, {"a": (1, 1)})
    for twin in (pickle.loads(pickle.dumps(plain)), copy.deepcopy(plain)):
        assert type(twin) is GrammarSource and twin == plain
        assert twin.rule_positions is not plain.rule_positions
