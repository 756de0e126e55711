"""Expression algebra: desugaring, grammar assembly, structural identity."""

import random

import pytest

from trx import (ANY, Action, ActionRef, And, AnyChar, CharClass, Choice,
                 Drop, DuplicateRule, EMPTY, EmptyLiteral, InvalidRange,
                 Literal, NonTerminal, Not, Optional, Plus, Range, Seq, Star,
                 Terminal, UndefinedNonterminal, UnknownStart, build_grammar,
                 desugar, eval_expr, expr_text)
from trx.exprs import CONS, DROP, NONE, SOME, TUPLE2STR
from trx.mathdemo import math_rules


def test_literal_desugars_to_terminal_chain_with_string_action():
    d = desugar(Literal("if"))
    assert d == Action(Seq(Terminal("i"), Terminal("f")), TUPLE2STR)


def test_and_desugars_to_double_negation():
    assert desugar(And(AnyChar())) == Not(Not(AnyChar()))


def test_single_range_class_desugars_to_range():
    assert desugar(CharClass([("0", "9")])) == Range("0", "9")


def test_single_char_class_desugars_to_terminal():
    assert desugar(CharClass(["x"])) == Terminal("x")


def test_class_desugar_is_right_nested_in_source_order():
    d = desugar(CharClass([("a", "z"), ("A", "Z"), "_"]))
    assert d == Choice(Range("a", "z"), Choice(Range("A", "Z"), Terminal("_")))


def test_plus_optional_drop_desugarings():
    t = Terminal("a")
    assert desugar(Plus(t)) == Action(Seq(t, Star(t)), CONS)
    assert desugar(Optional(t)) == Choice(Action(t, SOME), Action(EMPTY, NONE))
    assert desugar(Drop(t)) == Action(t, DROP)


def test_empty_literal_rejected():
    with pytest.raises(EmptyLiteral):
        desugar(Literal(""))


def test_invalid_range_rejected():
    with pytest.raises(InvalidRange):
        desugar(CharClass([("z", "a")]))
    with pytest.raises(InvalidRange):
        Range("9", "0")


def _random_core(rng, depth=3):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([EMPTY, AnyChar(), Terminal("a"), Terminal("b"),
                           Range("a", "b")])
    kind = rng.randrange(4)
    if kind == 0:
        return Seq(_random_core(rng, depth - 1), _random_core(rng, depth - 1))
    if kind == 1:
        return Choice(_random_core(rng, depth - 1),
                      _random_core(rng, depth - 1))
    if kind == 2:
        return Star(_random_core(rng, depth - 1))
    return Not(_random_core(rng, depth - 1))


def test_desugar_idempotent_on_core():
    rng = random.Random(0)
    for _ in range(200):
        e = _random_core(rng)
        assert desugar(e) == e
        assert desugar(desugar(e)) == desugar(e)


def test_desugar_matches_hand_expansion_behavior():
    # The derived operators against their defining expansions, written
    # out by hand, compared over every short input.
    rng = random.Random(1)
    inputs = [b"", b"a", b"b", b"ab", b"ba", b"aab", b"bba"]
    for _ in range(60):
        inner = _random_core(rng, depth=2)
        pairs = [
            (Plus(inner), Action(Seq(inner, Star(inner)), CONS)),
            (Optional(inner),
             Choice(Action(inner, SOME), Action(EMPTY, NONE))),
            (And(inner), Not(Not(inner))),
            (Drop(inner), Action(inner, DROP)),
        ]
        for sugar, hand in pairs:
            for s in inputs:
                try:
                    got = eval_expr(sugar, s)
                except AssertionError:
                    # nullable-star loops abort identically on both sides
                    with pytest.raises(AssertionError):
                        eval_expr(hand, s)
                    continue
                assert got == eval_expr(hand, s)
    lit = Literal("ab")
    hand = Action(Seq(Terminal("a"), Terminal("b")), TUPLE2STR)
    for s in inputs:
        assert eval_expr(lit, s) == eval_expr(hand, s)


def test_action_equality_is_by_label():
    a1 = Action(EMPTY, ActionRef("f", lambda v: v))
    a2 = Action(EMPTY, ActionRef("f", lambda v: None))
    a3 = Action(EMPTY, ActionRef("g", lambda v: v))
    assert a1 == a2
    assert hash(a1) == hash(a2)
    assert a1 != a3


def test_exprs_work_as_dict_keys():
    table = {Seq(Terminal("a"), Star(Terminal("b"))): 1}
    assert table[Seq(Terminal("a"), Star(Terminal("b")))] == 1
    assert Star(Terminal("b")) not in table


def test_build_grammar_math_rules():
    g = build_grammar(math_rules(), "expr")
    assert len(g.nonterminals) == 5
    assert g.start == "expr"
    assert set(g.nonterminals) == {"ws", "number", "term", "factor", "expr"}


def test_build_grammar_singleton():
    g = build_grammar([("A", EMPTY)], "A")
    assert g.nonterminals == ("A",)
    assert g.productions["A"] == EMPTY


def test_grammar_productions_are_read_only():
    g = build_grammar([("A", EMPTY)], "A")
    with pytest.raises(TypeError):
        g.productions["A"] = ANY
    with pytest.raises(TypeError):
        del g.productions["A"]
    with pytest.raises(AttributeError):
        g.productions = {"A": ANY}
    with pytest.raises(AttributeError):
        g.start = "B"
    assert g.productions["A"] == EMPTY


def test_build_grammar_undefined_reference():
    rules = [(n, b) for n, b in math_rules()]
    rules[3] = ("factor", Seq(NonTerminal("termX"), NonTerminal("factor")))
    with pytest.raises(UndefinedNonterminal) as exc:
        build_grammar(rules, "expr")
    assert exc.value.name == "termX"
    assert exc.value.referenced_from == "factor"


def test_build_grammar_duplicate_and_bad_start():
    with pytest.raises(DuplicateRule):
        build_grammar([("A", EMPTY), ("A", ANY)], "A")
    with pytest.raises(UnknownStart):
        build_grammar([("A", EMPTY)], "B")


def test_grammar_order_independence():
    rules = math_rules()
    g1 = build_grammar(rules, "expr")
    g2 = build_grammar(list(reversed(rules)), "expr")
    assert g1 == g2
    assert g1.productions == g2.productions
    assert g1.nonterminals != g2.nonterminals  # order preserved per input


def test_expr_text_examples():
    assert expr_text(EMPTY) == "eps"
    assert expr_text(Not(Star(Terminal("a")))) == "![a]*"
    assert expr_text(Star(Not(Terminal("a")))) == "(![a])*"
    assert expr_text(Seq(Choice(EMPTY, ANY), ANY)) == "(eps / .) ."


def test_empty_class_rejected():
    from trx import EmptyClass

    with pytest.raises(EmptyClass):
        desugar(CharClass([]))
