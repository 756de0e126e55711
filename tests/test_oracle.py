"""The fueled reference evaluator and the small-case generators."""

import itertools
import random
import sys

import pytest

from trx import (EMPTY, EXHAUSTED, Star, Terminal, build_grammar,
                 check_well_formed, parse)
from trx.exprs import (Action, AnyChar, Choice, NonTerminal, Not, Range, Seq,
                       iter_subexprs)
from trx.mathdemo import math_grammar
from trx.oracle import (all_inputs, enumerate_small_cases, oracle_eval,
                        oracle_parse, random_grammar, small_grammars)


def test_star_of_empty_exhausts_any_fuel():
    assert oracle_eval(None, Star(EMPTY), "a", fuel=1000) is EXHAUSTED
    assert oracle_eval(None, Star(EMPTY), "", fuel=20_000) is EXHAUSTED


def test_terminal_with_exact_fuel():
    out = oracle_eval(None, Terminal("a"), "a", fuel=1)
    assert out is not EXHAUSTED
    assert (out.ok, out.pos, out.steps) == (True, 1, 1)
    assert oracle_eval(None, Terminal("a"), "a", fuel=0) is EXHAUSTED


@pytest.mark.parametrize("data", [[97], memoryview(b"a"), 97],
                         ids=["list", "memoryview", "int"])
def test_oracle_takes_the_interpreters_input_types(data):
    # The differential's two sides accept one input domain: a str,
    # bytes or a bytearray, and nothing else.
    g = build_grammar([("S", Terminal("a"))], "S")
    for run in (lambda: oracle_parse(g, data),
                lambda: oracle_eval(g, Terminal("a"), data),
                lambda: parse(g, check_well_formed(g).certificate, data)):
        with pytest.raises(TypeError):
            run()


def test_oracle_takes_a_bytearray_as_bytes():
    g = build_grammar([("S", Terminal("a"))], "S")
    out = oracle_parse(g, bytearray(b"a"))
    assert out.ok and out == oracle_parse(g, b"a") == oracle_parse(g, "a")
    assert oracle_eval(g, Terminal("a"), bytearray(b"b")).ok is False


def test_oracle_restores_recursion_limit():
    # A raised limit left behind would hide recursion faults from every
    # later caller in the process.
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(2_000)
    try:
        oracle_eval(None, Terminal("a"), b"a")
        assert sys.getrecursionlimit() == 2_000
        oracle_parse(build_grammar([("S", Terminal("a"))], "S"), b"a")
        assert sys.getrecursionlimit() == 2_000
    finally:
        sys.setrecursionlimit(before)


def test_math_expr_matches_interpreter_exactly():
    g, cert = math_grammar()
    expected = oracle_parse(g, "1+2", fuel=1_000_000)
    assert expected is not EXHAUSTED
    assert parse(g, cert, "1+2") == expected


def test_fuel_monotonicity():
    rng = random.Random(3)
    checked = 0
    for g in small_grammars("ab", 2, seed=3, limit=30):
        for s in (b"", b"a", b"ab", b"ba"):
            base = oracle_parse(g, s, fuel=500)
            if base is EXHAUSTED:
                continue
            for fuel in (base.steps, base.steps + 1, base.steps * 2 + 7,
                         10_000):
                again = oracle_parse(g, s, fuel=fuel)
                assert again == base and again.steps == base.steps
            checked += 1
    assert checked > 20
    assert rng is not None


def test_fuel_bounds_step_index():
    g, _ = math_grammar()
    out = oracle_parse(g, "(1+2) * (3 * 4)", fuel=10_000)
    assert out is not EXHAUSTED
    # one fewer unit of fuel than the derivation index must exhaust
    assert oracle_parse(g, "(1+2) * (3 * 4)", fuel=out.steps - 1) is EXHAUSTED
    assert oracle_parse(g, "(1+2) * (3 * 4)", fuel=out.steps) == out


def test_enumeration_is_reproducible():
    a = list(itertools.islice(enumerate_small_cases("ab", 3, 2, seed=11), 300))
    b = list(itertools.islice(enumerate_small_cases("ab", 3, 2, seed=11), 300))
    assert [(g.productions, g.start, s) for g, s in a] == \
        [(g.productions, g.start, s) for g, s in b]


def test_enumeration_covers_every_constructor():
    kinds = set()
    for g in small_grammars("ab", 4, seed=0, limit=250):
        for body in g.productions.values():
            for sub in iter_subexprs(body):
                kinds.add(type(sub))
    assert {AnyChar, Terminal, Range, NonTerminal, Seq, Choice, Star, Not,
            Action}.issubset(kinds)
    assert EMPTY.__class__ in kinds


def test_single_letter_enumeration_includes_basic_cases():
    seen_empty_on_a = False
    seen_terminal_on_empty = False
    for g, s in enumerate_small_cases("a", 1, 1, seed=0, max_grammars=40):
        if g.productions == {"S": EMPTY} and s == b"a":
            seen_empty_on_a = True
        if g.productions == {"S": Terminal("a")} and s == b"":
            seen_terminal_on_empty = True
    assert seen_empty_on_a and seen_terminal_on_empty


def test_all_inputs_exhaustive():
    inputs = all_inputs("ab", 3)
    assert len(inputs) == 1 + 2 + 4 + 8
    assert len(set(inputs)) == len(inputs)


def test_trace_is_deterministic():
    g = build_grammar([("S", Choice(Seq(Terminal("a"), NonTerminal("S")),
                                    Terminal("b")))], "S")
    t1, t2 = [], []
    r1 = oracle_parse(g, "aab", fuel=1000, trace=t1)
    r2 = oracle_parse(g, "aab", fuel=1000, trace=t2)
    assert r1 == r2
    assert t1 == t2
    assert len(t1) > 0


def test_random_grammar_total_and_seedable():
    g1 = random_grammar(random.Random(5), "ab", 3, 5)
    g2 = random_grammar(random.Random(5), "ab", 3, 5)
    assert g1 == g2
    for body in g1.productions.values():
        for sub in iter_subexprs(body):
            if isinstance(sub, NonTerminal):
                assert sub.name in g1.productions


def test_oracle_handles_range_like_terminal():
    out = oracle_eval(None, Range("0", "9"), "7", fuel=10)
    assert (out.ok, out.pos, out.steps) == (True, 1, 1)
    out = oracle_eval(None, Range("0", "9"), "x", fuel=10)
    assert (out.ok, out.steps) == (False, 1)
