"""Interpreter semantics: exact step counts, modes, memoization, safety."""

import os
import random

import pytest

import trx.interp
from trx import (AnyChar, CertificateMismatch, Choice, EMPTY,
                 InvariantViolation, MemoTable, NonTerminal, Not, Range, Seq,
                 Star, Terminal, User, build_grammar, certify,
                 check_well_formed, eval_expr, expr_text, expression_set,
                 memo_stats, parse, parse_to_tree)
from trx.interp import _compile, _run
from trx.mathdemo import evaluate, math_grammar
from trx.oracle import EXHAUSTED, oracle_eval, oracle_parse
from trx.values import Char, Lst, Tup, UNIT

from conftest import GRAMMAR_DIR, certified


def test_terminal_step_counts():
    out = eval_expr(Terminal("a"), "abc")
    assert (out.ok, out.pos, out.value, out.steps) == (True, 1, Char(97), 1)
    out = eval_expr(Terminal("a"), "")
    assert (out.ok, out.steps) == (False, 1)
    out = eval_expr(Terminal("a"), "b")
    assert (out.ok, out.steps) == (False, 1)


def test_choice_failover_steps():
    out = eval_expr(Choice(Terminal("a"), Terminal("b")), "b")
    assert (out.ok, out.pos, out.value, out.steps) == (True, 1, Char(98), 3)


def test_not_anychar_on_empty_input():
    out = eval_expr(Not(AnyChar()), "")
    assert (out.ok, out.pos, out.value, out.steps) == (True, 0, UNIT, 2)


def test_star_steps_frozen_from_oracle():
    # Hand derivation by the semantics rules (inner successes 1+1, inner
    # failure 1, one star rule application per level): 1+(1+(1+1)+1)+1 = 6.
    # The independent oracle confirms 6.
    out = eval_expr(Star(Terminal("a")), "aa")
    assert out.ok and out.pos == 2
    assert out.value == Lst((Char(97), Char(97)))
    assert out.steps == 6


def test_range_behaves_like_matching_terminal():
    out = eval_expr(Range("0", "9"), "7x")
    assert (out.ok, out.pos, out.value, out.steps) == (True, 1, Char(55), 1)
    assert eval_expr(Range("0", "9"), "x").steps == 1
    assert not eval_expr(Range("0", "9"), "x").ok


def test_start_rule_application_counted():
    g = build_grammar([("S", EMPTY)], "S")
    out = parse(g, certify(g), "abc")
    assert (out.ok, out.pos, out.value, out.steps) == (True, 0, UNIT, 2)


def test_seq_value_is_right_nested_pair():
    out = eval_expr(Seq(Terminal("a"), Seq(Terminal("b"), Terminal("c"))),
                    "abc")
    assert out.value == Tup((Char(97), Tup((Char(98), Char(99)))))


def test_math_example_evaluates_to_36():
    assert evaluate("(1+2) * (3 * 4)") == 36
    g, cert = math_grammar()
    out = parse(g, cert, "(1+2) * (3 * 4)")
    assert out.ok and out.pos == 15
    assert out.value == User(36)


def test_evaluate_parses_in_packrat_mode(monkeypatch):
    # Plain mode costs about 4x more per parenthesis level on this
    # grammar; packrat evaluates 12 levels in well under a second.
    modes = []
    real_parse = trx.interp.parse

    def spy(g, cert, data, mode="plain", memo=None):
        modes.append(mode)
        return real_parse(g, cert, data, mode=mode, memo=memo)

    monkeypatch.setattr(trx.interp, "parse", spy)
    assert evaluate("(" * 12 + "1+2*3" + ")" * 12 + "*4+5") == 33
    assert modes == ["packrat"]


def test_math_agrees_with_oracle_exactly():
    g, cert = math_grammar()
    for s in ("1+2", "(1+2) * (3 * 4)", " 7 * 8", "1+", "x"):
        expected = oracle_parse(g, s, fuel=1_000_000)
        assert parse(g, cert, s) == expected
        assert parse(g, cert, s, mode="packrat") == expected


def test_determinism_including_modes():
    g, cert = math_grammar()
    a = parse(g, cert, "(1+2) * (3 * 4)")
    b = parse(g, cert, "(1+2) * (3 * 4)")
    c = parse(g, cert, "(1+2) * (3 * 4)", mode="packrat")
    assert a == b == c
    assert a.steps == b.steps == c.steps


def test_certificate_gate():
    g1 = build_grammar([("S", EMPTY)], "S")
    g2 = build_grammar([("S", EMPTY)], "S")
    cert2 = certify(g2)
    with pytest.raises(CertificateMismatch):
        parse(g1, cert2, "")  # issued for a different grammar object
    with pytest.raises(CertificateMismatch):
        parse(g1, object(), "")


def test_unknown_mode_rejected():
    g = build_grammar([("S", EMPTY)], "S")
    with pytest.raises(ValueError):
        parse(g, certify(g), "", mode="turbo")


def test_star_defensive_check_fires_without_certificate():
    with pytest.raises(InvariantViolation):
        eval_expr(Star(EMPTY), "a")


def test_memo_plain_mode_stays_empty():
    g, cert = math_grammar()
    memo = MemoTable()
    parse(g, cert, "1+2", mode="plain", memo=memo)
    assert memo_stats(memo) == {"entries": 0, "hits": 0, "misses": 0}


def _backtracking_grammar():
    # Both choice alternatives parse the same long A before diverging,
    # so plain mode re-parses A and packrat reuses the memo entry.
    A = NonTerminal("A")
    return build_grammar([
        ("S", Choice(Seq(A, Terminal("x")), Seq(A, Terminal("y")))),
        ("A", Choice(Seq(Terminal("a"), A), Terminal("b"))),
    ], "S")


def test_packrat_hits_on_backtracking_and_accounting_identity():
    g = _backtracking_grammar()
    cert = certify(g)
    data = b"a" * 30 + b"by"
    memo = MemoTable()
    out = parse(g, cert, data, mode="packrat", memo=memo)
    assert out.ok and out.pos == len(data)
    stats = memo_stats(memo)
    assert stats["hits"] > 0
    # every memoized evaluation is exactly one lookup: a hit, or a miss
    # that stores one entry
    assert stats["entries"] == stats["misses"]

    plain = parse(g, cert, data, mode="plain")
    assert plain == out and plain.steps == out.steps


def test_farthest_failure_position(xml_lite):
    g, cert = xml_lite
    out = parse(g, cert, b"<a></b>")
    assert not out.ok
    assert out.farthest == 4  # the '/' of the mismatched close tag


def test_deeply_nested_input_is_stack_safe(xml_lite):
    g, cert = xml_lite
    depth = 15_000
    data = b"<a>" * depth + b"<x/>" + b"</a>" * depth
    assert len(data) >= 100_000
    out = parse_to_tree(g, cert, data)
    assert out.ok and out.pos == len(data)
    # walk the element chain iteratively to confirm the full nesting depth
    node = out.value
    levels = 0
    while node is not None:
        assert node.rule == "element"
        levels += 1
        content = [c for c in node.children if c.rule == "content"]
        node = content[0].children[0] if content else None
    assert levels == depth + 1


def test_parse_to_tree_rejects_embedded_grammars():
    g, cert = math_grammar()
    with pytest.raises(TypeError):
        parse_to_tree(g, cert, "1")


def test_random_certified_cases_agree_across_modes():
    from trx.oracle import random_grammar

    rng = random.Random(9)
    done = 0
    while done < 300:
        g = random_grammar(rng, "ab", rng.randrange(1, 4),
                           rng.randrange(2, 6))
        report = check_well_formed(g)
        if not report.is_well_formed:
            continue
        for _ in range(5):
            s = bytes(rng.choice(b"ab") for _ in range(rng.randrange(0, 12)))
            a = parse(g, report.certificate, s)
            b = parse(g, report.certificate, s, mode="packrat")
            assert a == b and a.steps == b.steps
            done += 1


def test_concurrent_parses_share_one_grammar(xml_lite):
    import threading

    g, cert = xml_lite
    inputs = [b"<a><b/></a>", b'<a x="1">t</a>', b"<a></b>", b"<a>hi<c/></a>"]
    expected = [parse(g, cert, s) for s in inputs]
    results = [[None] * len(inputs) for _ in range(4)]

    def worker(slot):
        for i, s in enumerate(inputs):
            results[slot][i] = parse(g, cert, s,
                                     mode="packrat" if slot % 2 else "plain")

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for row in results:
        assert row == expected


_BYTE_INPUTS = [b""] + [bytes([b]) + b"<" for b in range(256)]


@pytest.mark.parametrize("name", sorted(os.listdir(GRAMMAR_DIR)) + ["math"])
def test_every_byte_agrees_with_oracle(name):
    # Byte tables have an entry per byte value; run every sub-expression
    # (every 7th of synth200) on each byte and on end of input.  Values
    # are compared only for the embedded grammar: a tree-shaped scan
    # returns one leaf for its whole run, or an empty list, which only
    # the node collector sees.
    if name == "math":
        g, exact, stride = math_grammar()[0], True, 1
    else:
        g, exact = certified(name)[0], False
        stride = 7 if name == "synth200.peg" else 1
    subs = list(expression_set(g))[::stride]
    prog, roots = _compile(g, roots=subs)
    for e, root in zip(subs, roots):
        for data in _BYTE_INPUTS:
            ok, pos, val, steps, _ = _run(prog, data, root, 0, None)
            want = oracle_eval(g, e, data)
            assert want is not EXHAUSTED
            got = (ok, pos if ok else -1, steps)
            assert got == (want.ok, want.pos, want.steps), (expr_text(e), data)
            if exact and ok:
                assert val == want.value, (expr_text(e), data)
