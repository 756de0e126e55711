"""Interpreter semantics: exact step counts, modes, memoization, safety."""

import copy
import gc
import json
import os
import pickle
import random
import sys
import threading
from contextlib import contextmanager

import pytest

import trx.interp
import trx.values
from trx import (Action, ActionRef, AnyChar, CertificateMismatch, CharClass,
                 Choice, Drop, EMPTY, Grammar, InvariantViolation, MemoTable,
                 NonTerminal, Not, Plus, Range,
                 Seq, Star, Terminal, TreeNode, User, build_grammar,
                 builtin_meta_grammar, certify, check_well_formed, eval_expr,
                 expr_text, expression_set, Literal, load_grammar,
                 memo_stats, parse, parse_to_tree, tree_to_json, tree_wrap)
from trx.bench import xmark_lite
from trx.exprs import CONS, DROP, LEAF, TUPLE2STR
from trx.interp import _ALWAYS, _NO_FAIL, _compile, _initial_marks, _run
from trx.mathdemo import ADD, MUL, PICK1, evaluate, math_grammar
from trx.oracle import (EXHAUSTED, all_inputs, oracle_eval, oracle_parse,
                        random_grammar, small_grammars)
from trx.values import (Char, Lst, Tup, UNIT, Value, gc_suspended,
                        tree_json_text)

from conftest import GRAMMAR_DIR, certified, grammar_text, value_twin


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


def test_certificate_fields_cannot_be_reassigned():
    # A certificate bound to g cannot be rebound to h, nor its program
    # replaced or removed, so parse(h, c, ...) still refuses it.
    g = load_grammar("a <- 'x' ;")
    h = load_grammar("a <- 'y' ;")
    c = certify(g)
    program = c.program
    for name, value in (("grammar", h), ("program", None),
                        ("program", certify(h).program)):
        with pytest.raises(AttributeError):
            setattr(c, name, value)
        with pytest.raises(AttributeError):
            delattr(c, name)
    assert c.grammar is g and c.program is program
    with pytest.raises(CertificateMismatch):
        parse(h, c, b"x")
    assert parse(g, c, b"x").ok


def test_certificate_program_is_sealed():
    # Pointing the program's start at another rule's body would make
    # the certificate run a parse its grammar does not describe.
    g = load_grammar("a <- 'x' ; b <- 'y' ;")
    c = certify(g)
    program = c.program
    for name in program.__slots__:
        with pytest.raises(AttributeError):
            setattr(program, name, getattr(program, name))
        with pytest.raises(AttributeError):
            delattr(program, name)
    with pytest.raises(AttributeError):
        program.start = program.prod_body[1]
    for name in ("kind", "a", "b", "extra", "prod_body"):
        assert type(getattr(program, name)) is tuple
    assert not parse(g, c, b"y").ok
    assert parse(g, c, b"x").ok


def test_certificate_program_caches_are_fixed():
    # The program's per-mode cache is made with it: neither mode's
    # heads (failure views and iteration tables) can be swapped for
    # forged ones.
    g = load_grammar("a <- 'x' ;")
    c = certify(g)
    assert type(c.program.heads) is tuple and len(c.program.heads) == 2
    n = len(c.program.kind)
    with pytest.raises(TypeError):
        c.program.heads[0] = [bytes([1]) * 257] * n + [((1,) * 257, None)] * n
    assert parse(g, c, b"x").ok


def test_loading_and_certifying_leave_no_cyclic_garbage():
    # The compile's working set goes when it returns: left in a cycle,
    # it would wait for the cyclic collector and raise peak memory.
    text = grammar_text("synth200.peg")
    gc.collect()
    was = gc.isenabled()
    gc.disable()
    try:
        g = load_grammar(text)
        report = check_well_formed(g)
        found = gc.collect()
    finally:
        if was:
            gc.enable()
    assert report.is_well_formed and found == 0


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


def _seed_set(g, cert):
    """The rules a packrat parse memoises from its start."""
    marks = _initial_marks(cert.program)
    return {name for name, m in zip(g.nonterminals, marks) if m == _ALWAYS}


@pytest.mark.parametrize("name, seed", [
    ("math.peg", {"ws", "term", "factor"}),
    ("peg.peg", {"classchar"}),
    ("xml-lite.peg", set()),
    ("reserved.peg", set()),
    ("dangling.peg", set()),
    ("synth200.peg", set()),
    ("math", {"ws", "term", "factor"}),
    ("meta", {"classchar"}),
])
def test_static_seed_sets(name, seed):
    # A rule is seeded when both alternatives of one choice can call it
    # at the choice's own position, e.g. math.peg's `ws` (a nullable
    # prefix) under `term`, and `term` under `factor`.  `number` is not:
    # it is reached only through `term`, which is seeded, so its second
    # call there is a memo hit of `term`; so is peg.peg's `escape`,
    # reached only through `classchar`.  No xml-lite choice has such a
    # rule.
    if name == "math":
        g, cert = math_grammar()
    elif name == "meta":
        g, cert = builtin_meta_grammar()
    else:
        g, cert = certified(name)
    assert _seed_set(g, cert) == seed


def test_seed_sets_follow_leading_calls():
    # C leads both alternatives of S's choice, through A (after the
    # nullable W) and through B, neither of them seeded; W leads only
    # the first.
    g = load_grammar("S <- A 'x' / B 'y' ; A <- W C 'a' ; B <- C 'b' ;"
                     "C <- 'c' ; W <- ' '* ;")
    assert _seed_set(g, certify(g)) == {"C"}
    # A program compiled without a certificate has no nullability flags
    # and memoises every rule, left-recursive or not.
    assert _compile(g)[0].null is None
    assert _initial_marks(_compile(g)[0]) == [_ALWAYS] * 5
    g = load_grammar("S <- A 'x' / B 'y' ; A <- B 'a' / D ;"
                     "B <- A 'b' / C ; C <- 'c' ; D <- 'd' ; E <- 'e' ;")
    assert not check_well_formed(g).is_well_formed
    assert _initial_marks(_compile(g)[0]) == [_ALWAYS] * 6
    # `!eps` never succeeds, so the analysis's flag says it cannot
    # succeed empty: the leads of `!eps S 'x'` stop there, S is not led
    # by A, and the seed set is empty.
    g = load_grammar("S <- A / 'b' ; A <- !eps S 'x' / 'a' ; C <- 'c' ;")
    cert = certify(g)
    assert _seed_set(g, cert) == set()
    for data in (b"a", b"b", b"c", b"ax", b""):
        assert (parse(g, cert, data, mode="packrat")
                == parse(g, cert, data) == oracle_parse(g, data))
    # Every lead is a well-formedness premise, so with the certificate's
    # flags leading calls form no cycle; flags that take `!eps` as
    # nullable close one, which the seed-set pass reports as a broken
    # invariant.
    forged = _copy_program(cert.program, marks=None,
                           null=(True,) * len(cert.program.kind))
    with pytest.raises(InvariantViolation):
        _initial_marks(forged)


def _memo_run(g, cert, data, plain=True):
    """Packrat outcome and memo statistics, checked against plain mode
    (unless ``plain`` is false) and the entries-equal-misses identity."""
    memo = MemoTable()
    out = parse(g, cert, data, mode="packrat", memo=memo)
    if plain:
        assert out == parse(g, cert, data, mode="plain")
    stats = memo_stats(memo)
    assert stats["entries"] == stats["misses"]
    return out, stats


def test_memo_hits_on_fixed_inputs():
    # Full memoisation (every rule at every position) hits as often on
    # math and on the meta-grammars: every re-entry there is of a seeded
    # rule.  On the dangling-else chain the watermark memoises `elsepart`
    # from its second call at the end of the input on, so the first of
    # full memoisation's 199 hits there becomes a miss.  (Plain mode
    # would take minutes on the 12-deep expression.)
    deep = b"(" * 12 + b"1+2*3" + b")" * 12 + b"*4+5"
    for g, cert in (math_grammar(), certified("math.peg")):
        out, stats = _memo_run(g, cert, deep, plain=False)
        assert out.ok and stats["hits"] == 40
    meta = (certified("peg.peg"), builtin_meta_grammar())
    hits = {"reserved.peg": 0, "math.peg": 0, "dangling.peg": 2,
            "xml-lite.peg": 10, "peg.peg": 16, "synth200.peg": 1}
    for name, want in hits.items():
        for g, cert in meta:
            out, stats = _memo_run(g, cert, grammar_text(name))
            assert out.ok and stats["hits"] == want, name
    g, cert = certified("dangling.peg")
    out, stats = _memo_run(g, cert, b"if (a) " * 200 + b"x;")
    assert out.ok and stats == {"entries": 1, "hits": 198, "misses": 1}
    g, cert = certified("xml-lite.peg")
    out, stats = _memo_run(g, cert, b"<a x=\"1\"><b/>t<c>u</c></a>")
    assert out.ok and stats == {"entries": 0, "hits": 0, "misses": 0}


def test_watermark_bounds_shared_prefix_reentry():
    # S re-enters itself after the shared prefix '<' of two alternatives,
    # which no choice shows statically: without the watermark, packrat
    # mode would take 2^depth steps here, like plain mode.
    g = load_grammar("S <- '<' S 'a' / '<' S 'b' / 'x' ;")
    cert = check_well_formed(g).certificate
    assert _seed_set(g, cert) == set()
    for depth in (2, 4, 8):
        data = b"<" * depth + b"x" + b"b" * depth
        out, stats = _memo_run(g, cert, data)
        assert out.ok and out.pos == len(data)
        assert stats["hits"] > 0
        assert stats["misses"] <= 2 * (len(data) + 1)
    data = b"<" * 20 + b"x" + b"b" * 20
    memo = MemoTable()
    out = parse(g, cert, data, mode="packrat", memo=memo)
    assert out.ok and out.pos == len(data)
    assert memo.misses == len(memo.entries) == 20


def test_watermark_runs_a_rule_body_at_most_twice_per_position():
    # The body's action sees each successful run of S with its span.
    runs = []

    def record(v, start, end):
        runs.append(start)
        return v

    S = NonTerminal("S")
    body = Choice(Seq(Terminal("<"), Seq(S, Terminal("a"))),
                  Choice(Seq(Terminal("<"), Seq(S, Terminal("b"))),
                         Terminal("x")))
    g = build_grammar([("S", Action(body, ActionRef("rec", record, True)))],
                      "S")
    data = b"<" * 12 + b"x" + b"b" * 12
    assert parse(g, certify(g), data, mode="packrat").ok
    assert max(runs.count(p) for p in set(runs)) <= 2


@pytest.mark.parametrize("body, inputs", [
    # T calls A twice at one position wherever A fails.
    ("!A A", [b"cccc", b"cabab", b""]),
    ("A? A", [b"cccc", b"ababcc", b"cab"]),
    ("(A 'x')* A", [b"cccc", b"axaxab", b"axcaxab"]),
])
def test_watermark_memoises_hand_cases(body, inputs):
    g = load_grammar("S <- (T / 'c')* ;\nT <- %s ;\nA <- 'a' 'b'* ;" % body)
    cert = check_well_formed(g).certificate
    assert _seed_set(g, cert) == set()
    for data in inputs:
        _memo_run(g, cert, data)
    # At each 'c' and at the end, T calls A twice.  The second call at
    # the first 'c' is a miss, after which A is memoised: from the next
    # position on, the first call misses and the second hits.
    assert _memo_run(g, cert, b"cccc")[1] == {
        "entries": 5, "hits": 4, "misses": 5}


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


# Sequence items: .peg text, its embedded-grammar twin, and an input
# that each accepts.  The rule call and the one-or-more items run as
# one VM node each in tree mode; ``[x]+`` becomes one scan.
_CHAIN_ITEMS = [
    ("'a'", Terminal("a"), b"a"),
    ("R", NonTerminal("R"), b"r"),
    ("[x]+", Seq(Terminal("x"), Star(Terminal("x"))), b"xxx"),
    ("~'d'", Drop(Terminal("d")), b"d"),
    ("'ef'", Seq(Terminal("e"), Terminal("f")), b"ef"),
    ("[k-l]*", Star(Range("k", "l")), b"kl"),
]


def _chain_grammars(n):
    """A tree-shaped and an embedded grammar whose rule S is a sequence
    of n items, every one of them different; the chains turn around the
    item list, so every kind of item is at every index.  The start rule
    T calls S twice at its start, so in packrat mode the second call is
    a memo hit."""
    items = [_CHAIN_ITEMS[(n + i) % len(_CHAIN_ITEMS)] for i in range(n)]
    text = "T <- S '#' / S ;\nS <- %s ;\nR <- 'r' ;" % " ".join(
        t for t, _, _ in items)
    chain = items[-1][1]
    for _, e, _ in reversed(items[:-1]):
        chain = Seq(e, chain)
    S = NonTerminal("S")
    embedded = build_grammar([
        ("T", Choice(Seq(S, Terminal("#")), S)), ("S", chain),
        ("R", Terminal("r"))], "T")
    return [load_grammar(text), embedded], [d for _, _, d in items]


@pytest.mark.parametrize("n", range(2, 7))
def test_sequence_chain_steps_at_every_failing_item(n):
    # An n-item tree-mode sequence is one VM node: a success adds n - 1
    # steps, a failure at item j adds j + 1, or n - 1 at the last item.
    grammars, frags = _chain_grammars(n)
    inputs = [b"".join(frags), b"".join(frags) + b"!"]
    for j in range(n):
        inputs.append(b"".join(frags[:j]))             # end of input
        inputs.append(b"".join(frags[:j]) + b"!")      # a bad byte
    for g in grammars:
        cert = certify(g)
        for data in inputs:
            want = oracle_parse(g, data, fuel=100_000)
            assert want is not EXHAUSTED
            for mode in ("plain", "packrat"):
                memo = MemoTable()
                out = parse(g, cert, data, mode=mode, memo=memo)
                assert out == want, (n, data, mode)
                assert out.steps == want.steps
                assert memo.hits == (mode == "packrat")
    # ``farthest`` as when the same rules run in value mode.
    tree, embedded = grammars
    twin = value_twin(tree)
    for data in inputs:
        out = parse(tree, certify(tree), data)
        assert out.farthest == parse(twin, certify(twin), data).farthest
    assert parse(tree, certify(tree), inputs[0]).ok
    assert parse(embedded, certify(embedded), inputs[0]).ok


@pytest.mark.parametrize("text", [
    "S <- [a-c] [a-z]* ;",                  # x+, per-byte scan, leaf
    "S <- [a-c] (!';' .)* ;",               # x+, bytes.find scan, leaf
    "S <- ~[a-c] ~[a-z]* ;",                # x+, dropped
    "S <- ~([a-c] [a-z]*) ;",               # x+ under a drop
    "S <- [a-c] [a-z]* ';' ;",              # m x* inside a sequence
    "S <- [a-c] (!';' .)* ~';' [a-c]+ ;",   # two, one inside, one last
    "S <- [a-c] ~[a-z]* ;",                 # leaves disagree: no scan
])
def test_one_or_more_scan_steps(text):
    # Against the oracle, and for ``farthest`` against the same rules
    # run in value mode, where the collectors run as actions and every
    # Seq is a node of its own.
    g = load_grammar(text)
    cert = certify(g)
    twin = value_twin(g)
    twin_cert = certify(twin)
    for data in (b"", b"!", b";", b"a", b"a;", b"abz", b"abz;", b"az;c",
                 b"az;c!", b"a;;", b"zz"):
        want = oracle_parse(g, data, fuel=100_000)
        for mode in ("plain", "packrat"):
            out = parse(g, cert, data, mode=mode)
            assert out == want and out.steps == want.steps, (data, mode)
            slow = parse(twin, twin_cert, data, mode=mode)
            assert slow == out and slow.farthest == out.farthest, data


def test_xml_lite_program_is_flat(xml_lite):
    # No tree sequence ends in another (the chain is one node), the
    # leaf rules name, text, attrvalue, ws and ws1 are one scan each,
    # and every call of a leaf rule, kept or dropped, is a leaf call
    # that pushes no frame; element, attribute and content have one.
    g, cert = xml_lite
    prog = cert.program
    kinds = prog.kind
    leaves = ("name", "text", "attrvalue", "ws", "ws1")
    calls = {}
    for i, k in enumerate(kinds):
        if k == trx.interp._K_TSEQ:
            assert len(prog.extra[i]) >= 2
            assert kinds[prog.extra[i][-1]] != trx.interp._K_TSEQ
        assert k != trx.interp._K_NT
        if k in (trx.interp._K_TNT, trx.interp._K_TLEAF,
                 trx.interp._K_TDLEAF):
            calls.setdefault(g.nonterminals[prog.a[i]], set()).add(k)
    for name in leaves:
        body = prog.prod_body[g.nonterminals.index(name)]
        assert kinds[body] == trx.interp._K_NODE
        assert kinds[prog.a[body]] == trx.interp._K_SCAN
        assert prog.extra[prog.a[body]][4] is not None or name in (
            "attrvalue", "ws")
        assert calls[name] <= {trx.interp._K_TLEAF, trx.interp._K_TDLEAF}
    assert calls["name"] == {trx.interp._K_TLEAF}
    assert trx.interp._K_TDLEAF in calls["ws"]
    assert trx.interp._K_TDLEAF in calls["ws1"]
    for name in ("element", "attribute", "content"):
        assert calls[name] == {trx.interp._K_TNT}
    # Their calls run in the frame of the collector's inside, a sequence.
    for i, k in enumerate(kinds):
        if k == trx.interp._K_TNT:
            assert kinds[prog.b[i]] == trx.interp._K_TSEQ


# Leaf rule bodies, one per kind of primitive that can be a collector's
# whole inside, and the bytes their inputs are made of.
_LEAF_BODIES = [
    ("[a-c]", "ab"),                     # MATCH1, a leaf
    ("~[a-c]", "ab"),                    # MATCH1, dropped: no leaf
    ("'a' / ~'b'", "abc"),               # MATCH1, a leaf on some bytes
    ("[a-c]+", "ab"),                    # SCAN with ``first``
    ("[ab]*", "ab"),                     # SCAN without ``first``
    ("(!'#' .)+", "ab"),                 # SCAN with ``first`` and find
    ("~'ab'", "ab"),                     # LIT
    ("!'a'", "ab"),                      # PRED
    ("&[ab]", "ab"),                     # PRED
    ("eps", "a"),                        # EMPTY
]


def _oracle_farthest(g, data, e=None):
    """The oracle's outcome of ``e`` (the start rule's call if None) at
    the start of ``data``, and the farthest matcher position it tried."""
    trace = []
    want = oracle_eval(g, NonTerminal(g.start) if e is None else e, data,
                       fuel=100_000, trace=trace)
    assert want is not EXHAUSTED
    return want, max([pos for x, pos, _, _ in trace
                      if type(x) in (Terminal, Range, AnyChar)], default=-1)


def _leaf_cases():
    for body, alphabet in _LEAF_BODIES:
        # L is called kept and dropped at one position, so in packrat
        # mode a dropped call's memo entry is hit by a kept call and
        # the other way round; M repeats that for a rule that is not
        # seeded, memoised only once its watermark is reached.
        text = ("S <- L '#' / ~L '%%' / L ~L '!' / ~L M ;\n"
                "M <- M1 ~M1 M1 ;\nL <- %s ;\nM1 <- %s ;" % (body, body))
        yield text, alphabet + "#%!"
    yield "a <- ~w 'x' / w 'y' ;\nw <- [ ]* ;", " xy"


@pytest.mark.parametrize("text,alphabet", list(_leaf_cases()))
def test_leaf_rule_calls_agree_with_oracle(text, alphabet):
    # Calls of a leaf rule run frameless: ok, pos, steps, farthest and
    # the tree agree with the oracle, and memo statistics with the
    # same rules run in value mode, where the node collectors run as
    # actions and a leaf rule's call is a value-mode leaf call.
    g = load_grammar(text)
    cert = certify(g)
    kinds = cert.program.kind
    assert trx.interp._K_TLEAF in kinds and trx.interp._K_TDLEAF in kinds
    twin = value_twin(g)
    twin_cert = certify(twin)
    inputs = [b""]
    for n in range(4):
        inputs += [x + c.encode() for x in inputs if len(x) == n
                   for c in alphabet]
    hits = 0
    for data in inputs:
        want, farthest = _oracle_farthest(g, data)
        for mode in ("plain", "packrat"):
            memo, twin_memo = MemoTable(), MemoTable()
            out = parse(g, cert, data, mode=mode, memo=memo)
            assert out == want and out.steps == want.steps, (data, mode)
            assert out.farthest == farthest, (data, mode)
            parse(twin, twin_cert, data, mode=mode, memo=twin_memo)
            assert memo_stats(memo) == memo_stats(twin_memo), (data, mode)
            hits += memo.hits
    assert hits > 0


# One-byte matchers, with the value tables they make: Char, Char or
# Unit by byte, a guard's pairs, Str.
_MATCHERS = [
    Terminal("a"),
    Range("a", "b"),
    AnyChar(),
    Choice(Terminal("a"), Drop(Terminal("b"))),
    Seq(Not(Terminal("#")), AnyChar()),
    Literal("a"),
]
# Value-mode ``x+`` and ``~x*`` over a one-byte matcher are one scan each;
# a cons whose m and x differ in their value tables, and a repetition of
# what is not a one-byte matcher, are not.
_FOLDS = ([(Plus(m), True) for m in _MATCHERS]
          + [(Drop(Star(m)), True) for m in _MATCHERS]
          + [(Action(Seq(Literal("a"), Star(Terminal("a"))), CONS), False),
             (Action(Seq(Drop(Terminal("a")), Star(Range("a", "b"))), CONS),
              False),
             (Plus(Literal("ab")), False),
             (Drop(Star(Literal("ab"))), False)])
_WRAP = ActionRef("wrap", lambda v: User(repr(v)))
_SPAN = ActionRef("span", lambda v, start, end: User((repr(v), start, end)),
                  span_aware=True)


def _copy_program(prog, **fields):
    """A copy of the sealed program ``prog`` with ``fields`` replaced.

    The twins below carry the program's nullability flags (``null``)
    but not its seed set (``marks``): a packrat run of a twin computes
    its own, which the memo statistics compared below depend on."""
    twin = object.__new__(type(prog))
    for name in type(prog).__slots__:
        object.__setattr__(twin, name, fields.get(name, getattr(prog, name)))
    return twin


def _per_mode(prog, view=None, head=None):
    """A head cache of ``prog`` in each mode, holding ``view`` as every
    node's failure view and ``head`` in every node's head slot."""
    n = len(prog.kind)
    return tuple([view] * n + [head] * n for _ in range(2))


def _fails(prog, packrat):
    """The failure views of ``prog``'s heads in one mode, per node."""
    return prog.heads[packrat][:len(prog.kind)]


def _iters(prog, packrat):
    """The head slots of ``prog`` in one mode, per node: a repetition's
    holds its iteration table."""
    return prog.heads[packrat][len(prog.kind):]


def _no_tables_built(prog):
    """Whether no head of ``prog`` is built yet in either mode."""
    return all(t is None for cache in prog.heads for t in cache)


def _with_call_frames(prog):
    """A copy of ``prog`` whose value-mode leaf calls push their frame."""
    kind = tuple(trx.interp._K_NT if k == trx.interp._K_LEAF else k
                 for k in prog.kind)
    return _copy_program(prog, kind=kind, marks=None, null=prog.null,
                         heads=_per_mode(prog), shared={})


@pytest.mark.parametrize("e, folds", _FOLDS)
def test_value_mode_scans_agree_with_oracle(e, folds):
    # ok, pos, the value (by repr), steps and farthest, in both modes.
    prog, [root] = _compile(None, roots=(e,))
    assert (prog.kind[root] == trx.interp._K_SCAN) == folds
    for data in all_inputs("ab#", 3):
        want, farthest = _oracle_farthest(None, data, e)
        for mode in ("plain", "packrat"):
            out = eval_expr(e, data, mode=mode)
            assert out == want and repr(out.value) == repr(want.value)
            assert (out.steps, out.farthest) == (want.steps, farthest)


@pytest.mark.parametrize("e", [
    Action(Terminal("a"), LEAF),
    Seq(Not(Terminal("b")), Action(AnyChar(), LEAF)),
    Star(Action(Range("a", "b"), LEAF)),
])
def test_value_mode_tree_leaf_agrees_with_oracle(e):
    # In value mode a tree.leaf action's value is a span, so it runs as
    # an action over its matcher: bare, guarded by !, under *, and as
    # the body of a called rule, at the start of the input and after a
    # byte.  Every value table of the program holds Values.
    g = build_grammar([
        ("S", Choice(Seq(Terminal("#"), Seq(e, Terminal("#"))),
                     Choice(Seq(e, Terminal("%")), NonTerminal("L")))),
        ("L", e),
    ], "S")
    cert = certify(g)
    prog = cert.program
    for i, k in enumerate(prog.kind):
        if k == trx.interp._K_MATCH1:
            assert all(isinstance(v, Value) for v in prog.extra[i][1])
    for data in all_inputs("ab#%", 4):
        want, farthest = _oracle_farthest(g, data)
        for mode in ("plain", "packrat"):
            out = parse(g, cert, data, mode=mode)
            assert out == want and repr(out.value) == repr(want.value)
            assert (out.steps, out.farthest) == (want.steps, farthest)


@pytest.mark.parametrize("m", _MATCHERS)
def test_value_mode_leaf_calls_agree_with_oracle(m):
    # Calls of a rule whose body is one primitive, or one action over
    # one, push no frame.  Each rule is called kept and dropped at one
    # position, so in packrat mode either call hits the other's memo
    # entry.  Outcomes, memo statistics included, are those of the same
    # program with every call's frame pushed.
    L, B, W, P = (NonTerminal(x) for x in "LBWP")
    g = build_grammar([
        ("S", Choice(Seq(L, Terminal("#")), Choice(
            Seq(Drop(L), Terminal("%")), Choice(
                Seq(B, Seq(Drop(B), W)), Seq(Drop(W), Seq(P, L)))))),
        ("L", Action(Plus(m), _WRAP)),
        ("B", m),
        ("W", Drop(Star(m))),
        ("P", Action(m, _SPAN)),
    ], "S")
    cert = certify(g)
    prog = cert.program
    leaves = {g.nonterminals[prog.a[i]] for i, k in enumerate(prog.kind)
              if k == trx.interp._K_LEAF}
    assert leaves == set("LBWP")
    assert trx.interp._K_NT not in prog.kind
    twin = _with_call_frames(prog)
    hits = 0
    for data in all_inputs("ab#%", 4):
        want, farthest = _oracle_farthest(g, data)
        for mode in ("plain", "packrat"):
            memo = MemoTable()
            out = parse(g, cert, data, mode=mode, memo=memo)
            assert out == want and repr(out.value) == repr(want.value)
            assert (out.steps, out.farthest) == (want.steps, farthest)
            hits += memo.hits
        for packrat in (False, True):
            assert (_outcome(prog, data, packrat)
                    == _outcome(twin, data, packrat)), data
    assert hits > 0


def test_math_leaf_rules_push_no_frame():
    # ws and number are called without a frame: ws is one scan that
    # builds no list, number one action over a scan that builds its
    # list once.  term, factor and expr run in their body's frame, a
    # choice of sequences that carry their actions.
    g, cert = math_grammar()
    prog = cert.program
    calls = {}
    for i, k in enumerate(prog.kind):
        if k in (trx.interp._K_NT, trx.interp._K_LEAF):
            calls.setdefault(g.nonterminals[prog.a[i]], set()).add(k)
    assert calls == {"ws": {trx.interp._K_LEAF},
                     "number": {trx.interp._K_LEAF},
                     "term": {trx.interp._K_NT},
                     "factor": {trx.interp._K_NT},
                     "expr": {trx.interp._K_NT}}
    ws = prog.prod_body[g.nonterminals.index("ws")]
    assert prog.kind[ws] == trx.interp._K_SCAN
    assert prog.extra[ws][1] is None
    number = prog.prod_body[g.nonterminals.index("number")]
    assert prog.kind[number] == trx.interp._K_ACT
    scan = prog.a[number]
    assert prog.kind[scan] == trx.interp._K_SCAN
    assert prog.extra[scan][1] is not None and prog.extra[scan][4] is not None
    for name in ("term", "factor", "expr"):
        body = prog.prod_body[g.nonterminals.index(name)]
        assert prog.kind[body] == trx.interp._K_CHOICE
        first = prog.a[body]
        assert prog.kind[first] == trx.interp._K_SEQ
        assert prog.extra[first] in (PICK1, MUL, ADD)
    assert trx.interp._K_ACT not in prog.kind[:number] + prog.kind[number + 1:]


def _seq(items):
    out = items[-1]
    for x in reversed(items[:-1]):
        out = Seq(x, out)
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("ref", [_WRAP, _SPAN], ids=["plain", "span"])
def test_actions_over_sequences_agree_with_oracle(n, ref):
    # An action over a sequence is the sequence's node, and a call of a
    # rule whose body is a choice runs in the choice's frame.  R and B
    # are such rules, called after the first byte too; the value (by
    # repr, spans included), steps and farthest are the oracle's in
    # both modes.
    R, B = NonTerminal("R"), NonTerminal("B")
    items = [B, Terminal("a"), B, Terminal("b")][:n]
    g = build_grammar([
        ("S", Choice(Seq(Terminal("#"), Seq(R, Terminal("#"))),
                     Choice(Seq(B, R), R))),
        ("R", Choice(Action(_seq(items), ref),
                     Choice(Action(_seq(items[1:] + items[:1]), ref),
                            Terminal("b")))),
        ("B", Choice(Terminal("a"), Seq(Terminal("b"), Terminal("b")))),
    ], "S")
    cert = certify(g)
    prog = cert.program
    assert trx.interp._K_ACT not in prog.kind
    assert sum(k == trx.interp._K_SEQ and prog.extra[i] is ref
               for i, k in enumerate(prog.kind)) == 2
    assert {prog.kind[prog.prod_body[prog.a[i]]]
            for i, k in enumerate(prog.kind)
            if k == trx.interp._K_NT} == {trx.interp._K_CHOICE}
    for data in all_inputs("ab#", 6):
        want, farthest = _oracle_farthest(g, data)
        for mode in ("plain", "packrat"):
            out = parse(g, cert, data, mode=mode)
            assert out == want and repr(out.value) == repr(want.value)
            assert (out.steps, out.farthest) == (want.steps, farthest)


def test_memo_stats_of_math_and_xml_lite_are_pinned():
    # (entries, hits, misses) per input: which frame a call runs in, and
    # whether its body's failure table settles it, changes none of them.
    g, cert = math_grammar()
    want = [("1+2", 8, 3, 8), ("(1+2) * (3 * 4)", 24, 9, 24),
            (" 7 * 8 + ( 9 )", 16, 6, 16), ("((((1+2*3))))*4+5", 36, 16, 36),
            ("2*(3+4)*5+6*(7)", 32, 10, 32), ("(1+2", 11, 6, 11),
            ("1+*2", 7, 5, 7)]
    for text, entries, hits, misses in want:
        _, stats = _memo_run(g, cert, text)
        assert stats == {"entries": entries, "hits": hits,
                         "misses": misses}, text
    g, cert = certified("xml-lite.peg")
    out, stats = _memo_run(g, cert, xmark_lite(16 * 1024, seed=1))
    assert out.ok and out.steps == 150076
    assert stats == {"entries": 0, "hits": 0, "misses": 0}


def test_evaluate_deep_parentheses():
    # 20 000 levels, each a call of expr, factor and term in packrat mode.
    assert evaluate("(" * 20000 + "1+2" + ")" * 20000) == 3


def _deep_sequence(n):
    return "a <- !(%s) 'x' ;" % ("[ab] " * n)


def test_deep_sequence_compiles_and_runs():
    # A 3 000-item sequence under ! (which tree wrapping leaves as it
    # is) compiles, and its parses build their failure tables, in a
    # loop, not one recursion per item; so does a chain of guards,
    # whose byte tables are built along its spine.
    g = load_grammar(_deep_sequence(3000))
    report = check_well_formed(g)
    assert report.is_well_formed
    cert = report.certificate
    for packrat, mode in enumerate(("plain", "packrat")):
        assert parse(g, cert, b"x", mode=mode).ok
        assert not parse(g, cert, b"ab" * 1500 + b"x", mode=mode).ok
        # The failure views of every node the parses ran are built.
        assert any(_fails(cert.program, packrat))
    guards = " ".join("!'%s'" % chr(97 + i % 20) for i in range(1500))
    g = load_grammar("a <- !(%s 'x') 'y' ;" % guards)
    cert = certify(g)
    assert parse(g, cert, b"y").ok and not parse(g, cert, b"xy").ok


def _without_failure_tables(prog):
    """A copy of ``prog`` whose failure views and iteration tables let
    every node and every repetition's body run."""
    run_body = ((0,) * 257, None)
    return _copy_program(prog, marks=None, null=prog.null,
                         heads=_per_mode(prog, _NO_FAIL, run_body),
                         shared={})


def _outcome(prog, data, packrat):
    memo = MemoTable() if packrat else None
    ok, pos, val, steps, farthest = _run(prog, data, prog.start, 0, memo)
    return (ok, pos, repr(val), val, steps, farthest,
            memo_stats(memo) if packrat else None)


def _guard_cases():
    """(certificate, inputs) pairs: the embedded differential grammars,
    in value and tree mode, and the meta-grammar on every bundled
    grammar's text and on cuts of it."""
    inputs = all_inputs("ab", 4)
    for g in small_grammars("ab", 4, seed=0, limit=300):
        for g in (g, tree_wrap(g)):
            report = check_well_formed(g)
            if report.is_well_formed:
                yield report.certificate, inputs
    texts = []
    for name in sorted(os.listdir(GRAMMAR_DIR)):
        text = grammar_text(name)
        texts.append(text)
        texts.extend(text[:len(text) * j // 9] for j in range(9))
        texts.append(text[:len(text) // 2] + b"@")
    yield builtin_meta_grammar()[1], texts


@pytest.mark.parametrize("packrat", [False, True])
def test_failure_tables_change_no_outcome(packrat):
    # A node skipped by its failure table ends exactly as if it had run:
    # ok, position, value, tree, steps, farthest and memo statistics.
    guarded = 0
    for cert, inputs in _guard_cases():
        prog = cert.program
        twin = _without_failure_tables(prog)
        for data in inputs:
            assert (_outcome(prog, data, packrat)
                    == _outcome(twin, data, packrat)), data
        guarded += any(_fails(prog, packrat))
    assert guarded > 100


def test_failure_tables_are_tuples():
    # Every failure view a parse builds is a tuple of 257 entries, or
    # the empty tuple of a node that never fails on its first byte.
    cases = ((builtin_meta_grammar(), grammar_text("peg.peg")),
             (math_grammar(), b"1+(2*3)"),
             (certified("xml-lite.peg"), b"<a x=\"1\"><b/>t</a>"))
    for (g, cert), data in cases:
        prog = cert.program
        for mode in ("plain", "packrat"):
            assert parse(g, cert, data, mode=mode).ok
        built = [t for packrat in (0, 1) for t in _fails(prog, packrat)
                 if t is not None]
        assert any(built) and () in built
        assert all(type(t) is tuple and len(t) in (0, 257) for t in built)


# --- The table algebra against dense tables -----------------------------
#
# The compiler and _head_table derive tables on a default and its
# exceptions.  The reference below derives the tables the VM reads (step
# tables, and the failure views and iteration tables of the heads) entry
# by entry over all 257 (or 256) entries, with the formulas the module
# docstring states.  A failure view's entry t > 0 fails in t steps.

def _ref_choice_steps(sa, sb):
    return tuple([x + 1 if x > 0 else 0 if not (x and y)
                  else y - x + 1 if y > 0 else x + y - 1
                  for x, y in zip(sa, sb)])


def _ref_choice_values(sa, va, vb):
    return tuple([u if x > 0 else w for x, u, w in zip(sa, va, vb)])


def _ref_byte_table(e, tree_mode, memo):
    """(steps, values) of ``e`` as tuples, or None if it is not
    byte-local.  ``memo`` keeps each expression's tables, as the
    compiler's walk does, so that a value table met twice is one
    object."""
    if e not in memo:
        memo[e] = _ref_byte_table_of(e, tree_mode, memo)
    return memo[e]


def _ref_byte_table_of(e, tree_mode, memo):
    interp = trx.interp
    t = type(e)
    if t in (Terminal, Range, AnyChar):
        lo, hi = ((e.code, e.code) if t is Terminal
                  else (e.lo, e.hi) if t is Range else (0, 255))
        return (tuple(1 if lo <= b <= hi else -1 for b in range(257)),
                trx.values.CHAR)
    if t is Choice:
        a = _ref_byte_table(e.first, tree_mode, memo)
        b = (a and a[1] is not None
             and _ref_byte_table(e.second, tree_mode, memo))
        if not b or b[1] is None:
            return None
        (sa, va), (sb, vb) = a, b
        return (_ref_choice_steps(sa, sb),
                va if va is vb else _ref_choice_values(sa, va, vb))
    if t is Seq:
        g = _ref_byte_table(e.left, tree_mode, memo)
        m = g and g[1] is None and _ref_byte_table(e.right, tree_mode, memo)
        if not m or m[1] is None:
            return None
        steps = tuple([x - 1 if x < 0 else x + y + 1 if y > 0 else y - x - 1
                       for x, y in zip(g[0], m[0])])
        return steps, (m[1] if tree_mode
                       else tuple([Tup((UNIT, v)) for v in m[1]]))
    if t is Not:
        i = _ref_byte_table(e.inner, tree_mode, memo)
        return i and (tuple([-x - 1 if x > 0 else 1 - x for x in i[0]]),
                      None)
    if t is Action:
        i = _ref_byte_table(e.inner, tree_mode, memo)
        if i is None or i[1] is None:
            return None
        if e.ref is LEAF and tree_mode:
            values = interp._SPANS
        elif e.ref is DROP:
            values = interp._UNITS
        elif e.ref is TUPLE2STR and i[1] is trx.values.CHAR:
            values = interp._STR1
        else:
            return None
        return tuple([x + 1 if x > 0 else x - 1 for x in i[0]]), values
    return None


def _ref_scan(steps, values, tree_mode, base=1):
    ok = [b for b in range(256) if steps[b] > 0]
    leaf = False
    if tree_mode:
        leaves = sum(values[b] is trx.interp._SPAN for b in ok)
        if 0 < leaves < len(ok):
            return None
        values, leaf = None, leaves > 0
    find = None
    if len(ok) == 255 and len({steps[b] for b in ok}) == 1:
        c = next(b for b in range(256) if steps[b] < 0)
        find = (c, steps[ok[0]] + 1)
    return steps, values, leaf, find, None, base


def _ref_plus(mt, xt, tree_mode, ok_add, fail_add):
    if mt is None or mt[1] is None or xt is None or xt[1] is None:
        return None
    scan = _ref_scan(xt[0], xt[1], tree_mode)
    if scan is None:
        return None
    steps, values = mt
    if tree_mode:
        if any((values[b] is trx.interp._SPAN) != scan[2]
               for b in range(256) if steps[b] > 0):
            return None
    elif values is not xt[1]:
        return None
    first = tuple([t + ok_add if t > 0 else t - fail_add for t in steps])
    return scan[:4] + (first, 1)


def _ref_iter_table(prog, root, packrat):
    interp = trx.interp
    kind, aa, bb = prog.kind, prog.a, prog.b
    alts = []
    x = aa[root]
    while kind[x] == interp._K_CHOICE:
        alts.append(aa[x])
        x = bb[x]
    alts.append(x)
    steps = values = None
    for x in reversed(alts):
        if kind[x] != interp._K_MATCH1:
            f = _ref_fail_table(prog, x, packrat) or (0,) * 257
            s = tuple([-t for t in f])
        else:
            s, v = prog.extra[x]
            if prog.tree:
                s = tuple([0 if t > 0 and v[b] is not interp._SPAN else t
                           for b, t in enumerate(s)])
            elif values is None or v is values:
                values = v
            else:
                values = _ref_choice_values(s, v, values)
        steps = s if steps is None else _ref_choice_steps(s, steps)
    return steps, values


def _ref_fail_table(prog, i, packrat=False, open_=()):
    """The failure table of node ``i`` in one mode, entry by entry from
    the module docstring's formulas: a matcher or predicate fails in -t
    steps where its step table has t < 0, a scan likewise by its
    ``first`` table, a literal in its first prefix's steps on every byte
    but its first; a sequence in its first item's steps + 1 (+ 2 with an
    action), an action or rule node in its inside's + 1, a choice in
    a + b + 1 where both alternatives fail; a call in its rule body's
    + 1 (+ 2 for a drop) in plain mode, and never in packrat mode;
    repetitions, negations and the empty expression never.  A table made
    from one still being derived (``open_``, a cycle of leading calls)
    takes it as never failing."""
    interp = trx.interp
    k, a, extra = prog.kind[i], prog.a[i], prog.extra[i]

    def sub(x):
        if x in open_:
            return (0,) * 257
        return (_ref_fail_table(prog, x, packrat, open_ + (i,))
                or (0,) * 257)

    if k in (interp._K_MATCH1, interp._K_PRED, interp._K_SCAN):
        steps = extra[4] if k == interp._K_SCAN else extra[0]
        out = ([0] * 257 if steps is None
               else [-t if t < 0 else 0 for t in steps])
    elif k == interp._K_LIT:
        lbytes, _, fails, _ = extra
        out = [fails[0]] * 257
        out[lbytes[0]] = 0
    elif k in (interp._K_SEQ, interp._K_TSEQ, interp._K_ACT,
               interp._K_TACT, interp._K_NODE):
        add = 2 if k == interp._K_SEQ and extra is not None else 1
        out = [t + add if t else 0 for t in sub(a)]
    elif k == interp._K_CHOICE:
        out = [x + y + 1 if x and y else 0
               for x, y in zip(sub(a), sub(prog.b[i]))]
    elif interp._K_TNT <= k <= interp._K_LEAF and not packrat:
        add = 2 if k in (interp._K_TDLEAF, interp._K_TDNT) else 1
        out = [t + add if t else 0 for t in sub(prog.prod_body[a])]
    else:
        out = [0] * 257
    return tuple(out) if any(out) else _NO_FAIL


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # the property below needs hypothesis
    st = None

if st is not None:
    # Bytes at both ends of the range and next to each other are
    # over-represented, so that tables share defaults and exceptions.
    _TABLE_BYTES = st.one_of(st.sampled_from([0, 1, 97, 98, 254, 255]),
                             st.integers(0, 255))
    # ``(!'c' .)``, a common body of scans that end on one byte, is a
    # leaf too.
    _LOCAL_LEAVES = st.one_of(
        _TABLE_BYTES.map(Terminal),
        st.tuples(_TABLE_BYTES, _TABLE_BYTES).map(
            lambda p: Range(min(p), max(p))),
        st.just(AnyChar()),
        _TABLE_BYTES.map(lambda b: Seq(Not(Terminal(b)), AnyChar())))
    # Byte-local expressions, and some that are not (a choice of a
    # negation, an action over one), which both sides must refuse.
    _LOCAL = st.recursive(_LOCAL_LEAVES, lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda p: Choice(*p)),
        st.tuples(inner, inner).map(lambda p: Seq(Not(p[0]), p[1])),
        inner.map(Not),
        st.tuples(inner, st.sampled_from([LEAF, DROP, TUPLE2STR])).map(
            lambda p: Action(*p))), max_leaves=6)
    # Kept and dropped calls of the host rules below.
    _CALLS = st.sampled_from([f(NonTerminal(name)) for name in "ABCE"
                              for f in (lambda e: e, Drop)])
    # The alternatives of a repetition's body: byte-local expressions,
    # literals, calls and sequences, which have failure tables.
    _ALT = st.one_of(
        _LOCAL,
        st.binary(min_size=1, max_size=3).map(Literal),
        st.tuples(_LOCAL, _LOCAL).map(lambda p: Seq(*p)),
        _CALLS,
        st.tuples(_CALLS, _LOCAL).map(lambda p: Seq(*p)))
    # Rules that fail at their first byte: a literal, a leaf rule and a
    # choice; and B, which fails there through its call of A.
    _HOST = [("S", EMPTY),
             ("A", Seq(Terminal("a"), Terminal("b"))),
             ("B", Seq(NonTerminal("A"), Terminal("c"))),
             ("C", Range("x", "z")),
             ("E", Choice(Terminal("e"), NonTerminal("A")))]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(e=_LOCAL, x=_LOCAL, adds=st.sampled_from([(1, 1), (1, 0),
                                                     (2, 2)]))
    def test_byte_tables_and_descriptors_match_dense_reference(e, x, adds):
        interp = trx.interp
        for tree_mode in (False, True):
            pool = {}
            memo = {}

            def tables(y):
                return trx.exprs._walk(
                    lambda z: interp._byte_table(z, tree_mode, pool), y, memo)

            ref = {}
            want = _ref_byte_table(e, tree_mode, ref)
            got = tables(e)
            assert (got is None) == (want is None)
            if got is None:
                continue
            assert interp._dense(got[0], pool) == want[0]
            assert got[1] == want[1]
            if got[1] is None:
                continue
            assert (interp._scan_descriptor(got[0], got[1], tree_mode, pool)
                    == _ref_scan(*want, tree_mode))
            if not tree_mode:
                assert (interp._scan_descriptor(got[0], None, False, pool, 2)
                        == _ref_scan(want[0], None, False, 2))
            for m, rep in ((e, x), (x, e), (e, e)):
                assert (interp._plus_descriptor(m, Star(rep), tables, pool,
                                                tree_mode, *adds)
                        == _ref_plus(_ref_byte_table(m, tree_mode, ref),
                                     _ref_byte_table(rep, tree_mode, ref),
                                     tree_mode, *adds))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(alts=st.lists(_ALT, min_size=1, max_size=4))
    def test_failure_and_iteration_tables_match_dense_reference(alts):
        interp = trx.interp
        body = alts[-1]
        for alt in reversed(alts[:-1]):
            body = Choice(alt, body)
        # Roots compile in value mode with a value-mode grammar, and in
        # tree mode with a tree-shaped one.
        host = build_grammar(_HOST, "S")
        for tree_mode, g in ((False, host), (True, tree_wrap(host))):
            if tree_mode:
                body = trx.exprs._walk(trx.meta._tree_wrap_step, body, {})
            prog, _ = _compile(g, roots=(Star(body),) + tuple(alts))
            n = len(prog.kind)
            for packrat in (False, True):
                heads = prog.heads[packrat]
                for i in range(n):
                    interp._head_table(prog, heads, i, packrat)
                    assert heads[i] == _ref_fail_table(prog, i, packrat)
                for i, k in enumerate(prog.kind):
                    if k == interp._K_STAR:
                        assert (heads[n + i]
                                == _ref_iter_table(prog, i, packrat))


def test_packrat_call_through_nested_call_still_runs():
    # ``b`` fails on "z" without consuming, through the call of ``c``.
    # Plain mode skips the call; packrat runs it, since the call counts
    # a memo miss (a's second alternative then hits), and inside ``b``
    # runs the call of ``c``, which moves c's watermark.
    g = load_grammar("a <- b 'x' / b 'y' ; b <- c 'q' ; c <- '!' ;")
    prog = certify(g).program
    twin = _without_failure_tables(prog)
    for packrat in (False, True):
        got = _outcome(prog, b"z", packrat)
        assert got == _outcome(twin, b"z", packrat)
        assert not got[0] and got[5] == 0
    assert _outcome(prog, b"z", True)[6] == {"entries": 1, "hits": 1,
                                               "misses": 1}
    # Both alternatives' calls of b are one node.
    [call] = [i for i, k in enumerate(prog.kind) if k == trx.interp._K_TNT]
    assert g.nonterminals[prog.a[call]] == "b"
    assert _fails(prog, 0)[call][ord("z")] > 0
    assert _fails(prog, 1)[call] == _NO_FAIL


def test_packrat_call_settled_by_its_body_table():
    # b's body fails on "z" at its first byte.  In packrat mode b's call
    # (whose own table is 0) reads that table, counts its miss and
    # stores the failure without running the body, and a's second
    # alternative hits the entry.
    g = load_grammar("a <- b 'x' / b 'y' / 'z' ; b <- '!' c ; c <- 'c' ;")
    prog = certify(g).program
    twin = _without_failure_tables(prog)
    for packrat in (False, True):
        assert _outcome(prog, b"z", packrat) == _outcome(twin, b"z", packrat)
    assert _outcome(prog, b"z", True)[6] == {"entries": 1, "hits": 1,
                                               "misses": 1}
    # The call reads that table: raise its entry for "z", and both
    # calls of b, the settled miss and the hit on its entry, cost more.
    body = prog.prod_body[g.nonterminals.index("b")]
    heads = list(prog.heads[1])
    table = list(heads[body])
    table[ord("z")] += 10
    heads[body] = tuple(table)
    twin = _copy_program(prog, marks=None, heads=(prog.heads[0], heads),
                         shared={})
    assert (_outcome(twin, b"z", True)[4]
            == _outcome(prog, b"z", True)[4] + 20)


def test_failure_tables_at_end_of_input():
    # Entry 256 is end of input, where every matcher fails.
    g = load_grammar("a <- b / c 'x' ; b <- 'y' 'z' ; c <- [0-9]+ ;")
    cert = certify(g)
    # Certification builds no tables; parses build them.
    assert _no_tables_built(cert.program)
    twin = _without_failure_tables(cert.program)
    for data in (b"", b"1", b"y"):
        want, farthest = _oracle_farthest(g, data)
        for mode in ("plain", "packrat"):
            packrat = mode == "packrat"
            assert (_outcome(cert.program, data, packrat)
                    == _outcome(twin, data, packrat)), (data, mode)
            out = parse(g, cert, data, mode=mode)
            assert out == want
            assert out.farthest == farthest
    assert _fails(cert.program, 0)[cert.program.start][256] > 0


def test_literal_matching_its_first_byte_runs():
    # 'ab' matches the first byte of "ad", so neither the literal nor
    # the choice is skipped: the failure is found at byte 1.  An
    # embedded grammar runs the literal as one LIT; a loaded one runs
    # it as a sequence of two one-byte matchers.
    rules = [("a", Choice(Literal("ab"), Literal("ac")))]
    for g in (build_grammar(rules, "a"), load_grammar("a <- 'ab' / 'ac' ;")):
        cert = certify(g)
        for mode in ("plain", "packrat"):
            out = parse(g, cert, b"ad", mode=mode)
            assert out == oracle_parse(g, b"ad", fuel=10_000)
            assert not out.ok and out.farthest == 1
        prog = cert.program
        assert _fails(prog, 0)[prog.start][ord("a")] == 0
        assert _fails(prog, 0)[prog.start][ord("d")] > 0
        lits = [i for i, k in enumerate(prog.kind)
                if k == trx.interp._K_LIT]
        assert len(lits) == (2 if g.tree_shaped is False else 0)
        for i in lits:
            assert _fails(prog, 0)[i][ord("a")] == 0
            assert _fails(prog, 0)[i][ord("d")] > 0


def _call_chain(n):
    """r0 <- 'a0' / r1 ; r1 <- 'a1' / r2 ; ... ; r<n-1> <- 'a<n-1>' ;"""
    rules = [("r%d" % i, Choice(Literal("a%d" % i),
                                NonTerminal("r%d" % (i + 1))))
             for i in range(n - 1)]
    rules.append(("r%d" % (n - 1), Literal("a%d" % (n - 1))))
    return build_grammar(rules, "r0")


def test_failure_tables_of_a_deep_call_chain():
    # In plain mode the table of r0's body is made from those of all
    # 3 000 rules' bodies, with an explicit stack.  A packrat parse
    # first finds the static seed set, in one pass over the rules,
    # callees first.
    n = 3000
    for g in (_call_chain(n), tree_wrap(_call_chain(n))):
        cert = certify(g)
        twin = _without_failure_tables(cert.program)
        for data in (b"z", b"a", b"a%d" % (n - 1)):
            out = parse(g, cert, data)
            assert out.ok == (data == b"a%d" % (n - 1))
            assert parse(g, cert, data, mode="packrat") == out
            for packrat in (False, True):
                assert (_outcome(cert.program, data, packrat)
                        == _outcome(twin, data, packrat))
        assert _fails(cert.program, 0)[cert.program.start][ord("z")] > 255
        assert _seed_set(g, cert) == set()


# Iteration tables and dropped calls.  The shapes are those of Ford's
# lexical idiom: a spacing rule ``W <- ([ \n] / C)*`` with a comment
# ``C <- '#' (!'\n' .)*``, a rule R that ends in ``~W``, and stars of
# their choices.
_W, _C, _R = NonTerminal("W"), NonTerminal("C"), NonTerminal("R")
_SPACE = CharClass([" ", "\n"])
_GUARDED = Seq(Not(Terminal("b")), AnyChar())
_STAR_RULES = [
    ("W", Star(Choice(_SPACE, _C))),
    ("C", Seq(Terminal("#"), Star(Seq(Not(Terminal("\n")), AnyChar())))),
    ("R", Seq(Terminal("a"), Drop(_W))),
    ("E", Seq(Terminal("\\"), AnyChar())),
    ("A", Seq(Terminal("!"), Drop(_W))),
    ("B", Seq(Terminal("&"), Drop(_W))),
    ("D", Seq(Terminal("~"), Drop(_W))),
]
# (start rule body, alphabet): each shape, seeded (S calls T twice at
# its start) so that packrat mode memoises.
_STAR_SHAPES = [
    # (m / X)*, X a call, a guarded matcher before a call, a sequence.
    (Star(Choice(_SPACE, _R)), "a #\n"),
    (Star(Choice(_SPACE, Choice(_GUARDED, _R))), "ab #"),
    (Star(Choice(_SPACE, Seq(Terminal("a"), Terminal("b")))), "ab \n"),
    (Star(Choice(_SPACE, Seq(Terminal("a"), _R))), "a #\n"),
    # X first: (X / m)*, and literal's (escape / !'\'' !'\\' .)*.
    (Star(Choice(_R, _SPACE)), "a #\n"),
    (Star(Choice(NonTerminal("E"), Seq(Not(Terminal("'")),
                                        Seq(Not(Terminal("\\")),
                                            AnyChar())))), "\\'a#"),
    # Operator stars of calls.
    (Star(Choice(NonTerminal("A"), Choice(NonTerminal("B"),
                                          NonTerminal("D")))), "!&~ "),
    (Seq(Star(Choice(NonTerminal("A"), NonTerminal("B"))), _R), "!&a#"),
    # Value-mode matchers whose values depend on the position, and a
    # matcher that is a leaf only on some bytes.
    (Star(Choice(Seq(Not(Terminal("#")), AnyChar()), _C)), "a #\n"),
    (Star(Choice(Choice(Terminal("a"), Drop(Terminal(" "))), _R)), "a #\n"),
    # Spacing itself, then ~R for a rule that is not a leaf rule:
    # kept and dropped at one position (memoised in packrat mode), and
    # dropped where nothing else calls it (not memoised).
    (Seq(Drop(_W), Star(_R)), "a #\n"),
    (Choice(Seq(Drop(_R), Terminal("1")),
            Choice(Seq(_R, Terminal("2")),
                   Seq(Drop(_R), Seq(Drop(NonTerminal("A")), _R)))),
     "a 12!"),
]


def _star_grammars():
    for i, (body, alphabet) in enumerate(_STAR_SHAPES):
        rules = [("S", Choice(Seq(NonTerminal("T"), Terminal("z")),
                              NonTerminal("T"))),
                 ("T", body)] + _STAR_RULES
        g = build_grammar(rules, "S")
        for form in (g, tree_wrap(g)):
            yield pytest.param(form, alphabet, id="%d-%s" % (
                i, "tree" if form.tree_shaped else "value"))


@pytest.mark.parametrize("g, alphabet", list(_star_grammars()))
def test_iteration_tables_and_dropped_calls_agree_with_oracle(g, alphabet):
    # On every input up to length 5: ok, pos, the value (by repr) or
    # tree, steps and farthest agree with the oracle in both modes, and
    # full outcomes, memo statistics included, with the same program
    # run without failure and iteration tables; for a tree-shaped
    # grammar memo statistics also agree with its rules run in value
    # mode.
    cert = certify(g)
    prog = cert.program
    twin = _without_failure_tables(prog)
    if g.tree_shaped:
        value = value_twin(g)
        value_cert = certify(value)
    hits = 0
    for data in all_inputs(alphabet, 5):
        want, farthest = _oracle_farthest(g, data)
        for mode in ("plain", "packrat"):
            memo = MemoTable()
            out = parse(g, cert, data, mode=mode, memo=memo)
            assert out == want and repr(out.value) == repr(want.value)
            assert (out.steps, out.farthest) == (want.steps, farthest), data
            hits += memo.hits
            if g.tree_shaped:
                value_memo = MemoTable()
                parse(value, value_cert, data, mode=mode, memo=value_memo)
                assert memo_stats(memo) == memo_stats(value_memo), data
        for packrat in (False, True):
            assert (_outcome(prog, data, packrat)
                    == _outcome(twin, data, packrat)), data
    assert hits > 0
    # The parses built iteration tables, and in tree mode ~R, ~W and ~A
    # are dropped calls.
    assert any(prog.kind[i] == trx.interp._K_STAR
               for i, t in enumerate(_iters(prog, 0)) if t is not None)
    if g.tree_shaped:
        dropped = {g.nonterminals[prog.a[i]]
                   for i, k in enumerate(prog.kind)
                   if k == trx.interp._K_TDNT}
        assert dropped & {"R", "W", "A"}


def test_meta_program_drops_spacing_in_one_frame():
    # Every ~spacing of the meta-grammar (one node, since expressions are
    # hash-consed) is one dropped call, and no other call is.
    # Certification builds no failure or iteration tables; parses build
    # an iteration table for each repetition they reach.
    g = tree_wrap(build_grammar(trx.meta._meta_rules(), "grammar"))
    cert = certify(g)
    prog = cert.program
    assert _no_tables_built(prog)
    dropped = {g.nonterminals[prog.a[i]] for i, k in enumerate(prog.kind)
               if k == trx.interp._K_TDNT}
    assert dropped == {"spacing"}
    # Every other drop is of a literal, which is a matcher.
    assert trx.interp._K_TACT not in prog.kind
    stars = [i for i, k in enumerate(prog.kind) if k == trx.interp._K_STAR]
    assert len(stars) >= 8
    for name in sorted(os.listdir(GRAMMAR_DIR)):
        assert parse(g, cert, grammar_text(name)).ok
    assert parse(g, cert, b'a <- "x" ;').ok
    assert all(_iters(prog, 0)[i] is not None for i in stars)
    assert all(t is None for t in _iters(prog, 1))
    # Spacing's table: a space costs its matcher's steps and the
    # choice's, '#' runs the comment, and any other byte and end of
    # input end the repetition in plain mode; in packrat mode the call
    # of comment runs everywhere but on a space.
    assert parse(g, cert, grammar_text("peg.peg"), mode="packrat").ok
    star = prog.a[prog.prod_body[g.nonterminals.index("spacing")]]
    space = prog.a[prog.a[star]]
    assert star in stars and prog.kind[space] == trx.interp._K_MATCH1
    for packrat in (False, True):
        steps, values = _iters(prog, packrat)[star]
        assert values is None
        for b in b" \t\r\n":
            assert steps[b] == prog.extra[space][0][b] + 1
        assert steps[ord("#")] == 0
        for b in (ord("a"), ord("'"), 256):
            assert (steps[b] < 0) != packrat and steps[b] <= 0


def _reachable(prog, roots=()):
    """The nodes of ``prog`` reachable from its rule bodies and ``roots``."""
    kind, aa, bb, extra = prog.kind, prog.a, prog.b, prog.extra
    seen = set()
    todo = [*prog.prod_body, *roots]
    while todo:
        i = todo.pop()
        if i in seen:
            continue
        seen.add(i)
        k = kind[i]
        if k >= trx.interp._K_EMPTY:
            continue
        if k >= trx.interp._K_TNT:
            # A call's ``a`` is its production; ``b`` is the inside it
            # runs, or the primitive of a leaf call (-1 for NT).
            parts = (bb[i],)
        elif k == trx.interp._K_TSEQ:
            parts = extra[i]
        else:
            parts = (aa[i], bb[i])
        todo.extend(x for x in parts if x >= 0)
    return seen


@pytest.mark.parametrize("name", ["meta", "math"]
                         + sorted(os.listdir(GRAMMAR_DIR)))
def test_every_program_node_is_reachable(name):
    # A drop of a call compiles to one node, so no call node is left
    # behind in the program that no parse can run.
    if name == "meta":
        prog = builtin_meta_grammar()[1].program
    elif name == "math":
        prog = math_grammar()[1].program
    else:
        prog = certified(name)[1].program
    assert _reachable(prog) == set(range(len(prog.kind)))


# Tree-shaped grammars in which a sequence appends a rule node or a leaf
# span and then fails: under a choice, as a repetition body, under !,
# under ~, and as the inside of a memoised call (M, which S calls twice
# at its start).  B is a leaf rule, whose call pushes no frame, and C a
# rule whose call pushes one.
_BC = " B <- 'b' ; C <- 'c' 'd'* ;"
_FAILING_SEQUENCES = [
    "A <- B (C 'x' / C 'y') / B 'y' / B C 'x' / B C / 'b' ;",
    "A <- (B C 'x' / 'b' 'c' 'y')* B ;",
    "A <- !(B C 'x') B C 'y'? / B ;",
    "A <- ~(B C 'x') 'y' / ~(B 'x' / 'b' C 'y') / B ;",
    "S <- M 'z' / M ; M <- B C 'x' / B 'y' / 'b' C ;",
]


@pytest.mark.parametrize("text", _FAILING_SEQUENCES)
def test_failed_sequences_leave_kids_as_found(text):
    # A failed sequence takes back what its items appended, so a choice,
    # a repetition, a negation and a drop over it need not.  In tree
    # mode and with the same rules in value mode (the node collectors
    # run as actions), plain and packrat: ok, pos, the tree, steps and
    # farthest agree with the oracle, and full outcomes, memo
    # statistics included, with the program run without failure and
    # iteration tables.
    tree = load_grammar(text + _BC)
    oks = set()
    for g in (tree, value_twin(tree)):
        cert = certify(g)
        prog = cert.program
        twin = _without_failure_tables(prog)
        for data in all_inputs("bcdxyz", 5):
            want, farthest = _oracle_farthest(g, data)
            for mode in ("plain", "packrat"):
                out = parse(g, cert, data, mode=mode)
                assert out == want and repr(out.value) == repr(want.value)
                assert (out.steps, out.farthest) == (want.steps, farthest)
            for packrat in (False, True):
                assert (_outcome(prog, data, packrat)
                        == _outcome(twin, data, packrat)), data
            oks.add(want.ok)
    assert oks == {True, False}
    if tree.start == "S":
        memo = MemoTable()
        parse(tree, certify(tree), b"bcdx", mode="packrat", memo=memo)
        assert memo.hits > 0


def _look_alikes():
    """Actions labelled like the built-ins, over 'a' and over 'ab'."""
    f = ActionRef("probe", lambda v: User(("probe", repr(v)))).fn
    for label in ("drop", "tuple2str", "tree.leaf"):
        yield Action(Terminal("a"), ActionRef(label, f))
    yield Action(Seq(Terminal("a"), Terminal("b")), ActionRef("tuple2str", f))


@pytest.mark.parametrize("e", list(_look_alikes()))
def test_look_alike_actions_run_as_actions(e):
    # Only the built-in ActionRefs have the built-in meanings; one of an
    # embedder's with the same label runs its own function.
    g = build_grammar([("S", e)], "S")
    cert = certify(g)
    for data in all_inputs("ab", 3):
        want = oracle_parse(g, data, fuel=10_000)
        for mode in ("plain", "packrat"):
            out = parse(g, cert, data, mode=mode)
            assert out == want and repr(out.value) == repr(want.value)
            assert out.steps == want.steps
    assert parse(g, cert, b"ab").value == User(("probe", repr(
        oracle_parse(build_grammar([("S", e.inner)], "S"), b"ab").value)))
    with pytest.raises(ValueError):
        tree_wrap(g)


def _probe(v):
    return User(("probe", repr(v)))


def _span_probe(v, start, end):
    return User(("span", repr(v), start, end))


# Every label a built-in action or a node collector of rule S has, on
# an embedder's ActionRef, span-aware and not.
_LOOK_ALIKES = [ActionRef(label, fn, span_aware=fn is _span_probe)
                for label in ("tree.node:S", "tree.leaf", "drop", "tuple2str",
                              "cons", "some", "none")
                for fn in (_probe, _span_probe)]

# Where the built-in meanings would change how a node compiles: a byte,
# a literal run, ``x+``, a scan, a call, and a call of a leaf rule.
_LOOK_ALIKE_SHAPES = [Terminal("a"), Seq(Terminal("a"), Terminal("b")),
                      Seq(Terminal("a"), Star(Terminal("a"))),
                      Star(Terminal("a")), NonTerminal("T")]


def _agrees_with_oracle_on(g, alphabet, n):
    """ok, pos, the value (by repr), steps and farthest of both modes
    equal the oracle's on every input up to length ``n``."""
    cert = certify(g)
    for data in all_inputs(alphabet, n):
        want, farthest = _oracle_farthest(g, data)
        for mode in ("plain", "packrat"):
            out = parse(g, cert, data, mode=mode)
            assert (out.ok, out.pos, repr(out.value), out.steps,
                    out.farthest) == (want.ok, want.pos, repr(want.value),
                                      want.steps, farthest), (data, mode)


@pytest.mark.parametrize("ref", _LOOK_ALIKES,
                         ids=["%s-%s" % (r.label, r.fn.__name__)
                              for r in _LOOK_ALIKES])
def test_look_alike_labels_agree_with_oracle(ref):
    # An embedder's action labelled like a built-in one or a collector
    # is an ordinary action: a grammar that holds it outside ! and ~ is
    # not tree-shaped, so it runs in value mode, and tree_wrap raises
    # ValueError for it; under ! and ~ tree_wrap keeps it.  Built
    # through the API, as the whole rule body over the shape and in
    # place of a tree-wrapped rule's own collector, and through
    # tree_wrap, all agree with the oracle in both modes.
    t_rule = ("T", Action(Terminal("a"), ref))
    for x in _LOOK_ALIKE_SHAPES:
        api = build_grammar([("S", Action(x, ref)), t_rule], "S")
        wrapped = tree_wrap(build_grammar([("S", x), ("T", Terminal("a"))],
                                          "S"))
        posing = Grammar({"S": Action(wrapped.productions["S"].inner, ref),
                          "T": wrapped.productions["T"]}, "S")
        hidden = tree_wrap(build_grammar([
            ("S", Choice(Seq(Drop(Action(x, ref)), Terminal("b")),
                         Seq(Not(Action(x, ref)), AnyChar()))),
            ("T", Terminal("a"))], "S"))
        assert hidden.tree_shaped
        for g in (api, posing):
            assert not g.tree_shaped
            with pytest.raises(ValueError):
                tree_wrap(g)
        for g in (api, posing, hidden):
            _agrees_with_oracle_on(g, "ab", 3)


def _tree_shape_cases():
    for name in sorted(os.listdir(GRAMMAR_DIR)):
        yield load_grammar(grammar_text(name))
    rng = random.Random(11)
    for _ in range(200):
        g = random_grammar(rng, "ab", rng.randrange(1, 4),
                           body_size=rng.randrange(2, 8))
        yield g
        yield tree_wrap(g)
    for g in small_grammars("ab", 3, seed=1, limit=100):
        yield g
        yield tree_wrap(g)


def test_tree_shape_is_a_property_of_the_productions():
    # Grammars with one production map and start have one mode.
    seen = {True: 0, False: 0}
    for g in _tree_shape_cases():
        assert Grammar(g.productions, g.start).tree_shaped == g.tree_shaped
        seen[g.tree_shaped] += 1
    assert min(seen.values()) > 100


def test_memo_table_serves_one_program_and_one_input():
    g, cert = math_grammar()
    memo = MemoTable()
    assert parse(g, cert, b"(1+2)*3", mode="packrat", memo=memo).value \
        == User(9)
    # The same program on an equal input, and plain mode, which does
    # not use the table, are fine.
    assert parse(g, cert, bytes(b"(1+2)*3"), mode="packrat",
                 memo=memo).value == User(9)
    assert parse(g, cert, b"(4+5)*6", memo=memo).value == User(54)
    with pytest.raises(ValueError):
        parse(g, cert, b"(4+5)*6", mode="packrat", memo=memo)
    other, other_cert = math_grammar()
    other_cert = certify(Grammar(dict(other.productions), other.start))
    with pytest.raises(ValueError):
        parse(other_cert.grammar, other_cert, b"(1+2)*3", mode="packrat",
              memo=memo)
    assert parse(g, cert, b"(4+5)*6", mode="packrat",
                 memo=MemoTable()).value == User(54)


def _tree_nodes(node):
    """Every node of a tree, iteratively."""
    todo, seen = [node], []
    while todo:
        n = todo.pop()
        seen.append(n)
        todo.extend(n.children)
    return seen


def test_tree_node_contract():
    leaf, last = TreeNode("", 0, 1, ()), TreeNode("", 1, 3, ())
    node = TreeNode("r", 0, 3, (leaf, last))
    same = TreeNode("r", 0, 3,
                    (TreeNode("", 0, 1, ()), TreeNode("", 1, 3, ())))
    assert node == same and not node != same and hash(node) == hash(same)
    assert (node.rule, node.start, node.end) == ("r", 0, 3)
    for changed in (TreeNode("s", 0, 3, (leaf, last)),
                    TreeNode("r", 1, 3, (leaf, last)),
                    TreeNode("r", 0, 4, (leaf, last)),
                    TreeNode("r", 0, 3, (leaf, TreeNode("", 1, 2, ()))),
                    TreeNode("r", 0, 3, (leaf,))):
        assert changed != node and not changed == node
        assert node != changed and not node == changed
    for plain in (tuple(node), tuple(leaf)):
        other = node if len(plain) > 3 else leaf
        assert other != plain and plain != other
        assert not other == plain and not plain == other
    assert node != ("r", 0, 3, (leaf, last)) and node != "r"
    for name in ("rule", "start", "end", "children", "other"):
        with pytest.raises(AttributeError):
            setattr(node, name, 0)
    assert type(node.children) is tuple and node.children == (leaf, last)
    assert leaf.children == () and leaf.is_leaf() and not node.is_leaf()
    for twin in (pickle.loads(pickle.dumps(node)), copy.deepcopy(node),
                 copy.copy(node)):
        assert type(twin) is TreeNode and twin == node
        assert all(type(c) is TreeNode for c in twin.children)
    assert repr(leaf) == "Leaf[0:1]"
    assert repr(node) == "TreeNode(r[0:3], 2 children)"
    for a, b in ((node, same), (leaf, last), (node, tuple(node)),
                 (tuple(node), node), (node, 1)):
        for compare in (lambda: a < b, lambda: a <= b, lambda: a > b,
                        lambda: a >= b):
            with pytest.raises(TypeError):
                compare()
    with pytest.raises(TypeError):
        sorted([node, leaf])


def test_deep_tree_nodes_hash_and_compare():
    # Tuple hashing and comparison recurse per level: hash() of a node
    # this deep overflowed the C stack, and == raised RecursionError
    # from about 330 levels.
    def chain(depth, end):
        node = TreeNode("", 0, end, ())
        for _ in range(depth):
            node = TreeNode("r", 0, 1, (node,))
        return node

    a, b, c = chain(300_000, 1), chain(300_000, 1), chain(300_000, 2)
    assert hash(a) == hash(b) == hash(c)
    assert a == b and not a != b
    assert a != c and not a == c
    assert {a: 1}[b] == 1


def test_deep_tree_nodes_pickle_and_copy():
    # Pickling the children tuple recursed per level: pickle failed
    # beyond about 330 levels and deepcopy beyond about 165.
    node = TreeNode("", 0, 1, ())
    for depth in range(3000):
        node = TreeNode("r%d" % (depth % 3), 0, depth + 2,
                        (TreeNode("", 0, 1, ()), node,
                         TreeNode("s", 1, 2, ())))
    for twin in (pickle.loads(pickle.dumps(node)), copy.copy(node),
                 copy.deepcopy(node)):
        assert type(twin) is TreeNode and twin == node
        assert twin.children[1].rule == node.children[1].rule


def test_parsed_tree_matches_oracle_on_golden_xml(xml_lite):
    g, cert = xml_lite
    data = b"<a><b/></a>"
    golden = os.path.join(os.path.dirname(__file__), "golden",
                          "xml_lite_tree.json")
    for mode in ("plain", "packrat"):
        out = parse(g, cert, data, mode=mode)
        want = oracle_parse(g, data, fuel=100_000)
        assert out.ok and want.ok and out.value == want.value
        assert hash(out.value) == hash(want.value)
        assert out.steps == want.steps
        for n in _tree_nodes(out.value):
            assert type(n) is TreeNode and type(n.children) is tuple
        assert tree_to_json(out.value, data) == json.load(open(golden))


def test_tree_json_text_is_json_dumps_of_tree_to_json(xml_lite):
    g, cert = xml_lite
    pairs = [(g, cert, data) for data in (
        b"<a><b/></a>", xmark_lite(8192, seed=2),
        '<a t="\u00e9\\&quot;">\u00fc\x01\t<c/>\u2026</a>'.encode())]
    # One-byte rules split a two-byte character across leaves.
    g2 = load_grammar("a <- b* ; b <- . ;")
    pairs.append((g2, certify(g2), "x\u00e9\"\U0001f600".encode()))
    for g, cert, data in pairs:
        out = parse(g, cert, data)
        assert out.ok and out.pos == len(data)
        assert tree_json_text(out.value, data) == json.dumps(
            tree_to_json(out.value, data))
    tree = TreeNode('r"\u00e9\n', 0, 2, (TreeNode("", 0, 1, ()),
                                        TreeNode("s", 1, 2, ())))
    data = b"\xff<"
    assert tree_json_text(tree, data) == json.dumps(tree_to_json(tree, data))


@contextmanager
def _collector(enabled):
    """Run the body with the cyclic collector on or off, then restore."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
def test_tree_parse_suspends_and_restores_collector(xml_lite, monkeypatch,
                                                    enabled):
    g, cert = xml_lite
    data = b"<a><b/>t</a>"
    seen = []
    real_run = trx.interp._run

    def spy(*args):
        seen.append(gc.isenabled())
        return real_run(*args)

    def boom(*args):
        raise MemoryError("injected")

    with _collector(enabled):
        monkeypatch.setattr(trx.interp, "_run", spy)
        for mode in ("plain", "packrat"):
            assert parse(g, cert, data, mode=mode).ok
            assert gc.isenabled() is enabled
        assert seen == [False, False]
        monkeypatch.setattr(trx.interp, "_run", boom)
        with pytest.raises(MemoryError):
            parse(g, cert, data)
        assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_tree_to_json_suspends_and_restores_collector(xml_lite, monkeypatch,
                                                      enabled):
    g, cert = xml_lite
    data = b"<a><b/>t</a>"
    tree = parse(g, cert, data).value
    seen = []
    real = trx.values._to_json

    def spy(node, text):
        seen.append(gc.isenabled())
        return real(node, text)

    def boom(node, text):
        raise RecursionError("injected")

    with _collector(enabled):
        monkeypatch.setattr(trx.values, "_to_json", spy)
        doc = tree_to_json(tree, data)
        assert gc.isenabled() is enabled and seen[0] is False
        monkeypatch.setattr(trx.values, "_to_json", boom)
        with pytest.raises(RecursionError):
            tree_to_json(tree, data)
        assert gc.isenabled() is enabled
    assert doc["rule"] == "element"


@pytest.mark.parametrize("enabled", [True, False])
def test_overlapping_suspensions_restore_collector_once(enabled):
    # Two suspensions that end out of order, as two threads' would.
    with _collector(enabled):
        first, second = gc_suspended(), gc_suspended()
        first.__enter__()
        second.__enter__()
        first.__exit__(None, None, None)
        assert not gc.isenabled()
        second.__exit__(None, None, None)
        assert gc.isenabled() is enabled


def test_threads_mixing_parse_and_json_restore_collector(xml_lite):
    g, cert = xml_lite
    data = b'<a x="1"><b/>t<c/></a>'
    want = tree_to_json(parse(g, cert, data).value, data)
    errors = []

    def worker(slot):
        try:
            for i in range(200):
                out = parse(g, cert, data,
                            mode="packrat" if (slot + i) % 2 else "plain")
                assert tree_to_json(out.value, data) == want
        except BaseException as exc:  # reported after the join
            errors.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with _collector(True):
            threads = [threading.Thread(target=worker, args=(k,))
                       for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert gc.isenabled()
    finally:
        sys.setswitchinterval(switch)
    assert errors == []


def test_value_mode_actions_run_with_collector():
    seen = []

    def record(v):
        seen.append(gc.isenabled())
        return v

    g = build_grammar([("S", Action(Terminal("a"), ActionRef("rec", record)))],
                      "S")
    cert = certify(g)
    with _collector(True):
        for mode in ("plain", "packrat"):
            assert parse(g, cert, b"a", mode=mode).ok
    assert seen == [True, True]
