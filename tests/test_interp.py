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
from trx import (Action, ActionRef, AnyChar, CertificateMismatch, Choice,
                 EMPTY, InvariantViolation, MemoTable, NonTerminal, Not, Range,
                 Seq, Star, Terminal, TreeNode, User, build_grammar,
                 builtin_meta_grammar, certify, check_well_formed, eval_expr,
                 expr_text, expression_set, load_grammar, memo_stats, parse,
                 parse_to_tree, tree_to_json)
from trx.interp import _ALWAYS, _compile, _initial_marks, _run
from trx.mathdemo import evaluate, math_grammar
from trx.oracle import EXHAUSTED, oracle_eval, oracle_parse
from trx.values import Char, Lst, Tup, UNIT, gc_suspended

from conftest import GRAMMAR_DIR, certified, grammar_text


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


def _seed_set(g, cert):
    """The rules a packrat parse memoises from its start."""
    marks = _initial_marks(cert.program)
    return {name for name, m in zip(g.nonterminals, marks) if m == _ALWAYS}


@pytest.mark.parametrize("name, seed", [
    ("math.peg", {"ws", "number", "term", "factor"}),
    ("peg.peg", {"classchar", "escape"}),
    ("xml-lite.peg", set()),
    ("reserved.peg", set()),
    ("dangling.peg", set()),
    ("synth200.peg", set()),
    ("math", {"ws", "number", "term", "factor"}),
    ("meta", {"classchar", "escape"}),
])
def test_static_seed_sets(name, seed):
    # A rule is seeded when both alternatives of one choice can call it
    # at the choice's own position, e.g. math.peg's `ws` (a nullable
    # prefix) under `term`, and `term` and what it leads with under
    # `factor`.  No xml-lite choice has such a rule.
    if name == "math":
        g, cert = math_grammar()
    elif name == "meta":
        g, cert = builtin_meta_grammar()
    else:
        g, cert = certified(name)
    assert _seed_set(g, cert) == seed


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
