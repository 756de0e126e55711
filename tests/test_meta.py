"""Textual grammar format: loading, bootstrap, round-trips, precedence."""

import copy
import json
import os
import pickle
import random
import re
import subprocess
import sys
import time

import pytest

import trx.interp

from trx import (ANY, EMPTY, Action, ActionRef, And, CharClass, Choice, Drop,
                 DuplicateRule, EmptyLiteral, Grammar, GrammarError,
                 InvalidRange, Literal, MemoTable, NonTerminal, Not,
                 Optional, PegSyntaxError, Plus, Seq, Star, Terminal,
                 UndefinedNonterminal, UnknownStart, build_grammar,
                 builtin_meta_grammar, check_well_formed, dump_grammar,
                 load_grammar, parse, parse_to_tree, tree_wrap)
from trx.meta import LEAF, line_col, load_grammar_source, node_action
from trx.oracle import EXHAUSTED, all_inputs, oracle_parse, random_grammar

from conftest import GRAMMAR_DIR, certified, grammar_text, value_twin


def test_load_math_peg(math_peg):
    g, _ = math_peg
    assert len(g.nonterminals) == 5
    assert g.start == "expr"
    assert g.nonterminals == ("ws", "number", "term", "factor", "expr")


def test_missing_body_is_syntax_error():
    with pytest.raises(PegSyntaxError):
        load_grammar("A <- ")
    with pytest.raises(PegSyntaxError):
        load_grammar("A <- ;")
    with pytest.raises(PegSyntaxError):
        load_grammar("")


def test_syntax_error_carries_position():
    try:
        load_grammar("A <- 'a' ;\nB <- @ ;\n")
    except PegSyntaxError as exc:
        assert exc.line == 2
        assert exc.col >= 5
    else:
        pytest.fail("expected a syntax error")


def test_grammar_construction_errors_surface():
    with pytest.raises(UndefinedNonterminal):
        load_grammar("A <- B ;")
    with pytest.raises(DuplicateRule):
        load_grammar("A <- 'x' ;\nA <- 'y' ;")
    with pytest.raises(UnknownStart):
        load_grammar("@start Z ;\nA <- 'x' ;")
    with pytest.raises(EmptyLiteral):
        load_grammar("A <- '' ;")
    with pytest.raises(InvalidRange):
        load_grammar("A <- [z-a] ;")


@pytest.mark.parametrize("text, error, message", [
    ("A <- 'a' ;\nB <- @ ;\n", PegSyntaxError,
     "<grammar>:2:6: syntax error\n  B <- @ ;\n       ^"),
    # Errors of the rules' expressions come first, in rule order and
    # left to right, in and out of ! and ~ alike.
    ("A <- 'a' [b-c] ;\nB <- [z-a] '' ;\nA <- C ;\n@start Z ;\n",
     InvalidRange, "empty range 'z'-'a'"),
    ("A <- 'a' / !'' ;\nB <- [z-a] ;\n", EmptyLiteral,
     "empty literal (write eps for the empty expression)"),
    ("A <- '' ~[z-a] ;\n", EmptyLiteral,
     "empty literal (write eps for the empty expression)"),
    ("A <- ~([b-a] '') ;\n", InvalidRange, "empty range 'b'-'a'"),
    # Then the duplicate, undefined-name and start checks.
    ("A <- 'x' ;\nB <- C ;\nA <- 'y' ;\n@start Z ;\n", DuplicateRule,
     "duplicate rule 'A'"),
    ("A <- 'x' B ;\nB <- !(C / D) ;\n@start Z ;\n", UndefinedNonterminal,
     "rule 'B' references undefined nonterminal 'C'"),
    ("@start Z ;\nA <- 'x'+ / ~'y'? ;\n", UnknownStart,
     "start symbol 'Z' is not a rule"),
])
def test_load_errors_keep_their_order_and_messages(text, error, message):
    with pytest.raises(error) as caught:
        load_grammar(text)
    assert type(caught.value) is error and str(caught.value) == message


def test_rule_positions_are_each_rules_line_and_column():
    text = ("# head\n@start b ;\n  a <- 'x'\n   / b ;\r\n\n"
            "b <- [a-z]+ ; c <- a\n;\n\td <- eps ;")
    data = text.encode()
    src = load_grammar_source(text)
    assert src.rule_positions == {
        name: line_col(data, data.index(b"%s <-" % name.encode()))
        for name in "abcd"}
    assert src.rule_positions == {"a": (3, 3), "b": (6, 1), "c": (6, 15),
                                  "d": (8, 2)}


def _loads_as(text, rules, start=None):
    """The text must load to exactly the tree-shaped form of the rules."""
    loaded = load_grammar(text)
    hand = tree_wrap(build_grammar(rules, start or rules[0][0]))
    assert loaded == hand, dump_grammar(loaded)


def test_postfix_binds_tighter_than_prefix():
    from trx import Plus

    _loads_as("S <- !'a'* ;", [("S", Not(Star(Literal("a"))))])
    _loads_as("S <- ~'a'+ ;", [("S", Drop(Plus(Literal("a"))))])
    # explicit parens flip it
    _loads_as("S <- (!'a')* ;", [("S", Star(Not(Literal("a"))))])


def test_sequence_binds_tighter_than_choice():
    _loads_as("S <- 'a' 'b' / 'c' ;",
              [("S", Choice(Seq(Literal("a"), Literal("b")),
                            Literal("c")))])


def test_prefix_applies_to_single_element():
    _loads_as("S <- !'a' 'b' ;", [("S", Seq(Not(Literal("a")),
                                            Literal("b")))])


def test_postfix_chains_apply_left_to_right():
    _loads_as("S <- 'a'*? ;", [("S", Optional(Star(Literal("a"))))])


def test_escapes_decode():
    g = load_grammar(r"S <- '\x41\n\t\r\\\'' ;")
    body = g.productions["S"].inner
    probe = b"A\n\t\r\\'"
    cert = check_well_formed(g).certificate
    out = parse(g, cert, probe)
    assert out.ok and out.pos == len(probe)


def test_class_escapes_and_dash():
    g = load_grammar(r"S <- [\]\-\x41x-z] ;")
    cert = check_well_formed(g).certificate
    for ch, ok in ((b"]", True), (b"-", True), (b"A", True), (b"y", True),
                   (b"b", False)):
        out = parse(g, cert, ch)
        assert out.ok is ok, ch


def test_eps_keyword_and_identifier_prefix():
    g = load_grammar("S <- eps ;")
    cert = check_well_formed(g).certificate
    assert parse(g, cert, b"").ok
    g2 = load_grammar("S <- epsilon ;\nepsilon <- 'e' ;")
    assert "epsilon" in g2.nonterminals


def test_comments_and_crlf():
    g = load_grammar("# heading\r\nS <- 'a' ; # trailing\n# tail no newline")
    assert g.nonterminals == ("S",)


# A .peg token, a comment, or white space: literals and classes first,
# so that a '#' inside one is not a comment.
_PEG_TOKEN = re.compile(r"""'(?:\\.|[^'\\])*'|"(?:\\.|[^"\\])*"|\[(?:\\.|[^]\\])*\]"""
                        r"|#[^\n]*|@start|<-|\w+|[/*+?!&~().;]|\s+")


def _comment_every_token(text: str) -> str:
    """``text`` with its comments dropped and ``# c`` and a newline after
    every token."""
    tokens = [m.group() for m in _PEG_TOKEN.finditer(text)]
    assert "".join(tokens) == text
    return "".join(t + " # c\n" for t in tokens
                   if not t.isspace() and t[0] != "#")


def test_comments_after_every_token():
    # peg.peg with a comment after each of its tokens loads to the same
    # grammar, and the meta-grammar parses it to the same tree in plain
    # and packrat mode: every ~spacing meets white space and a comment.
    text = grammar_text("peg.peg").decode()
    commented = _comment_every_token(text)
    assert commented.count("# c\n") > 300
    assert (dump_grammar(load_grammar(commented))
            == dump_grammar(load_grammar(text)))
    meta, cert = builtin_meta_grammar()
    data = commented.encode()
    plain = parse(meta, cert, data)
    packrat = parse(meta, cert, data, mode="packrat")
    assert plain.ok and plain.pos == len(data)
    assert (plain, plain.steps, plain.farthest) == (
        packrat, packrat.steps, packrat.farthest)
    assert plain.value == packrat.value


def test_pragma_selects_start_and_last_wins():
    g = load_grammar("@start B ;\nA <- 'a' ;\nB <- 'b' ;")
    assert g.start == "B"
    g2 = load_grammar("@start A ;\n@start B ;\nA <- 'a' ;\nB <- 'b' ;")
    assert g2.start == "B"


# Texts heavy in escapes, ranges, ``.`` and ``eps``, stacked prefix and
# postfix operators and comments, each with the same rules written
# through the embedded API, and its start rule.
_LOADER_CASES = [
    (r"""# Escapes in literals and in classes.
S <- '\x41\n\t' "\"\\" T ;   # hex, control, quote and backslash
T <- [\]\\\-\x41] / '\'' ;
""", [("S", Seq(Literal(b"A\n\t"), Seq(Literal(b'"\\'), NonTerminal("T")))),
      ("T", Choice(CharClass(["]", "\\", "-", "A"]), Literal("'")))], "S"),
    (r"S <- [a-z0-9_] . eps / [\x00-\x1f] [A-A] ;",
     [("S", Choice(Seq(CharClass([("a", "z"), ("0", "9"), "_"]),
                       Seq(ANY, EMPTY)),
                   Seq(CharClass([(0, 0x1F)]), CharClass([("A", "A")]))))],
     "S"),
    ("S <- !&~'a'*+? 'b'+* ~[xy]? &. ;",
     [("S", Seq(Not(And(Drop(Optional(Plus(Star(Literal("a"))))))),
                Seq(Star(Plus(Literal("b"))),
                    Seq(Drop(Optional(CharClass(["x", "y"]))), And(ANY)))))],
     "S"),
    ("# leading comment\r\n@start B ; # pragma\nA <- ( 'x' / eps ) # after\n"
     "     'y'?+ ;\nB <- A* !A ~( . [\\x30-\\x39] )* ;\n# trailing, no newline",
     [("A", Seq(Choice(Literal("x"), EMPTY), Plus(Optional(Literal("y"))))),
      ("B", Seq(Star(NonTerminal("A")),
                Seq(Not(NonTerminal("A")),
                    Drop(Star(Seq(ANY, CharClass([("0", "9")]))))))),
      ], "B"),
]


@pytest.mark.parametrize("text, rules, start", _LOADER_CASES)
def test_loader_builds_the_embedded_rules_nodes(text, rules, start):
    # The loader lowers straight to the tree-shaped form: each production
    # is the very object that tree wrapping the same rules gives, and a
    # dump reloads to the same objects.
    want = tree_wrap(build_grammar(rules, start))
    got = load_grammar(text)
    assert got.nonterminals == want.nonterminals and got.start == start
    assert all(got.productions[n] is want.productions[n]
               for n in want.nonterminals)
    again = load_grammar(dump_grammar(got))
    assert again.start == start
    assert all(again.productions[n] is got.productions[n]
               for n in got.nonterminals)


def test_bootstrap_fixpoint():
    builtin, _ = builtin_meta_grammar()
    text = grammar_text("peg.peg")
    loaded = load_grammar(text)
    assert loaded == builtin
    assert loaded.nonterminals == builtin.nonterminals
    # the loaded copy, used as the active parser, re-parses its own text
    cert = check_well_formed(loaded).certificate
    out = parse_to_tree(loaded, cert, text)
    assert out.ok and out.pos == len(text)


def test_round_trip_bundled_grammars():
    for name in ("math.peg", "reserved.peg", "dangling.peg", "xml-lite.peg",
                 "peg.peg", "synth200.peg"):
        g = load_grammar(grammar_text(name))
        rt = load_grammar(dump_grammar(g))
        assert rt == g, name
        assert rt.nonterminals == g.nonterminals, name
        assert rt.start == g.start, name


def test_round_trip_random_grammars():
    rng = random.Random(17)
    for _ in range(250):
        g = random_grammar(rng, "ab", rng.randrange(1, 4),
                           rng.randrange(2, 7))
        assert load_grammar(dump_grammar(g)) == tree_wrap(g)


def test_nested_plus_loads_checks_and_dumps_in_linear_time():
    # x+ holds one x in two places, so a walk that does not skip a node
    # met again doubles its work at every level of nesting.
    depth = 40
    text = "a <- %s'x'%s ;" % ("(" * depth, ")+" * depth)
    start = time.perf_counter()
    g = load_grammar(text)
    assert check_well_formed(g).is_well_formed
    dumped = dump_grammar(g)
    assert load_grammar(dumped) == g
    assert time.perf_counter() - start < 1
    assert len(dumped) < 200
    assert dumped == "a <- %s[x]%s+ ;\n" % ("(" * (depth - 1),
                                             "+)" * (depth - 1))


def test_dump_folds_plus_of_loaded_grammar():
    g = load_grammar(grammar_text("xml-lite.peg"))
    assert "content <- (element / text)+ ;" in dump_grammar(g).splitlines()


def test_dump_singleton_epsilon():
    g = load_grammar("A <- eps ;")
    assert dump_grammar(g).strip() == "A <- eps ;"


def test_tree_grammar_outcomes_match_oracle_exactly(xml_lite):
    # Differential coverage for the superinstruction paths that only
    # tree-shaped grammars exercise (leaf wrapping, literal runs, scans).
    g, cert = xml_lite
    cases = [b"<a><b/></a>", b'<a x="1"> hi <b/></a>', b"<a></b>", b"<a>",
             b"", b"<a>text</a>", b"<a><b>t</b><c/></a>"]
    for s in cases:
        expected = oracle_parse(g, s, fuel=1_000_000)
        got = parse(g, cert, s)
        assert got == expected and got.steps == expected.steps, s

    mg, mcert = certified("math.peg")
    for s in (b"1", b"(1+2) * (3 * 4)", b"1+", b" 12 "):
        expected = oracle_parse(mg, s, fuel=1_000_000)
        got = parse(mg, mcert, s)
        assert got == expected and got.steps == expected.steps, s


def test_loaded_grammars_parse_in_both_modes(math_peg):
    g, cert = math_peg
    a = parse(g, cert, b"(1+2) * (3 * 4)")
    b = parse(g, cert, b"(1+2) * (3 * 4)", mode="packrat")
    assert a == b and a.steps == b.steps
    assert a.ok and a.pos == 15


def test_line_col():
    data = b"abc\ndef\n"
    assert line_col(data, 0) == (1, 1)
    assert line_col(data, 3) == (1, 4)
    assert line_col(data, 4) == (2, 1)
    assert line_col(data, 6) == (2, 3)


def test_tree_spans_cover_input_on_full_match(math_peg):
    g, cert = math_peg
    out = parse_to_tree(g, cert, b"1")
    leaves = []
    stack = [out.value]
    while stack:
        node = stack.pop()
        if node.is_leaf():
            leaves.append((node.start, node.end))
        stack.extend(node.children)
    assert sorted(leaves) == [(0, 1)]


def test_tree_node_span_invariants(xml_lite):
    # children spans are contained in the parent span, non-overlapping,
    # and in order
    g, cert = xml_lite
    src = b'<a one="1"> text <b/><c>deep</c></a>'
    out = parse_to_tree(g, cert, src)
    assert out.ok

    def walk(node):
        assert 0 <= node.start <= node.end <= len(src)
        prev_end = node.start
        for child in node.children:
            assert node.start <= child.start <= child.end <= node.end
            assert child.start >= prev_end
            prev_end = child.end
            walk(child)

    walk(out.value)


def test_meta_grammar_itself_matches_oracle():
    # The meta-grammar exercises multi-byte lookahead (!'<-'), dropped
    # literals, escapes and class scans; the oracle must agree exactly.
    builtin, cert = builtin_meta_grammar()
    texts = [b"A <- 'ab' / [c-f]+ ;", b"A <- !B ~'x' ;\nB <- 'y'? ;",
             b"A <- ", b"@start A ;\nA <- eps ;"]
    for text in texts:
        expected = oracle_parse(builtin, text, fuel=2_000_000)
        got = parse(builtin, cert, text)
        assert got == expected and got.steps == expected.steps, text


def test_meta_tree_is_one_node_per_token():
    # An expression is one flat node: its items' operator and primary
    # nodes, with a '/' leaf between alternatives.  No rule wraps a
    # definition, sequence, item or primary, and identifier is a leaf
    # rule whose every call pushes no frame.
    g, cert = builtin_meta_grammar()
    assert len(g.nonterminals) == 20
    text = b"a <- !b c* / ('x' [y])? ;"
    out = parse(g, cert, text)
    assert out.ok
    [rule] = out.value.children
    name, expr = rule.children
    assert (name.rule, text[name.start:name.end]) == ("identifier", b"a")
    kids = expr.children
    assert [c.rule for c in kids] == ["notop", "identifier", "identifier",
                                      "starop", "", "expression",
                                      "questionop"]
    assert text[kids[4].start:kids[4].end] == b"/"
    assert [c.rule for c in kids[5].children] == ["literal", "charclass"]
    prog = cert.program
    calls = {k for i, k in enumerate(prog.kind)
             if k in (trx.interp._K_TNT, trx.interp._K_TDNT,
                      trx.interp._K_TLEAF, trx.interp._K_TDLEAF)
             and g.nonterminals[prog.a[i]] == "identifier"}
    assert calls == {trx.interp._K_TLEAF}


def _agrees_with_oracle_in_both_modes(g, cert, s):
    """Full outcomes, value trees included, of both modes against the
    oracle; returns the packrat memo table."""
    expected = oracle_parse(g, s, fuel=100_000)
    assert expected is not EXHAUSTED, s
    memo = MemoTable()
    for mode in ("plain", "packrat"):
        got = parse(g, cert, s, mode=mode, memo=memo)
        assert got == expected and got.steps == expected.steps, (mode, s)
    return memo


def test_tree_mode_backtracking_matches_oracle_on_random_grammars():
    # A tree-shaped grammar's parse builds its nodes from one list of
    # children, which backtracking truncates; the oracle runs the real
    # collector actions on the value spines.  Random grammars use every
    # core constructor and ~ (the only action random_grammar draws).
    # The same rules in their value twin, which is not tree-shaped, run
    # the collector actions in the VM's value mode.
    rng = random.Random(5)
    inputs = all_inputs("ab", 4)
    certified_grammars = 0
    nodes_with_children = 0
    while certified_grammars < 400:
        g = tree_wrap(random_grammar(rng, "ab", rng.randrange(1, 4),
                                     body_size=rng.randrange(2, 8)))
        report = check_well_formed(g)
        if not report.is_well_formed:
            continue
        certified_grammars += 1
        plain = value_twin(g)
        plain_cert = check_well_formed(plain).certificate
        for s in inputs:
            _agrees_with_oracle_in_both_modes(g, report.certificate, s)
            _agrees_with_oracle_in_both_modes(plain, plain_cert, s)
            out = parse(g, report.certificate, s)
            if out.ok and out.value.children:
                nodes_with_children += 1
    assert nodes_with_children > 100


@pytest.mark.parametrize("text, inputs", [
    # A failed first alternative that already produced a node.
    ("A <- B 'x' / B ;\nB <- 'b' ;", [b"b", b"bx", b"c"]),
    # A repetition whose last iteration fails after a node.
    ("A <- (B 'x')* B ;\nB <- 'b' ;", [b"b", b"bxb", b"bxbxb", b"bx"]),
    # Negation and drop of a rule, and the and-predicate.
    ("A <- !(B 'x') B ~B &B B ;\nB <- 'b' ;", [b"bbbb", b"bbb", b"bxbb"]),
    ("A <- !B 'a' / ~B 'c' / B ;\nB <- 'b' ;", [b"a", b"bc", b"b", b"c"]),
    # Value-shaping actions under ~ and ! are not run in tree mode.
    ("A <- ~('a'+ 'b'?) !('c'+ / 'd'?) [a-z]* ;",
     [b"a", b"abz", b"aac", b"ab", b"ac", b"b"]),
])
def test_tree_mode_truncation_points_match_oracle(text, inputs):
    g = load_grammar(text)
    cert = check_well_formed(g).certificate
    for s in inputs:
        _agrees_with_oracle_in_both_modes(g, cert, s)


def test_tree_mode_memo_hit_appends_the_stored_node():
    g = load_grammar("A <- B 'x' / B 'y' / C ;\nB <- C 'b' ;\nC <- 'c'+ ;")
    cert = check_well_formed(g).certificate
    for s in (b"ccby", b"cby", b"cc", b"ccbz"):
        memo = _agrees_with_oracle_in_both_modes(g, cert, s)
        assert memo.hits > 0, s
    out = parse(g, cert, b"ccby", mode="packrat")
    assert [c.rule for c in out.value.children] == ["B", ""]
    assert [c.rule for c in out.value.children[0].children] == ["C", ""]


def test_tree_mode_leaf_action_over_a_sequence():
    # tree_wrap puts leaves on single bytes only.  A hand-built leaf over
    # a longer match leaves the grammar not tree-shaped, so it runs in
    # value mode, where the leaf spans all of its match and the
    # collectors run as actions.
    g = Grammar({"A": Action(Seq(Action(Seq(NonTerminal("B"), ANY), LEAF),
                                 NonTerminal("B")), node_action("A")),
                 "B": Action(Terminal("b"), node_action("B"))}, "A")
    assert not g.tree_shaped
    cert = check_well_formed(g).certificate
    assert not cert.program.tree
    for s in (b"bxb", b"bx", b"b"):
        _agrees_with_oracle_in_both_modes(g, cert, s)
    out = parse(g, cert, b"bxb")
    assert [(c.rule, c.start, c.end) for c in out.value.children] == [
        ("", 0, 2), ("B", 2, 3)]


def _not_tree_shaped(g, inputs, wraps):
    """``g`` is not tree-shaped and agrees with the oracle in value mode;
    tree_wrap raises ValueError for it unless ``wraps``, and otherwise
    gives a tree-shaped grammar that agrees with the oracle too."""
    assert not g.tree_shaped
    forms = [g]
    if wraps:
        forms.append(tree_wrap(g))
        assert forms[-1].tree_shaped
    else:
        with pytest.raises(ValueError):
            tree_wrap(g)
    for form in forms:
        cert = check_well_formed(form).certificate
        assert cert.program.tree == form.tree_shaped
        for s in inputs:
            _agrees_with_oracle_in_both_modes(form, cert, s)


def test_tree_shaped_grammar_wraps_every_rule():
    # A grammar is tree-shaped only when every rule is its own node
    # collector; any other grammar runs in value mode, collectors and
    # leaves as ordinary actions.
    _not_tree_shaped(Grammar({"A": Terminal("a")}, "A"), [b"a", b"b"], True)
    _not_tree_shaped(Grammar({"A": Action(Terminal("a"), node_action("B"))},
                             "A"), [b"a", b"b"], True)
    # A node named "" would read as a leaf: no rule "" has a collector.
    with pytest.raises(ValueError):
        node_action("")
    _not_tree_shaped(Grammar({"": Terminal("a")}, ""), [b"a", b""], False)
    # Tree mode runs no action but the tree shapers, so a user action
    # anywhere but under ! or ~ makes a grammar run in value mode.
    ident = ActionRef("id", lambda v: v)
    b_rule = Action(Action(Terminal("b"), LEAF), node_action("B"))
    a_leaf = Action(Terminal("a"), LEAF)
    inputs = [b"ba", b"bb", b"b", b"a", b"baa"]
    _not_tree_shaped(Grammar({"A": Action(Seq(Action(NonTerminal("B"), ident),
                                              a_leaf), node_action("A")),
                              "B": b_rule}, "A"), inputs, False)
    _not_tree_shaped(Grammar({"A": Action(Literal("ab"), node_action("A"))},
                             "A"), [b"ab", b"a", b"abc"], False)
    # The built-in shapers are known by their refs, not their labels.
    for label in ("drop", "tree.leaf"):
        fake = Action(Terminal("b"), ActionRef(label, lambda v: v))
        _not_tree_shaped(Grammar({"A": Action(Seq(fake, a_leaf),
                                              node_action("A"))}, "A"),
                         inputs, False)
    for hidden in (Not(Action(NonTerminal("B"), ident)),
                   Drop(Action(NonTerminal("B"), ident))):
        g = Grammar({"A": Action(Seq(hidden, Seq(NonTerminal("B"), a_leaf)),
                                 node_action("A")),
                     "B": b_rule}, "A")
        assert g.tree_shaped and tree_wrap(g) == g
        report = check_well_formed(g)
        assert report.is_well_formed
        for s in inputs:
            _agrees_with_oracle_in_both_modes(g, report.certificate, s)


@pytest.mark.parametrize("name", sorted(os.listdir(GRAMMAR_DIR)))
def test_bundled_grammars_pickle_and_copy(name):
    # A grammar pickles as its productions and start, each node as
    # itself, and copies as itself; a fresh certificate of the copy
    # parses as the original's does.
    g, cert = certified(name)
    again = pickle.loads(pickle.dumps(g))
    assert again == g and again.tree_shaped
    assert again.nonterminals == g.nonterminals
    assert all(again.productions[n] is g.productions[n]
               for n in g.nonterminals)
    assert copy.copy(g) is g and copy.deepcopy(g) is g
    fresh = check_well_formed(again).certificate
    for data in (b"", grammar_text(name), b"<a x='1'>t<b/></a>",
                 b"(1 + 2) * 3", b"if x then y else z"):
        for mode in ("plain", "packrat"):
            want = parse(g, cert, data, mode=mode)
            out = parse(again, fresh, data, mode=mode)
            assert (out, out.steps, out.farthest, repr(out.value)) == (
                want, want.steps, want.farthest, repr(want.value))


def test_grammars_unpickle_in_a_fresh_interpreter():
    # Where no node of the grammar is live, the built-in refs still
    # unpickle as themselves and each collector as a NodeRef, so the
    # grammar is tree-shaped there and dumps to the same text.
    g = load_grammar(grammar_text("xml-lite.peg"))
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    script = (
        "import pickle, sys, trx\n"
        "from trx import exprs\n"
        "g = pickle.loads(sys.stdin.buffer.read())\n"
        "refs = {type(e.ref) if type(e.ref) is exprs.NodeRef else e.ref\n"
        "        for body in g.productions.values()\n"
        "        for e in trx.iter_subexprs(body) if type(e) is trx.Action}\n"
        "assert g.tree_shaped and refs <= {exprs.NodeRef, exprs.DROP,\n"
        "    exprs.LEAF, exprs.TUPLE2STR, exprs.CONS, exprs.SOME,\n"
        "    exprs.NONE}, refs\n"
        "sys.stdout.write(trx.dump_grammar(g))\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          input=pickle.dumps(g), env=env,
                          capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode() == dump_grammar(g)


_PICKLED_TEXT = b"alpha <- beta gamma ; beta <- 'x' ; gamma <- 'y' ;"


def _pickled_grammars():
    """Pickles of _PICKLED_TEXT loaded, and of the same rules built
    through the API with names made at run time (a name written as a
    literal in the source is one object already)."""
    alpha, beta, gamma = ("".join(reversed(n)) for n in
                          ("ahpla", "ateb", "ammag"))
    built = build_grammar([
        (alpha, Seq(NonTerminal(beta), NonTerminal(gamma))),
        (beta, Terminal("x")), (gamma, Terminal("y"))], alpha)
    return [pickle.dumps(load_grammar(_PICKLED_TEXT)), pickle.dumps(built)]


def test_equal_grammars_pickle_to_the_same_bytes():
    # Pickle writes a string object it has met as a reference to it, so
    # rule names are interned: the bytes do not depend on which objects
    # of the same names the process made first.  A loaded grammar and
    # an API-built one each pickle to the bytes they pickle to after an
    # unrelated earlier load of those names that is still live, and in
    # a fresh interpreter.
    first = _pickled_grammars()
    earlier = load_grammar("gamma <- beta 'z' ; beta <- 'q' ;")
    assert _pickled_grammars() == first
    assert earlier.nonterminals == ("gamma", "beta")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath(src), os.path.dirname(os.path.abspath(__file__))]
        + [p for p in [env.get("PYTHONPATH")] if p])
    script = ("import sys, test_meta\n"
              "for p in test_meta._pickled_grammars():\n"
              "    print(p.hex())\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().split() == [p.hex() for p in first]


def test_long_sequences_load():
    # Tree wrapping walks a sequence's right spine in a loop, so 3 000
    # guards in a row, and a 3 000-byte literal, load.
    def spine(e):
        items = []
        while type(e) is Seq:
            items.append(e.left)
            e = e.right
        return items + [e]

    x_leaf = Action(Terminal("x"), LEAF)
    guards = " ".join("!'%s'" % chr(97 + i % 26) for i in range(3000))
    items = spine(load_grammar("a <- %s 'x' ;" % guards)
                  .productions["a"].inner)
    assert len(items) == 3001 and items[-1] is x_leaf
    assert all(type(e) is Not for e in items[:-1])
    items = spine(load_grammar("a <- '%s' ;" % ("x" * 3000))
                  .productions["a"].inner)
    assert items == [x_leaf] * 3000


def test_long_choices_load_and_wrap():
    # Tree wrapping and the compiler walk with an explicit stack, so a
    # flat choice of 3 000 alternatives loads, certifies, and wraps
    # from the embedded API to the same productions.
    n = 3000
    g = load_grammar("a <- %s ;" % " / ".join("'a%d' 'x'" % i
                                               for i in range(n)))
    assert check_well_formed(g).is_well_formed
    alts = [Seq(Literal("a%d" % i), Literal("x")) for i in range(n)]
    body = alts[-1]
    for alt in reversed(alts[:-1]):
        body = Choice(alt, body)
    wrapped = tree_wrap(build_grammar([("a", body)], "a"))
    assert wrapped.productions["a"] is g.productions["a"]


@pytest.mark.parametrize("op,shaped", [
    (Star, Star),
    (Plus, lambda e: Seq(e, Star(e))),
], ids=["star", "plus"])
def test_deep_nesting_wraps(op, shaped):
    # 3 000 levels built through the API: tree wrapping recurses on none.
    body, want = Terminal("a"), Action(Terminal("a"), LEAF)
    for _ in range(3000):
        body, want = op(body), shaped(want)
    wrapped = tree_wrap(build_grammar([("a", body)], "a"))
    assert wrapped.productions["a"] is Action(want, node_action("a"))


def test_long_sequences_dump_and_reload():
    # Printing an expression walks it with an explicit stack, so a
    # sequence of any length dumps, and the dump loads to the same
    # grammar.
    for body in (" ".join("'%s'" % chr(97 + i % 26) for i in range(1000)),
                 " ".join("!'%s'" % chr(97 + i % 26) for i in range(3000))
                 + " 'x'"):
        g = load_grammar("a <- %s ;" % body)
        dumped = dump_grammar(g)
        assert load_grammar(dumped) == g
    assert dump_grammar(load_grammar("a <- 'a' 'b' 'c' ;")) == \
        "a <- [a] [b] [c] ;\n"


# Loader outcomes over malformed and truncated .peg text.  The golden
# file keeps the base texts it was made from (the bundled grammars when
# it was written), so reshaping peg.peg or any other bundled grammar
# leaves the corpus as it is.  Regenerate it with
# ``PYTHONPATH=src python tests/test_meta.py``.

_OUTCOMES = os.path.join(os.path.dirname(__file__), "golden",
                         "peg_load_outcomes.json")
_NOISE = b"()'\"[]-\\/!&~*+?;<.#" + b" \t\r\n"


def _loader_corpus(bases: dict):
    """(case, text): each base text, its truncations at every 7th byte,
    and 40 seeded one-byte flips and 40 inserts of a byte of _NOISE."""
    rng = random.Random(1)
    for name, text in bases.items():
        text = text.encode("utf-8")
        yield name, text
        for n in range(0, len(text), 7):
            yield "%s cut %d" % (name, n), text[:n]
        for k in range(40):
            i = rng.randrange(len(text))
            yield ("%s flip %d" % (name, k),
                   text[:i] + bytes([rng.choice(_NOISE)]) + text[i + 1:])
            i = rng.randrange(len(text) + 1)
            yield ("%s insert %d" % (name, k),
                   text[:i] + bytes([rng.choice(_NOISE)]) + text[i:])


def _load_outcome(text: bytes, dumps: list) -> dict:
    """The syntax error's position and message, the grammar error's
    message, or the index of the grammar's dump in ``dumps``."""
    try:
        g = load_grammar(text)
    except PegSyntaxError as exc:
        return {"syntax": [exc.pos, exc.line, exc.col], "message": str(exc)}
    except GrammarError as exc:
        return {"error": "%s: %s" % (type(exc).__name__, exc)}
    dump = dump_grammar(g)
    if dump not in dumps:
        dumps.append(dump)
    return {"dump": dumps.index(dump)}


def _loader_outcomes(bases: dict) -> dict:
    dumps = []
    outcomes = {case: _load_outcome(text, dumps)
                for case, text in _loader_corpus(bases)}
    return {"bases": bases, "dumps": dumps, "outcomes": outcomes}


def test_loader_outcomes_match_golden():
    # Every syntax error (byte, line, column and message), grammar error
    # and dump over 2 000 truncated, flipped and extended grammar texts
    # is the recorded one.
    with open(_OUTCOMES, encoding="utf-8") as fh:
        golden = json.load(fh)
    got = _loader_outcomes(golden["bases"])
    assert got["dumps"] == golden["dumps"]
    assert got["outcomes"].keys() == golden["outcomes"].keys()
    for case, want in golden["outcomes"].items():
        assert got["outcomes"][case] == want, case


def _write_loader_golden():
    """Record the outcomes over the bundled grammars as they are now,
    one case a line."""
    bases = {name[:-4]: grammar_text(name).decode("utf-8")
             for name in sorted(os.listdir(GRAMMAR_DIR))}
    doc = _loader_outcomes(bases)
    with open(_OUTCOMES, "w", encoding="utf-8") as fh:
        fh.write('{"bases": %s,\n"dumps": [\n%s],\n"outcomes": {\n%s}}\n' % (
            json.dumps(bases, indent=0),
            ",\n".join(map(json.dumps, doc["dumps"])),
            ",\n".join("%s: %s" % (json.dumps(case), json.dumps(out))
                        for case, out in doc["outcomes"].items())))


if __name__ == "__main__":
    _write_loader_golden()
