"""Textual grammar format: loading, bootstrap, round-trips, precedence."""

import random

import pytest

from trx import (ANY, Action, ActionRef, Choice, Drop, DuplicateRule, EmptyLiteral,
                 Grammar, InvalidRange, Literal, MemoTable, NonTerminal, Not,
                 Optional, PegSyntaxError, Seq, Star, Terminal,
                 UndefinedNonterminal, UnknownStart, build_grammar,
                 builtin_meta_grammar, check_well_formed, dump_grammar,
                 load_grammar, parse, parse_to_tree, tree_wrap)
from trx.meta import LEAF, line_col, node_action
from trx.oracle import EXHAUSTED, all_inputs, oracle_parse, random_grammar

from conftest import certified, grammar_text


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


def test_pragma_selects_start_and_last_wins():
    g = load_grammar("@start B ;\nA <- 'a' ;\nB <- 'b' ;")
    assert g.start == "B"
    g2 = load_grammar("@start A ;\n@start B ;\nA <- 'a' ;\nB <- 'b' ;")
    assert g2.start == "B"


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
    # The same rules in a grammar not marked tree-shaped run the
    # collector actions in the VM's value mode.
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
        plain = Grammar(dict(g.productions), g.start)
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
    # tree_wrap puts leaves on single bytes only; a hand-built leaf over
    # a longer match spans all of it and discards what is inside.
    g = Grammar({"A": Action(Seq(Action(Seq(NonTerminal("B"), ANY), LEAF),
                                 NonTerminal("B")), node_action("A")),
                 "B": Action(Terminal("b"), node_action("B"))},
                "A", tree_shaped=True)
    cert = check_well_formed(g).certificate
    for s in (b"bxb", b"bx", b"b"):
        _agrees_with_oracle_in_both_modes(g, cert, s)
    out = parse(g, cert, b"bxb")
    assert [(c.rule, c.start, c.end) for c in out.value.children] == [
        ("", 0, 2), ("B", 2, 3)]


def test_tree_shaped_grammar_wraps_every_rule():
    with pytest.raises(ValueError):
        Grammar({"A": Terminal("a")}, "A", tree_shaped=True)
    with pytest.raises(ValueError):
        Grammar({"A": Action(Terminal("a"), node_action("B"))}, "A",
                tree_shaped=True)
    with pytest.raises(ValueError):
        Grammar({"": Action(Terminal("a"), node_action(""))}, "",
                tree_shaped=True)
    # Tree mode runs no action but the tree shapers, so a user action
    # anywhere but under ! or ~ would be skipped.
    ident = ActionRef("id", lambda v: v)
    b_rule = Action(Action(Terminal("b"), LEAF), node_action("B"))
    a_leaf = Action(Terminal("a"), LEAF)
    with pytest.raises(ValueError):
        Grammar({"A": Action(Seq(Action(NonTerminal("B"), ident), a_leaf),
                             node_action("A")),
                 "B": b_rule}, "A", tree_shaped=True)
    with pytest.raises(ValueError):
        Grammar({"A": Action(Literal("ab"), node_action("A"))}, "A",
                tree_shaped=True)
    # The built-in shapers are known by their refs, not their labels.
    for label in ("drop", "tree.leaf"):
        fake = Action(Terminal("b"), ActionRef(label, lambda v: v))
        with pytest.raises(ValueError):
            Grammar({"A": Action(Seq(fake, a_leaf), node_action("A"))}, "A",
                    tree_shaped=True)
    for hidden in (Not(Action(NonTerminal("B"), ident)),
                   Drop(Action(NonTerminal("B"), ident))):
        g = Grammar({"A": Action(Seq(hidden, Seq(NonTerminal("B"), a_leaf)),
                                 node_action("A")),
                     "B": b_rule}, "A", tree_shaped=True)
        assert check_well_formed(g).is_well_formed


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
