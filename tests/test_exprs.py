"""Expression algebra: derived operators, grammar assembly, hash-consed
identity."""

import copy
import gc
import os
import pickle
import random
import sys
import threading
import warnings
import weakref

import pytest

from trx import (ANY, Action, ActionRef, And, AnyChar, CharClass, Choice,
                 Drop, DuplicateRule, EMPTY, Empty, EmptyClass, EmptyLiteral,
                 Grammar, InvalidRange, Literal, NonTerminal, Not, Optional, Plus,
                 Range, Seq, Star, Terminal, UndefinedNonterminal,
                 UnknownStart, build_grammar, check_well_formed, eval_expr,
                 expr_text, iter_subexprs, load_grammar)
from trx import exprs
from trx.exprs import CONS, DROP, NONE, NodeRef, SOME, TUPLE2STR
from trx.oracle import EXHAUSTED, oracle_eval
from trx.mathdemo import math_rules


def test_literal_desugars_to_terminal_chain_with_string_action():
    d = Literal("if")
    assert d == Action(Seq(Terminal("i"), Terminal("f")), TUPLE2STR)


def test_and_desugars_to_double_negation():
    assert And(AnyChar()) == Not(Not(AnyChar()))


def test_single_range_class_desugars_to_range():
    assert CharClass([("0", "9")]) == Range("0", "9")


def test_single_char_class_desugars_to_terminal():
    assert CharClass(["x"]) == Terminal("x")


def test_class_desugar_is_right_nested_in_source_order():
    d = CharClass([("a", "z"), ("A", "Z"), "_"])
    assert d == Choice(Range("a", "z"), Choice(Range("A", "Z"), Terminal("_")))


def test_plus_optional_drop_desugarings():
    t = Terminal("a")
    plus = Plus(t)
    assert plus == Action(Seq(t, Star(t)), CONS)
    assert plus.inner.left is plus.inner.right.inner is t
    assert Optional(t) == Choice(Action(t, SOME), Action(EMPTY, NONE))
    assert Drop(t) == Action(t, DROP)


_CORE = (Empty, AnyChar, Terminal, Range, NonTerminal, Seq, Choice, Star,
         Not, Action)


def test_derived_operators_build_core_expressions():
    inner = Seq(NonTerminal("A"), Star(Range("a", "z")))
    for e in (Literal("if"), Literal(b"\x00\xff"), Plus(inner),
              Optional(inner), And(inner), Drop(inner),
              CharClass([("a", "z"), "_", ("0", "9")]),
              Plus(Optional(And(Drop(Literal("x")))))):
        assert all(type(sub) in _CORE for sub in iter_subexprs(e)), e


def test_empty_literal_rejected():
    with pytest.raises(EmptyLiteral):
        Literal("")


def test_literal_rejects_non_text():
    # bytes(3) is three NUL bytes and bytes(0) is empty; neither is the
    # text of a literal.
    for bad in (3, 0, None, [97]):
        with pytest.raises(TypeError):
            Literal(bad)
    assert Literal(bytearray(b"ab")) == Literal("ab") == Literal(b"ab")


def test_invalid_range_rejected():
    with pytest.raises(InvalidRange):
        CharClass([("z", "a")])
    with pytest.raises(InvalidRange):
        Range("9", "0")


def test_empty_class_rejected():
    with pytest.raises(EmptyClass):
        CharClass([])


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


def test_desugar_matches_hand_expansion_behavior():
    # Each derived operator builds its defining expansion, written out
    # by hand, and the interpreter runs it as the oracle does over every
    # short input.
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
        pairs.append((Literal("ab"),
                      Action(Seq(Terminal("a"), Terminal("b")), TUPLE2STR)))
        for sugar, hand in pairs:
            assert sugar == hand
            for s in inputs:
                want = oracle_eval(None, sugar, s, fuel=2_000)
                try:
                    got = eval_expr(sugar, s)
                except AssertionError:
                    # a nullable-star loop aborts the interpreter and
                    # exhausts the oracle's fuel
                    assert want is EXHAUSTED
                    continue
                assert got == want


def test_action_identity_is_by_label_and_function():
    f = lambda v: v  # noqa: E731
    a1 = Action(EMPTY, ActionRef("f", f))
    assert Action(EMPTY, ActionRef("f", f)) is a1
    # One label with another function must not hand over the first one.
    a2 = Action(EMPTY, ActionRef("f", lambda v: None))
    assert a2 is not a1 and a2 != a1
    assert Action(EMPTY, ActionRef("g", f)) is not a1
    assert Action(EMPTY, ActionRef("f", f, span_aware=True)) is not a1


def test_action_function_need_not_be_hashable():
    class Pick:
        __hash__ = None

        def __call__(self, v):
            return v

    pick = Pick()
    a = Action(EMPTY, ActionRef("p", pick))
    assert Action(EMPTY, ActionRef("p", pick)) is a
    assert Action(EMPTY, ActionRef("p", Pick())) is not a


def _build_all():
    inner = Seq(NonTerminal("A"), Star(Range("a", "z")))
    return [Empty(), AnyChar(), Terminal("a"), Terminal(b"a"), Range("a", "z"),
            NonTerminal("A"), inner, Choice(inner, EMPTY), Star(inner),
            Not(inner), Action(inner, CONS), Literal("if"), Plus(inner),
            Optional(inner), And(inner), Drop(inner),
            CharClass([("a", "z"), "_"])]


def test_equal_structure_is_the_same_node():
    first, second = _build_all(), _build_all()
    for a, b in zip(first, second):
        assert a is b, a
    assert Terminal("a") is Terminal(97) is Terminal(b"a")
    assert Literal("ab") is Literal(b"ab") is Literal(bytearray(b"ab"))
    assert len({id(e) for e in first}) == len(first) - 1  # Terminal twice


def test_deep_equal_literals_are_one_node():
    text = b"ab" * 1500
    a, b = Literal(text), Literal(bytes(text))
    assert a is b and a == b and hash(a) == hash(b)
    g = build_grammar([("S", Choice(a, b))], "S")
    report = check_well_formed(g)
    assert report.is_well_formed
    # The choice, the action, 2 999 spine nodes and two terminals.
    assert report.expr_count == 1 + 1 + 2999 + 2


def test_threads_build_identical_nodes():
    # More threads than cores and a short switch interval, so that the
    # threads often race to make the same new node; a lost race would
    # leave two nodes for one structure.
    barrier = threading.Barrier(4, timeout=60)
    results = [None] * 4

    def build(slot):
        barrier.wait()
        results[slot] = [Seq(NonTerminal("race%d" % i), Literal("x%d" % i))
                         for i in range(2000)]

    threads = [threading.Thread(target=build, args=(i,)) for i in range(4)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    for nodes in results[1:]:
        assert all(a is b for a, b in zip(nodes, results[0]))
    assert results[0][7] is Seq(NonTerminal("race7"), Literal("x7"))


def test_unheld_node_is_freed():
    ref = weakref.ref(Seq(Terminal("q"), NonTerminal("unheld_node")))
    gc.collect()
    assert ref() is None


def test_intern_table_drops_dead_and_rejected_nodes():
    start = len(exprs._NODES)
    for i in range(10_000):
        Seq(NonTerminal("gone%d" % i), Star(Terminal(i % 256)))
    assert len(exprs._NODES) == start
    held = [Seq(NonTerminal("held%d" % i), ANY) for i in range(100)]
    assert len(exprs._NODES) == start + 200
    del held
    assert len(exprs._NODES) == start
    # A node whose fields are rejected is never entered.
    name = NonTerminal("rejected")
    with pytest.raises(TypeError):
        Seq(name, "b")
    assert len(exprs._NODES) == start + 1


def test_nodes_are_immutable():
    e = Seq(Terminal("a"), Terminal("b"))
    with pytest.raises(AttributeError):
        e.left = Terminal("c")
    with pytest.raises(AttributeError):
        Terminal("a").code = 98
    with pytest.raises(AttributeError):
        del e.right
    assert expr_text(e) == "[a] [b]"


def test_pickle_and_copy_return_the_interned_node():
    for e in (Literal("if"), Choice(Plus(Range("0", "9")), EMPTY),
              NonTerminal("A"), ANY, Literal("ab" * 2000)):
        assert copy.copy(e) is e
        assert copy.deepcopy(e) is e
    for e in (Literal("if"), Choice(Plus(Range("0", "9")), EMPTY)):
        assert pickle.loads(pickle.dumps(e)) is e


def test_deep_expressions_pickle_to_the_interned_nodes():
    # Pickling writes a flat table of nodes, not one call per level: a
    # loaded choice of 3 000 alternatives and a 3 000-deep expression
    # built through the API round-trip to the live nodes.
    g = load_grammar("a <- " + " / ".join("'a%d' 'x'" % i for i in range(3000))
                     + " ;")
    again = pickle.loads(pickle.dumps(g))
    assert again == g and again.productions["a"] is g.productions["a"]
    e = Terminal("x")
    for i in range(3000):
        e = (Seq(Terminal(97 + i % 26), e), Choice(Range(i % 256, 255), e),
             Not(e), Drop(e))[i % 4]
    assert pickle.loads(pickle.dumps(e)) is e
    # A node held twice, also by two rules, is one record of the table.
    shared = Seq(Literal("ab"), NonTerminal("A"))
    e = Choice(Seq(shared, Terminal("c")), shared)
    assert pickle.loads(pickle.dumps(e)) is e
    assert len(e.__reduce__()[1][0]) == len(set(iter_subexprs(e))) == 9
    g = build_grammar([("A", e), ("B", shared)], "A")
    assert len(g.__reduce__()[1][0]) == 9
    again = pickle.loads(pickle.dumps(g))
    assert again == g and again.productions["B"] is shared


def test_children_must_be_expressions():
    for bad in (lambda: Seq(Terminal("a"), "b"), lambda: Choice(None, EMPTY),
                lambda: Star("a"), lambda: Not(3),
                lambda: Action("a", CONS)):
        with pytest.raises(TypeError):
            bad()


def test_exprs_work_as_dict_keys():
    table = {Seq(Terminal("a"), Star(Terminal("b"))): 1}
    assert table[Seq(Terminal("a"), Star(Terminal("b")))] == 1
    assert Star(Terminal("b")) not in table


def test_build_grammar_math_rules():
    g = build_grammar(math_rules(), "expr")
    assert len(g.nonterminals) == 5
    assert g.start == "expr"
    assert set(g.nonterminals) == {"ws", "number", "term", "factor", "expr"}
    assert build_grammar(math_rules(), "expr") == g


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
    # Deleting a field does not open it to a new value either.
    with pytest.raises(AttributeError):
        del g.start
    assert g.start == "A"
    assert g.productions["A"] == EMPTY


def test_build_grammar_undefined_reference():
    rules = [(n, b) for n, b in math_rules()]
    rules[3] = ("factor", Seq(NonTerminal("termX"), NonTerminal("factor")))
    with pytest.raises(UndefinedNonterminal) as exc:
        build_grammar(rules, "expr")
    assert exc.value.name == "termX"
    assert exc.value.referenced_from == "factor"


def test_grammar_constructor_checks_totality():
    # The constructor, not only build_grammar, keeps the production map
    # total, so an analysis never meets a missing rule.
    with pytest.raises(UndefinedNonterminal) as exc:
        Grammar({"a": NonTerminal("b")}, "a")
    assert (exc.value.name, exc.value.referenced_from) == ("b", "a")
    with pytest.raises(UnknownStart):
        Grammar({"a": Terminal("x")}, "zzz")
    # Undefined references come before an unknown start, and are found
    # under ! and ~ too.
    for hidden in (Not(NonTerminal("b")), Drop(NonTerminal("b"))):
        with pytest.raises(UndefinedNonterminal):
            Grammar({"a": Seq(hidden, Terminal("x"))}, "zzz")


def test_build_grammar_duplicate_and_bad_start():
    with pytest.raises(DuplicateRule):
        build_grammar([("A", EMPTY), ("A", ANY)], "A")
    with pytest.raises(UnknownStart):
        build_grammar([("A", EMPTY)], "B")
    with pytest.raises(TypeError):
        build_grammar([("A", "x")], "A")


def test_grammar_constructor_rejects_non_expressions():
    # The constructor's walk checks each body's type, in rule order with
    # the references, so no analysis meets a body that is not an
    # expression; build_grammar adds only the duplicate check.
    with pytest.raises(TypeError):
        Grammar({"a": "x"}, "a")
    with pytest.raises(TypeError):
        Grammar({"a": Terminal("x"), "b": None}, "a")
    with pytest.raises(TypeError):
        Grammar({"a": "x", "b": NonTerminal("zz")}, "a")
    with pytest.raises(UndefinedNonterminal):
        Grammar({"a": NonTerminal("zz"), "b": "x"}, "a")
    with pytest.raises(DuplicateRule):
        build_grammar([("A", "x"), ("A", EMPTY)], "A")


def _module_level_fn(v):
    return v


def test_action_refs_pickle_and_copy():
    # The built-in refs are known by identity, so each unpickles and
    # copies as itself; an embedder's ref unpickles as a ref of its
    # label, function and flag, whose nodes are the original's.
    for ref in (exprs.TUPLE2STR, exprs.CONS, exprs.SOME, exprs.NONE,
                exprs.DROP, exprs.LEAF):
        assert pickle.loads(pickle.dumps(ref)) is ref
        assert copy.copy(ref) is ref and copy.deepcopy(ref) is ref
    ref = ActionRef("mine", _module_level_fn, span_aware=True)
    again = pickle.loads(pickle.dumps(ref))
    assert (again.label, again.fn, again.span_aware) == (
        "mine", _module_level_fn, True)
    node = Action(Terminal("a"), ref)
    assert pickle.loads(pickle.dumps(node)) is node


def test_node_collectors_are_keyed_by_rule():
    # A node collector is a NodeRef: an Action over one is keyed by its
    # rule, so two collectors of one rule make one node, and one
    # pickles as its rule.
    body = Seq(Terminal("a"), NonTerminal("b"))
    node = Action(body, NodeRef("r"))
    assert Action(body, NodeRef("r")) is node
    assert Action(body, NodeRef("s")) is not node
    assert node.ref.label == "tree.node:r" and node.ref.span_aware
    look_alike = ActionRef("tree.node:r", node.ref.fn, span_aware=True)
    assert Action(body, look_alike) is not node
    again = pickle.loads(pickle.dumps(node.ref))
    assert type(again) is NodeRef and again.rule == "r"
    assert pickle.loads(pickle.dumps(node)) is node
    assert copy.deepcopy(node) is node
    with pytest.raises(ValueError):
        NodeRef("")


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
    # ``e e*`` with one ``e`` node is ``e+``, with the cons action or not.
    x = Choice(Terminal("a"), NonTerminal("b"))
    assert expr_text(Seq(x, Star(x))) == "([a] / b)+"
    assert expr_text(Plus(x)) == "([a] / b)+"
    assert expr_text(Star(Seq(x, Star(x)))) == "(([a] / b)+)*"
    other = Choice(Terminal("a"), NonTerminal("c"))
    assert expr_text(Seq(x, Star(other))) == "([a] / b) ([a] / c)*"


def test_expr_text_knows_built_in_actions_by_identity():
    # Only the built-in drop, tuple2str, some and none print as ``~``, a
    # literal and ``?``; an embedder's action with one of their labels
    # is transparent, as every other embedder action is.
    ab = Seq(Terminal("a"), Terminal("b"))
    assert expr_text(Drop(ab)) == "~([a] [b])"
    assert expr_text(Literal("ab")) == "'ab'"
    assert expr_text(Optional(ab)) == "([a] [b])?"
    f = ActionRef("probe", lambda v: v).fn
    like = {label: ActionRef(label, f)
            for label in ("drop", "tuple2str", "some", "none")}
    assert expr_text(Action(ab, like["drop"])) == "[a] [b]"
    assert expr_text(Seq(Action(ab, like["drop"]), ANY)) == "([a] [b]) ."
    assert expr_text(Action(ab, like["tuple2str"])) == "[a] [b]"
    assert expr_text(Choice(Action(ab, like["some"]),
                            Action(EMPTY, like["none"]))) == "[a] [b] / eps"


def test_expr_text_of_deep_expressions():
    # An explicit stack: no recursion per level of nesting.
    e = Terminal("x")
    for _ in range(3 * sys.getrecursionlimit()):
        e = Not(e)
    assert expr_text(e) == "!" * (3 * sys.getrecursionlimit()) + "[x]"
    e, want = Terminal("x"), "[x]"
    for _ in range(3 * sys.getrecursionlimit()):
        e, want = Seq(Terminal("a"), Choice(e, EMPTY)), "[a] (%s / eps)" % want
    assert expr_text(e) == want


def test_iter_subexprs_yields_each_node_once():
    # Nested + holds each level twice; the walk visits it once, in the
    # order of first occurrences.
    e = Terminal("x")
    for _ in range(40):
        e = Plus(e)
    subs = list(iter_subexprs(e))
    assert len(subs) == len(set(subs)) == 3 * 40 + 1
    assert list(iter_subexprs(Seq(e, Choice(e, ANY)))) == [
        Seq(e, Choice(e, ANY)), *subs, Choice(e, ANY), ANY]



def test_readme_library_quickstart_runs(capsys, monkeypatch):
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    section = readme.split("## Library quickstart", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(root)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        exec(compile(block, "README.md", "exec"), {})
        gc.collect()
    assert capsys.readouterr().out.split("\n") == ["True 11 197", "42", ""]
    # The block closes every file it opens.
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
