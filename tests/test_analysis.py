"""Expression sets, property inference, well-formedness, certificates."""

import time

import pytest

from trx import (Certificate, Choice, EMPTY, Literal, NonTerminal, Not,
                 NotWellFormed, Range, Seq, Star, Terminal, build_grammar,
                 certify, check_well_formed, expression_set, infer_properties,
                 load_grammar, wf_measure)
from trx.analysis import (REASON_DEPENDS, REASON_LEFT_RECURSION,
                          REASON_NULLABLE_STAR, _on_cycles)
from trx.exprs import iter_subexprs
from trx.mathdemo import left_recursive_math_rules, math_rules
from trx.oracle import EXHAUSTED, all_inputs, oracle_eval, small_grammars


def test_expression_set_trivial_cases():
    g = build_grammar([("A", EMPTY)], "A")
    assert list(expression_set(g)) == [EMPTY]

    g2 = build_grammar([("A", NonTerminal("A"))], "A")
    assert list(expression_set(g2)) == [NonTerminal("A")]


def test_expression_set_math_grammar_members():
    g = build_grammar(math_rules(), "expr")
    exprs = expression_set(g)
    assert Star(Choice(Terminal(" "), Terminal("\t"))) in exprs
    assert Choice(Terminal(" "), Terminal("\t")) in exprs
    assert Range("0", "9") in exprs
    assert NonTerminal("expr") in exprs
    # every Seq spine node of every production body is present
    for name in g.nonterminals:
        for sub in iter_subexprs(g.productions[name]):
            assert sub in exprs


def test_expression_set_closed_under_children():
    g = build_grammar(math_rules(), "expr")
    exprs = expression_set(g)
    for e in exprs:
        for sub in iter_subexprs(e):
            assert sub in exprs


def test_property_table_domain_and_examples():
    g = build_grammar(math_rules(), "expr")
    table = infer_properties(g)
    assert set(table.exprs) == set(expression_set(g))

    ws_body = Star(Choice(Terminal(" "), Terminal("\t")))
    assert table[ws_body] == (True, True, False)

    rng = Range("0", "9")
    assert table[rng] == (False, True, True)


def test_property_of_empty_expression():
    g = build_grammar([("E", Choice(Terminal("a"), EMPTY))], "E")
    table = infer_properties(g)
    assert table[EMPTY] == (True, False, False)


def test_not_empty_can_never_succeed():
    g = build_grammar([("A", Not(EMPTY))], "A")
    table = infer_properties(g)
    assert table[Not(EMPTY)] == (False, False, True)


def test_math_grammar_well_formed():
    report = check_well_formed(build_grammar(math_rules(), "expr"))
    assert report.is_well_formed
    assert not report.offenders
    assert isinstance(report.certificate, Certificate)


def test_left_recursive_variant_rejected_with_expr_offender():
    report = check_well_formed(
        build_grammar(left_recursive_math_rules(), "expr"))
    assert not report.is_well_formed
    assert report.certificate is None
    prods = {o.production for o in report.offenders}
    assert "expr" in prods
    expr_reasons = {o.reason for o in report.offenders
                    if o.production == "expr"}
    assert REASON_LEFT_RECURSION in expr_reasons


def test_not_eps_guard_accepted_by_full_rejected_by_simplified():
    g = build_grammar([("A", Seq(Not(EMPTY), NonTerminal("A")))], "A")
    assert check_well_formed(g).is_well_formed
    assert not check_well_formed(g, simplified=True).is_well_formed


def test_nullable_star_rejected():
    g = build_grammar([("A", Star(EMPTY))], "A")
    report = check_well_formed(g)
    assert not report.is_well_formed
    reasons = {o.reason for o in report.offenders}
    assert reasons == {REASON_NULLABLE_STAR}
    assert not check_well_formed(g, simplified=True).is_well_formed


def test_dependent_ill_formedness_reason():
    g = build_grammar([("B", NonTerminal("C")), ("C", Star(EMPTY))], "B")
    report = check_well_formed(g)
    assert not report.is_well_formed
    by_expr = {(o.production, o.reason) for o in report.offenders}
    assert ("B", REASON_DEPENDS) in by_expr
    assert ("C", REASON_NULLABLE_STAR) in by_expr


def test_wf_measure():
    g = build_grammar(math_rules(), "expr")
    exprs = expression_set(g)
    assert wf_measure({}, g) == len(exprs)
    assert wf_measure(exprs, g) == 0
    partial = dict.fromkeys(list(exprs)[: len(exprs) // 2])
    assert wf_measure(partial, g) == len(exprs) - len(partial)


def test_iteration_count_bounded_by_expression_set():
    for rules in (math_rules(), left_recursive_math_rules()):
        g = build_grammar(rules, "expr")
        report = check_well_formed(g)
        assert report.iterations <= report.expr_count + 1


def test_nested_chain_closes_in_few_property_sweeps():
    # A 3 000-item chain under ! closes in one worklist pass per
    # fixpoint.  The report's iterations keep the round-robin count.
    g = load_grammar("a <- !(%s) 'x' ;" % ("[ab] " * 3000))
    report = check_well_formed(g)
    assert report.is_well_formed
    assert report.iterations == 7


def _call_chain(n, deepest_first):
    """r0 <- 'a0' / r1 ; ... ; r<n-1> <- 'a<n-1>' ; in either order."""
    rules = [("r%d" % i, Choice(Literal("a%d" % i),
                                NonTerminal("r%d" % (i + 1))))
             for i in range(n - 1)]
    rules.append(("r%d" % (n - 1), Literal("a%d" % (n - 1))))
    if deepest_first:
        rules.reverse()
    return build_grammar(rules, "r0")


@pytest.mark.parametrize("deepest_first, iterations",
                         [(False, 6001), (True, 3003)])
def test_call_chain_certifies_in_linear_time(deepest_first, iterations):
    # A round-robin sweep settles about one rule of the chain, so the
    # report counts thousands of sweeps, but each fixpoint is one pass:
    # a sweep per rule made this take 20-40 s.
    g = _call_chain(3000, deepest_first)
    start = time.perf_counter()
    report = check_well_formed(g)
    elapsed = time.perf_counter() - start
    assert report.is_well_formed and report.certificate is not None
    assert report.iterations == iterations
    assert elapsed < 5


def test_left_recursive_chain_reports_offenders_in_linear_time():
    # Every rule of a 2 000-rule call chain depends on the left-recursive
    # last one.  One strongly-connected-components pass over the blocker
    # graph finds the cycle; a search from every ill expression took
    # about 4 s here.
    n = 2000
    text = "".join("r%d <- 'a%d' / r%d ;\n" % (i, i, i + 1)
                   for i in range(n - 1))
    g = load_grammar(text + "r%d <- r%d 'x' / 'y' ;" % (n - 1, n - 1))
    start = time.perf_counter()
    report = check_well_formed(g)
    elapsed = time.perf_counter() - start
    assert not report.is_well_formed and len(report.offenders) == 3 * n + 1
    # The call of the last rule (first met in the rule before it), and
    # the last rule's body, choice and sequence are on the cycle.
    suspects = [o.production for o in report.offenders
                if o.reason == REASON_LEFT_RECURSION]
    assert suspects == ["r%d" % (n - 2)] + ["r%d" % (n - 1)] * 4
    assert elapsed < 2


def test_cycle_search_finds_components_and_self_loops():
    edges = {"a": ["b"], "b": ["c", "e"], "c": ["a"], "d": ["d", "a"],
             "e": ["f"], "f": []}
    assert _on_cycles(edges) == {"a", "b", "c", "d"}
    assert _on_cycles({}) == set()


def test_certificate_not_publicly_constructible():
    g = build_grammar(math_rules(), "expr")
    with pytest.raises(TypeError):
        Certificate(g)
    with pytest.raises(TypeError):
        Certificate(g, key=object())


def test_certify_raises_on_ill_formed():
    with pytest.raises(NotWellFormed):
        certify(build_grammar(left_recursive_math_rules(), "expr"))


def test_simplified_mode_assumes_consume_and_fail():
    g = build_grammar(math_rules(), "expr")
    table = check_well_formed(g, simplified=True).properties
    for e in table.exprs:
        assert table.can_consume(e)
        assert table.can_fail(e)


def test_property_soundness_against_oracle_sample():
    # Lemma-style check on a slice of the stream: any behavior the
    # oracle exhibits implies the corresponding inferred flag.
    inputs = all_inputs("ab", 3)
    checked = 0
    for g in small_grammars("ab", 2, seed=5, limit=40):
        table = infer_properties(g)
        for e in table.exprs:
            for s in inputs:
                out = oracle_eval(g, e, s, 0, fuel=2000)
                if out is EXHAUSTED:
                    continue
                checked += 1
                if out.ok and out.pos == 0:
                    assert table.can_empty(e), (g, e, s)
                elif out.ok:
                    assert table.can_consume(e), (g, e, s)
                else:
                    assert table.can_fail(e), (g, e, s)
    assert checked > 1000
