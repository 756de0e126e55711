"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Criterion 7 parses a generated 1/2/4 MB corpus five times per size and
dominates the suite's runtime.
"""

import contextlib
import json
import os
import time

from trx import (EMPTY, NonTerminal, Not, Seq, Star, build_grammar,
                 builtin_meta_grammar, check_well_formed, load_grammar,
                 parse, parse_to_tree)
from trx.bench import run_bench, xmark_lite
from trx.cli import main as cli_main
from trx.mathdemo import evaluate, left_recursive_math_rules
from trx.selftest import (completeness_suite, differential_suite,
                          mode_equivalence_suite, property_soundness_suite)
from trx.values import tree_to_json

from conftest import certified, grammar_path, grammar_text


@contextlib.contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print("ACCEPTANCE %2d  FAIL  %s" % (number, title))
        raise
    print("ACCEPTANCE %2d  PASS  %s" % (number, title))


def test_criterion_1_semantics_fidelity():
    with criterion(1, "oracle/interpreter exact agreement, >=10k cases <60s"):
        t0 = time.perf_counter()
        res = differential_suite(alphabet="ab", max_productions=4,
                                 max_input_len=6, min_cases=10_000, seed=0)
        elapsed = time.perf_counter() - t0
        assert res.cases >= 10_000
        assert res.passed, res.failures[:3]
        assert elapsed < 60.0, "differential stream took %.1fs" % elapsed


def test_criterion_2_math_value():
    with criterion(2, "math grammar evaluates '(1+2) * (3 * 4)' to 36"):
        assert evaluate("(1+2) * (3 * 4)") == 36


def test_criterion_3_well_formedness_verdicts():
    with criterion(3, "four exact well-formedness verdicts"):
        math_g = load_grammar(grammar_text("math.peg"))
        assert check_well_formed(math_g).is_well_formed            # (a)

        bad = build_grammar(left_recursive_math_rules(), "expr")
        report = check_well_formed(bad)                            # (b)
        assert not report.is_well_formed
        assert "expr" in {o.production for o in report.offenders}

        guarded = build_grammar(
            [("A", Seq(Not(EMPTY), NonTerminal("A")))], "A")       # (c)
        assert check_well_formed(guarded).is_well_formed
        assert not check_well_formed(guarded, simplified=True).is_well_formed

        star_eps = build_grammar([("A", Star(EMPTY))], "A")        # (d)
        report = check_well_formed(star_eps)
        assert not report.is_well_formed
        assert {o.reason for o in report.offenders} == {"NullableStar"}


def test_criterion_4_completeness_on_random_inputs():
    with criterion(4, "certified grammars return outcomes on 1000 random "
                      "inputs (<=256 bytes) each, no defensive firings"):
        res = completeness_suite(n_grammars=30, inputs_per_grammar=1000,
                                 max_len=256, seed=1, per_case_ceiling=10.0)
        assert res.passed, res.failures[:3]
        assert res.cases >= 30 * 1000


def test_criterion_5_property_soundness():
    with criterion(5, "observed oracle behavior implies inferred flags"):
        res = property_soundness_suite(alphabet="ab", max_productions=4,
                                       max_input_len=4, max_grammars=200,
                                       seed=0)
        assert res.passed, res.failures[:3]
        assert res.cases > 10_000


def test_criterion_6_determinism_and_mode_equivalence():
    with criterion(6, "plain vs packrat byte-identical incl. steps, "
                      "1000 random certified cases"):
        res = mode_equivalence_suite(n_cases=1000, seed=2)
        assert res.passed, res.failures[:3]
        assert res.cases == 1000


def test_criterion_7_linear_scaling():
    with criterion(7, "xml-lite parse time ratio per input doubling "
                      "in [1.6, 2.6], median of 5"):
        t0 = time.perf_counter()
        g, cert = certified("xml-lite.peg")
        corpora = [(label, xmark_lite(size, seed=0))
                   for label, size in (("1M", 1 << 20), ("2M", 2 << 20),
                                       ("4M", 4 << 20))]
        # run_bench parses the sizes in interleaved rounds, so that a
        # slow stretch of a shared machine slows all three alike.
        rows = run_bench(g, cert, corpora, mode="plain", reps=5)
        total = time.perf_counter() - t0
        for row in rows:
            assert row["ok"], row
        # Processor time, which a shared machine's other load inflates
        # far less than wall time.
        ratios = [rows[1]["cpuMedianSeconds"] / rows[0]["cpuMedianSeconds"],
                  rows[2]["cpuMedianSeconds"] / rows[1]["cpuMedianSeconds"]]
        # corpus sizes are approximate; normalize to exact byte doubling
        ratios[0] *= (2 * rows[0]["bytes"]) / rows[1]["bytes"]
        ratios[1] *= (2 * rows[1]["bytes"]) / rows[2]["bytes"]
        for r in ratios:
            assert 1.6 <= r <= 2.6, "scaling ratio %.2f out of range" % r
        assert total < 300.0, "benchmark took %.0fs" % total


def test_criterion_8_bootstrap():
    with criterion(8, "peg.peg checks clean and reloads to the built-in "
                      "meta-grammar"):
        assert cli_main(["check", grammar_path("peg.peg")]) == 0

        builtin, _ = builtin_meta_grammar()
        text = grammar_text("peg.peg")
        loaded = load_grammar(text)
        assert loaded == builtin
        assert loaded.nonterminals == builtin.nonterminals

        # the loaded grammar, used as the active parser, re-parses its own
        # source; lowering that tree again reproduces the same grammar
        report = check_well_formed(loaded)
        out = parse_to_tree(loaded, report.certificate, text)
        assert out.ok and out.pos == len(text)
        again = load_grammar(text)
        assert again == builtin


def test_criterion_9_micro_behaviors():
    with criterion(9, "reserved-word and dangling-else micro-behaviors"):
        g, cert = certified("reserved.peg")
        out = parse(g, cert, b"ifs")
        assert out.ok and out.pos == 3          # "ifs" is an identifier
        assert not parse(g, cert, b"if").ok     # "if" is reserved

        g, cert = certified("dangling.peg")
        src = b"if (a) if (b) s1; else s2;"
        out = parse_to_tree(g, cert, src)
        assert out.ok and out.pos == len(src)
        doc = tree_to_json(out.value, src)
        golden_path = os.path.join(os.path.dirname(__file__), "golden",
                                   "dangling_tree.json")
        assert doc == json.load(open(golden_path))
        # and structurally: the else-part hangs off the inner if
        outer_if = out.value.children[0]
        inner_if = outer_if.children[1].children[0]
        assert [c.rule for c in outer_if.children] == ["cond", "stmt"]
        assert [c.rule for c in inner_if.children] == ["cond", "stmt",
                                                       "elsepart"]


def test_criterion_10_wf_check_performance():
    with criterion(10, "200-rule grammar checks in under 5 seconds"):
        t0 = time.perf_counter()
        g = load_grammar(grammar_text("synth200.peg"))
        report = check_well_formed(g)
        elapsed = time.perf_counter() - t0
        assert len(g.nonterminals) == 200
        assert report.is_well_formed
        assert elapsed < 5.0, "check took %.2fs" % elapsed
