"""CLI surface: exit codes, JSON schemas, flags."""

import io
import json
import os
import sys

import pytest

from trx import check_well_formed, load_grammar, parse, tree_to_json
from trx.bench import run_bench
from trx.cli import main

from conftest import certified, grammar_path

LEFT_RECURSIVE_MATH = """\
@start expr ;
ws     <- (' ' / '\\t')* ;
number <- [0-9]+ ;
term   <- ws number ws / ws '(' expr ')' ws ;
factor <- term '*' factor / term ;
expr   <- expr '+' factor / factor ;
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def validate_tree_schema(doc):
    assert isinstance(doc["start"], int) and isinstance(doc["end"], int)
    if "rule" in doc:
        assert isinstance(doc["rule"], str)
        for child in doc["children"]:
            validate_tree_schema(child)
        assert set(doc) == {"rule", "start", "end", "children"}
    else:
        assert isinstance(doc["text"], str)
        assert set(doc) == {"text", "start", "end"}


def test_check_math_grammar_ok(capsys):
    code, out, _ = run(capsys, "check", grammar_path("math.peg"))
    assert code == 0
    doc = json.loads(out)
    assert doc["wellFormed"] is True
    assert doc["offenders"] == []
    assert doc["expressionCount"] == doc["wellFormedCount"]


def test_check_left_recursive_variant(capsys, tmp_path):
    path = tmp_path / "leftrec.peg"
    path.write_text(LEFT_RECURSIVE_MATH)
    code, out, _ = run(capsys, "check", str(path))
    assert code == 1
    doc = json.loads(out)
    assert doc["wellFormed"] is False
    prods = {o["production"] for o in doc["offenders"]}
    assert "expr" in prods
    expr_offenders = [o for o in doc["offenders"] if o["production"] == "expr"]
    assert any(o["reason"] == "LeftRecursionSuspected" for o in expr_offenders)
    assert all("line" in o for o in doc["offenders"])


def test_check_reports_long_ill_formed_sequence(capsys, tmp_path):
    # The offender's text is printed without recursion per item, so the
    # verdict is reported (exit 1), not "nested too deeply" (exit 2).
    items = " ".join("'%s'" % chr(97 + i % 26) for i in range(3000))
    path = tmp_path / "long.peg"
    path.write_text("a <- eps* %s ;" % items)
    code, out, err = run(capsys, "check", str(path))
    assert code == 1 and "Traceback" not in err
    doc = json.loads(out)
    assert doc["wellFormed"] is False
    texts = [o["expression"] for o in doc["offenders"]]
    assert "eps*" in texts
    assert any(t.startswith("eps* [a] [b]") for t in texts)


def test_check_simplified_mode_diverges_on_guarded_recursion(capsys, tmp_path):
    path = tmp_path / "guard.peg"
    path.write_text("A <- !eps A ;")
    code, _, _ = run(capsys, "check", str(path))
    assert code == 0
    code, _, _ = run(capsys, "check", "--simplified", str(path))
    assert code == 1


def test_check_missing_file(capsys):
    code, _, err = run(capsys, "check", "/nonexistent/g.peg")
    assert code == 2
    assert "cannot read" in err


def test_check_syntax_error(capsys, tmp_path):
    path = tmp_path / "bad.peg"
    path.write_text("A <- ")
    code, _, err = run(capsys, "check", str(path))
    assert code == 2
    assert "syntax error" in err


def test_parse_tree_json(capsys, tmp_path):
    inp = tmp_path / "inp.xml"
    inp.write_bytes(b"<a><b/></a>")
    code, out, _ = run(capsys, "parse", grammar_path("xml-lite.peg"),
                       str(inp), "--json")
    assert code == 0
    doc = json.loads(out)
    validate_tree_schema(doc)
    assert doc["rule"] == "element"
    golden = json.load(open(os.path.join(os.path.dirname(__file__), "golden",
                                         "xml_lite_tree.json")))
    assert doc == golden


def test_parse_tree_too_deep_to_render(capsys, tmp_path):
    # Accepted and 300 levels deep.  The text rendering walks the tree
    # with a stack and prints it, and --json writes its text with a
    # stack too: exactly what json.dumps writes, given the recursion
    # depth it needs.
    depth = 300
    inp = tmp_path / "deep.xml"
    inp.write_bytes(b"<doc>" + b"<e>" * depth + b"x" + b"</e>" * depth
                    + b"</doc>")
    data = inp.read_bytes()
    size = len(data)
    code, out, err = run(capsys, "parse", grammar_path("xml-lite.peg"),
                         str(inp))
    assert code == 0 and "Traceback" not in err
    lines = out.splitlines()
    assert lines[0] == "element [0:%d]" % size
    assert max(len(x) - len(x.lstrip(" ")) for x in lines) >= 2 * depth
    assert lines[-1].lstrip(" ") == "'doc' [%d:%d]" % (size - 4, size - 1)
    code, out, err = run(capsys, "parse", grammar_path("xml-lite.peg"),
                         str(inp), "--json")
    assert code == 0 and "Traceback" not in err
    g, cert = certified("xml-lite.peg")
    doc = tree_to_json(parse(g, cert, data).value, data)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(20000)
    try:
        want = json.dumps(doc)
    finally:
        sys.setrecursionlimit(limit)
    assert out == want + "\n"


def test_parse_reject_reports_position(capsys, tmp_path):
    inp = tmp_path / "inp.xml"
    inp.write_bytes(b"<a></b>")
    code, out, err = run(capsys, "parse", grammar_path("xml-lite.peg"),
                         str(inp), "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] is False
    assert doc["farthest"] == 4
    assert "line 1" in err


def test_parse_refuses_uncertified_grammar(capsys, tmp_path):
    path = tmp_path / "leftrec.peg"
    path.write_text(LEFT_RECURSIVE_MATH)
    inp = tmp_path / "inp.txt"
    inp.write_text("1")
    code, _, err = run(capsys, "parse", str(path), str(inp))
    assert code == 3
    assert "not well-formed" in err


def test_parse_prefix_mode(capsys, tmp_path):
    inp = tmp_path / "inp.txt"
    inp.write_bytes(b"<a/>trailing garbage")
    code, out, _ = run(capsys, "parse", grammar_path("xml-lite.peg"),
                       str(inp), "--prefix")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"ok": True, "consumed": 4, "total": 20}
    # without --prefix the same input is a reject
    code, _, _ = run(capsys, "parse", grammar_path("xml-lite.peg"), str(inp))
    assert code == 1


def test_parse_eval_demo_prints_36(capsys, tmp_path):
    inp = tmp_path / "e.txt"
    inp.write_text("(1+2) * (3 * 4)")
    code, out, _ = run(capsys, "parse", grammar_path("math.peg"), str(inp),
                       "--eval")
    assert code == 0
    assert out.strip() == "36"


def test_parse_eval_rejects_other_grammars(capsys, tmp_path):
    inp = tmp_path / "e.txt"
    inp.write_text("1")
    code, _, err = run(capsys, "parse", grammar_path("xml-lite.peg"),
                       str(inp), "--eval")
    assert code == 2
    assert "math grammar" in err


def test_parse_stdin(capsys, monkeypatch):
    stdin = io.TextIOWrapper(io.BytesIO(b"1+2"))
    monkeypatch.setattr("sys.stdin", stdin)
    code, out, _ = run(capsys, "parse", grammar_path("math.peg"), "-",
                       "--json")
    assert code == 0
    validate_tree_schema(json.loads(out))


def test_parse_packrat_mode(capsys, tmp_path):
    inp = tmp_path / "inp.txt"
    inp.write_bytes(b"(1+2) * (3 * 4)")
    code, out, err = run(capsys, "parse", grammar_path("math.peg"), str(inp),
                         "--mode", "packrat", "--json")
    assert code == 0
    assert "memo" in err


def test_bench_size_zero_no_crash(capsys):
    code, out, _ = run(capsys, "bench", grammar_path("xml-lite.peg"),
                       "--gen", "xmark-lite", "--sizes", "0", "--reps", "1",
                       "--json")
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["bytes"] == 0
    assert rows[0]["ok"] is False


def test_bench_corpus_dir_and_ratios(capsys, tmp_path):
    from trx.bench import xmark_lite

    (tmp_path / "a.xml").write_bytes(xmark_lite(2000, seed=1))
    (tmp_path / "b.xml").write_bytes(xmark_lite(4000, seed=2))
    code, out, _ = run(capsys, "bench", grammar_path("xml-lite.peg"),
                       "--gen", str(tmp_path), "--reps", "2", "--json")
    assert code == 0
    rows = json.loads(out)
    assert [r["label"] for r in rows] == ["a.xml", "b.xml"]
    assert all(r["ok"] for r in rows)
    assert "ratioToPrevious" in rows[1]


def test_bench_packrat_reports_memo(capsys, tmp_path):
    # Nested expressions re-enter math.peg's rules, so the memo hits;
    # no xml-lite rule is ever called twice at one position, so packrat
    # memoises nothing there.
    for depth in (2, 4, 6):
        (tmp_path / ("d%d.txt" % depth)).write_bytes(
            b"(" * depth + b"1 + 2*3" + b")" * depth + b" * 4")
    code, out, _ = run(capsys, "bench", grammar_path("math.peg"),
                       "--gen", str(tmp_path), "--reps", "1",
                       "--mode", "packrat", "--json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 3 and all(r["ok"] for r in rows)
    assert all(r["memo"]["entries"] > 0 and r["memo"]["hits"] > 0
               for r in rows)

    code, out, _ = run(capsys, "bench", grammar_path("xml-lite.peg"),
                       "--gen", "xmark-lite", "--sizes", "4K", "--reps", "1",
                       "--mode", "packrat", "--json")
    assert code == 0
    memo = json.loads(out)[0]["memo"]
    assert memo["entries"] == memo["hits"] == 0


def test_parse_and_bench_default_to_packrat(capsys, monkeypatch, tmp_path):
    import trx.bench
    import trx.cli

    seen = []
    real_tree, real_parse = trx.cli.parse_to_tree, trx.bench.parse

    def spy_tree(g, cert, data, mode="plain", memo=None):
        seen.append(("parse", mode))
        return real_tree(g, cert, data, mode=mode, memo=memo)

    def spy_parse(g, cert, data, mode="plain", memo=None):
        seen.append(("bench", mode))
        return real_parse(g, cert, data, mode=mode, memo=memo)

    monkeypatch.setattr(trx.cli, "parse_to_tree", spy_tree)
    monkeypatch.setattr(trx.bench, "parse", spy_parse)
    inp = tmp_path / "inp.txt"
    inp.write_bytes(b"(1+2) * (3 * 4)")
    code, _, err = run(capsys, "parse", grammar_path("math.peg"), str(inp))
    assert code == 0 and "memo" in err
    code, _, _ = run(capsys, "bench", grammar_path("math.peg"),
                     "--gen", str(tmp_path), "--reps", "1")
    assert code == 0
    assert seen == [("parse", "packrat"), ("bench", "packrat")]


def test_bench_refuses_uncertified(capsys, tmp_path):
    path = tmp_path / "leftrec.peg"
    path.write_text(LEFT_RECURSIVE_MATH)
    code, _, _ = run(capsys, "bench", str(path), "--sizes", "1K")
    assert code == 3


def test_grammar_too_deep_to_load_exits_2(capsys, tmp_path):
    # Lowering recurses once per parenthesis.
    path = tmp_path / "nested.peg"
    path.write_text("a <- %s'x'%s ;\n" % ("(" * 300, ")" * 300))
    for argv in (("check", str(path)), ("parse", str(path), "-"),
                 ("bench", str(path), "--sizes", "1K")):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == "" and "Traceback" not in err
        assert err.count("\n") == 1 and "too deeply" in err


def test_deep_sequence_grammar_checks_and_parses(capsys, tmp_path):
    # 3 000 items under ! (tree wrapping leaves the inside of ! as it
    # is): the compiler walks the sequence in a loop.
    path = tmp_path / "deep.peg"
    path.write_text("a <- !(%s) 'x' ;\n" % ("[ab] " * 3000))
    data = tmp_path / "x.txt"
    data.write_text("x")
    code, out, err = run(capsys, "check", str(path))
    assert code == 0 and json.loads(out)["wellFormed"] is True
    code, out, err = run(capsys, "parse", str(path), str(data))
    assert code == 0 and "Traceback" not in err


_LETTERS = [chr(97 + i % 26) for i in range(3000)]


@pytest.mark.parametrize("text,data,flags", [
    (" / ".join("'a%d' 'x'" % i for i in range(3000)), b"a2999x", ()),
    ("[%s]" % "".join(_LETTERS), b"z", ()),
    (" / ".join("'%s'" % c for c in _LETTERS), b"z", ()),
    ("~" * 3000 + "'x'", b"x", ()),
    # A lookahead consumes nothing, so it matches a prefix only.
    ("&" * 3000 + "'x'", b"x", ("--prefix",)),
], ids=["choice", "class", "one-byte-choice", "drops", "ands"])
def test_flat_grammar_checks_and_parses(capsys, tmp_path, text, data, flags):
    # 3 000 alternatives, class items or prefixes: no nesting in the
    # text, and the compiler walks the expression with an explicit stack.
    path = tmp_path / "flat.peg"
    path.write_text("a <- %s ;\n" % text)
    inp = tmp_path / "input.txt"
    inp.write_bytes(data)
    code, out, err = run(capsys, "check", str(path))
    assert code == 0 and json.loads(out)["wellFormed"] is True
    outs = []
    for mode in ("plain", "packrat"):
        code, out, err = run(capsys, "parse", str(path), str(inp), "--json",
                             "--mode", mode, *flags)
        assert code == 0
        outs.append(json.loads(out))
    assert outs[0] == outs[1]


def test_bench_malformed_sizes_is_usage_error(capsys):
    for sizes in ("1X", "1K,", "-1K", "inf", "nanK"):
        code, out, err = run(capsys, "bench", grammar_path("xml-lite.peg"),
                             "--sizes", sizes)
        assert code == 2, sizes
        assert out == "" and "--sizes" in err


def test_bench_reps_below_one_is_usage_error(capsys):
    for reps in ("0", "-3", "x", "1.5"):
        code, out, err = run(capsys, "bench", grammar_path("xml-lite.peg"),
                             "--sizes", "1K", "--reps", reps)
        assert code == 2, reps
        assert out == "" and "--reps" in err


def test_run_bench_rejects_reps_below_one():
    g = load_grammar("a <- 'x' ;")
    cert = check_well_formed(g).certificate
    for reps in (0, -3):
        with pytest.raises(ValueError):
            run_bench(g, cert, [("x", b"x")], reps=reps)
    [row] = run_bench(g, cert, [("x", b"x")], reps=2)
    assert row["runs"] == 2 and row["ok"]


def test_usage_error_exit_code(capsys):
    assert main(["parse"]) == 2
    capsys.readouterr()


def test_check_synth200_fast(capsys):
    import time

    t0 = time.perf_counter()
    code, out, _ = run(capsys, "check", grammar_path("synth200.peg"))
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert json.loads(out)["wellFormed"] is True
    assert elapsed < 5.0


def test_selftest_detects_injected_semantics_bug(monkeypatch):
    # A build whose interpreter deviates from the semantics (here: a
    # step-count perturbation) must fail the differential suite.
    import trx.selftest as st
    from trx.interp import ParseOutcome

    real_parse = st.parse

    def broken_parse(g, cert, data, mode="plain", memo=None):
        out = real_parse(g, cert, data, mode=mode, memo=memo)
        if mode == "plain" and out.ok:
            return ParseOutcome(out.ok, out.pos, out.value, out.steps + 1,
                                farthest=out.farthest)
        return out

    monkeypatch.setattr(st, "parse", broken_parse)
    res = st.differential_suite(min_cases=300)
    assert not res.passed


def test_selftest_checks_tree_mode(monkeypatch):
    # A fault only tree-mode programs show (here: a step-count
    # perturbation of packrat parses of tree-wrapped grammars) must fail
    # both the differential and the mode-equivalence suite.
    import trx.selftest as st
    from trx.interp import ParseOutcome

    real_parse = st.parse

    def broken_parse(g, cert, data, mode="plain", memo=None):
        out = real_parse(g, cert, data, mode=mode, memo=memo)
        if g.tree_shaped and mode == "packrat" and out.ok:
            return ParseOutcome(out.ok, out.pos, out.value, out.steps + 1,
                                farthest=out.farthest)
        return out

    monkeypatch.setattr(st, "parse", broken_parse)
    assert not st.differential_suite(min_cases=300).passed
    assert not st.mode_equivalence_suite(n_cases=200).passed


def test_color_env_override(monkeypatch, capsys):
    from trx.cli import _paint

    monkeypatch.setenv("TRX_COLOR", "0")
    assert _paint("x", "31") == "x"
    monkeypatch.setenv("TRX_COLOR", "1")
    assert _paint("x", "31") == "\x1b[31mx\x1b[0m"
