"""trx command line: check / parse / bench / selftest.

Exit codes are stable: 0 success, 1 reject or not-well-formed verdict,
2 usage and I/O problems (including grammar syntax errors, which leave
no verdict to report, and a grammar nested too deeply to load), 3
refusal to parse with an uncertified grammar.

Tree JSON schema: nodes are {"rule", "start", "end", "children"},
leaves {"text", "start", "end"}; offsets are byte offsets into the
input.

Check report schema: {"grammar": path, "wellFormed": bool,
"expressionCount": int, "wellFormedCount": int, "iterations": int,
"simplifiedAnalysis": bool, "offenders": [{"production", "expression",
"reason", "line", "column"}]} where reason is one of
LeftRecursionSuspected / NullableStar / DependsOnIllFormed.

TRX_COLOR=0|1 forces diagnostics coloring off or on.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .analysis import check_well_formed
from .bench import parse_size, run_bench, xmark_lite
from .exprs import GrammarError
from .interp import MemoTable, memo_stats, parse_to_tree
from .mathdemo import evaluate, math_grammar
from .meta import PegSyntaxError, line_col, load_grammar_source
from .selftest import run_selftest
from .values import tree_json_text

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_USAGE = 2
EXIT_REFUSED = 3


def _color_enabled() -> bool:
    env = os.environ.get("TRX_COLOR")
    if env == "0":
        return False
    if env == "1":
        return True
    return sys.stderr.isatty()


def _paint(text: str, code: str) -> str:
    if _color_enabled():
        return "\x1b[%sm%s\x1b[0m" % (code, text)
    return text


def _err(msg: str):
    print(_paint(msg, "31"), file=sys.stderr)


def _load_source(path: str):
    try:
        with open(path, "rb") as fh:
            text = fh.read()
    except OSError as exc:
        _err("cannot read %s: %s" % (path, exc))
        return None
    try:
        return load_grammar_source(text, path=path)
    except PegSyntaxError as exc:
        _err(str(exc))
        return None
    except GrammarError as exc:
        _err("%s: %s" % (path, exc))
        return None


def _read_input(spec: str) -> bytes | None:
    if spec == "-":
        return sys.stdin.buffer.read()
    try:
        with open(spec, "rb") as fh:
            return fh.read()
    except OSError as exc:
        _err("cannot read %s: %s" % (spec, exc))
        return None


def cmd_check(args) -> int:
    src = _load_source(args.grammar)
    if src is None:
        return EXIT_USAGE
    report = check_well_formed(src.grammar, simplified=args.simplified)
    doc = report.to_json()
    doc["grammar"] = args.grammar
    for off in doc["offenders"]:
        pos = src.rule_positions.get(off["production"])
        if pos:
            off["line"], off["column"] = pos
    print(json.dumps(doc, indent=2))
    if report.is_well_formed:
        print(_paint("well-formed", "32"), file=sys.stderr)
        return EXIT_OK
    _err("not well-formed; %d offender(s)" % len(report.offenders))
    return EXIT_REJECT


def cmd_parse(args) -> int:
    src = _load_source(args.grammar)
    if src is None:
        return EXIT_USAGE
    data = _read_input(args.input)
    if data is None:
        return EXIT_USAGE

    if args.eval:
        expected = {"ws", "number", "term", "factor", "expr"}
        if set(src.grammar.nonterminals) != expected:
            _err("--eval is the arithmetic demo; it needs the math grammar "
                 "(rules ws/number/term/factor/expr)")
            return EXIT_USAGE
        math_grammar()  # build and certify the embedded demo grammar
        value = evaluate(data)
        if value is None:
            _err("input rejected by the arithmetic grammar")
            return EXIT_REJECT
        print(value)
        return EXIT_OK

    report = check_well_formed(src.grammar)
    if not report.is_well_formed:
        _err("refusing to parse: grammar is not well-formed")
        for off in report.offenders[:10]:
            _err("  " + off.describe())
        return EXIT_REFUSED

    memo = MemoTable()
    out = parse_to_tree(src.grammar, report.certificate, data,
                        mode=args.mode, memo=memo)
    matched = out.ok and (args.prefix or out.pos == len(data))
    if not matched:
        pos = out.farthest if not out.ok else out.pos
        line, col = line_col(data, max(pos, 0))
        if args.json:
            print(json.dumps({"ok": False, "farthest": pos,
                              "line": line, "column": col}))
        _err("parse failed at byte %d (line %d, column %d)"
             % (max(pos, 0), line, col))
        return EXIT_REJECT

    if args.prefix:
        print(json.dumps({"ok": True, "consumed": out.pos,
                          "total": len(data)}))
        return EXIT_OK
    if args.json:
        print(tree_json_text(out.value, data))
    else:
        _print_tree(out.value, data)
    if args.mode == "packrat":
        print("memo: %r" % (memo_stats(memo),), file=sys.stderr)
    return EXIT_OK


def _print_tree(root, data: bytes):
    # Depth first with an explicit stack over the nodes themselves, as
    # values.tree_json_text walks them, so trees of any depth print.
    text = data.decode("ascii") if data.isascii() else None
    todo = [(root, 0)]
    while todo:
        node, indent = todo.pop()
        pad = "  " * indent
        start, end = node.start, node.end
        if node.rule:
            print("%s%s [%d:%d]" % (pad, node.rule, start, end))
            todo.extend([(child, indent + 1)
                         for child in reversed(node.children)])
        else:
            leaf = (text[start:end] if text is not None else
                    data[start:end].decode("utf-8", "replace"))
            print("%s%r [%d:%d]" % (pad, leaf, start, end))


def cmd_bench(args) -> int:
    src = _load_source(args.grammar)
    if src is None:
        return EXIT_USAGE
    report = check_well_formed(src.grammar)
    if not report.is_well_formed:
        _err("refusing to bench: grammar is not well-formed")
        return EXIT_REFUSED

    corpora = []
    if args.gen == "xmark-lite":
        for label, size in args.sizes:
            corpora.append((label, xmark_lite(size, seed=args.seed)))
    else:
        if not os.path.isdir(args.gen):
            _err("--gen must be 'xmark-lite' or a corpus directory")
            return EXIT_USAGE
        for name in sorted(os.listdir(args.gen)):
            path = os.path.join(args.gen, name)
            if os.path.isfile(path):
                with open(path, "rb") as fh:
                    corpora.append((name, fh.read()))

    rows = run_bench(src.grammar, report.certificate, corpora,
                     mode=args.mode, reps=args.reps)
    if args.json:
        print(json.dumps(rows, indent=2))
    else:
        print("%-10s %12s %12s %10s %8s" % ("corpus", "bytes", "median(s)",
                                            "MB/s", "ratio"))
        for row in rows:
            print("%-10s %12d %12.4f %10.3f %8s" % (
                row["label"], row["bytes"], row["medianSeconds"],
                row["mbPerSecond"] or 0.0,
                "%.2f" % row["ratioToPrevious"]
                if "ratioToPrevious" in row else "-"))
            if "memo" in row:
                print("   memo: %r" % (row["memo"],))
    return EXIT_OK


def _sizes(text: str) -> list:
    """``--sizes``: comma-separated byte counts with an optional K or M."""
    out = []
    for spec in text.split(","):
        try:
            size = parse_size(spec)
        except (ValueError, OverflowError):
            size = -1
        if size < 0:
            raise argparse.ArgumentTypeError("bad size %r" % spec.strip())
        out.append((spec.strip(), size))
    return out


def _reps(text: str) -> int:
    """``--reps``: a whole number of parses, at least 1."""
    try:
        reps = int(text)
    except ValueError:
        reps = 0
    if reps < 1:
        raise argparse.ArgumentTypeError("bad count %r: at least 1" % text)
    return reps


def cmd_selftest(args) -> int:
    results = run_selftest(seed=args.seed, budget=args.budget)
    ok = True
    for res in results:
        print(res.line())
        for failure in res.failures:
            _err("  counterexample: %r" % (failure,))
        ok = ok and res.passed
    print("selftest: %s" % ("PASS" if ok else "FAIL"))
    return EXIT_OK if ok else EXIT_REJECT


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="trx",
        description="PEG engine: verify grammar well-formedness, parse "
                    "with exact operational-semantics step counts.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="verify a grammar's well-formedness")
    p.add_argument("grammar")
    p.add_argument("--simplified", action="store_true",
                   help="use the coarser one-flag analysis")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("parse", help="parse input with a certified grammar")
    p.add_argument("grammar")
    p.add_argument("input", help="input file, or - for stdin")
    p.add_argument("--mode", choices=("plain", "packrat"), default="packrat",
                   help="packrat (the default) memoises the rules the "
                        "parse re-enters; plain memoises nothing and can "
                        "take exponential time; both give the same "
                        "outcome")
    p.add_argument("--json", action="store_true")
    p.add_argument("--prefix", action="store_true",
                   help="accept a prefix match instead of the whole input")
    p.add_argument("--eval", action="store_true",
                   help="arithmetic demo: evaluate input with the embedded "
                        "math grammar's actions")
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("bench", help="timing harness over generated corpora")
    p.add_argument("grammar")
    p.add_argument("--gen", default="xmark-lite",
                   help="'xmark-lite' or a directory of corpus files")
    p.add_argument("--sizes", type=_sizes, default="1M,2M,4M")
    p.add_argument("--mode", choices=("plain", "packrat"), default="packrat",
                   help="interpretation mode (default packrat)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reps", type=_reps, default=5)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("selftest",
                       help="oracle differential and property suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=float, default=60.0,
                   help="approximate time budget in seconds")
    p.set_defaults(fn=cmd_selftest)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except RecursionError:
        if not hasattr(args, "grammar"):
            raise
        # Only loading recurses: lowering a parse tree to expressions
        # takes a few calls per parenthesis level.
        _err("%s: grammar nested too deeply to process (Python recursion "
             "limit)" % args.grammar)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
